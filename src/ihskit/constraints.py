"""Constraint sets and exact Euclidean projections.

Matrix variables (nuclear-norm balls) are flattened column-major, so
the vector solvers apply unchanged. The l1-ball and simplex projections
are the exact O(n log n) sort-and-threshold algorithm, which computes
one threshold for both (:func:`_l1_threshold`); ties are broken by
index order, which does not affect the (unique) projection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from typing import Union

import numpy as np

from .errors import DimensionError
from .linalg import ensure_vector, thin_svd


@dataclass(frozen=True)
class Unconstrained:
    pass


@dataclass(frozen=True)
class L1Ball:
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"l1-ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class NuclearBall:
    radius: float
    d1: int
    d2: int

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"nuclear-ball radius must be positive, got {self.radius}")
        if not (isinstance(self.d1, Integral) and isinstance(self.d2, Integral)):
            raise ValueError(f"matrix dimensions must be integers, got {self.d1!r}x{self.d2!r}")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.d1}x{self.d2}")


@dataclass(frozen=True)
class Simplex:
    pass


class Box:
    """Coordinatewise interval constraints ``lo <= x <= hi``.

    Bounds may be scalars (applied to every coordinate) or vectors.
    """

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
        if self.lo.shape != self.hi.shape:
            raise DimensionError("box bounds must have matching shapes")
        if self.lo.ndim > 1:    # bounds broadcast as they are: 2-D ones give a 2-D projection
            raise DimensionError("box bounds must be scalars or vectors")
        if not np.all(self.lo <= self.hi):   # a NaN bound compares false too
            raise ValueError("box requires lo <= hi coordinatewise")

    def __eq__(self, other):
        return (isinstance(other, Box) and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __repr__(self):
        return f"Box(lo={self.lo!r}, hi={self.hi!r})"

    def bounds_for(self, dim: int):
        if self.lo.size not in (1, dim):
            raise DimensionError(f"box bounds have size {self.lo.size}, vector has {dim}")
        return self.lo, self.hi


ConstraintSet = Union[Unconstrained, L1Ball, NuclearBall, Simplex, Box]


def _l1_threshold(u: np.ndarray, radius: float) -> float:
    """The shrinkage level theta of the projection onto ``{sum(z) = radius,
    z >= 0}``, from the values ``u`` sorted nonincreasing: the projection
    of u is ``max(u - theta, 0)``.

    With u the magnitudes of a vector whose l1 norm exceeds the radius,
    theta is positive and shrinks the vector onto the l1 ball. With u a
    vector itself and radius 1, it is the simplex projection's threshold,
    negative when the entries sum below 1 (Duchi, Shalev-Shwartz, Singer
    & Chandra, ICML 2008)."""
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    rho = np.nonzero(u > (css - radius) / ks)[0][-1]
    return (css[rho] - radius) / (rho + 1.0)


def _project_l1(x: np.ndarray, radius: float) -> np.ndarray:
    ax = np.abs(x)
    if ax.sum() <= radius:
        return x.copy()
    theta = _l1_threshold(np.sort(ax)[::-1], radius)
    return np.sign(x) * np.maximum(ax - theta, 0.0)


def _check_nuclear_dim(cset: NuclearBall, size: int):
    if size != cset.d1 * cset.d2:
        raise DimensionError(
            f"vector of length {size} does not flatten to a {cset.d1}x{cset.d2} matrix"
        )


def project(cset: ConstraintSet, x) -> np.ndarray:
    """Euclidean projection ``argmin_{z in C} ||z - x||_2``."""
    xv = ensure_vector(x, "x")
    if isinstance(cset, Unconstrained):
        return xv.copy()
    if isinstance(cset, L1Ball):
        return _project_l1(xv, cset.radius)
    if isinstance(cset, Simplex):
        return np.maximum(xv - _l1_threshold(np.sort(xv)[::-1], 1.0), 0.0)
    if isinstance(cset, Box):
        lo, hi = cset.bounds_for(xv.size)
        return np.clip(xv, lo, hi)
    if isinstance(cset, NuclearBall):
        _check_nuclear_dim(cset, xv.size)
        # xv is checked: the SVD takes its column-major view as it is
        u, s, vt = thin_svd(xv.reshape((cset.d1, cset.d2), order="F"), check_finite=False)
        # s is nonnegative and nonincreasing already: its l1 projection
        # needs no abs or sort, and makes the same comparisons without them
        if s.sum() > cset.radius:
            s = np.maximum(s - _l1_threshold(s, cset.radius), 0.0)
        return ((u * s) @ vt).ravel(order="F")
    raise TypeError(f"unknown constraint set {cset!r}")


def contains(cset: ConstraintSet, x, tol: float = 0.0) -> bool:
    """Whether ``x`` satisfies the constraint up to additive slack ``tol``."""
    xv = ensure_vector(x, "x")
    if isinstance(cset, Unconstrained):
        return True
    if isinstance(cset, L1Ball):
        return float(np.abs(xv).sum()) <= cset.radius + tol
    if isinstance(cset, Simplex):
        return bool(np.all(xv >= -tol) and abs(xv.sum() - 1.0) <= tol)
    if isinstance(cset, Box):
        lo, hi = cset.bounds_for(xv.size)
        return bool(np.all(xv >= lo - tol) and np.all(xv <= hi + tol))
    if isinstance(cset, NuclearBall):
        _check_nuclear_dim(cset, xv.size)
        s = thin_svd(xv.reshape((cset.d1, cset.d2), order="F"), check_finite=False).singular_values
        return float(s.sum()) <= cset.radius + tol
    raise TypeError(f"unknown constraint set {cset!r}")


def ambient_dim(cset: ConstraintSet):
    """Dimension the set pins down, or None when any dimension fits."""
    if isinstance(cset, NuclearBall):
        return cset.d1 * cset.d2
    if isinstance(cset, Box) and cset.lo.size > 1:
        return cset.lo.size
    return None


def _field(obj: dict, kind: str, key: str, cast):
    """``cast(obj[key])``; a missing, null or unconvertible field, or a
    fractional one cast to ``int``, is a ``ValueError`` naming it."""
    if obj.get(key) is None:
        raise ValueError(f"{kind} constraint descriptor needs {key!r}")
    val = obj[key]
    try:
        out = cast(val)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"{kind} constraint descriptor: {key!r} must be numeric, "
                         f"got {val!r}") from exc
    if cast is int and isinstance(val, float) and out != val:  # int() would truncate
        raise ValueError(f"{kind} constraint descriptor: {key!r} must be an integer, got {val!r}")
    return out


def constraint_from_json(text: str) -> ConstraintSet:
    """Parse the serialized descriptor used by the CLI.

    Format: ``{"type": "...", ...}`` with types ``unconstrained``,
    ``l1`` (radius), ``nuclear`` (radius, d1, d2), ``simplex`` and
    ``box`` (lo, hi as scalars or lists; default -1 and 1). Each type
    has that one spelling, lowercase; any other is an unknown type.
    Every malformed descriptor raises ``ValueError``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"constraint descriptor is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("constraint descriptor must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "unconstrained":
        return Unconstrained()
    if kind == "l1":
        return L1Ball(_field(obj, "l1", "radius", float))
    if kind == "nuclear":
        return NuclearBall(*(_field(obj, "nuclear", key, cast)
                             for key, cast in (("radius", float), ("d1", int), ("d2", int))))
    if kind == "simplex":
        return Simplex()
    if kind == "box":
        obj = {"lo": -1.0, "hi": 1.0, **obj}
        return Box(*(_field(obj, "box", key, lambda v: np.asarray(v, dtype=np.float64))
                     for key in ("lo", "hi")))
    raise ValueError(f"unknown constraint type {kind!r}")

