"""Random sketch ensembles and their application.

A sketch is a random m x n matrix S normalized so that
``E[S^T S / m] = I_n``. Four ensembles are supported:

* ``gaussian`` - i.i.d. N(0,1) entries;
* ``rademacher`` - i.i.d. +-1 entries;
* ``ros`` - randomized orthonormal system, rows sqrt(n_pad) e_j^T H D
  with H the orthonormal Hadamard matrix, D a random sign diagonal and
  j sampled uniformly with replacement (input rows are zero-padded to
  the next power of two). ``apply`` computes only the m sampled rows of
  the transform and never transforms the zero padding
  (:func:`~ihskit.linalg.hadamard_rows`): H is split into an outer
  Hadamard factor and two or more inner ones (32 x 16 x 8 at
  n_pad = 4096), the inner ones run on the blocks of A that hold data,
  the first of them with D and the scale sqrt(n_pad) folded in, and the
  outer one only for the sampled rows. It transforms A a panel of
  columns at a time, a multiple of 8 columns of at most 1 MiB once
  padded, so its working memory beside ``S A`` does not grow with A's
  column count, where a transform of all columns at once held two
  padded copies of A; ``materialize`` transforms the m sampled unit
  columns, an n_pad x m array, as H is symmetric;
* ``rowsample_uniform`` / ``rowsample_leverage`` - rows e_j / sqrt(p_j)
  sampled with replacement from a probability vector p.

:func:`build_sketch` realizes the operator, which for the two dense
kinds holds all of the m x n matrix. A caller that needs only the Gram
of ``S A`` calls :func:`sketch_gram`, which draws a dense sketch in
panels of ``PANEL_ROWS`` rows, never holds more than one panel of it,
and never holds ``S A`` either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import DimensionError, MissingHintError, RankDeficiencyError
from .linalg import (ensure_matrix, ensure_vector, fwht_normalized, hadamard_rows, thin_svd,
                     top_eigenvalue)
from .seeding import derive_rng

KINDS = ("gaussian", "rademacher", "ros", "rowsample_uniform", "rowsample_leverage")

# Kinds whose entries are i.i.d. draws, so that sketch_gram can draw
# them a panel of rows at a time.
PANEL_KINDS = ("gaussian", "rademacher")

# Rows of a dense sketch drawn and multiplied at a time, 512 KiB of
# panel at n = 2048. It must be a multiple of 32, so that a Rademacher
# panel takes whole 32-bit words of its stream (see _draw_rows). The
# draw dominates, so the panel only has to keep the products from
# getting too short: on perfbench's ls_gaussian shape (2048 x 48,
# m = 288; one BLAS thread, 150 interleaved repeats on 2 shared cores,
# Philox streams) a Gaussian draw and product took a median 15.0 ms with
# the whole sketch, 15.4 ms in panels of 16 rows, 14.9 ms of 32 and
# 14.8 ms of 64. sketch_gram reduces the panels' products in blocks of
# at least d rows, not one panel at a time: at 4096 x 512, m = 3072 (one
# BLAS thread, medians of 4) a Gaussian draw and reduction took 0.85 s
# with a Gram product per 32-row panel, 0.70 s in blocks of 512 rows and
# 0.72 s through the whole S A.
PANEL_ROWS = 32


@dataclass(frozen=True)
class SketchSpec:
    """Declarative description of a sketch draw.

    ``stream`` extends the seed with extra stream-id components so that
    e.g. iteration rounds draw independent, reproducible operators.
    """

    kind: str
    m: int
    seed: int
    stream: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.m, Integral):
            raise ValueError(f"sketch dimension m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"sketch dimension m must be >= 1, got {self.m}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"sketch seed must be a non-negative integer, got {self.seed!r}")

    def for_round(self, t: int) -> "SketchSpec":
        """Spec for round ``t``, an independent stream of the same seed."""
        return replace(self, stream=self.stream + (t,))


@dataclass
class SketchOperator:
    """A realized m x n sketch S."""

    kind: str
    n: int                 # source dimension
    m: int                 # projection dimension
    matrix: Optional[np.ndarray] = None          # explicit kinds: m x n
    signs: Optional[np.ndarray] = None           # ros: +-1 vector of length n_pad
    indices: Optional[np.ndarray] = None         # ros / rowsample: m sampled indices
    probs: Optional[np.ndarray] = None           # rowsample: sampling probabilities
    oversampled: bool = False                    # warning flag: m > n

    @property
    def n_pad(self) -> int:
        """Rows of the ROS transform: n rounded up to a power of two."""
        return 1 << max(self.n - 1, 0).bit_length() if self.n > 1 else 1

    def apply(self, a) -> np.ndarray:
        """Return ``S A`` for a matrix with ``self.n`` rows."""
        return self._apply(ensure_matrix(a, "A"))

    def _apply(self, am: np.ndarray) -> np.ndarray:
        """``S A`` for an A that :func:`~ihskit.linalg.ensure_matrix` has
        already checked; only its row count is checked here."""
        if am.shape[0] != self.n:
            raise DimensionError(f"operator expects {self.n} rows, got {am.shape[0]}")
        if self.matrix is not None:
            return self.matrix @ am
        if self.kind == "ros":
            # sqrt(n_pad) rides on D, where hadamard_rows folds it into the
            # first product; at n_pad = 4^k it is a power of two and exact
            return hadamard_rows(am, self.indices, np.sqrt(self.n_pad) * self.signs)
        # row sampling
        scale = 1.0 / np.sqrt(self.probs[self.indices])
        return scale[:, None] * am[self.indices, :]

    def materialize(self) -> np.ndarray:
        """The operator as an explicit dense m x n matrix."""
        if self.matrix is not None:
            return self.matrix
        if self.kind == "ros":
            # H is symmetric, so row i of H D is (H e_i)^T D: transform
            # the m sampled unit columns, not all n_pad of them
            units = np.zeros((self.n_pad, self.m))
            units[self.indices, np.arange(self.m)] = 1.0
            return np.sqrt(self.n_pad) * (fwht_normalized(units)[: self.n].T * self.signs[: self.n])
        s = np.zeros((self.m, self.n))
        s[np.arange(self.m), self.indices] = 1.0 / np.sqrt(self.probs[self.indices])
        return s


def explicit_sketch(matrix) -> SketchOperator:
    """Wrap an explicit matrix as a sketch operator (testing hook)."""
    m = ensure_matrix(matrix, "S")
    return SketchOperator(kind="gaussian", n=m.shape[1], m=m.shape[0], matrix=m,
                          oversampled=m.shape[0] > m.shape[1])


def identity_sketch(n: int) -> SketchOperator:
    """The m = n override S = sqrt(n) I.

    ``S^T S / m = I`` holds exactly, so sketched solvers coincide with
    their unsketched counterparts.
    """
    return explicit_sketch(np.sqrt(n) * np.eye(n))


def _draw_rows(rng: np.random.Generator, kind: str, out: np.ndarray) -> None:
    """Fill ``out`` with the next rows of a dense sketch of ``kind`` from
    ``rng``: N(0,1) entries for ``gaussian``, and for ``rademacher`` +-1
    entries ``2b - 1``, one raw bit b of the stream each, in C order.

    ``Generator.bytes`` draws whole 32-bit words and drops the unused
    bytes of the last one, so a fill of N entries takes ``ceil(N / 32)``
    words. A panel of ``PANEL_ROWS`` rows, a multiple of 32, takes whole
    words at any n, so drawing a sketch a panel at a time consumes the
    stream exactly as one fill of all its rows does."""
    if kind == "gaussian":
        rng.standard_normal(out=out)
    else:
        raw = np.frombuffer(rng.bytes(-(-out.size // 8)), dtype=np.uint8)
        np.multiply(np.unpackbits(raw, count=out.size).reshape(out.shape), 2.0, out=out)
        out -= 1.0


def build_sketch(spec: SketchSpec, n: int, leverage_p=None) -> SketchOperator:
    """Draw the operator described by ``spec`` for sources of dimension ``n``.

    Deterministic given ``(spec, n)``. ``m > n`` is permitted but
    flagged via ``oversampled``.
    """
    if n < 1:
        raise ValueError(f"source dimension n must be >= 1, got {n}")
    rng = derive_rng(spec.seed, *spec.stream)
    op = SketchOperator(kind=spec.kind, n=n, m=spec.m, oversampled=spec.m > n)
    if spec.kind in PANEL_KINDS:
        op.matrix = np.empty((spec.m, n))
        _draw_rows(rng, spec.kind, op.matrix)
    elif spec.kind == "ros":
        op.signs = np.empty(op.n_pad)
        _draw_rows(rng, "rademacher", op.signs)
        op.indices = rng.integers(0, op.n_pad, size=spec.m)
    elif spec.kind == "rowsample_uniform":
        op.probs = np.full(n, 1.0 / n)
        op.indices = rng.integers(0, n, size=spec.m)
    else:  # rowsample_leverage
        if leverage_p is None:
            raise MissingHintError("rowsample_leverage requires a leverage probability vector")
        p = ensure_vector(leverage_p, "leverage_p")
        if p.shape[0] != n:
            raise DimensionError(f"leverage_p has length {p.shape[0]}, expected {n}")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("leverage_p must be nonnegative and sum to 1 within 1e-10")
        op.probs = p
        op.indices = rng.choice(n, size=spec.m, replace=True, p=p)
    return op


def _panels(spec: SketchSpec, n: int):
    """Yield ``(i, panel)``: rows i, i+1, ... of the dense sketch that
    ``build_sketch(spec, n)`` draws, ``PANEL_ROWS`` at a time, drawn from
    the spec's stream into one reused buffer, the same numbers in the same
    order. A panel is overwritten by the next one."""
    if n < 1:
        raise ValueError(f"source dimension n must be >= 1, got {n}")
    rng = derive_rng(spec.seed, *spec.stream)
    buf = np.empty((min(PANEL_ROWS, spec.m), n))
    for i in range(0, spec.m, PANEL_ROWS):
        panel = buf[: min(PANEL_ROWS, spec.m - i)]
        _draw_rows(rng, spec.kind, panel)
        yield i, panel


def _row_blocks(sketch, a: np.ndarray, leverage_p, y: Optional[np.ndarray]):
    """``S A``, or ``S [A | y]`` given y, in blocks of consecutive rows, for
    :func:`sketch_gram`. A and y are sketched apart, by the same draws, and
    never stacked. A block may be overwritten by the next one."""
    d = a.shape[1]
    y = None if y is None else y.reshape(a.shape[0], -1)
    if isinstance(sketch, SketchOperator):
        apply = sketch.apply
    elif sketch.kind not in PANEL_KINDS:
        apply = build_sketch(sketch, a.shape[0], leverage_p=leverage_p)._apply
    else:
        apply = None
    if apply is not None:
        yield apply(a) if y is None else np.hstack((apply(a), apply(y)))
        return
    m = sketch.m
    width = d if y is None else d + y.shape[1]
    rows = min(m, PANEL_ROWS * math.ceil(max(PANEL_ROWS, width) / PANEL_ROWS))
    block = np.empty((rows, width))
    for i, panel in _panels(sketch, a.shape[0]):
        j = i % rows                # a block is whole panels, or all m rows
        end = j + panel.shape[0]
        np.matmul(panel, a, out=block[j:end, :d])
        if y is not None:
            np.matmul(panel, y, out=block[j:end, d:])
        if end == rows or i + panel.shape[0] == m:
            yield block[:end]


def sketch_gram(sketch, a: np.ndarray, n: int, w: Optional[np.ndarray] = None,
                leverage_p=None, y: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(G, H)`` with ``G = (S A)^T (S A) / (n m)`` and, given ``w``, the
    restricted Gram ``H = (S A W)^T (S A W) / m``; H is None without w.
    Given a response ``y`` (n, or n x k), G is the Gram of ``S [A | y]``
    instead, y's columns after A's, while H stays that of ``S A W``.

    ``sketch`` is a realized :class:`SketchOperator`, which is applied, or
    a :class:`SketchSpec`, drawn as ``build_sketch(sketch, rows of A,
    leverage_p)`` draws it. ``n`` is the row count of the objective's
    ``1/2n`` scaling, which on a block problem exceeds the rows of A.

    A Gaussian or Rademacher spec is drawn in panels of ``PANEL_ROWS``
    rows, the same numbers as ``build_sketch`` draws, whose products
    with A (and with y) fill a block of R rows: ``max(PANEL_ROWS, columns
    of G)`` rounded up to whole panels, or all m rows if fewer. Each full
    block is added into G by one symmetric rank-R product, and into H
    through ``block @ W``. Neither ``S A`` nor ``[A | y]`` is formed: the
    block holds at most m x (d + k). Any other sketch forms ``S A``
    (and ``S y``) and reduces it once, its only block. The sums of block
    Grams differ from the Gram of the whole ``S A`` in the last bits.

    ``a`` is trusted to be a float64 C-order matrix that
    :func:`~ihskit.linalg.ensure_matrix` has checked.
    """
    m, d = sketch.m, a.shape[1]
    g = h = None
    for block in _row_blocks(sketch, a, leverage_p, y):
        if w is not None:
            # from S A W rather than from G: its error then grows as
            # eps cond(A), not eps cond(A)^2
            h = _add_gram(h, block[:, :d] @ w)
        block /= math.sqrt(n * m)
        g = _add_gram(g, block)
    if h is not None:
        h /= m
    return g, h


def _add_gram(acc: Optional[np.ndarray], b: np.ndarray) -> np.ndarray:
    """``acc + b^T b``, in place once ``acc`` exists. The first Gram is not
    allocated before its block is drawn, so that it does not sit beside
    the transients of an apply."""
    gram = b.T @ b
    if acc is None:
        return gram
    acc += gram
    return acc


def leverage_scores(a) -> np.ndarray:
    """Statistical leverage sampling weights ``p_j = ||u_j||^2 / d``.

    ``u_j`` is the j-th row of the left singular factor. Requires A to
    have full column rank (singular values above ``1e-10 sigma_max``).
    """
    am = ensure_matrix(a, "A")
    u, s, _ = thin_svd(am, check_finite=False)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    if rank < am.shape[1]:
        raise RankDeficiencyError(
            f"A is rank deficient (rank {rank} < {am.shape[1]}); leverage scores undefined"
        )
    return np.einsum("ij,ij->i", u, u) / am.shape[1]


def alpha_balance(p) -> float:
    """Balance factor ``alpha = n * max_j p_j`` of a probability vector."""
    pv = ensure_vector(p, "p")
    if np.any(pv < 0) or abs(pv.sum() - 1.0) > 1e-8:
        raise ValueError("p must be a probability vector")
    return float(pv.shape[0] * pv.max())


def verify_projection_condition(
    spec: SketchSpec, n: int, trials: int, leverage_p=None, return_details: bool = False
):
    """Monte Carlo estimate of the projection-condition constant.

    Draws ``trials`` independent operators, sums the orthogonal
    projectors ``S^T (S S^T)^- S`` and returns ``eta_hat = (n/m)
    lambda_max(sum) / trials``. A draw with an eigenvalue of ``S S^T`` at
    or below ``lambda_max m eps`` (e.g. duplicated sample rows) is
    singular: it is pseudo-inverted, dropping those eigenvalues, and
    counted, not rejected. Each projector ``B B^T``, ``B = S^T V W^{-1/2}``
    over the kept eigenpairs ``(W, V)`` of ``S S^T``, is added by one
    symmetric rank-k update (BLAS ``syrk``) into the lower triangle of the
    sum, the one n x n array held across trials, which
    :func:`~ihskit.linalg.top_eigenvalue` then overwrites in place, with
    no copy of it. The sum is not
    compensated: its rounding sits orders of magnitude below the sampling
    error.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.m > n:
        raise DimensionError(f"projection condition requires m <= n, got m={spec.m} > n={n}")
    acc = np.zeros((n, n), order="F")     # F order: syrk updates it in place
    n_singular = 0
    for t in range(trials):
        s = build_sketch(spec.for_round(t), n, leverage_p=leverage_p).materialize()
        w, v = np.linalg.eigh(s @ s.T)
        keep = w > w[-1] * spec.m * np.finfo(float).eps     # w[-1] > 0, as S != 0
        n_singular += not np.all(keep)
        b = s.T @ (v[:, keep] / np.sqrt(w[keep]))
        acc = scipy.linalg.blas.dsyrk(1.0, b.T, beta=1.0, c=acc, trans=1, lower=1, overwrite_c=1)
    eta = (n / spec.m) * top_eigenvalue(acc, overwrite_g=True) / trials
    if return_details:
        return eta, {"trials": trials, "singular_draws": n_singular}
    return eta
