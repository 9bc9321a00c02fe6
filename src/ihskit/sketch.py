"""Random sketch ensembles and their application.

A sketch is a random m x n matrix S normalized so that
``E[S^T S / m] = I_n``. Four ensembles are supported:

* ``gaussian`` - i.i.d. N(0,1) entries;
* ``rademacher`` - i.i.d. +-1 entries;
* ``ros`` - randomized orthonormal system, rows sqrt(n_pad) e_j^T H D
  with H the orthonormal Hadamard matrix, D a random sign diagonal and
  j sampled uniformly with replacement (input rows are zero-padded to
  the next power of two);
* ``rowsample_uniform`` / ``rowsample_leverage`` - rows e_j / sqrt(p_j)
  sampled with replacement from a probability vector p.

Operators may carry ``blocks`` > 1 diagonal copies of a single base
sketch, i.e. ``I_blocks (x) S``. This is how a multiple-response
least-squares problem stacked column-major is sketched: every response
column sees the same base sketch, and the normalization stays the
per-block m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import DimensionError, MissingHintError, RankDeficiencyError
from .linalg import ensure_matrix, ensure_vector, fwht_normalized, thin_svd
from .seeding import derive_rng

KINDS = ("gaussian", "rademacher", "ros", "rowsample_uniform", "rowsample_leverage")


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

    def for_round(self, t: int) -> "SketchSpec":
        """Spec for round ``t``, an independent stream of the same seed."""
        return replace(self, stream=self.stream + (t,))


@dataclass
class SketchOperator:
    """A realized sketch: ``I_blocks (x) S_base`` with S_base m x n_base."""

    kind: str
    n: int                 # source dimension (blocks * n_base)
    m: int                 # per-block projection dimension
    blocks: int = 1
    matrix: Optional[np.ndarray] = None          # explicit kinds: m x n_base
    signs: Optional[np.ndarray] = None           # ros: +-1 vector of length n_pad
    indices: Optional[np.ndarray] = None         # ros / rowsample: m sampled indices
    probs: Optional[np.ndarray] = None           # rowsample: sampling probabilities
    oversampled: bool = False                    # warning flag: m > n_base

    @property
    def n_base(self) -> int:
        return self.n // self.blocks

    @property
    def n_pad(self) -> int:
        nb = self.n_base
        return 1 << max(nb - 1, 0).bit_length() if nb > 1 else 1

    @property
    def out_rows(self) -> int:
        return self.m * self.blocks

    def _apply_base(self, a: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ a
        if self.kind == "ros":
            npad = self.n_pad
            padded = np.zeros((npad, a.shape[1]))
            np.multiply(self.signs[: a.shape[0], None], a, out=padded[: a.shape[0]])
            rows = fwht_normalized(padded)[self.indices, :]
            rows *= np.sqrt(npad)
            return rows
        # row sampling
        scale = 1.0 / np.sqrt(self.probs[self.indices])
        return scale[:, None] * a[self.indices, :]

    def apply(self, a) -> np.ndarray:
        """Return ``S A`` for a matrix with ``self.n`` rows."""
        am = ensure_matrix(a, "A")
        if am.shape[0] != self.n:
            raise DimensionError(f"operator expects {self.n} rows, got {am.shape[0]}")
        if self.blocks == 1:
            return self._apply_base(am)
        nb = self.n_base
        return np.vstack([self._apply_base(am[k * nb:(k + 1) * nb]) for k in range(self.blocks)])

    def apply_vec(self, y) -> np.ndarray:
        """Return ``S y`` for a vector of length ``self.n``."""
        yv = ensure_vector(y, "y")
        return self.apply(yv[:, None])[:, 0]

    def materialize(self) -> np.ndarray:
        """The operator as an explicit dense (m * blocks) x n matrix."""
        if self.matrix is not None:
            base = self.matrix
        elif self.kind == "ros":
            npad = self.n_pad
            hd = fwht_normalized(np.diag(self.signs.astype(np.float64)))
            base = np.sqrt(npad) * hd[self.indices, : self.n_base]
        else:
            base = np.zeros((self.m, self.n_base))
            base[np.arange(self.m), self.indices] = 1.0 / np.sqrt(self.probs[self.indices])
        if self.blocks == 1:
            return base
        return np.kron(np.eye(self.blocks), base)


def explicit_sketch(matrix, blocks: int = 1) -> SketchOperator:
    """Wrap an explicit base matrix as a sketch operator (testing hook)."""
    m = ensure_matrix(matrix, "S")
    return SketchOperator(
        kind="gaussian", n=m.shape[1] * blocks, m=m.shape[0], blocks=blocks,
        matrix=m, oversampled=m.shape[0] > m.shape[1],
    )


def identity_sketch(n: int, scaled: bool = True, blocks: int = 1) -> SketchOperator:
    """The m = n override S = sqrt(n) I (or plain I when ``scaled=False``).

    With scaling, ``S^T S / m = I`` holds exactly, so sketched solvers
    coincide with their unsketched counterparts.
    """
    s = np.sqrt(n) * np.eye(n) if scaled else np.eye(n)
    return explicit_sketch(s, blocks=blocks)


def build_sketch(spec: SketchSpec, n: int, leverage_p=None, blocks: int = 1) -> SketchOperator:
    """Draw the operator described by ``spec`` for sources of dimension ``n``.

    Deterministic given ``(spec, n, blocks)``. ``n`` counts total source
    rows; with ``blocks`` > 1 it must be divisible by ``blocks`` and the
    base sketch acts on ``n // blocks`` rows. ``m > n_base`` is permitted
    but flagged via ``oversampled``.
    """
    if n < 1:
        raise ValueError(f"source dimension n must be >= 1, got {n}")
    if blocks < 1 or n % blocks:
        raise DimensionError(f"n={n} is not divisible into {blocks} blocks")
    nb = n // blocks
    rng = derive_rng(spec.seed, *spec.stream)
    op = SketchOperator(kind=spec.kind, n=n, m=spec.m, blocks=blocks,
                        oversampled=spec.m > nb)
    if spec.kind == "gaussian":
        op.matrix = rng.standard_normal((spec.m, nb))
    elif spec.kind == "rademacher":
        op.matrix = 2.0 * rng.integers(0, 2, size=(spec.m, nb)) - 1.0
    elif spec.kind == "ros":
        npad = 1 << max(nb - 1, 0).bit_length() if nb > 1 else 1
        op.signs = 2.0 * rng.integers(0, 2, size=npad) - 1.0
        op.indices = rng.integers(0, npad, size=spec.m)
    elif spec.kind == "rowsample_uniform":
        op.probs = np.full(nb, 1.0 / nb)
        op.indices = rng.integers(0, nb, size=spec.m)
    else:  # rowsample_leverage
        if leverage_p is None:
            raise MissingHintError("rowsample_leverage requires a leverage probability vector")
        p = ensure_vector(leverage_p, "leverage_p")
        if p.shape[0] != nb:
            raise DimensionError(f"leverage_p has length {p.shape[0]}, expected {nb}")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("leverage_p must be nonnegative and sum to 1 within 1e-10")
        op.probs = p
        op.indices = rng.choice(nb, size=spec.m, replace=True, p=p)
    return op


def leverage_scores(a) -> np.ndarray:
    """Statistical leverage sampling weights ``p_j = ||u_j||^2 / d``.

    ``u_j`` is the j-th row of the left singular factor. Requires A to
    have full column rank (singular values above ``1e-10 sigma_max``).
    """
    am = ensure_matrix(a, "A")
    u, s, _ = thin_svd(am)
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

    Draws ``trials`` independent operators, averages the orthogonal
    projectors ``S^T (S S^T)^- S`` with compensated (Kahan) summation,
    and returns ``eta_hat = (n/m) * ||mean||_op``. Draws with singular
    ``S S^T`` (e.g. duplicated sample rows) are pseudo-inverted and
    counted, not rejected.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if spec.m > n:
        raise DimensionError(f"projection condition requires m <= n, got m={spec.m} > n={n}")
    acc = np.zeros((n, n))
    comp = np.zeros((n, n))
    n_singular = 0
    for t in range(trials):
        op = build_sketch(spec.for_round(t), n, leverage_p=leverage_p)
        s = op.materialize()
        g = s @ s.T
        w, v = np.linalg.eigh(g)
        tol = w[-1] * g.shape[0] * np.finfo(float).eps if w[-1] > 0 else 0.0
        keep = w > tol
        if not np.all(keep):
            n_singular += 1
        winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        proj = s.T @ (v * winv) @ (v.T @ s)
        # Kahan step
        y = proj - comp
        tsum = acc + y
        comp = (tsum - acc) - y
        acc = tsum
    mean = acc / trials
    eta = (n / spec.m) * float(np.linalg.eigvalsh((mean + mean.T) / 2.0)[-1])
    if return_details:
        return eta, {"trials": trials, "singular_draws": n_singular}
    return eta
