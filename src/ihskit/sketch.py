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
  (:func:`~ihskit.linalg.hadamard_rows`). It transforms A a panel of
  columns at a time, each of about 1 MiB once padded, so its working
  memory beside ``S A`` does not grow with A's column count, where a
  transform of all columns at once held two padded copies of A;
  ``materialize`` forms the full transform;
* ``rowsample_uniform`` / ``rowsample_leverage`` - rows e_j / sqrt(p_j)
  sampled with replacement from a probability vector p.

:func:`build_sketch` realizes the operator, which for the two dense
kinds holds all of the m x n matrix. A caller that needs only ``S A``
calls :func:`sketch_product`, and one that needs only its Gram calls
:func:`sketch_gram`. Both draw a dense sketch in panels of
``PANEL_ROWS`` rows and never hold more than one panel of it, and
``sketch_gram`` never holds ``S A`` either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, MissingHintError, RankDeficiencyError
from .linalg import ensure_matrix, ensure_vector, fwht_normalized, hadamard_rows, thin_svd
from .seeding import derive_rng

KINDS = ("gaussian", "rademacher", "ros", "rowsample_uniform", "rowsample_leverage")

# Kinds whose entries are i.i.d. draws, so that sketch_product and
# sketch_gram can draw them a panel of rows at a time.
PANEL_KINDS = ("gaussian", "rademacher")

# Rows of a dense sketch drawn and multiplied at a time, 512 KiB of
# panel at n = 2048. The draw dominates, so the panel only has to keep
# the products from getting too short: on perfbench's ls_gaussian shape
# (2048 x 48, m = 288; one BLAS thread, 150 interleaved repeats on 2
# shared cores) a Gaussian draw and product took a median 15.0 ms with
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
            rows = hadamard_rows(am, self.indices, self.signs)
            rows *= np.sqrt(self.n_pad)
            return rows
        # row sampling
        scale = 1.0 / np.sqrt(self.probs[self.indices])
        return scale[:, None] * am[self.indices, :]

    def materialize(self) -> np.ndarray:
        """The operator as an explicit dense m x n matrix."""
        if self.matrix is not None:
            return self.matrix
        if self.kind == "ros":
            hd = fwht_normalized(np.diag(self.signs.astype(np.float64)))
            return np.sqrt(self.n_pad) * hd[self.indices, : self.n]
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
    ``rng``: N(0,1) entries for ``gaussian``, +-1 for ``rademacher``."""
    if kind == "gaussian":
        rng.standard_normal(out=out)
    else:
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
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
        op.signs = 2.0 * rng.integers(0, 2, size=op.n_pad) - 1.0
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


def sketch_product(spec: SketchSpec, a: np.ndarray, leverage_p=None) -> np.ndarray:
    """``S A`` for the sketch S that ``build_sketch(spec, n, leverage_p)``
    draws, with n the rows of A.

    A Gaussian or Rademacher S is never held whole. Its rows are drawn a
    panel at a time (:func:`_panels`), and each panel is multiplied into
    its rows of the result as soon as it is drawn. The sketch then takes
    one panel of memory, and a Rademacher draw one more for its integers.
    Every other kind is drawn by ``build_sketch`` and applied.

    ``a`` is trusted to be a float64 C-order matrix that
    :func:`~ihskit.linalg.ensure_matrix` has checked.
    """
    if spec.kind not in PANEL_KINDS:
        return build_sketch(spec, a.shape[0], leverage_p=leverage_p)._apply(a)
    out = np.empty((spec.m, a.shape[1]))
    for i, panel in _panels(spec, a.shape[0]):
        np.matmul(panel, a, out=out[i : i + panel.shape[0]])
    return out


def _row_blocks(sketch, a: np.ndarray, leverage_p):
    """``S A`` in blocks of consecutive rows, for :func:`sketch_gram`.
    A block may be overwritten by the next one."""
    if isinstance(sketch, SketchOperator):
        yield sketch.apply(a)
        return
    if sketch.kind not in PANEL_KINDS:
        yield build_sketch(sketch, a.shape[0], leverage_p=leverage_p)._apply(a)
        return
    m = sketch.m
    rows = min(m, PANEL_ROWS * math.ceil(max(PANEL_ROWS, a.shape[1]) / PANEL_ROWS))
    block = np.empty((rows, a.shape[1]))
    for i, panel in _panels(sketch, a.shape[0]):
        j = i % rows                # a block is whole panels, or all m rows
        end = j + panel.shape[0]
        np.matmul(panel, a, out=block[j:end])
        if end == rows or i + panel.shape[0] == m:
            yield block[:end]


def sketch_gram(sketch, a: np.ndarray, n: int, w: Optional[np.ndarray] = None,
                leverage_p=None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(G, H)`` with ``G = (S A)^T (S A) / (n m)`` and, given ``w``, the
    restricted Gram ``H = (S A W)^T (S A W) / m``; H is None without w.

    ``sketch`` is a realized :class:`SketchOperator`, which is applied, or
    a :class:`SketchSpec`, drawn as ``build_sketch(sketch, rows of A,
    leverage_p)`` draws it. ``n`` is the row count of the objective's
    ``1/2n`` scaling, which on a block problem exceeds the rows of A.

    A Gaussian or Rademacher spec is drawn in panels of ``PANEL_ROWS``
    rows, the same numbers as :func:`sketch_product` draws, whose products
    with A fill a block of R rows: ``max(PANEL_ROWS, d)`` rounded up to
    whole panels, or all m rows if fewer. Each full block is added into G
    by one symmetric rank-R product, and into H through ``block @ W``.
    ``S A`` is never formed: the block holds at most m x d. Any other
    sketch forms ``S A`` and reduces it once, its only block. The sums of
    block Grams differ from the Gram of the whole ``S A`` in the last bits.

    ``a`` is trusted to be a float64 C-order matrix that
    :func:`~ihskit.linalg.ensure_matrix` has checked.
    """
    m = sketch.m
    g = h = None
    for block in _row_blocks(sketch, a, leverage_p):
        if w is not None:
            # from S A W rather than from G: its error then grows as
            # eps cond(A), not eps cond(A)^2
            h = _add_gram(h, block @ w)
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
