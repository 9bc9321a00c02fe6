"""Dense linear-algebra kernels.

Row-major float64 arrays throughout. Provides the normalized fast
Walsh-Hadamard transform and a kernel that computes selected rows of
it, a thin SVD wrapper, a positive-definite solver (one LAPACK
``dposv`` call, whose ``info`` names the failing pivot), the largest
eigenvalue of a symmetric matrix, and a power-iteration estimate of
``lambda_max(B^T B)`` for when only the factor B is at hand.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    NonFiniteError,
    PowerOfTwoError,
    SingularMatrixError,
    SvdConvergenceError,
)
from .seeding import derive_rng

# Inflation of lambda_max(B^T B) before use as a gradient Lipschitz
# constant: it turns the power-iteration Rayleigh estimate into a safe
# upper bound, and the inner solver applies it to the exact eigenvalue
# as well, so the step 1/L does not depend on how lambda_max was found.
OPNORM_SAFETY = 1.05


def _ensure(a, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    # NaN propagates through min and max, so no boolean mask of the input
    # is made; the bare ufunc reductions skip ndarray.min's Python wrapper
    if arr.size and not (math.isfinite(np.minimum.reduce(arr, axis=None))
                         and math.isfinite(np.maximum.reduce(arr, axis=None))):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D finite float64 C-order array."""
    return _ensure(a, name, 2)


def ensure_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a 1-D finite float64 array."""
    return _ensure(v, name, 1)


class SvdResult(NamedTuple):
    U: np.ndarray
    singular_values: np.ndarray
    Vt: np.ndarray


# Largest Hadamard factor applied as one dense product. Sylvester's
# H_{2^k} is the Kronecker product of smaller Sylvester matrices, so the
# transform runs as a few batched BLAS products with these factors.
HADAMARD_LEAF = 64
_LEAF_BITS = HADAMARD_LEAF.bit_length() - 1
_FACTORS = {f: scipy.linalg.hadamard(f) / np.sqrt(f)
            for f in (1 << k for k in range(_LEAF_BITS + 1))}
# Bytes of one panel of columns that hadamard_rows transforms at a time,
# padded to whole blocks. On one BLAS thread half of it made a
# 3000 x 128 apply (perfbench's lasso_ros) and a 2048 x 48 one about 20%
# slower, and twice it raised the 3000 x 128 apply's peak from 3.4 to
# 4.3 MB.
_PANEL_BYTES = 1 << 20


def _factor_sizes(n: int) -> list:
    """Balanced split of n = 2^k into powers of two of at most the leaf."""
    k = n.bit_length() - 1
    parts = max(1, -(-k // _LEAF_BITS))
    return [1 << (k // parts + (i < k % parts)) for i in range(parts)]


def _as_columns(x):
    """``x`` as a float64 matrix of columns, and whether it was 1-D."""
    a = np.asarray(x, dtype=np.float64)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"input must be 1-D or 2-D, got ndim={a.ndim}")
    return a, squeeze


def _apply_factors(a, sizes, pre: int, out=None, spare=None) -> np.ndarray:
    """Apply ``H_{f1} (x) H_{f2} (x) ...`` to each of ``pre`` leading blocks of ``a``.

    ``out``, a flat buffer of ``a.size`` floats, receives the last
    product; with ``spare`` too, the products before it alternate
    between ``spare`` and ``a``'s buffer (``a`` must then be
    contiguous), so that no product allocates.
    """
    for i, f in enumerate(sizes):
        dst = out if i == len(sizes) - 1 else spare
        prod = np.matmul(_FACTORS[f], a.reshape(pre, f, -1),
                         out=None if dst is None else dst.reshape(pre, f, -1))
        a, spare, pre = prod, None if spare is None else a.reshape(-1), pre * f
    return a


def fwht_normalized(x) -> np.ndarray:
    """Apply the orthonormal Walsh-Hadamard transform along axis 0.

    ``x`` may be a vector or a matrix whose columns are transformed
    independently; the length along axis 0 must be a power of two.
    The transform matrix has entries +-1/sqrt(n), so the map is an
    involution and preserves Euclidean norms. It is computed as
    ``H_{f1} (x) H_{f2} (x) ...`` with orthonormal Hadamard factors of
    at most ``HADAMARD_LEAF`` rows: each factor is one batched matrix
    product over the input viewed as ``(pre, f, rest)``. The input is
    never modified.
    """
    a, squeeze = _as_columns(x)
    n, cols = a.shape
    if n == 0 or n & (n - 1):
        raise PowerOfTwoError(f"transform length must be a power of two, got {n}")
    out = _apply_factors(a, _factor_sizes(n), 1).reshape(n, cols)
    return out[:, 0] if squeeze else out


def hadamard_rows(x, rows, signs) -> np.ndarray:
    """Rows ``rows`` of ``H D x_pad``: the orthonormal Walsh-Hadamard
    transform ``H`` of ``n_pad = len(signs)`` rows, after the diagonal
    ``D = diag(signs)`` and zero padding of ``x`` to ``n_pad`` rows.

    Equals ``fwht_normalized(signs[:, None] * x_pad)[rows]`` up to
    rounding, for a vector or a matrix ``x`` of n <= ``n_pad`` rows,
    ``n_pad`` a power of two and ``rows`` integers in ``[0, n_pad)``,
    repeats allowed. Only what those rows need is computed. With
    ``H = H_{f1} (x) H_blk`` (``blk = n_pad / f1``, row ``i = i1 blk + b``),
    the inner factors ``H_blk`` transform only the ``nz = ceil(n / blk)``
    leading blocks that hold data, and the outer factor ``H_{f1}`` only
    the distinct sampled ``(j1, b)`` pairs: the pairs are grouped by
    ``b``, each group padded with zero coefficients to the size ``s`` of
    the largest (``s <= f1``), and all groups run as one batched matrix
    product. For m rows of c columns spread over g groups this costs
    about ``nz blk c (f2 + f3 + ...)`` multiply-adds for the inner
    factors plus ``g s nz c <= n_pad nz c`` for the outer one, against
    ``n_pad c (f1 + f2 + ...)`` for the full transform.

    The transform is column-separable, so it runs on panels of ``w``
    columns at a time: the widest that keep ``nz blk w`` floats within
    ``_PANEL_BYTES``, but at least 8 (a 64-byte cache line of each row of
    ``x``), evened out over the panels. The grouping is worked out once
    per call, and two buffers are allocated once and reused for every
    panel: the panel itself, and a scratch buffer that holds the signed
    input of a few blocks at a time while the inner factors run on them
    (those factors act within blocks) and then the outer stage's
    products. Each panel's sampled rows go straight into its columns of
    the ``m x c`` result. Beside that result and the ``g s nz`` outer
    coefficients, a call holds ``(nz blk + max(g s + e, 2 blk)) w``
    floats, ``e = g nz`` if some inner index is never sampled, else 0: a
    transient that does not grow with c once ``c > w``, against
    ``2 nz blk c`` for a transform of all columns at once. The input is
    read once, a panel at a time, and never modified.
    """
    a, squeeze = _as_columns(x)
    dv = ensure_vector(signs, "signs")
    n, cols = a.shape
    n_pad = dv.shape[0]
    if n_pad == 0 or n_pad & (n_pad - 1):
        raise PowerOfTwoError(f"transform length must be a power of two, got {n_pad}")
    if n > n_pad:
        raise DimensionError(f"input has {n} rows, more than the transform length {n_pad}")
    idx = np.asarray(rows)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("rows must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= n_pad):
        raise DimensionError(f"rows must lie in [0, {n_pad})")
    f1, *inner = _factor_sizes(n_pad)
    blk = n_pad // f1
    nz = -(-n // blk)
    # Distinct pairs sorted by b, then j1; `slot` is each pair's row in
    # the padded groups, `pick` each sample's.
    j1, b = np.divmod(idx, blk)
    pairs, inv = np.unique(b * f1 + j1, return_inverse=True)
    pb, pj1 = np.divmod(pairs, f1)
    counts = np.bincount(pb, minlength=blk)
    occupied = np.flatnonzero(counts)
    groups = occupied.size
    size = max(1, int(counts.max()))
    slot = (size * (np.cumsum(counts > 0) - 1) - (np.cumsum(counts) - counts))[pb] + np.arange(pairs.size)
    coef = np.zeros((groups * size, nz))
    coef[slot] = _FACTORS[f1][pj1, :nz]
    coef = coef.reshape(groups, size, nz)
    pick = slot[inv]
    # Equal panels of at most the budget's width, but at least a 64-byte
    # cache line of each row of A: narrower ones read A's rows again for
    # little saving. The occupied groups are copied out only when some
    # are empty, and `need` rows per column hold the outer stage.
    depth = nz * blk
    panels = max(1, -(-cols // max(8, _PANEL_BYTES // (8 * max(1, depth)))))
    w = max(1, -(-cols // panels))
    gathered = groups * nz if groups < blk else 0
    need = gathered + groups * size
    # The inner factors act within blocks, so they run on `step` rows at
    # a time in a scratch buffer (two for two or more factors) that the
    # outer stage then reuses, as many blocks as fit in what it needs.
    bufs = min(2, len(inner))
    step = blk * max(1, min(nz, need // (bufs * blk))) if inner else max(1, depth)
    # one allocation for both: glibc keeps freed memory for reuse up to
    # about twice the largest block freed, which this then is
    work = np.empty((depth + max(need, bufs * step)) * w)
    panel, scratch = work[: depth * w], work[depth * w:]
    out = np.empty((idx.size, cols))
    for c0 in range(0, cols, w):
        k = min(w, cols - c0)
        for r0 in range(0, depth, step):
            h, e = min(step, depth - r0), min(r0 + step, n)
            z = (scratch if inner else panel)[: h * k].reshape(h, k)
            # einsum, unlike a broadcast multiply, stages nothing in a buffer
            np.einsum("i,ij->ij", dv[r0:e], a[r0:e, c0:c0 + k], out=z[: e - r0])
            z[e - r0:] = 0.0
            _apply_factors(z, inner, h // blk, panel[r0 * k:(r0 + h) * k], scratch[h * k:2 * h * k])
        z = panel[: depth * k].reshape(nz, blk, k)
        if groups < blk:
            z = np.take(z, occupied, axis=1, out=scratch[: gathered * k].reshape(nz, groups, k),
                        mode="clip")
        prod = np.matmul(coef, z.transpose(1, 0, 2),
                         out=scratch[gathered * k:need * k].reshape(groups, size, k))
        np.take(prod.reshape(-1, k), pick, axis=0, out=out[:, c0:c0 + k], mode="clip")
    return out[:, 0] if squeeze else out


def thin_svd(a, check_finite: bool = True) -> SvdResult:
    """Thin SVD ``A = U diag(s) Vt`` with nonincreasing singular values.

    Calls LAPACK ``dgesdd`` through ``scipy.linalg.lapack``, without the
    checks and error-state set-up of ``np.linalg.svd``, which calls the
    same routine; where ``dgesdd`` reports that it did not converge, it
    falls back to the slower ``dgesvd`` and raises
    :class:`SvdConvergenceError` if that fails too.
    ``check_finite=False``, as in ``scipy.linalg``, trusts a finite
    float64 matrix that the caller has checked already.
    """
    m = ensure_matrix(a, "A") if check_finite else a
    if m.size:      # LAPACK rejects an empty matrix; scipy returns its empty factors
        # the optimal workspace, as numpy queries it: its size picks the
        # algorithm's path, and so the rounding
        lwork = scipy.linalg.lapack.dgesdd_lwork(*m.shape, compute_uv=1, full_matrices=0)[0]
        u, s, vt, info = scipy.linalg.lapack.dgesdd(m, full_matrices=False, lwork=int(lwork))
        if info == 0:
            # C order, as numpy returns them, so products with them round alike
            return SvdResult(np.ascontiguousarray(u), s, np.ascontiguousarray(vt))
    try:
        # gesdd occasionally fails where the slower gesvd succeeds
        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd",
                                    check_finite=False)
        return SvdResult(u, s, vt)
    except Exception as exc:
        raise SvdConvergenceError(f"SVD failed to converge: {exc}", attempts=2) from exc


def solve_psd(g, b, check_finite: bool = True) -> np.ndarray:
    """Solve ``G x = b`` for symmetric positive definite G via Cholesky.

    ``b`` is a vector or a matrix of right-hand sides. One LAPACK
    ``dposv`` call factors G from its lower triangle and solves; neither
    G nor b is modified. Where G is not positive definite, raises
    :class:`SingularMatrixError` carrying the 0-based index of the first
    non-positive pivot, read from that call's ``info``.
    ``check_finite=False`` trusts float64 arrays that the caller has
    checked already and skips their scan.
    """
    if check_finite:
        gm = ensure_matrix(g, "G")
        bv = (ensure_vector if np.ndim(b) == 1 else ensure_matrix)(b, "b")
    else:
        gm, bv = g, b
    if gm.shape[0] != gm.shape[1]:
        raise DimensionError(f"G must be square, got {gm.shape}")
    if gm.shape[0] != bv.shape[0]:
        raise DimensionError(f"G is {gm.shape} but b has {bv.shape[0]} rows")
    if not gm.size:     # f2py rejects an empty b
        return np.zeros(bv.shape)
    _, x, info = scipy.linalg.lapack.dposv(gm, bv, lower=1)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite (pivot {info - 1} <= tolerance)", pivot=info - 1)
    if info:
        raise np.linalg.LinAlgError(f"posv rejected argument {-info}")
    return x


def top_eigenvalue(g) -> float:
    """Largest eigenvalue of a finite symmetric matrix.

    LAPACK ``syevr`` computes that one eigenvalue alone. On one BLAS
    thread at d = 128-144 that takes about 70% of the time of the full
    spectrum. It is called through ``scipy.linalg.lapack`` with its
    queried workspace, as ``scipy.linalg.eigh`` calls it and with the
    same bits, without the wrapper that cost more than the call at small
    d (23 -> 9 us at d = 12). Only the lower triangle of G is read. G is
    not scanned for non-finite entries: its callers hand in the Gram
    matrix that :class:`ihskit.subsolver.SketchedQuadratic` has checked
    already, or the sum of projectors of finite draws that
    :func:`ihskit.sketch.verify_projection_condition` accumulates.
    """
    gm = np.asarray(g, dtype=float)
    if gm.shape[0] != gm.shape[1]:
        raise DimensionError(f"G must be square, got {gm.shape}")
    d = gm.shape[0]
    lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(d, lower=1)
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(gm, compute_v=0, range="I", il=d, iu=d, lower=1,
                                                 lwork=int(lwork), liwork=liwork)
    if info:
        raise np.linalg.LinAlgError(f"syevr did not converge (info {info})")
    return float(w[0])


def estimate_opnorm_sq(b, iters: int = 100, seed: int = 0) -> float:
    """Upper estimate of ``lambda_max(B^T B)`` by power iteration.

    Runs ``iters`` rounds of power iteration on ``B^T B`` from a seeded
    random start and inflates the final Rayleigh quotient by a fixed
    5% so the result can serve as a gradient Lipschitz constant.
    Deterministic given ``seed``; returns 0 for the zero matrix.
    """
    bm = ensure_matrix(b, "B")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if bm.size == 0 or not np.any(bm):
        return 0.0
    rng = derive_rng(seed, 0x0B)
    v = rng.standard_normal(bm.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = bm.T @ (bm @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v fell exactly in the kernel; restart from a fresh direction
            v = rng.standard_normal(bm.shape[1])
            v /= np.linalg.norm(v)
            continue
        lam = v @ w
        v = w / nw
    return OPNORM_SAFETY * float(lam)
