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
# padded to whole blocks. At 3000 x 128, m = 888 (perfbench's lasso_ros)
# it gives 4 panels of 32 columns. On one BLAS thread (medians over 12
# draws of each draw's fastest of 9 calls) panels of 16, 24, 40 and 48
# columns made that apply 11%, 13%, 9% and 1% slower, and 48 raised its
# traced peak from 2.7 to 3.3 MiB.
_PANEL_BYTES = 1 << 20


def _factor_sizes(n: int) -> list:
    """Balanced split of n = 2^k into powers of two of at most the leaf."""
    k = n.bit_length() - 1
    parts = max(1, -(-k // _LEAF_BITS))
    return [1 << (k // parts + (i < k % parts)) for i in range(parts)]


def _row_factors(n_pad: int) -> list:
    """Factor sizes ``[f1, hi..., lo]`` of ``H_{n_pad}`` for
    :func:`hadamard_rows`: ``lo = min(n_pad, 8)`` takes the lowest bits,
    the outer ``f1`` half of the rest, rounded up but at most the leaf,
    and ``hi`` the remaining bits split as evenly as :func:`_factor_sizes`
    splits them. 4096 = 32 x 16 x 8 and 8192 = 32 x 32 x 8."""
    k = n_pad.bit_length() - 1
    lo = min(k, 3)
    outer = min(_LEAF_BITS, -(-(k - lo) // 2))
    rest = k - lo - outer
    return [1 << outer, *(_factor_sizes(1 << rest) if rest else []), 1 << lo]


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
    ``n_pad`` a power of two, any finite ``signs`` (a ROS sketch passes
    its +-1 signs times ``sqrt(n_pad)``) and ``rows`` integers in
    ``[0, n_pad)``, repeats allowed. Only what those rows need is
    computed.

    ``H = H_{f1} (x) H_hi (x) H_lo``, with the factor sizes that
    :func:`_row_factors` gives (``hi`` may be several factors): 32 x 16
    x 8 at ``n_pad = 4096``. Row ``i = i1 blk + b``, ``blk = n_pad /
    f1``. The inner factors act within blocks of ``blk`` consecutive rows
    and run only on the ``nz = ceil(n / blk)`` leading blocks that hold
    data. D is folded into the first of them: each group of ``lo``
    consecutive rows of x is multiplied by ``H_lo diag(its signs)``, one
    batched product over a view of x, so x is read once, never copied
    and never signed in a pass of its own. ``H_hi`` follows. The outer
    factor runs only for the distinct sampled ``(i1, b)`` pairs: grouped
    by b, the groups are taken in runs of ``f1`` consecutive ones, each
    run padded with zero coefficients to its fullest group, so that one
    overfull group pads only its own run, and each run is one batched
    product. For c columns and ``T`` padded pairs this costs
    ``nz blk c (lo + hi)`` multiply-adds for the inner factors plus
    ``T nz c`` for the outer one, against ``n_pad c (f1 + hi + lo)`` for
    the full transform: at 3000 x 128, m = 888, about 9.4 M plus 4.5 M
    against 29 M.

    The transform is column-separable, so it runs on panels of ``w``
    columns at a time: the widest multiple of 8 (a 64-byte cache line of
    each row of x) that keeps ``nz blk w`` floats within
    ``_PANEL_BYTES``, but at least 8, evened out over the panels. The
    grouping and the ``(n / lo) lo^2`` signed factors are worked out
    once per call, and two buffers are allocated once and reused for
    every panel: the panel itself, and a scratch buffer that holds the
    signed product of a few blocks at a time while ``H_hi`` runs on
    them, then the outer stage's products, whose sampled rows are
    gathered into the panel's columns of the ``m x c`` result. Beside
    that result and the ``T nz`` outer coefficients, a call holds at most
    ``n lo + (nz blk + max(T, 2 blk) + m) w`` floats and a few arrays of
    m integers: a transient that does not grow with c once ``c > w``,
    against ``2 nz blk c`` for a transform of all columns at once. The
    input is never modified.
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
    f1, *hi, lo = _row_factors(n_pad)
    blk = n_pad // f1
    nz = -(-n // blk)
    depth = nz * blk
    # The sampled pairs as a blk x f1 table, group b by outer index i1. In
    # runs of f1 groups, each padded to its fullest, `slots` gives each
    # pair's row: one run after another, one group after another, i1 in
    # increasing order.
    key = idx % blk * f1 + idx // blk
    sampled = np.bincount(key, minlength=n_pad).reshape(blk, f1) > 0
    size = np.count_nonzero(sampled, axis=1).reshape(-1, f1).max(axis=1)
    start = np.concatenate(([0], np.cumsum(size * f1)))
    first = start[:-1, None] + np.arange(f1) * size[:, None]     # each group's first row
    slots = (np.cumsum(sampled, axis=1) - 1 + first.reshape(-1, 1)).ravel()
    pairs = np.flatnonzero(sampled)
    padded = int(start[-1])
    coef = np.zeros((padded, nz))
    coef[slots[pairs]] = _FACTORS[f1][pairs % f1, :nz]
    pick = slots[key]
    runs = [(g, int(s), int(p0)) for g, s, p0 in zip(range(0, blk, f1), size, start) if s]
    # Equal panels of a whole number of 64-byte cache lines of each row
    # of x, as wide as the budget allows.
    panels = max(1, -(-cols // max(8, _PANEL_BYTES // (64 * max(1, depth)) * 8)))
    w = max(1, min(cols, -(-cols // (8 * panels)) * 8))
    # The factors after the signed one run on `step` rows at a time in the
    # scratch buffer (two for two or more), as many blocks as fit in
    # what the outer stage needs.
    bufs = min(2, len(hi))
    step = blk * max(1, min(nz, padded // (bufs * blk))) if hi else max(1, depth)
    full = n // lo
    # one allocation for all: glibc keeps freed memory for reuse up to
    # about twice the largest block freed, which this then is
    end = (depth + max(padded, bufs * step)) * w
    work = np.empty(end + full * lo * lo)
    panel, scratch, signed = work[: depth * w], work[depth * w:end], work[end:].reshape(full, lo, lo)
    np.multiply(_FACTORS[lo], dv[: full * lo].reshape(full, 1, lo), out=signed)
    out = np.empty((idx.size, cols))
    for c0 in range(0, cols, w):
        k = min(w, cols - c0)
        for r0 in range(0, depth, step):
            h, e = min(step, depth - r0), min(r0 + step, n)
            z = (scratch if hi else panel[r0 * k:])[: h * k].reshape(h, k)
            g0, g1 = r0 // lo, e // lo
            np.matmul(signed[g0:g1], a[r0:g1 * lo, c0:c0 + k].reshape(g1 - g0, lo, k),
                      out=z[: (g1 - g0) * lo].reshape(g1 - g0, lo, k))
            t = g1 * lo - r0
            if t < e - r0:      # the last n % lo rows
                np.matmul(_FACTORS[lo][:, : e - r0 - t] * dv[r0 + t:e], a[r0 + t:e, c0:c0 + k],
                          out=z[t:t + lo])
                t += lo
            z[t:] = 0.0
            if hi:
                _apply_factors(z, hi, h // blk, panel[r0 * k:(r0 + h) * k], scratch[h * k:2 * h * k])
        z = panel[: depth * k].reshape(nz, blk, k).transpose(1, 0, 2)
        for g, s, p0 in runs:
            np.matmul(coef[p0:p0 + f1 * s].reshape(f1, s, nz), z[g:g + f1],
                      out=scratch[p0 * k:(p0 + f1 * s) * k].reshape(f1, s, k))
        # np.take into a strided `out` would copy it in and out again
        out[:, c0:c0 + k] = np.take(scratch[: padded * k].reshape(padded, k), pick, axis=0, mode="clip")
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


def top_eigenvalue(g, overwrite_g: bool = False) -> float:
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

    ``syevr`` destroys its input, so G is copied first, unless
    ``overwrite_g`` hands over a Fortran-order float64 G to be destroyed
    in place (any other G is still copied). At n = 2049 that copy is a
    second 32 MiB beside the sum of projectors.
    """
    gm = np.asarray(g, dtype=float)
    if gm.shape[0] != gm.shape[1]:
        raise DimensionError(f"G must be square, got {gm.shape}")
    d = gm.shape[0]
    lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(d, lower=1)
    w, _, _, _, info = scipy.linalg.lapack.dsyevr(gm, compute_v=0, range="I", il=d, iu=d, lower=1,
                                                 lwork=int(lwork), liwork=liwork,
                                                 overwrite_a=int(overwrite_g))
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
