"""Dense linear-algebra kernels.

Row-major float64 arrays throughout. Provides the normalized fast
Walsh-Hadamard transform, a thin SVD wrapper, a positive-definite
solver that names the failing pivot, the largest eigenvalue of a
symmetric matrix, and a power-iteration estimate of
``lambda_max(B^T B)`` for when only the factor B is at hand.
"""

from __future__ import annotations

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


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-D finite float64 C-order array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def ensure_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a 1-D finite float64 array."""
    w = np.ascontiguousarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={w.ndim}")
    if w.size and not np.all(np.isfinite(w)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return w


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


def _factor_sizes(n: int) -> list:
    """Balanced split of n = 2^k into powers of two of at most the leaf."""
    k = n.bit_length() - 1
    parts = max(1, -(-k // _LEAF_BITS))
    return [1 << (k // parts + (i < k % parts)) for i in range(parts)]


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
    a = np.asarray(x, dtype=np.float64)
    squeeze = a.ndim == 1
    if squeeze:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"input must be 1-D or 2-D, got ndim={a.ndim}")
    n, cols = a.shape
    if n == 0 or n & (n - 1):
        raise PowerOfTwoError(f"transform length must be a power of two, got {n}")
    out, pre = a, 1
    for f in _factor_sizes(n):
        out = np.matmul(_FACTORS[f], out.reshape(pre, f, n // (pre * f) * cols))
        pre *= f
    out = out.reshape(n, cols)
    return out[:, 0] if squeeze else out


def thin_svd(a) -> SvdResult:
    """Thin SVD ``A = U diag(s) Vt`` with nonincreasing singular values."""
    m = ensure_matrix(a, "A")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        return SvdResult(u, s, vt)
    except np.linalg.LinAlgError:
        pass
    try:
        # gesdd occasionally fails where the slower gesvd succeeds
        u, s, vt = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
        return SvdResult(u, s, vt)
    except Exception as exc:
        raise SvdConvergenceError(f"SVD failed to converge: {exc}", attempts=2) from exc


def solve_psd(g, b) -> np.ndarray:
    """Solve ``G x = b`` for symmetric positive definite G via Cholesky.

    ``b`` is a vector or a matrix of right-hand sides. Raises
    :class:`SingularMatrixError` carrying the 0-based index of the first
    non-positive pivot, as LAPACK ``potrf`` reports it.
    """
    gm = ensure_matrix(g, "G")
    bv = (ensure_vector if np.ndim(b) == 1 else ensure_matrix)(b, "b")
    if gm.shape[0] != gm.shape[1]:
        raise DimensionError(f"G must be square, got {gm.shape}")
    if gm.shape[0] != bv.shape[0]:
        raise DimensionError(f"G is {gm.shape} but b has {bv.shape[0]} rows")
    try:
        low = np.linalg.cholesky(gm)
    except np.linalg.LinAlgError as exc:
        info = scipy.linalg.lapack.dpotrf(gm, lower=True)[1]
        pivot = info - 1 if info > 0 else gm.shape[0] - 1
        raise SingularMatrixError(
            f"matrix is not positive definite (pivot {pivot} <= tolerance)", pivot=pivot
        ) from exc
    z = scipy.linalg.solve_triangular(low, bv, lower=True)
    return scipy.linalg.solve_triangular(low.T, z, lower=False)


def top_eigenvalue(g) -> float:
    """Largest eigenvalue of a symmetric matrix.

    LAPACK ``syevr`` computes that one eigenvalue alone. On one BLAS
    thread at d = 128-144 that takes about 70% of the time of the full
    spectrum; below d of about 50 the call overhead makes it no faster.
    """
    gm = ensure_matrix(g, "G")
    if gm.shape[0] != gm.shape[1]:
        raise DimensionError(f"G must be square, got {gm.shape}")
    d = gm.shape[0]
    return float(scipy.linalg.eigh(gm, eigvals_only=True, subset_by_index=[d - 1, d - 1],
                                   check_finite=False)[0])


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
