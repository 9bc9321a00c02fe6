import numpy as np
import pytest
import scipy.linalg

from ihskit.errors import PowerOfTwoError, SingularMatrixError
from ihskit.linalg import (
    estimate_opnorm_sq,
    fwht_normalized,
    solve_psd,
    thin_svd,
    top_eigenvalue,
)

rng = np.random.default_rng(101)


class TestFwht:
    def test_size_one_is_identity(self):
        assert fwht_normalized([3.0]) == pytest.approx([3.0])

    def test_size_two(self):
        out = fwht_normalized([1.0, 0.0])
        assert out == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])

    # 2^7 splits into uneven Kronecker factors 16 x 8, 2^13 into three
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 256, 8192])
    def test_matches_naive_hadamard(self, n):
        # oracle: explicit (unnormalized) Sylvester Hadamard matrix, held
        # as int8 and applied in row blocks so that n = 2^13 stays small
        h = scipy.linalg.hadamard(n, dtype=np.int8)
        v = rng.standard_normal(n)
        hv = np.concatenate([rows @ v for rows in np.array_split(h, max(1, n // 512))])
        assert np.max(np.abs(fwht_normalized(v) - hv / np.sqrt(n))) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 16, 128, 1024, 8192])
    def test_involution_and_isometry(self, n):
        v = rng.standard_normal(n)
        w = fwht_normalized(v)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * max(1, np.linalg.norm(v))
        assert np.max(np.abs(fwht_normalized(w) - v)) <= 1e-12

    def test_matrix_columns_match_vector_path(self):
        a = rng.standard_normal((16, 3))
        out = fwht_normalized(a)
        for j in range(3):
            assert np.allclose(out[:, j], fwht_normalized(a[:, j]), atol=1e-14)

    def test_input_unmodified_and_strided_input_accepted(self):
        a = rng.standard_normal((256, 6))
        before = a.copy()
        out = fwht_normalized(a[:, ::2])
        assert np.array_equal(a, before)
        assert np.array_equal(out, fwht_normalized(np.ascontiguousarray(a[:, ::2])))
        v = a[::2, 1]
        assert np.array_equal(fwht_normalized(v), fwht_normalized(v.copy()))
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(PowerOfTwoError):
            fwht_normalized(np.zeros(n))


class TestThinSvd:
    def test_identity(self):
        res = thin_svd(np.eye(3))
        assert res.singular_values == pytest.approx([1, 1, 1])

    def test_diagonal(self):
        res = thin_svd(np.diag([2.0, 1.0]))
        assert res.singular_values == pytest.approx([2, 1])

    def test_reconstruction(self):
        a = rng.standard_normal((8, 5))
        u, s, vt = thin_svd(a)
        err = np.linalg.norm((u * s) @ vt - a)
        assert err <= 1e-9 * np.linalg.norm(a)
        assert np.max(np.abs(u.T @ u - np.eye(5))) <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_singular_values_match_gram_eigenvalues(self):
        a = rng.standard_normal((10, 6))
        s = thin_svd(a).singular_values
        lam = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.max(np.abs(s - np.sqrt(np.maximum(lam, 0)))) <= 1e-8


class TestSolvePsd:
    def test_identity(self):
        assert solve_psd(np.eye(2), [1.0, 2.0]) == pytest.approx([1, 2])

    def test_scaled_identity(self):
        assert solve_psd(2 * np.eye(2), [2.0, 4.0]) == pytest.approx([1, 2])

    def test_residual_on_random_spd(self):
        m = rng.standard_normal((12, 7))
        g = m.T @ m + np.eye(7)
        b = rng.standard_normal(7)
        x = solve_psd(g, b)
        assert np.linalg.norm(g @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_non_pd_reports_pivot(self):
        cases = [(np.diag([1.0, -1.0, 2.0]), 1), (np.diag([1.0, 2.0, 0.0]), 2),
                 (np.ones((4, 4)), 1)]
        for g, pivot in cases:
            with pytest.raises(SingularMatrixError) as exc:
                solve_psd(g, np.ones(g.shape[0]))
            assert exc.value.pivot == pivot


class TestTopEigenvalue:
    @pytest.mark.parametrize("d", [1, 12, 144])
    def test_matches_full_spectrum(self, d):
        b = rng.standard_normal((3 * d, d))
        g = b.T @ b
        assert top_eigenvalue(g) == pytest.approx(np.linalg.eigvalsh(g)[-1], rel=1e-13)

    def test_indefinite_and_zero(self):
        assert top_eigenvalue(np.diag([-3.0, 0.5, 2.0])) == pytest.approx(2.0)
        assert top_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(Exception, match="square"):
            top_eigenvalue(np.ones((2, 3)))


class TestOpnormEstimate:
    def test_identity_hits_safety_factor(self):
        assert estimate_opnorm_sq(np.eye(4)) == pytest.approx(1.05)

    def test_diagonal(self):
        # lambda_max(B^T B) = 9 for B = diag(3, 1)
        est = estimate_opnorm_sq(np.diag([3.0, 1.0]))
        assert est == pytest.approx(9.45, rel=0.01)

    def test_upper_bounds_exact_value(self):
        b = rng.standard_normal((20, 10))
        lam = thin_svd(b).singular_values[0] ** 2
        est = estimate_opnorm_sq(b, iters=100)
        assert lam * (1 - 1e-6) <= est <= 1.05 * lam * (1 + 1e-6)

    def test_zero_matrix(self):
        assert estimate_opnorm_sq(np.zeros((3, 3))) == 0.0

    def test_deterministic(self):
        b = rng.standard_normal((9, 4))
        assert estimate_opnorm_sq(b, seed=5) == estimate_opnorm_sq(b, seed=5)
