import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from ihskit.errors import (
    DimensionError,
    NonFiniteError,
    PowerOfTwoError,
    SingularMatrixError,
    SvdConvergenceError,
)
from ihskit import linalg
from ihskit.linalg import (
    _row_factors,
    ensure_matrix,
    ensure_vector,
    estimate_opnorm_sq,
    fwht_normalized,
    hadamard_rows,
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


# a stream of its own, so that these tests leave the draws of the others as they were
rows_rng = np.random.default_rng(102)


def _padded_oracle(x, rows, signs):
    """Rows of the full transform of the signed, zero-padded input."""
    x2 = x[:, None] if x.ndim == 1 else x
    padded = np.zeros((signs.shape[0], x2.shape[1]))
    padded[: x2.shape[0]] = signs[: x2.shape[0], None] * x2
    out = fwht_normalized(padded)[rows]
    return out[:, 0] if x.ndim == 1 else out


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# a stream of its own, so that the panel tests leave the draws of the others as they were
panel_rng = np.random.default_rng(103)


def _panel_width(n, n_pad):
    """The widest panel of ``hadamard_rows`` at n rows: the most columns, a
    multiple of 8, that fit in the panel budget once padded to whole
    blocks, at least 8."""
    blk = n_pad // _row_factors(n_pad)[0]
    return max(8, linalg._PANEL_BYTES // (64 * blk * -(-n // blk)) * 8)


class TestHadamardRows:
    # n_pad = 1 takes no nontrivial factor, 2 one, and 64, 128, 1024,
    # 4096 and 16384 three; 63, 65, 1000 and 8193 leave zero padding
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 4096, 8193])
    def test_matches_padded_transform(self, n):
        n_pad = 1 << max(n - 1, 0).bit_length()
        signs = rows_rng.choice([-1.0, 1.0], size=n_pad)
        x = rows_rng.standard_normal((n, 3))
        rows = rows_rng.integers(0, n_pad, size=max(1, n // 3))
        assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    def test_vector_input(self):
        signs = rows_rng.choice([-1.0, 1.0], size=1024)
        x = rows_rng.standard_normal(1000)
        rows = rows_rng.integers(0, 1024, size=40)
        out = hadamard_rows(x, rows, signs)
        assert out.shape == (40,)
        assert _rel_dev(out, _padded_oracle(x, rows, signs)) <= 1e-13

    def test_input_unmodified(self):
        signs = rows_rng.choice([-1.0, 1.0], size=256)
        x = rows_rng.standard_normal((200, 3))
        rows = rows_rng.integers(0, 256, size=50)
        x_before, signs_before, rows_before = x.copy(), signs.copy(), rows.copy()
        hadamard_rows(x, rows, signs)
        assert np.array_equal(x, x_before)
        assert np.array_equal(signs, signs_before)
        assert np.array_equal(rows, rows_before)

    def test_rejects_bad_shapes(self):
        x = np.zeros((5, 2))
        with pytest.raises(PowerOfTwoError):
            hadamard_rows(x, [0], np.ones(6))
        with pytest.raises(DimensionError):
            hadamard_rows(x, [0], np.ones(4))
        for rows in ([8], [-1], [0.5], [[0]]):
            with pytest.raises(DimensionError):
                hadamard_rows(x, rows, np.ones(8))

    # n = 63, 3000 and 9000 pad to 64 = 4 x 2 x 8, 4096 = 32 x 16 x 8 and
    # 16384 = 64 x 32 x 8; with w the widest panel at that shape, w + 1
    # and 2w + 3 columns take two and three panels, and n // 30 sampled
    # rows leave some inner indices unsampled at n = 3000 and 9000
    @pytest.mark.parametrize("n", [63, 3000, 9000])
    @pytest.mark.parametrize("times,plus", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_matches_padded_transform_across_panels(self, n, times, plus):
        n_pad = 1 << (n - 1).bit_length()
        signs = panel_rng.choice([-1.0, 1.0], size=n_pad)
        x = panel_rng.standard_normal((n, times * _panel_width(n, n_pad) + plus))
        rows = panel_rng.integers(0, n_pad, size=max(2, n // 30))
        assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    def test_four_factors(self):
        # 2^19 = 64 x 32 x 32 x 8: the two middle factors go through the
        # second scratch buffer before the last writes into the panel
        n = (1 << 18) + 1
        assert _row_factors(1 << 19) == [64, 32, 32, 8]
        signs = panel_rng.choice([-1.0, 1.0], size=1 << 19)
        x = panel_rng.standard_normal((n, 2))
        rows = panel_rng.integers(0, 1 << 19, size=500)
        assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    def test_strided_input_across_panels(self):
        signs = panel_rng.choice([-1.0, 1.0], size=4096)
        cols = 2 * _panel_width(3000, 4096) + 3
        big = panel_rng.standard_normal((3000, 2 * cols + 1))
        before = big.copy()
        x = big[:, 1::2]
        rows = panel_rng.integers(0, 4096, size=300)
        got = hadamard_rows(x, rows, signs)
        assert _rel_dev(got, _padded_oracle(np.ascontiguousarray(x), rows, signs)) <= 1e-13
        assert np.array_equal(big, before)

    def test_one_inner_group_and_one_sample_per_group_across_panels(self):
        # 3000 rows pad to 4096 = 32 x (16 x 8), blocks of 128 rows: rows
        # 5 + 128 j all share inner index 5, so one run of groups holds
        # every pair; with one sample per inner index every group holds
        # one pair and the later factors run on one block at a time
        assert _row_factors(4096) == [32, 16, 8]
        signs = panel_rng.choice([-1.0, 1.0], size=4096)
        x = panel_rng.standard_normal((3000, _panel_width(3000, 4096) + 1))
        for rows in (5 + 128 * panel_rng.integers(0, 32, size=200),
                     np.arange(128) + 128 * panel_rng.integers(0, 32, size=128)):
            assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    def test_row_factors(self):
        # the split changes shape at n_pad = 2 (the low factor), 16 (an
        # outer factor), 32 (a middle one), 16384 (the outer factor at the
        # leaf) and 65536 (two middle factors)
        assert _row_factors(1) == [1, 1]
        assert _row_factors(2) == [1, 2]
        assert _row_factors(8) == [1, 8]
        assert _row_factors(16) == [2, 8]
        assert _row_factors(32) == [2, 2, 8]
        assert _row_factors(4096) == [32, 16, 8]
        assert _row_factors(8192) == [32, 32, 8]
        assert _row_factors(16384) == [64, 32, 8]
        assert _row_factors(65536) == [64, 16, 8, 8]
        for k in range(21):
            assert np.prod(_row_factors(1 << k)) == 1 << k
            assert max(_row_factors(1 << k)) <= linalg.HADAMARD_LEAF

    @pytest.mark.parametrize("n_pad", [1, 2, 16, 32, 16384, 65536])
    def test_matches_padded_transform_where_the_split_changes(self, n_pad):
        signs = panel_rng.choice([-1.0, 1.0], size=n_pad)
        for n in sorted({n_pad // 2 + 1, n_pad}):
            x = panel_rng.standard_normal((n, 3))
            rows = panel_rng.integers(0, n_pad, size=max(1, n // 3))
            assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    # 3001 and 5001 rows leave a last group of one row for the low factor,
    # after 375 and 625 full ones, and pad to 4096 and 8192
    @pytest.mark.parametrize("n", [3001, 5001])
    def test_rows_not_a_multiple_of_the_low_factor(self, n):
        n_pad = 1 << (n - 1).bit_length()
        assert n % _row_factors(n_pad)[-1] == 1
        signs = panel_rng.choice([-1.0, 1.0], size=n_pad)
        rows = panel_rng.integers(0, n_pad, size=n // 5)
        cols = 2 * _panel_width(n, n_pad) + 3
        big = panel_rng.standard_normal((n, 2 * cols + 1))
        before = big.copy()
        for x in (big[:, :cols], big[:, 1::2], big[:, 3]):
            got = hadamard_rows(x, rows, signs)
            assert got.shape == (rows.size,) + x.shape[1:]
            assert _rel_dev(got, _padded_oracle(np.ascontiguousarray(x), rows, signs)) <= 1e-13
        assert np.array_equal(big, before)

    def test_empty_shapes(self):
        none = np.array([], dtype=int)
        assert hadamard_rows(np.ones((5, 2)), none, np.ones(8)).shape == (0, 2)
        assert hadamard_rows(np.ones(5), none, np.ones(8)).shape == (0,)
        assert hadamard_rows(np.ones((5, 0)), [1, 2], np.ones(8)).shape == (2, 0)
        for n_pad in (2, 8, 128):
            assert np.array_equal(hadamard_rows(np.ones((0, 3)), [1, 0], np.ones(n_pad)),
                                  np.zeros((2, 3)))

    def test_many_more_samples_than_transform_rows(self):
        # m = 20000 > n_pad = 16384: most pairs are sampled, many twice,
        # and each of the 256 groups holds about 45 of its 64 outer indices
        signs = panel_rng.choice([-1.0, 1.0], size=16384)
        x = panel_rng.standard_normal((8193, 3))
        rows = panel_rng.integers(0, 16384, size=20000)
        assert _rel_dev(hadamard_rows(x, rows, signs), _padded_oracle(x, rows, signs)) <= 1e-13

    def test_transient_within_the_stated_bound(self):
        # the docstring's bound at perfbench's lasso_ros shape: beside the
        # m x c result and T nz coefficients, n lo + (nz blk + max(T, 2 blk)
        # + m) w floats and a few arrays of m integers (16 m allowed here),
        # with T the pairs of a draw padded in runs of f1 groups
        n, c, m = 3000, 128, 888
        f1, *_, lo = _row_factors(4096)
        blk = 4096 // f1
        nz = -(-n // blk)
        w = _panel_width(n, 4096)
        draws = np.random.default_rng(107)
        a = draws.standard_normal((n, c))
        over = []
        for _ in range(20):
            signs = draws.choice([-1.0, 1.0], size=4096)
            rows = draws.integers(0, 4096, size=m)
            counts = np.bincount(np.unique(rows) % blk, minlength=blk)
            padded = f1 * int(counts.reshape(-1, f1).max(axis=1).sum())
            bound = 8 * (m * c + padded * nz + n * lo + (nz * blk + max(padded, 2 * blk) + m) * w + 16 * m)
            tracemalloc.start()
            try:
                hadamard_rows(a, rows, signs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            over.append(peak / bound)
        assert max(over) <= 1.0


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


    def test_falls_back_to_gesvd_when_gesdd_fails(self, monkeypatch):
        a = rng.standard_normal((7, 4))
        real, calls = scipy.linalg.lapack.dgesdd, []

        def failing_gesdd(m, **kwargs):
            calls.append(m.shape)
            return (*real(m, **kwargs)[:3], 1)      # info > 0: did not converge

        monkeypatch.setattr(scipy.linalg.lapack, "dgesdd", failing_gesdd)
        want = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        got = thin_svd(a)
        assert calls == [(7, 4)]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(scipy.linalg, "svd", failing_svd)
        with pytest.raises(SvdConvergenceError) as info:
            thin_svd(a)
        assert info.value.attempts == 2

    def test_empty_matrix(self):
        u, s, vt = thin_svd(np.zeros((0, 3)))
        assert u.shape == (0, 0) and s.shape == (0,) and vt.shape == (0, 3)


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

    def test_one_posv_call_per_solve_and_no_numpy_cholesky(self, monkeypatch):
        calls, real = [], scipy.linalg.lapack.dposv
        monkeypatch.setattr(scipy.linalg.lapack, "dposv",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))

        def no_cholesky(*_):
            raise AssertionError("np.linalg.cholesky called")
        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        solve_psd(2 * np.eye(3), np.ones(3))
        assert len(calls) == 1
        with pytest.raises(SingularMatrixError):
            solve_psd(np.diag([1.0, 2.0, 0.0]), np.ones(3))
        assert len(calls) == 2

    def test_empty_system(self):
        assert solve_psd(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
        assert solve_psd(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)

    def test_matrix_rhs_equals_column_solves(self):
        m = rng.standard_normal((15, 6))
        g = m.T @ m
        b = rng.standard_normal((6, 4))
        x = solve_psd(g, b)
        assert x.shape == (6, 4)
        for k in range(4):
            np.testing.assert_allclose(x[:, k], solve_psd(g, b[:, k]), rtol=1e-14, atol=0)

    def test_inputs_unmodified(self):
        m = rng.standard_normal((9, 5))
        for g in (m.T @ m, np.asfortranarray(m.T @ m)):
            for b in (rng.standard_normal(5), rng.standard_normal((5, 2)),
                      np.asfortranarray(rng.standard_normal((5, 2)))):
                g0, b0 = g.copy(), b.copy()
                solve_psd(g, b)
                solve_psd(g, b, check_finite=False)
                assert np.array_equal(g, g0) and np.array_equal(b, b0)


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

    def test_overwrites_g_only_when_asked(self):
        # syevr destroys its input: G is copied first unless overwrite_g
        # hands over a Fortran-order G, which then costs no copy
        n = 512
        b = np.random.default_rng(113).standard_normal((n, n))
        g = np.asfortranarray(b.T @ b)
        g0 = g.copy(order="F")
        lam = top_eigenvalue(g)
        assert np.array_equal(g, g0)
        tracemalloc.start()
        try:
            assert top_eigenvalue(g, overwrite_g=True) == lam
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8
        assert not np.array_equal(g, g0)


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


class TestCheckFinite:
    def test_non_finite_input_rejected_by_default(self):
        g = np.eye(3)
        g[0, 2] = np.inf
        for call in (lambda: thin_svd(g), lambda: solve_psd(g, np.ones(3))):
            with pytest.raises(NonFiniteError):
                call()

    def test_unchecked_calls_match_checked(self):
        gen = np.random.default_rng(4403)
        a = gen.standard_normal((5, 4))
        g = a.T @ a
        b = gen.standard_normal(4)
        # a column-major view goes to LAPACK as it is, with the same result
        f = np.asfortranarray(a)
        for got, want in zip(thin_svd(f, check_finite=False), thin_svd(a)):
            assert np.array_equal(got, want)
        assert np.array_equal(solve_psd(g, b, check_finite=False), solve_psd(g, b))


class TestEnsureFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [0, -1])
    def test_one_bad_entry_rejected(self, bad, pos):
        m = np.ones((4, 3))
        m.flat[pos] = bad
        with pytest.raises(NonFiniteError, match="A contains non-finite"):
            ensure_matrix(m, "A")
        with pytest.raises(NonFiniteError, match="y contains non-finite"):
            ensure_vector(m.ravel(), "y")

    def test_finite_and_empty_inputs_pass_through(self):
        m = rng.standard_normal((5, 2))
        assert ensure_matrix(m) is m
        assert ensure_vector(m[:, 0]).shape == (5,)
        assert ensure_matrix(np.zeros((0, 3))).shape == (0, 3)

    def test_check_allocates_no_mask(self):
        # a boolean mask of this input would take 1,000,000 bytes
        m = np.random.default_rng(4409).standard_normal((2000, 500))
        tracemalloc.start()
        try:
            assert ensure_matrix(m) is m
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
