import numpy as np
import pytest

from ihskit.errors import DimensionError, MissingHintError, RankDeficiencyError
from ihskit.sketch import (
    KINDS,
    SketchSpec,
    alpha_balance,
    build_sketch,
    explicit_sketch,
    identity_sketch,
    leverage_scores,
    verify_projection_condition,
)

rng = np.random.default_rng(2024)


def test_spec_validation():
    with pytest.raises(ValueError):
        SketchSpec("gaussian", 0, 1)
    with pytest.raises(ValueError):
        SketchSpec("fourier", 4, 1)
    for m in (4.5, 60.0):  # a float m would reach the Gaussian draw as a shape
        with pytest.raises(ValueError, match="integer"):
            SketchSpec("gaussian", m, 1)
    assert SketchSpec("gaussian", np.int64(4), 1).m == 4


def test_determinism_bit_identical():
    spec = SketchSpec("ros", 6, seed=99, stream=(3,))
    a = build_sketch(spec, 20).materialize()
    b = build_sketch(spec, 20).materialize()
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    spec = SketchSpec("gaussian", 4, seed=5)
    s1 = build_sketch(spec.for_round(1), 10).matrix
    s2 = build_sketch(spec.for_round(2), 10).matrix
    assert not np.array_equal(s1, s2)


def test_gaussian_entry_mean_monte_carlo():
    # sample mean of entries over many builds stays within 3 standard errors
    total, count = 0.0, 0
    for t in range(10_000):
        op = build_sketch(SketchSpec("gaussian", 3, 77, stream=(t,)), 5)
        total += op.matrix.sum()
        count += op.matrix.size
    se = 1.0 / np.sqrt(count)
    assert abs(total / count) <= 3 * se


def test_ros_shape_contract():
    op = build_sketch(SketchSpec("ros", 4, 11), 4)
    assert op.n_pad == 4
    assert op.indices.shape == (4,)
    assert np.all((op.indices >= 0) & (op.indices < 4))
    assert set(np.unique(op.signs)) <= {-1.0, 1.0}


def test_ros_pads_to_power_of_two():
    op = build_sketch(SketchSpec("ros", 3, 11), 6)
    assert op.n_pad == 8
    a = rng.standard_normal((6, 2))
    assert op.apply(a).shape == (3, 2)


def test_rowsample_uniform_rows():
    # rows are e_j / sqrt(p_j) = sqrt(n) e_j under uniform sampling
    op = build_sketch(SketchSpec("rowsample_uniform", 2, 123), 8)
    s = op.materialize()
    for row in s:
        nz = np.nonzero(row)[0]
        assert nz.size == 1
        assert row[nz[0]] == pytest.approx(np.sqrt(8))


def test_apply_identity_override():
    a = rng.standard_normal((7, 3))
    assert np.array_equal(identity_sketch(7, scaled=False).apply(a), a)
    scaled = identity_sketch(7, scaled=True)
    assert np.allclose(scaled.apply(a), np.sqrt(7) * a)
    # S^T S / m = I for the scaled override
    s = scaled.materialize()
    assert np.allclose(s.T @ s / scaled.m, np.eye(7), atol=1e-12)


# 200 and 1000 rows pad to 256 and 1024, where the transform has two factors
@pytest.mark.parametrize("n", [4, 8, 16, 200, 1000])
@pytest.mark.parametrize("d", [1, 3])
def test_ros_fast_path_equals_materialized(n, d):
    op = build_sketch(SketchSpec("ros", 5, 31, stream=(n, d)), n)
    a = rng.standard_normal((n, d))
    fast = op.apply(a)
    dense = op.materialize() @ a
    assert np.max(np.abs(fast - dense)) <= 1e-10


@pytest.mark.parametrize("kind", KINDS[:4])
def test_apply_is_linear(kind):
    op = build_sketch(SketchSpec(kind, 6, 17), 16)
    a = rng.standard_normal((16, 3))
    b = rng.standard_normal((16, 3))
    lhs = op.apply(2.5 * a - 1.5 * b)
    rhs = 2.5 * op.apply(a) - 1.5 * op.apply(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("kind,draws", [
    ("gaussian", 2000), ("rademacher", 2000), ("ros", 2000), ("rowsample_uniform", 20000),
])
def test_normalization_mean_sts(kind, draws):
    # E[S^T S / m] = I_n, checked entrywise on the Monte Carlo mean
    n, m = 16, 8
    acc = np.zeros((n, n))
    for t in range(draws):
        s = build_sketch(SketchSpec(kind, m, 55, stream=(t,)), n).materialize()
        acc += s.T @ s / m
    dev = np.max(np.abs(acc / draws - np.eye(n)))
    assert dev <= 0.05, f"{kind}: max entrywise deviation {dev:.4f}"


def test_blocked_operator_is_kron():
    spec = SketchSpec("gaussian", 3, 7)
    op = build_sketch(spec, 12, blocks=3)
    assert op.n_base == 4 and op.out_rows == 9
    base = build_sketch(spec, 4).matrix
    assert np.allclose(op.materialize(), np.kron(np.eye(3), base))
    a = rng.standard_normal((12, 2))
    assert np.allclose(op.apply(a), op.materialize() @ a)


def test_oversampling_flagged_not_error():
    op = build_sketch(SketchSpec("gaussian", 9, 3), 4)
    assert op.oversampled
    assert not build_sketch(SketchSpec("gaussian", 3, 3), 4).oversampled


def test_apply_dimension_mismatch():
    op = build_sketch(SketchSpec("gaussian", 3, 1), 8)
    with pytest.raises(DimensionError):
        op.apply(rng.standard_normal((9, 2)))


class TestLeverage:
    def test_canonical_columns(self):
        a = np.zeros((4, 2))
        a[0, 0] = 1.0
        a[1, 1] = 1.0
        assert leverage_scores(a) == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        p = leverage_scores(q)
        assert p == pytest.approx(np.sum(q * q, axis=1) / 3, abs=1e-12)

    def test_matches_hat_matrix(self):
        a = rng.standard_normal((12, 3))
        p = leverage_scores(a)
        hat = np.diag(a @ np.linalg.solve(a.T @ a, a.T)) / 3
        assert np.max(np.abs(p - hat)) <= 1e-8
        assert abs(p.sum() - 1.0) <= 1e-10

    def test_rank_deficient_rejected(self):
        a = rng.standard_normal((10, 2))
        with pytest.raises(RankDeficiencyError):
            leverage_scores(np.hstack([a, a[:, :1]]))

    def test_missing_leverage_vector(self):
        with pytest.raises(MissingHintError):
            build_sketch(SketchSpec("rowsample_leverage", 2, 1), 8)


class TestAlphaBalance:
    def test_uniform(self):
        assert alpha_balance(np.full(10, 0.1)) == pytest.approx(1.0)

    def test_spiky(self):
        assert alpha_balance([0.5, 0.5, 0.0, 0.0]) == pytest.approx(2.0)

    def test_matches_direct_scan(self):
        p = rng.dirichlet(np.ones(13))
        assert alpha_balance(p) == pytest.approx(13 * max(p))


class TestProjectionCondition:
    def test_ros_near_one(self):
        # expected value is exactly 1 for this ensemble
        eta = verify_projection_condition(SketchSpec("ros", 4, 0), 16, trials=500)
        assert abs(eta - 1.0) <= 0.05

    def test_rowsample_uniform_bounded(self):
        eta = verify_projection_condition(SketchSpec("rowsample_uniform", 8, 500), 32, trials=2000)
        assert eta <= 1.1

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(DimensionError):
            verify_projection_condition(SketchSpec("gaussian", 10, 1), 5, trials=10)

    def test_details_count_singular_draws(self):
        eta, details = verify_projection_condition(
            SketchSpec("rowsample_uniform", 6, 3), 8, trials=50, return_details=True)
        assert details["singular_draws"] > 0  # duplicate rows are common here
        assert np.isfinite(eta)


def test_explicit_sketch_wraps_matrix():
    s = rng.standard_normal((3, 5))
    op = explicit_sketch(s)
    a = rng.standard_normal((5, 2))
    assert np.allclose(op.apply(a), s @ a)
