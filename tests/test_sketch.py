import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ihskit.errors import DimensionError, MissingHintError, RankDeficiencyError
from ihskit.experiments import gen_sparse
from ihskit.ihs import IhsConfig, ihs_solve
from ihskit.linalg import _row_factors, fwht_normalized
from ihskit.seeding import derive_rng
from ihskit.sketch import (
    KINDS,
    PANEL_KINDS,
    PANEL_ROWS,
    SketchOperator,
    SketchSpec,
    alpha_balance,
    build_sketch,
    explicit_sketch,
    identity_sketch,
    leverage_scores,
    _panels,
    _row_blocks,
    sketch_gram,
    verify_projection_condition,
)
from ihskit.subsolver import SolverControls

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
    assert SketchSpec("gaussian", 4, np.int64(5)).seed == 5


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None], ids=repr)
def test_spec_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    # 1.5 would draw seed 1's stream, and -1 would fail only at the first draw
    with pytest.raises(ValueError, match="seed"):
        SketchSpec("gaussian", 4, seed)


def test_determinism_bit_identical():
    spec = SketchSpec("ros", 6, seed=99, stream=(3,))
    a = build_sketch(spec, 20).materialize()
    b = build_sketch(spec, 20).materialize()
    assert np.array_equal(a, b)


def test_stream_fingerprint():
    # pins the generator behind every seeded output: a change of bit
    # generator or of the seed keying moves these values
    rng = derive_rng(7, 1)
    assert rng.bit_generator.random_raw(3).tolist() == [
        16593719428764486908, 18433768258943850395, 12503478145309798367]
    assert rng.standard_normal(2).tolist() == [-0.6615539355766568, -1.364538184285372]


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


# m not a multiple of the panel, one row, one column
PANEL_SHAPES = [(2 * PANEL_ROWS + 5, 70), (1, 40), (PANEL_ROWS + 3, 1)]


def _drawn_panels(spec, n):
    """Every panel ``_panels`` draws, stacked; each is copied before the
    next overwrites it."""
    return np.vstack([panel.copy() for _, panel in _panels(spec, n)])


def _sketch_product(spec, a, leverage_p=None):
    """``S A`` as the blocks that ``sketch_gram`` reduces, stacked."""
    return np.vstack([b.copy() for b in _row_blocks(spec, a, leverage_p, None)])


@pytest.mark.parametrize("kind", PANEL_KINDS)
@pytest.mark.parametrize("m, n", PANEL_SHAPES)
def test_panel_draws_equal_build_sketch(kind, m, n):
    spec = SketchSpec(kind, m, 61, stream=(2,))
    assert np.array_equal(_drawn_panels(spec, n), build_sketch(spec, n).matrix)


# odd n, and m n not a multiple of the 32 bits of a word
@pytest.mark.parametrize("m, n", [(PANEL_ROWS + 7, 45), (3 * PANEL_ROWS + 1, 101), (5, 3)])
def test_rademacher_entries_and_panels(m, n):
    spec = SketchSpec("rademacher", m, 79, stream=(n,))
    s = build_sketch(spec, n).matrix
    assert np.all(np.abs(s) == 1.0)
    assert np.array_equal(_drawn_panels(spec, n), s)
    # A = I makes one block of all m rows: G is S^T S / (n m) exactly
    b = s / np.sqrt(n * m)
    assert np.array_equal(sketch_gram(spec, np.eye(n), n)[0], b.T @ b)


def test_rademacher_signs_balanced():
    # about 10^6 entries: +1 with frequency 1/2 within 5 standard errors,
    # also at each bit position of a byte and of a word
    s = build_sketch(SketchSpec("rademacher", 977, 83), 1031).matrix.ravel()
    plus = (s[: s.size // 32 * 32] > 0).reshape(-1, 32)
    assert abs(plus.mean() - 0.5) <= 5 * 0.5 / np.sqrt(plus.size)
    assert np.all(np.abs(plus.mean(axis=0) - 0.5) <= 5 * 0.5 / np.sqrt(plus.shape[0]))


# 200 x 900 times 900 x 24 is a shape at which BLAS rounds the panels'
# products differently from the whole product
@pytest.mark.parametrize("kind", PANEL_KINDS)
@pytest.mark.parametrize("m, n", PANEL_SHAPES + [(200, 900)])
def test_panel_product_matches_apply(kind, m, n):
    spec = SketchSpec(kind, m, 67)
    a = rng.standard_normal((n, 24))
    assert _rel_dev(_sketch_product(spec, a), build_sketch(spec, n).apply(a)) <= 1e-13


@pytest.mark.parametrize("kind", [k for k in KINDS if k not in PANEL_KINDS])
def test_sketch_product_of_other_kinds_applies_the_operator(kind):
    a = rng.standard_normal((100, 3))
    lev = leverage_scores(a) if kind == "rowsample_leverage" else None
    spec = SketchSpec(kind, 30, 71)
    assert np.array_equal(_sketch_product(spec, a, leverage_p=lev),
                          build_sketch(spec, 100, leverage_p=lev).apply(a))


@pytest.mark.parametrize("kind", KINDS)
def test_sketch_product_rejects_empty_source(kind):
    with pytest.raises(ValueError, match="n must be >= 1"):
        sketch_gram(SketchSpec(kind, 3, 1), np.zeros((0, 2)), 1)


# (m, rows of A, d): m = 1; m < PANEL_ROWS; m not a multiple of it over
# several blocks; m < d; m > d over blocks of more than one panel
GRAM_SHAPES = [(1, 50, 4), (PANEL_ROWS - 7, 60, 5), (3 * PANEL_ROWS + 5, 200, 9),
               (20, 100, 40), (200, 300, 70)]


@pytest.mark.parametrize("kind", PANEL_KINDS)
@pytest.mark.parametrize("m, rows, d", GRAM_SHAPES)
@pytest.mark.parametrize("blocks", [1, 3])
def test_sketch_gram_matches_apply(kind, m, rows, d, blocks):
    # on a block problem A is A_base and the objective's n is k times its rows
    spec = SketchSpec(kind, m, 73, stream=(m,))
    a = rng.standard_normal((rows, d))
    w = rng.standard_normal((d, d))
    n = blocks * rows
    b = build_sketch(spec, rows).apply(a)
    su = b @ w
    g, h = sketch_gram(spec, a, n, w)
    assert _rel_dev(g, b.T @ b / (n * m)) <= 1e-12
    assert _rel_dev(h, su.T @ su / m) <= 1e-12
    assert np.array_equal(g, g.T)
    assert sketch_gram(spec, a, n)[1] is None


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
    assert np.array_equal(explicit_sketch(np.eye(7)).apply(a), a)
    scaled = identity_sketch(7)
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


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 2049])
def test_ros_materialize_equals_full_transform_rows(n):
    # the reference transforms all n_pad columns of D and keeps m rows;
    # the signs are drawn before the indices, so the draws share them
    ops = [build_sketch(SketchSpec("ros", m, 41, stream=(n,)), n) for m in (1, 7, 64)]
    full = fwht_normalized(np.diag(ops[0].signs.astype(np.float64)))
    for op in ops:
        assert np.array_equal(op.signs, ops[0].signs)
        assert np.array_equal(op.materialize(), np.sqrt(op.n_pad) * full[op.indices, :n])


def test_ros_materialize_holds_no_padded_square():
    # n = 2049 pads to 4096: the full transform would hold 128 MiB arrays
    op = build_sketch(SketchSpec("ros", 64, 43), 2049)
    tracemalloc.start()
    try:
        s = op.materialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.shape == (64, 2049)
    assert peak < 16 * 2**20


# a stream of its own, so that these tests leave the draws of the others as they were
ros_rng = np.random.default_rng(2025)


def _ros_full_transform(op, a):
    """ROS rows through the full transform of the signed, zero-padded input."""
    padded = np.zeros((op.n_pad, a.shape[1]))
    padded[: op.n] = op.signs[: op.n, None] * a
    return np.sqrt(op.n_pad) * fwht_normalized(padded)[op.indices]


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# one, two and three Hadamard factors, with and without zero padding
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 4096, 8193])
def test_ros_apply_matches_full_transform(n):
    op = build_sketch(SketchSpec("ros", max(1, n // 4), 41, stream=(n,)), n)
    a = ros_rng.standard_normal((n, 3))
    before = a.copy()
    assert _rel_dev(op.apply(a), _ros_full_transform(op, a)) <= 1e-13
    assert np.array_equal(a, before)


def test_ros_apply_oversampled_with_repeated_rows():
    op = build_sketch(SketchSpec("ros", 300, 47), 65)
    assert op.m > op.n_pad and np.unique(op.indices).size < op.m
    a = ros_rng.standard_normal((65, 4))
    assert _rel_dev(op.apply(a), _ros_full_transform(op, a)) <= 1e-13


def test_ros_apply_all_rows_in_one_inner_group():
    # 5000 rows pad to 8192 = 32 x (32 x 8): rows 7 + 256 j share inner index 7
    assert _row_factors(8192) == [32, 32, 8]
    op = SketchOperator(kind="ros", n=5000, m=300, signs=ros_rng.choice([-1.0, 1.0], size=8192),
                        indices=7 + 256 * ros_rng.integers(0, 32, size=300))
    a = ros_rng.standard_normal((5000, 2))
    assert _rel_dev(op.apply(a), _ros_full_transform(op, a)) <= 1e-13


def test_ros_apply_transient_below_half_of_input():
    # at 8192 x 256 a transform of all columns at once held three times
    # A's bytes; in column panels the apply, result included, needs less
    # than half of them
    a = np.random.default_rng(81).standard_normal((8192, 256))
    op = build_sketch(SketchSpec("ros", 1024, 83), 8192)
    tracemalloc.start()
    try:
        op.apply(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 2


def test_ros_ihs_l1_matches_explicit_operator():
    # rounds solved far below the default 1e-10 tolerance, so that the
    # iterates differ by the rounding of the two operators, not by where
    # the inner solver happened to stop
    prob = gen_sparse(1000, 20, 4, 1.0, 53)
    spec = SketchSpec("ros", 160, 59)
    cfg = IhsConfig(spec, 6, inner=SolverControls(tol=1e-13), inner_schedule="fixed")
    fast = ihs_solve(prob, cfg)
    dense = ihs_solve(prob, cfg, operator_factory=lambda t: explicit_sketch(
        build_sketch(spec.for_round(t), prob.n).materialize()))
    assert all(fast.round_converged) and all(dense.round_converged)
    for got, want in zip(fast.iterates[1:], dense.iterates[1:]):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# The Gaussian solve has the shape of the perfbench ls_gaussian workload.
# At other shapes, such as 3000 x 64 with m = 384, OpenBLAS's one-thread
# and threaded matrix products already round S A differently (an open
# item in ROADMAP.md), so that case checks that drawing rounds on worker
# threads adds no dependence on the thread count of its own.
_THREADED_SOLVE = """
import sys
from ihskit.experiments import gen_sparse, gen_unconstrained
from ihskit.ihs import IhsConfig, ihs_solve
from ihskit.sketch import SketchSpec
prob = gen_sparse(3000, 64, 8, 1.0, 61)
rep = ihs_solve(prob, IhsConfig(SketchSpec("ros", 500, 67), 4))
sys.stdout.write(rep.x.tobytes().hex() + " ")
prob = gen_unconstrained(2048, 48, 1.0, 71)
rep = ihs_solve(prob, IhsConfig(SketchSpec("gaussian", 288, 73), 6, step="tuned"))
sys.stdout.write(rep.x.tobytes().hex())
"""


def test_ros_ihs_bit_identical_across_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.split())
    assert len(outs[0]) == 2 and outs[0] == outs[1]


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
        # rows are sampled with replacement, so E[P] = (E[#distinct] / n) I
        # and eta = n (1 - (1 - 1/n)^m) / m = 0.9101 here, not 1; the
        # estimate (n/m) lambda_max(mean of T projectors) is biased upward
        # by about 0.13 sqrt(500 / T), hence the many trials
        n, m = 16, 4
        eta = verify_projection_condition(SketchSpec("ros", m, 0), n, trials=10_000)
        assert abs(eta - n * (1 - (1 - 1 / n) ** m) / m) <= 0.05

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


class TestProjectionConditionOracle:
    @staticmethod
    def oracle(spec, n, trials):
        # the mean of the projectors pinv(S) S onto the row spaces of S
        mean = sum(np.linalg.pinv(s) @ s for s in (
            build_sketch(spec.for_round(t), n).materialize() for t in range(trials))) / trials
        return (n / spec.m) * np.linalg.eigvalsh(mean)[-1]

    @pytest.mark.parametrize("kind, n, m, singular", [
        ("gaussian", 24, 6, False), ("gaussian", 5, 5, False),
        ("ros", 20, 6, True), ("ros", 16, 16, True),
        ("rowsample_uniform", 12, 5, True), ("rowsample_uniform", 9, 9, True),
    ])
    def test_matches_pinv_oracle(self, kind, n, m, singular):
        spec = SketchSpec(kind, m, 61)
        eta, details = verify_projection_condition(spec, n, trials=300, return_details=True)
        # the row-sampling kinds draw repeated rows in some trials
        assert (details["singular_draws"] > 0) == singular
        assert eta == pytest.approx(self.oracle(spec, n, 300), rel=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "rowsample_uniform"])
    def test_holds_one_square_accumulator(self, kind):
        # the sum and top_eigenvalue's copy of it: two n x n arrays
        n = 1024
        tracemalloc.start()
        try:
            verify_projection_condition(SketchSpec(kind, 64, 67), n, trials=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "rowsample_uniform"])
    def test_holds_no_copy_of_the_sum(self, kind):
        # top_eigenvalue overwrites the Fortran-order sum in place; with
        # m = 16 a draw's own arrays are a few n x m ones
        n = 1024
        tracemalloc.start()
        try:
            verify_projection_condition(SketchSpec(kind, 16, 67), n, trials=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * n * n * 8


def test_explicit_sketch_wraps_matrix():
    s = rng.standard_normal((3, 5))
    op = explicit_sketch(s)
    a = rng.standard_normal((5, 2))
    assert np.allclose(op.apply(a), s @ a)
