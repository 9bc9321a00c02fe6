from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import ihskit.experiments as experiments
from ihskit.errors import IhskitError
from ihskit.experiments import (
    CSV_HEADER,
    gen_lowrank,
    gen_sparse,
    gen_unconstrained,
    read_rows,
    run_experiment,
    summarize,
    write_rows,
)
from ihskit.ihs import LsProblem, solve_exact
from ihskit.subsolver import SolverControls

rng = np.random.default_rng(777)


class TestSeminorm:
    def test_zero_at_reference(self):
        prob = LsProblem(rng.standard_normal((6, 3)), np.zeros(6))
        x = rng.standard_normal(3)
        assert prob.seminorm(x - x) == 0.0

    def test_identity_design(self):
        x = np.array([3.0, 4.0])
        ref = np.zeros(2)
        prob = LsProblem(np.eye(2), np.zeros(2))
        assert prob.seminorm(x - ref) == pytest.approx(5.0 / np.sqrt(2))

    def test_matches_direct_formula(self):
        a = rng.standard_normal((20, 4))
        x, ref = rng.standard_normal(4), rng.standard_normal(4)
        want = np.sqrt(np.sum((a @ (x - ref)) ** 2) / 20)
        assert LsProblem(a, np.zeros(20)).seminorm(x - ref) == pytest.approx(want, abs=1e-14)


class TestGenerators:
    def test_deterministic(self):
        p1 = gen_unconstrained(50, 4, 1.0, 5)
        p2 = gen_unconstrained(50, 4, 1.0, 5)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.y, p2.y)

    def test_unconstrained_truth_on_sphere(self):
        for t in range(20):
            p = gen_unconstrained(30, 6, 0.5, (1, t))
            assert abs(np.linalg.norm(p.truth) - 1.0) <= 1e-12

    def test_noise_second_moment(self):
        # E ||w||^2 / n -> sigma^2
        sigma, n = 0.7, 4000
        vals = []
        for t in range(20):
            p = gen_unconstrained(n, 3, sigma, (2, t))
            w = p.y - p.A @ p.truth
            vals.append(w @ w / n)
        assert np.mean(vals) == pytest.approx(sigma ** 2, rel=0.05)

    def test_ls_error_scaling(self):
        # ||x_ls - x*||_A^2 concentrates near sigma^2 d / n
        n, d = 2000, 20
        errs = []
        for t in range(50):
            p = gen_unconstrained(n, d, 1.0, (3, t))
            errs.append(p.seminorm(solve_exact(p).x - p.truth) ** 2)
        target = d / n
        assert target / 2 <= np.mean(errs) <= 2 * target

    def test_sparse_structure(self):
        p = gen_sparse(100, 24, 6, 1.0, 7)
        x = p.truth
        assert np.count_nonzero(x) == 6
        assert np.linalg.norm(x) == pytest.approx(1.0)
        assert np.abs(x).sum() == pytest.approx(np.sqrt(6))
        assert p.set.radius == pytest.approx(np.sqrt(6))

    def test_lowrank_structure(self):
        p = gen_lowrank(30, 8, 6, 2, 0.5, 9)
        x_mat = p.truth.reshape((8, 6), order="F")
        s = np.linalg.svd(x_mat, compute_uv=False)
        assert np.all(s[2:] <= 1e-10)
        assert np.linalg.norm(x_mat) == pytest.approx(1.0)
        assert s.sum() <= np.sqrt(2) + 1e-12
        assert p.set.radius == pytest.approx(s.sum())
        assert p.sketch_blocks == 6
        assert p.A.shape == (30 * 6, 8 * 6)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            gen_unconstrained(5, 5, 1.0, 0)
        with pytest.raises(ValueError):
            gen_sparse(50, 10, 11, 1.0, 0)
        with pytest.raises(ValueError):
            gen_lowrank(20, 4, 4, 5, 1.0, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("gen", [
        lambda sigma: gen_unconstrained(20, 3, sigma, 0),
        lambda sigma: gen_sparse(20, 6, 2, sigma, 0),
        lambda sigma: gen_lowrank(12, 4, 3, 1, sigma, 0),
    ], ids=["unconstrained", "sparse", "lowrank"])
    def test_noise_level_not_finite_and_nonnegative_rejected(self, gen, sigma):
        # a plain ValueError: the runners turn an IhskitError into failed rows
        with pytest.raises(ValueError, match="sigma must be finite and >= 0") as info:
            gen(sigma)
        assert not isinstance(info.value, IhskitError)


class TestRunners:
    def test_fig2_row_count_contract(self):
        rows = run_experiment("fig2", seed=3, d=20, n=400, trials=3)
        # trials * (rounds + 1) * |gamma grid|
        assert len(rows) == 3 * 7 * 3
        assert all(r.method == "ihs" for r in rows)
        gammas = {r.flag.split(";")[0] for r in rows}
        assert gammas == {"gamma=4", "gamma=6", "gamma=8"}

    def test_fig2_errors_decrease(self):
        rows = run_experiment("fig2", seed=4, d=20, n=400, trials=2)
        by_key = {}
        for r in rows:
            by_key.setdefault((r.flag.split(";")[0], r.trial), []).append(r)
        for (gamma, _), rs in by_key.items():
            rs.sort(key=lambda r: r.iteration)
            errs = [r.err_ls_semi for r in rs]
            assert errs[-1] < errs[0]
            if gamma == "gamma=8":
                assert errs[-1] < errs[0] * 0.2

    def test_fig6a_methods_present(self):
        rows = run_experiment("fig6a", seed=5, d1=6, d2=5, r=2, m=20,
                              n_grid=(12,), trials=2, rounds=3)
        methods = {r.method for r in rows}
        assert methods == {"exact", "ihs", "classical"}
        assert all(r.d == 30 for r in rows)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="fig1"):
            run_experiment("fig7", seed=1)

    def test_threaded_rows_identical_to_sequential(self):
        r1 = run_experiment("fig2", seed=6, d=10, n=200, trials=2, threads=1)
        r2 = run_experiment("fig2", seed=6, d=10, n=200, trials=2, threads=4)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            assert a.err_ls_semi == b.err_ls_semi
            assert a.err_truth_semi == b.err_truth_semi
            assert (a.trial, a.method, a.iteration) == (b.trial, b.method, b.iteration)

    def test_threaded_ros_rows_identical_to_sequential(self):
        # the Hadamard transform runs as BLAS products inside worker threads
        r1 = run_experiment("fig1", seed=8, d=4, n_grid=(100, 300), trials=2, kind="ros",
                            threads=1)
        r4 = run_experiment("fig1", seed=8, d=4, n_grid=(100, 300), trials=2, kind="ros",
                            threads=4)
        assert len(r1) == len(r4) == 12
        for a, b in zip(r1, r4):
            assert replace(a, seconds=0.0) == replace(b, seconds=0.0)

    def test_deterministic_given_seed(self):
        r1 = run_experiment("fig1", seed=7, d=5, n_grid=(60,), trials=2)
        r2 = run_experiment("fig1", seed=7, d=5, n_grid=(60,), trials=2)
        for a, b in zip(r1, r2):
            assert a.err_truth_semi == b.err_truth_semi
            assert a.err_truth_l2 == b.err_truth_l2


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = run_experiment("fig2", seed=8, d=10, n=200, trials=1)
        path = tmp_path / "out.csv"
        write_rows(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(CSV_HEADER)
        back = read_rows(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.err_ls_semi == b.err_ls_semi  # 17 significant digits round-trip
            assert a.err_truth_semi == b.err_truth_semi
            assert a.seconds == b.seconds

    def test_summarize_mentions_methods(self):
        rows = run_experiment("fig6a", seed=9, d1=5, d2=4, r=1, m=12,
                              n_grid=(10,), trials=2, rounds=2)
        line = summarize(rows)
        for method in ("exact", "ihs", "classical"):
            assert method in line

    def test_summarize_keeps_every_grid_point(self):
        rows = run_experiment("fig2", seed=5, d=8, n=200, gammas=(4, 6), rounds=2, trials=1)
        finals = [r.err_truth_semi for r in rows if r.iteration == 2]
        assert len(finals) == 2 and finals[0] != finals[1]
        line = summarize(rows)
        assert f"mean err_truth={np.mean(finals):.4g} (trials=1, points=2)" in line


@pytest.mark.parametrize("make", [
    partial(gen_unconstrained, 200, 8, 1.0),
    partial(gen_sparse, 200, 8, 3, 1.0),
], ids=["unconstrained", "sparse"])
def test_trace_ends_at_the_comparison_ihs_row(make):
    # one task: a trace's last iterate is the comparison's ihs row
    points = [experiments._Point(make, 200, 8, 40, 3, tag="gamma=5"),
              experiments._Point(make, 200, 8, 60, 2, tag="gamma=7")]
    args = ("fig1", 4, points, 2, "gaussian", 1)
    trace = experiments._run(*args, trace=True)
    compare = experiments._run(*args)
    assert len(trace) == 2 * (4 + 3) and len(compare) == 2 * 2 * 3
    lasts = [row for row, nxt in zip(trace, trace[1:] + [None])
             if nxt is None or nxt.iteration == 0]
    ihs_rows = [row for row in compare if row.method == "ihs"]
    keys = ("trial", "n", "d", "iteration", "err_ls_semi", "err_truth_semi", "err_truth_l2")
    for last, ihs in zip(lasts, ihs_rows, strict=True):
        assert [getattr(last, k) for k in keys] == [getattr(ihs, k) for k in keys]


def test_fig4_and_fig5_smoke():
    rows4 = run_experiment("fig4", seed=11, d=32, n=300, s=4, gammas=(2,),
                           rounds=2, trials=1)
    assert len(rows4) == 3  # (rounds + 1) iterations, one gamma, one trial
    assert all(r.method == "ihs" for r in rows4)
    rows5 = run_experiment("fig5", seed=12, d_grid=(16,), rounds=2, trials=1)
    assert {r.method for r in rows5} == {"exact", "ihs", "classical"}


def test_full_scale_overrides_match_runner_signatures():
    import inspect

    from ihskit.experiments import _RUNNERS, FULL_SCALE_OVERRIDES

    for exp_id, overrides in FULL_SCALE_OVERRIDES.items():
        params = inspect.signature(_RUNNERS[exp_id]).parameters
        for key in overrides:
            assert key in params, f"{exp_id}: unknown override {key}"


def test_capped_solvers_flag_every_comparison_row(monkeypatch):
    # an inner solver capped at one iteration leaves each constrained solve
    # unconverged, and the exact and classical rows say so as the ihs row does
    capped = SolverControls(max_iter=1)
    for name in ("solve_exact", "classical_sketch_solve"):
        solver = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *args, solver=solver, **kw: solver(*args, ctl=capped, **kw))
    rows = run_experiment("fig5", seed=4, d_grid=(16,), trials=1, rounds=2)
    assert [row.method for row in rows] == ["exact", "ihs", "classical"]
    assert [row.flag for row in rows] == ["nonconverged", "", "nonconverged"]


@pytest.mark.parametrize("kw", [{"trials": 0}, {"threads": 0}, {"threads": -3}])
def test_trial_and_thread_counts_below_one_rejected(kw):
    with pytest.raises(ValueError, match="must be >= 1"):
        run_experiment("fig1", seed=1, n_grid=(100,), **{"trials": 1, **kw})


@pytest.mark.parametrize("exp_id, kw", [
    ("fig3", {"d_grid": (4,), "n_factor": 20}),
    ("fig6a", {"d1": 4, "d2": 4, "r": 1, "m": 10, "n_grid": (20,)}),
])
def test_zero_rounds_rejected_where_the_default_is_computed(exp_id, kw):
    with pytest.raises(ValueError, match="rounds must be >= 1"):
        run_experiment(exp_id, seed=1, trials=1, rounds=0, **kw)
