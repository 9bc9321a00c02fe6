import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ihskit.constraints import Box, L1Ball, Unconstrained, contains
from ihskit.errors import DimensionError, MissingHintError, NonFiniteError, RankDeficiencyError
from ihskit.experiments import gen_lowrank, gen_sparse, gen_unconstrained
from ihskit.ihs import (
    IhsConfig,
    IhsReport,
    LsProblem,
    classical_sketch_solve,
    contraction_certificates_unconstrained,
    hessian_sketch_solve,
    ihs_solve,
    recommend_iterations,
    recommend_sketch_size,
    solve_exact,
)
from ihskit.linalg import OPNORM_SAFETY, solve_psd, top_eigenvalue
from ihskit.sketch import (
    KINDS,
    PANEL_ROWS,
    SketchOperator,
    SketchSpec,
    build_sketch,
    explicit_sketch,
    identity_sketch,
    leverage_scores,
)
from ihskit.subsolver import SketchedQuadratic, SolverControls, project_iterate, solve_constrained

rng = np.random.default_rng(55)


class TestSolveExact:
    def test_identity_problem(self):
        prob = LsProblem(np.eye(2), [1.0, 2.0])
        assert solve_exact(prob).x == pytest.approx([1, 2])

    def test_zero_rhs_gives_zero(self):
        a = rng.standard_normal((10, 3))
        for cset in (Unconstrained(), L1Ball(1.0), Box(-1.0, 1.0)):
            prob = LsProblem(a, np.zeros(10), set=cset)
            assert np.max(np.abs(solve_exact(prob).x)) <= 1e-9

    def test_rank_deficient_unconstrained_raises(self):
        a = rng.standard_normal((20, 3))
        prob = LsProblem(np.column_stack([a, np.zeros(20)]), rng.standard_normal(20))
        with pytest.raises(RankDeficiencyError, match="rank deficient"):
            solve_exact(prob)

    def test_every_solver_returns_a_report(self):
        # a direct solve is one round: its iterate, flag and inner
        # iteration count, and errors to the truth the problem carries
        prob = gen_sparse(200, 10, 2, 1.0, 5)
        spec = SketchSpec("gaussian", 60, 3)
        direct = [solve_exact(prob), classical_sketch_solve(prob, spec),
                  hessian_sketch_solve(prob, spec)]
        for rep in direct + [ihs_solve(prob, IhsConfig(spec, 2))]:
            assert isinstance(rep, IhsReport)
            assert rep.errors_to_truth == [prob.seminorm(v - prob.truth) for v in rep.iterates]
        for rep in direct:
            assert len(rep.iterates) == len(rep.round_converged) == len(rep.per_round_seconds) == 1
            assert rep.errors_to_ls is None and rep.certificates is None

        capped = solve_exact(prob, SolverControls(max_iter=1))
        assert capped.all_converged is False
        assert capped.inner_iterations == [1]
        free = solve_exact(LsProblem(prob.A, prob.y))
        assert free.all_converged is True
        assert free.inner_iterations == [0]

    def test_normal_equations_residual(self):
        prob = gen_unconstrained(50, 5, 1.0, 42)
        x = solve_exact(prob).x
        resid = prob.A.T @ (prob.A @ x - prob.y)
        assert np.max(np.abs(resid)) <= 1e-8 * np.linalg.norm(prob.A.T @ prob.y)


class TestIdentitySketchExactness:
    """With S^T S / m = I all sketched solvers coincide with the exact one."""

    def _problems(self):
        a = rng.standard_normal((40, 4))
        y = a @ np.array([0.5, -1.0, 0.2, 0.8]) + 0.3 * rng.standard_normal(40)
        return [
            LsProblem(a, y),
            LsProblem(a, y, set=L1Ball(0.9)),
            LsProblem(a, y, set=Box(-0.4, 0.4)),
        ]

    def test_classical(self):
        for prob in self._problems():
            ident = identity_sketch(prob.n)
            x = classical_sketch_solve(prob, operator=ident).x
            assert prob.seminorm(x - solve_exact(prob).x) <= 1e-9

    def test_classical_plain_identity_override(self):
        # unscaled S = I also works for the classical sketch (pure rescaling)
        prob = self._problems()[0]
        x = classical_sketch_solve(prob, operator=explicit_sketch(np.eye(prob.n))).x
        assert prob.seminorm(x - solve_exact(prob).x) <= 1e-9

    def test_hessian(self):
        for prob in self._problems():
            x = hessian_sketch_solve(prob, operator=identity_sketch(prob.n)).x
            assert prob.seminorm(x - solve_exact(prob).x) <= 1e-9

    def test_ihs_one_step(self):
        for prob in self._problems():
            cfg = IhsConfig(SketchSpec("gaussian", prob.n, 0), rounds=1)
            rep = ihs_solve(prob, cfg, operator_factory=lambda t: identity_sketch(prob.n))
            assert prob.seminorm(rep.x - solve_exact(prob).x) <= 1e-9


class TestClassicalSketch:
    def test_noiseless_one_dim_recovers_truth(self):
        # any sketch with S A != 0 solves the 1-D noiseless problem exactly
        n, x_star = 64, 2.5
        a = np.ones((n, 1))
        prob = LsProblem(a, x_star * a[:, 0])
        for kind in ("gaussian", "rademacher", "ros", "rowsample_uniform"):
            x = classical_sketch_solve(prob, SketchSpec(kind, 4, 19)).x
            assert x == pytest.approx([x_star], abs=1e-9)


class TestHessianSketch:
    def test_orthogonal_rhs_gives_zero(self):
        # y orthogonal to range(A) makes the linear term vanish
        a, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        y = rng.standard_normal(20)
        y -= a @ (a.T @ y)
        prob = LsProblem(a, y)
        x = hessian_sketch_solve(prob, SketchSpec("gaussian", 12, 3)).x
        assert np.max(np.abs(x)) <= 1e-9

    def test_good_event_rate(self):
        # one Hessian sketch halves the error whp once m is large enough
        n, d, m = 500, 10, 200
        hits = 0
        for t in range(100):
            prob = gen_unconstrained(n, d, 1.0, (9, t))
            x_ls = solve_exact(prob).x
            xh = hessian_sketch_solve(prob, SketchSpec("gaussian", m, 1009, stream=(t,))).x
            hits += prob.seminorm(xh - x_ls) <= 0.5 * prob.seminorm(x_ls)
        assert hits >= 95


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [classical_sketch_solve, hessian_sketch_solve])
def test_one_shot_spec_matches_its_operator(solver, kind):
    # with a spec the sketch is formed in panels (the classical solve
    # sketches [A | y] in one pass); with the operator it is applied whole
    prob = gen_unconstrained(300, 8, 1.0, 241)
    spec = SketchSpec(kind, 60, 29)
    lev = leverage_scores(prob.A) if kind == "rowsample_leverage" else None
    want = solver(prob, operator=build_sketch(spec, prob.n, leverage_p=lev)).x
    assert np.linalg.norm(solver(prob, spec).x - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["gaussian", "ros"])
def test_classical_solve_does_not_copy_a(kind):
    # the classical sketch reduces S A and S y side by side; stacking
    # [A | y] first held an n x (d + 1) copy, 8.4 MB here
    prob = gen_unconstrained(4096, 256, 1.0, 269)
    spec = SketchSpec(kind, 1024, 47)
    peaks = []
    for solver in (classical_sketch_solve, hessian_sketch_solve):
        solver(prob, spec)
        tracemalloc.start()
        try:
            solver(prob, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + (1 << 20)


class TestIhsSolve:
    def test_fixed_point_unconstrained(self):
        prob = gen_unconstrained(200, 8, 1.0, 11)
        x_ls = solve_exact(prob).x
        cfg = IhsConfig(SketchSpec("gaussian", 64, 2), rounds=3, x0=x_ls)
        rep = ihs_solve(prob, cfg, reference=x_ls)
        assert max(rep.errors_to_ls) <= 1e-10

    def test_fixed_point_constrained(self):
        prob = gen_sparse(300, 12, 3, 1.0, 13)
        x_ls = solve_exact(prob).x
        cfg = IhsConfig(SketchSpec("gaussian", 80, 4), rounds=2, x0=x_ls)
        rep = ihs_solve(prob, cfg, reference=x_ls)
        # stationary point of the variational inequality: stays put to solver tol
        assert max(rep.errors_to_ls) <= 1e-6

    @pytest.mark.parametrize("make", [lambda: gen_sparse(60, 6, 2, 1.0, 19),
                                      lambda: gen_unconstrained(60, 6, 1.0, 19)],
                             ids=["l1", "unconstrained"])
    def test_non_finite_sketched_gram_raises(self, make):
        prob = make()
        # every sketch entry is finite, but the sketched Gram overflows
        big = explicit_sketch(np.full((12, prob.n), 1e200))
        cfg = IhsConfig(SketchSpec("gaussian", 12, 1), rounds=2)
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            ihs_solve(prob, cfg, operator_factory=lambda t: big)

    def test_geometric_decay(self):
        prob = gen_unconstrained(2000, 50, 1.0, 17)
        x_ls = solve_exact(prob).x
        cfg = IhsConfig(SketchSpec("gaussian", 400, 5), rounds=8)
        rep = ihs_solve(prob, cfg, reference=x_ls)
        errs = np.array(rep.errors_to_ls)
        ratios = errs[1:] / errs[:-1]
        assert np.median(ratios) < 0.6
        assert errs[-1] <= 0.02 * errs[0]

    def test_trace_lengths_and_flags(self):
        prob = gen_unconstrained(100, 5, 1.0, 23)
        cfg = IhsConfig(SketchSpec("gaussian", 30, 6), rounds=4)
        rep = ihs_solve(prob, cfg, reference=solve_exact(prob).x)
        assert len(rep.iterates) == 5
        assert len(rep.errors_to_ls) == 5
        assert len(rep.errors_to_truth) == 5
        assert len(rep.per_round_seconds) == 4
        assert len(rep.round_converged) == 4
        assert np.array_equal(rep.iterates[0], np.zeros(5))

    def test_seed_determinism_bit_identical(self):
        prob = gen_sparse(200, 10, 3, 1.0, 29)
        cfg = IhsConfig(SketchSpec("ros", 40, 7), rounds=3)
        r1 = ihs_solve(prob, cfg, reference=solve_exact(prob).x)
        r2 = ihs_solve(prob, cfg, reference=solve_exact(prob).x)
        for a, b in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b)
        assert r1.errors_to_ls == r2.errors_to_ls

    def test_iterates_feasible(self):
        prob = gen_sparse(300, 16, 4, 1.0, 31)
        cfg = IhsConfig(SketchSpec("gaussian", 100, 8), rounds=4)
        rep = ihs_solve(prob, cfg)
        for x in rep.iterates:
            assert contains(prob.set, x, tol=1e-9)

    def test_nonconvergence_flagged_loop_continues(self):
        prob = gen_sparse(300, 16, 4, 1.0, 37)
        cfg = IhsConfig(SketchSpec("gaussian", 100, 9), rounds=3,
                        inner=SolverControls(tol=1e-15, max_iter=2))
        rep = ihs_solve(prob, cfg)
        assert len(rep.iterates) == 4
        assert not all(rep.round_converged)

    def test_rank_deficient_round_raises(self):
        prob = gen_unconstrained(100, 10, 1.0, 41)
        cfg = IhsConfig(SketchSpec("gaussian", 5, 10), rounds=1)  # m < d
        with pytest.raises(RankDeficiencyError, match="sketch size m"):
            ihs_solve(prob, cfg)

    def test_zero_sketch_raises_rank_deficiency(self):
        prob = gen_unconstrained(60, 4, 1.0, 41)
        zero = explicit_sketch(np.zeros((20, 60)))
        with pytest.raises(RankDeficiencyError, match="sketch size m"):
            ihs_solve(prob, IhsConfig(SketchSpec("gaussian", 20, 10), rounds=2),
                      operator_factory=lambda t: zero)

    def test_block_problem_matches_paper_sketch(self):
        # stacked multi-response problem: block sketch keeps IHS near exact
        prob = gen_lowrank(40, 8, 6, 2, 0.25, 43)
        x_ls = solve_exact(prob).x
        cfg = IhsConfig(SketchSpec("gaussian", 30, 11), rounds=5)
        rep = ihs_solve(prob, cfg, reference=x_ls)
        assert rep.errors_to_ls[-1] <= 0.1 * prob.seminorm(x_ls)
        assert contains(prob.set, rep.x, tol=1e-9)


def _serial_ihs(prob, config):
    """Reference loop: draw, apply and solve every round in turn on the
    calling thread. A dense sketch's Gram is summed over blocks of
    ``min(m, max(PANEL_ROWS, d))`` rows, rounded up to whole panels, whose
    rows are multiplied a panel at a time."""
    a, y, n, m, d = prob.A, prob.y, prob.n, config.spec.m, prob.d
    unconstrained = isinstance(prob.set, Unconstrained)
    mu = 1.0
    if config.step == "tuned" and unconstrained and config.spec.kind == "gaussian":
        mu = (m - d) * (m - d - 3) / (m * (m - 1))
    rows = min(m, PANEL_ROWS * math.ceil(max(PANEL_ROWS, d) / PANEL_ROWS))
    x = np.zeros(d)
    xs = [x]
    for t in range(1, config.rounds + 1):
        op = build_sketch(config.spec.for_round(t), n)
        if op.matrix is None:
            blocks = [op.apply(a)]
        else:
            blocks = [np.vstack([op.matrix[j : j + PANEL_ROWS] @ a
                                 for j in range(i, min(i + rows, m), PANEL_ROWS)])
                      for i in range(0, m, rows)]
        gram = np.zeros((d, d))
        for b in blocks:
            b /= math.sqrt(n * m)
            gram += b.T @ b
        c = gram @ x + mu * (a.T @ (y - a @ x) / n)
        if unconstrained:
            x = solve_psd(gram, c)
        else:
            x = solve_constrained(SketchedQuadratic(None, c, prob.set, G=gram), x0=x,
                                  ctl=config.inner).x
        xs.append(x)
    return xs


def _solve_in_child(prob, cfg, queue):
    queue.put(ihs_solve(prob, cfg).x.tobytes())


class _SlowScaling(np.ndarray):
    """An array whose in-place division takes 2 ms, which widens the
    window in which a sketched matrix outlives its apply."""

    def __itruediv__(self, other):
        time.sleep(0.002)
        return super().__itruediv__(other)


class _CountingOperator(SketchOperator):
    """An explicit sketch that records how many of its applies overlap
    and, as each apply starts, how many earlier outputs are still alive."""

    active = 0
    most = 0
    outputs: list = []
    alive_at_start: list = []
    guard = threading.Lock()

    def apply(self, a):
        cls = type(self)
        with cls.guard:
            cls.active += 1
            cls.most = max(cls.most, cls.active)
            cls.alive_at_start.append(sum(ref() is not None for ref in cls.outputs))
        try:
            time.sleep(0.002)
            out = super().apply(a).view(_SlowScaling)
            with cls.guard:
                cls.outputs.append(weakref.ref(out))
            return out
        finally:
            with cls.guard:
                cls.active -= 1


class TestRoundPipeline:
    """Large Gaussian and Rademacher rounds are drawn ahead on worker
    threads that each solve starts and stops; every other round runs on
    the calling thread when it is solved."""

    @pytest.fixture(autouse=True)
    def _pool_for_every_size(self, monkeypatch):
        import ihskit.ihs as ihs_mod

        monkeypatch.setattr(ihs_mod, "POOL_MIN_ENTRIES", 0)

    @pytest.mark.parametrize("case", ["gaussian_tuned", "ros_l1"])
    def test_matches_serial_loop_bit_for_bit(self, case):
        if case == "gaussian_tuned":
            prob = gen_unconstrained(600, 12, 1.0, 211)
            cfg = IhsConfig(SketchSpec("gaussian", 72, 13), 6, step="tuned")
        else:
            prob = gen_sparse(700, 16, 4, 1.0, 223)
            cfg = IhsConfig(SketchSpec("ros", 120, 17), 6, inner_schedule="fixed")
        rep = ihs_solve(prob, cfg)
        want = _serial_ihs(prob, cfg)
        assert len(rep.iterates) == len(want)
        for got, ref in zip(rep.iterates, want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("pooled", [True, False])
    def test_operator_error_propagates_and_next_solve_succeeds(self, pooled, monkeypatch):
        import ihskit.ihs as ihs_mod

        if not pooled:
            monkeypatch.setattr(ihs_mod, "POOL_MIN_ENTRIES", 1 << 62)
        prob = gen_unconstrained(120, 5, 1.0, 227)
        spec = SketchSpec("gaussian", 30, 19)

        def factory(t):
            if t == 3:
                return explicit_sketch(np.ones((30, prob.n + 1)))
            return build_sketch(spec.for_round(t), prob.n)

        with pytest.raises(DimensionError, match="expects 121 rows"):
            ihs_solve(prob, IhsConfig(spec, 5), operator_factory=factory)
        rep = ihs_solve(prob, IhsConfig(spec, 5))
        assert np.array_equal(rep.iterates[2], ihs_solve(prob, IhsConfig(spec, 2)).x)

    @pytest.mark.parametrize("certificates", [False, True])
    def test_applies_of_one_solve_never_overlap(self, certificates):
        # the calling thread applies each round's operator when it solves
        # the round, with or without certificates, one round after another
        prob = gen_unconstrained(200, 6, 1.0, 229)
        spec = SketchSpec("gaussian", 40, 23)
        _CountingOperator.most = 0
        _CountingOperator.outputs, _CountingOperator.alive_at_start = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rep = ihs_solve(prob, IhsConfig(spec, 8, collect_certificates=certificates),
                            reference=solve_exact(prob).x,
                            operator_factory=lambda t: _CountingOperator(
                                "gaussian", prob.n, spec.m,
                                matrix=build_sketch(spec.for_round(t), prob.n).matrix))
        finally:
            sys.setswitchinterval(interval)
        assert len(rep.iterates) == 9 and (rep.certificates is not None) == certificates
        assert _CountingOperator.most == 1
        # an S A that outlived its round into the next apply would raise
        # the solve's peak memory by one sketched matrix
        assert _CountingOperator.alive_at_start == [0] * 8

    @pytest.mark.parametrize("kind, most", [("gaussian", 2), ("ros", 1)])
    def test_panel_rounds_draw_at_once(self, kind, most, monkeypatch):
        # panel rounds draw on two workers at once; ROS rounds apply one at
        # a time on the calling thread
        import ihskit.ihs as ihs_mod

        active, seen, guard = [0], [], threading.Lock()
        sketch_gram = ihs_mod.sketch_gram

        def slow_gram(*args, **kwargs):
            with guard:
                active[0] += 1
                seen.append(active[0])
            try:
                time.sleep(0.005)
                return sketch_gram(*args, **kwargs)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(ihs_mod, "sketch_gram", slow_gram)
        prob = gen_unconstrained(300, 6, 1.0, 239)
        rep = ihs_solve(prob, IhsConfig(SketchSpec(kind, 40, 31), 6))
        assert len(rep.iterates) == 7 and len(seen) == 6 and max(seen) == most

    @pytest.mark.parametrize("certificates", [False, True])
    def test_gaussian_solve_never_holds_a_whole_sketch(self, certificates):
        # two workers each hold one panel of PANEL_ROWS x n, about a third
        # of one m x n sketch here; drawing the whole sketch held two, and
        # so did collecting certificates from realized operators
        n, m = 20000, 200
        prob = gen_unconstrained(n, 10, 1.0, 251)
        ref = solve_exact(prob).x
        cfg = IhsConfig(SketchSpec("gaussian", m, 37), 3, collect_certificates=certificates)
        ihs_solve(prob, cfg, reference=ref)   # warm-up; the traced solve starts its own workers
        tracemalloc.start()
        try:
            rep = ihs_solve(prob, cfg, reference=ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        panel = PANEL_ROWS * n * 8
        assert (rep.certificates is not None) == certificates
        assert peak <= 2 * panel + (1 << 20) < m * n * 8 / 2

    def test_peak_does_not_grow_with_the_sketched_matrix(self):
        # the rounds reduce S A a block of rows at a time; a solve whose two
        # workers each formed a whole S A grew by two m x d matrices
        n, d = 4096, 32
        prob = gen_unconstrained(n, d, 1.0, 257)
        peaks = []
        for m in (4 * d, 32 * d):
            cfg = IhsConfig(SketchSpec("gaussian", m, 41), 3)
            ihs_solve(prob, cfg)
            tracemalloc.start()
            try:
                ihs_solve(prob, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 32 * d * d * 8

    @pytest.mark.parametrize("case", ["ros", "rowsample_uniform", "operator_factory"])
    def test_other_rounds_run_on_the_calling_thread(self, case, monkeypatch):
        # only panel rounds draw ahead on workers; these apply when their
        # round is solved, and the factory is called once per round in order
        prob = gen_unconstrained(600, 8, 1.0, 263)
        spec = SketchSpec("gaussian" if case == "operator_factory" else case, 60, 43)
        applies, factory_calls, started = [], [], []
        apply, start = SketchOperator._apply, threading.Thread.start

        def spy_apply(op, am):
            applies.append(threading.current_thread().name)
            return apply(op, am)

        def spy_start(thread):
            started.append(thread.name)
            return start(thread)

        def factory(t):
            factory_calls.append((t, threading.current_thread().name))
            return build_sketch(spec.for_round(t), prob.n)

        monkeypatch.setattr(SketchOperator, "_apply", spy_apply)
        monkeypatch.setattr(threading.Thread, "start", spy_start)
        rep = ihs_solve(prob, IhsConfig(spec, 5),
                        operator_factory=factory if case == "operator_factory" else None)
        assert len(rep.iterates) == 6
        assert applies == ["MainThread"] * 5 and started == []
        if case == "operator_factory":
            assert factory_calls == [(t, "MainThread") for t in range(1, 6)]

    def test_pool_threads_bounded_over_many_solves(self):
        prob = gen_sparse(150, 6, 2, 1.0, 233)
        ihs_solve(prob, IhsConfig(SketchSpec("ros", 30, 1), 3))
        before = threading.active_count()
        for seed in range(20):
            ihs_solve(prob, IhsConfig(SketchSpec("ros", 30, seed), 3))
        assert threading.active_count() <= before + 2

    def test_no_thread_outlives_a_pooled_solve(self):
        # import starts no thread, a solve below POOL_MIN_ENTRIES runs its
        # rounds on the calling thread, and a pooled solve on workers that
        # it stops before it returns
        script = (
            "import json, threading\n"
            "import ihskit\n"
            "import ihskit.ihs as ihs_mod\n"
            "from ihskit.experiments import gen_unconstrained\n"
            "gram, names = ihs_mod.sketch_gram, []\n"
            "def spy(*args):\n"
            "    names.append(threading.current_thread().name.split('_')[0])\n"
            "    return gram(*args)\n"
            "ihs_mod.sketch_gram = spy\n"
            "counts, runners = [threading.active_count()], []\n"
            "for n in (200, 2000):  # n (m + d) = 9200 and 92000\n"
            "    prob = gen_unconstrained(n, 6, 1.0, 5)\n"
            "    ihskit.ihs_solve(prob, ihskit.IhsConfig(ihskit.SketchSpec('gaussian', 40, 1), 3))\n"
            "    counts.append(threading.active_count())\n"
            "    runners.append(sorted(set(names)))\n"
            "    names.clear()\n"
            "print(json.dumps([counts, runners]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        counts, runners = json.loads(res.stdout)
        assert counts == [1, 1, 1]
        assert runners == [["MainThread"], ["ihskit"]]

    def test_no_thread_outlives_a_failed_solve(self):
        prob = gen_unconstrained(120, 5, 1.0, 227)
        spec = SketchSpec("gaussian", 30, 19)

        def factory(t):
            if t == 3:
                raise RuntimeError("round 3")
            return build_sketch(spec.for_round(t), prob.n)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="round 3"):
            ihs_solve(prob, IhsConfig(spec, 6), operator_factory=factory)
        assert threading.active_count() == before
        assert not any(th.name.startswith("ihskit") for th in threading.enumerate())

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_solves_after_parent(self):
        prob = gen_unconstrained(300, 8, 1.0, 239)
        cfg = IhsConfig(SketchSpec("gaussian", 48, 29), 4)
        want = ihs_solve(prob, cfg).x
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_solve_in_child, args=(prob, cfg, queue))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert got == want.tobytes()


class TestCertificates:
    def test_identity_sketch(self):
        prob = gen_unconstrained(60, 4, 1.0, 47)
        x_ls = solve_exact(prob).x
        z1, z2 = contraction_certificates_unconstrained(
            prob.A, identity_sketch(60), x_ls)
        assert z1 == pytest.approx(1.0, abs=1e-10)
        assert z2 == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_oracle(self):
        prob = gen_unconstrained(80, 6, 1.0, 53)
        x_ls = solve_exact(prob).x
        op = build_sketch(SketchSpec("ros", 24, 12), 80)
        z1, z2 = contraction_certificates_unconstrained(prob.A, op, x_ls)
        s = op.materialize()
        q = s.T @ s / op.m
        u_basis = np.linalg.svd(prob.A, full_matrices=False)[0]
        want_z1 = np.linalg.eigvalsh(u_basis.T @ q @ u_basis).min()
        u = prob.A @ x_ls
        u /= np.linalg.norm(u)
        want_z2 = np.linalg.norm(u @ (q - np.eye(80)) @ u_basis)
        assert z1 == pytest.approx(want_z1, abs=1e-10)
        assert z2 == pytest.approx(want_z2, abs=1e-10)

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4, 1e6])
    def test_matches_dense_oracle_when_ill_conditioned(self, kappa):
        # H formed from the Gram B^T B alone loses eps * kappa^2: its Z1 is
        # 8e-7 off here at kappa = 1e6, against 9e-12 for H from B V / s
        n, d = 300, 8
        g = np.random.default_rng(263)
        q1 = np.linalg.qr(g.standard_normal((n, d)))[0]
        q2 = np.linalg.qr(g.standard_normal((d, d)))[0]
        a = (q1 * np.geomspace(1.0, 1.0 / kappa, d)) @ q2.T
        x_ls, x_start = g.standard_normal(d), g.standard_normal(d)
        op = build_sketch(SketchSpec("gaussian", 60, 41), n)
        z1, z2 = contraction_certificates_unconstrained(a, op, x_ls, x_start=x_start)
        s = op.materialize()
        u_basis = np.linalg.svd(a, full_matrices=False)[0]
        u = a @ (x_ls - x_start)
        u /= np.linalg.norm(u)
        su = s @ u_basis
        want_z1 = np.linalg.eigvalsh(su.T @ su / op.m)[0]
        want_z2 = np.linalg.norm((s @ u) @ su / op.m - u @ u_basis)
        assert z1 == pytest.approx(want_z1, rel=1e-9)
        assert z2 == pytest.approx(want_z2, rel=1e-9)

    @pytest.mark.parametrize("kind", ["gaussian", "ros"])
    def test_solve_certificates_match_public_function(self, kind):
        # rounds draw no operator; each round's (Z1, Z2) is still that of
        # the operator build_sketch draws for it, at the round's iterate
        prob = gen_unconstrained(1000, 8, 1.0, 269)
        x_ls = solve_exact(prob).x
        spec = SketchSpec(kind, 64, 43)
        rep = ihs_solve(prob, IhsConfig(spec, 4, collect_certificates=True), reference=x_ls)
        assert len(rep.certificates) == 4
        for t, got in enumerate(rep.certificates, start=1):
            op = build_sketch(spec.for_round(t), prob.n)
            want = contraction_certificates_unconstrained(prob.A, op, x_ls,
                                                          x_start=rep.iterates[t - 1])
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_direction_flagged_as_zero(self):
        prob = gen_unconstrained(50, 4, 1.0, 59)
        x_ls = solve_exact(prob).x
        op = build_sketch(SketchSpec("gaussian", 20, 13), 50)
        _, z2 = contraction_certificates_unconstrained(prob.A, op, x_ls, x_start=x_ls)
        assert z2 == 0.0

    @pytest.mark.parametrize("arg", ["x_ls", "x_start"])
    def test_wrong_length_vector_rejected(self, arg):
        a = np.arange(10.0).reshape(5, 2)
        op = build_sketch(SketchSpec("gaussian", 4, 14), 5)
        vecs = {"x_ls": np.ones(2), "x_start": np.zeros(2)}
        vecs[arg] = np.ones(3)
        with pytest.raises(DimensionError, match=arg):
            contraction_certificates_unconstrained(a, op, **vecs)

    def test_good_event_frequency_large_m(self):
        # epsilon(1/2) = {Z1 >= 0.5, Z2 <= 0.25} holds whp at m = 48 d
        d, n = 10, 400
        prob = gen_unconstrained(n, d, 1.0, (61, 0))
        x_ls = solve_exact(prob).x
        hits = 0
        for t in range(100):
            op = build_sketch(SketchSpec("gaussian", 48 * d, 99, stream=(t,)), n)
            z1, z2 = contraction_certificates_unconstrained(prob.A, op, x_ls)
            hits += (z1 >= 0.5) and (z2 <= 0.25)
        assert hits >= 90

    def test_per_round_bound_and_monotonicity(self):
        # deterministic bound err_{t+1} <= (Z2/Z1) err_t + inner slack,
        # and the error is nonincreasing whenever the ratio is <= 1
        slack = 1e-9
        for run in range(10):
            prob = gen_unconstrained(400, 10, 1.0, (67, run))
            x_ls = solve_exact(prob).x
            cfg = IhsConfig(SketchSpec("gaussian", 80, 14, stream=(run,)), rounds=5,
                            collect_certificates=True)
            rep = ihs_solve(prob, cfg, reference=x_ls)
            for t, (z1, z2) in enumerate(rep.certificates):
                bound = (z2 / z1) * rep.errors_to_ls[t] + slack
                assert rep.errors_to_ls[t + 1] <= bound
                if z2 / z1 <= 1.0:
                    assert rep.errors_to_ls[t + 1] <= rep.errors_to_ls[t] + slack

    def test_ratio_below_one_typical(self):
        # aggregate over 100 seeded rounds at m = 8d
        cnt = tot = 0
        for run in range(20):
            prob = gen_unconstrained(400, 10, 1.0, (71, run))
            x_ls = solve_exact(prob).x
            cfg = IhsConfig(SketchSpec("gaussian", 80, 15, stream=(run,)), rounds=5,
                            collect_certificates=True)
            rep = ihs_solve(prob, cfg, reference=x_ls)
            for z1, z2 in rep.certificates:
                tot += 1
                cnt += (z2 / z1) < 1.0
        assert tot == 100
        assert cnt / tot >= 0.8


class TestTunedStep:
    """The moment-matched Gaussian step ``x+ = G^-1 (G x + mu grad)``."""

    @staticmethod
    def _trace(prob, spec, step, rounds=4, **kw):
        cfg = IhsConfig(spec, rounds, step=step, **kw)
        return ihs_solve(prob, cfg, reference=solve_exact(prob).x)

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            IhsConfig(SketchSpec("gaussian", 10, 0), rounds=1, step="momentum")

    def test_wishart_step_size(self):
        # from x0 = 0 one round is mu G^-1 grad: the plain step scaled by mu
        prob = gen_unconstrained(400, 10, 1.0, 73)
        spec = SketchSpec("gaussian", 60, 16)
        plain = self._trace(prob, spec, "plain", rounds=1)
        tuned = self._trace(prob, spec, "tuned", rounds=1)
        mu = (50 * 47) / (60 * 59)
        assert np.allclose(tuned.x, mu * plain.x, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", ["small_m", "ros", "constrained", "blocks", "operator"])
    def test_falls_back_to_plain(self, case):
        kw = {}
        spec = SketchSpec("gaussian", 40, 18)
        if case == "small_m":
            # m = d + 2: the inverse-Wishart second moment is undefined
            prob = gen_unconstrained(200, 38, 1.0, 83)
        elif case == "ros":
            prob = gen_unconstrained(200, 6, 1.0, 83)
            spec = SketchSpec("ros", 40, 18)
        elif case == "constrained":
            prob = gen_sparse(200, 6, 2, 1.0, 83)
        elif case == "blocks":
            lowrank = gen_lowrank(30, 4, 3, 1, 0.25, 83)
            prob = LsProblem(lowrank.A, lowrank.y, sketch_blocks=3)
        else:
            prob = gen_unconstrained(200, 6, 1.0, 83)
            op = build_sketch(SketchSpec("gaussian", 40, 19), 200)
            kw = {"operator_factory": lambda t: op}
        x_ls = solve_exact(prob).x
        reps = [ihs_solve(prob, IhsConfig(spec, 3, step=s), reference=x_ls, **kw)
                for s in ("plain", "tuned")]
        for a, b in zip(reps[0].iterates, reps[1].iterates):
            assert np.array_equal(a, b)
        assert reps[0].errors_to_ls == reps[1].errors_to_ls

    def test_certificate_bound_one_dimensional(self):
        # at d = 1 the paper's Z2 (deviation from I) does not bound the
        # tuned update; the deviation from mu I must, in every round
        d, n, m, rounds = 1, 400, 80, 4
        checked = unshifted_violations = 0
        for run in range(25):
            prob = gen_unconstrained(n, d, 1.0, (89, run))
            x_ls = solve_exact(prob).x
            spec = SketchSpec("gaussian", m, 20, stream=(run,))
            rep = self._trace(prob, spec, "tuned", rounds=rounds, collect_certificates=True)
            for t, (z1, z2) in enumerate(rep.certificates):
                checked += 1
                assert rep.errors_to_ls[t + 1] <= (z2 / z1) * rep.errors_to_ls[t] + 1e-12
                op = build_sketch(spec.for_round(t + 1), n)
                p1, p2 = contraction_certificates_unconstrained(
                    prob.A, op, x_ls, x_start=rep.iterates[t])
                unshifted_violations += rep.errors_to_ls[t + 1] > (p2 / p1) * rep.errors_to_ls[t]
        assert checked == 100
        assert unshifted_violations > 0

    def test_certificate_bound_criterion_8_setting(self):
        d, n, m, rounds = 10, 400, 80, 6
        for run in range(50):
            prob = gen_unconstrained(n, d, 1.0, (97, run))
            spec = SketchSpec("gaussian", m, 21, stream=(run,))
            rep = self._trace(prob, spec, "tuned", rounds=rounds, collect_certificates=True)
            for t, (z1, z2) in enumerate(rep.certificates):
                assert rep.errors_to_ls[t + 1] <= (z2 / z1) * rep.errors_to_ls[t] + 1e-12


class TestRecommenders:
    def test_unconstrained_size(self):
        assert recommend_sketch_size("unconstrained", d=200, rho=0.5, c0=1.5) == 1200

    def test_sparse_size(self):
        assert recommend_sketch_size("sparse", d=256, s=32, rho=0.5, c0=0.667) == 263

    def test_lowrank_size(self):
        assert recommend_sketch_size("lowrank", d1=20, d2=20, r=2, rho=0.5, c0=0.375) == 120

    def test_missing_hints(self):
        with pytest.raises(MissingHintError):
            recommend_sketch_size("sparse", d=64, rho=0.5)
        with pytest.raises(MissingHintError):
            recommend_sketch_size("lowrank", d1=10, d2=10, rho=0.5)

    @pytest.mark.parametrize("family", ["l1", "nuclear", "gaussian", "dense"])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            recommend_sketch_size(family, d=10, s=2, d1=3, d2=3, r=1)

    def test_rho_range_checked(self):
        with pytest.raises(ValueError):
            recommend_sketch_size("unconstrained", d=10, rho=0.7)

    @pytest.mark.parametrize("c0", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("family", ["unconstrained", "sparse", "lowrank"])
    def test_c0_must_be_finite_and_positive(self, family, c0):
        # c0 = -1 gave m = -40 and c0 = nan a bare "cannot convert float NaN"
        with pytest.raises(ValueError, match=f"c0 must be finite and positive, got {c0}"):
            recommend_sketch_size(family, d=10, s=2, d1=3, d2=3, r=1, c0=c0)

    @pytest.mark.parametrize("d", [0, -4])
    @pytest.mark.parametrize("family", ["unconstrained", "sparse"])
    def test_dimension_below_one_rejected(self, family, d):
        # d = 0 gave m = 0 and d = -4 gave m = -24
        with pytest.raises(ValueError, match=f"dimension d must be >= 1, got {d}"):
            recommend_sketch_size(family, d=d, s=1)

    def test_iterations_formula(self):
        assert recommend_iterations(10_000, 1.0, 1.0, 0.5) == 8
        assert recommend_iterations(6000, 1.0, 1.0, 0.5) == 8

    def test_iterations_clamp(self):
        assert recommend_iterations(4, 0.1, 1.0, 0.5) == 1
        assert recommend_iterations(1, 1.0, 2.0, 0.5) == 1

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            recommend_iterations(100, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            recommend_iterations(100, -1.0, 1.0, 0.5)


class TestInnerSchedule:
    """The inner tolerance of constrained rounds tracks the outer step."""

    CASES = {
        "l1": (lambda: gen_sparse(1500, 40, 5, 1.0, 97), 240, 20),
        "nuclear": (lambda: gen_lowrank(60, 8, 8, 2, 0.25, 101), 48, 30),
    }

    @staticmethod
    def _run(prob, m, rounds, schedule, reference=None):
        cfg = IhsConfig(SketchSpec("gaussian", m, 7), rounds, inner_schedule=schedule)
        return ihs_solve(prob, cfg, reference=reference)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="inner_schedule"):
            IhsConfig(SketchSpec("gaussian", 10, 0), rounds=1, inner_schedule="adaptive")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_accuracy_fewer_inner_iterations(self, case):
        make, m, rounds = self.CASES[case]
        prob = make()
        exact = solve_exact(prob, SolverControls(tol=1e-14, max_iter=200_000))
        assert exact.all_converged
        x_ref = exact.x
        scale = prob.seminorm(x_ref)
        fixed = self._run(prob, m, rounds, "fixed", x_ref)
        tracking = self._run(prob, m, rounds, "tracking", x_ref)
        assert fixed.all_converged and tracking.all_converged
        assert fixed.errors_to_ls[-1] <= 1e-8 * scale
        assert tracking.errors_to_ls[-1] <= 1e-8 * scale
        assert abs(tracking.errors_to_ls[-1] - fixed.errors_to_ls[-1]) <= 1e-8 * scale
        assert len(tracking.inner_iterations) == rounds
        assert min(tracking.inner_iterations) >= 1
        assert sum(tracking.inner_iterations) < sum(fixed.inner_iterations)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rounds_meet_a_tolerance_no_lower_than_the_floor(self, case, monkeypatch):
        import ihskit.ihs as ihs_mod

        make, m, rounds = self.CASES[case]
        prob = make()
        floor_ctl = SolverControls()
        seen = []
        first = []
        real = ihs_mod.solve_constrained

        def spy(q, x0=None, ctl=None):
            if not seen:    # round 1: the tracking tolerance of its first step
                lam_max = top_eigenvalue(q.G)
                step = project_iterate(q.set, x0 - (q.G @ x0 - q.c) / (OPNORM_SAFETY * lam_max))
                first.append(ihs_mod.TRACKING_FACTOR * math.sqrt(lam_max)
                             * float(np.linalg.norm(step - x0)))
            res = real(q, x0=x0, ctl=ctl)
            seen.append((ctl.resolve_tol(q.c), floor_ctl.resolve_tol(q.c), res))
            return res

        monkeypatch.setattr(ihs_mod, "solve_constrained", spy)
        rep = self._run(prob, m, rounds, "tracking")
        assert all(rep.round_converged)
        assert len(seen) == rounds
        # round 1 tracks its first projected-gradient step, above the floor
        assert seen[0][0] == pytest.approx(max(seen[0][1], first[0]), rel=1e-12) and first[0] > seen[0][1]
        assert any(given > floor for given, floor, _ in seen[1:])
        for (given, floor, res), iters in zip(seen, rep.inner_iterations):
            assert given >= floor
            assert res.converged and res.grad_map_norm <= given
            assert res.iterations == iters

    @staticmethod
    def _count_lambda_max(monkeypatch):
        import ihskit.subsolver as subsolver_mod

        calls = []
        real = subsolver_mod.top_eigenvalue
        monkeypatch.setattr(subsolver_mod, "top_eigenvalue",
                            lambda g: calls.append(g.shape) or real(g))
        return calls

    @pytest.mark.parametrize("schedule", ["tracking", "fixed"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lambda_max_once_per_constrained_solve(self, case, schedule, monkeypatch):
        # tracking reads lambda_max for round 1's tolerance and its first
        # step, and the inner solve steps with it: one computation a round
        make, m, _ = self.CASES[case]
        prob = make()
        calls = self._count_lambda_max(monkeypatch)
        rep = self._run(prob, m, 4, schedule)
        assert rep.all_converged and len(calls) == 4
        calls.clear()
        solve_exact(prob)
        assert len(calls) == 1

    def test_lambda_max_never_computed_unconstrained(self, monkeypatch):
        prob = gen_unconstrained(600, 10, 1.0, 97)
        calls = self._count_lambda_max(monkeypatch)
        for schedule in ("tracking", "fixed"):
            assert self._run(prob, 60, 4, schedule).all_converged
        solve_exact(prob)
        assert calls == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_one_takes_fewer_inner_iterations(self, case):
        make, m, rounds = self.CASES[case]
        prob = make()
        fixed = self._run(prob, m, rounds, "fixed")
        tracking = self._run(prob, m, rounds, "tracking")
        assert fixed.all_converged and tracking.all_converged
        assert tracking.inner_iterations[0] < fixed.inner_iterations[0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_single_round_is_the_hessian_sketch(self, case):
        # a one-round solve keeps the floor, so it solves the Hessian
        # sketch's problem as hessian_sketch_solve does
        make, m, _ = self.CASES[case]
        prob = make()
        op = build_sketch(SketchSpec("gaussian", m, 11), prob.n // prob.sketch_blocks)
        cfg = IhsConfig(SketchSpec("gaussian", m, 0), 1, inner_schedule="tracking")
        rep = ihs_solve(prob, cfg, operator_factory=lambda t: op)
        assert rep.all_converged
        want = hessian_sketch_solve(prob, operator=op).x
        assert prob.seminorm(rep.x - want) <= 1e-9

    def test_unconstrained_identical_under_both_schedules(self):
        prob = gen_unconstrained(300, 12, 1.0, 103)
        reps = [self._run(prob, 72, 5, schedule, solve_exact(prob).x)
                for schedule in ("fixed", "tracking")]
        for a, b in zip(reps[0].iterates, reps[1].iterates):
            assert np.array_equal(a, b)
        assert reps[0].errors_to_ls == reps[1].errors_to_ls
        assert reps[0].inner_iterations == reps[1].inner_iterations == [0] * 5


class TestProblemValidation:
    def test_dimension_checks(self):
        with pytest.raises(Exception):
            LsProblem(np.eye(3), np.ones(4))
        with pytest.raises(Exception):
            LsProblem(np.eye(3), np.ones(3), truth=np.ones(4))

    def test_constraint_dim_must_match(self):
        from ihskit.constraints import NuclearBall
        with pytest.raises(Exception):
            LsProblem(np.ones((4, 5)), np.ones(4), set=NuclearBall(1.0, 2, 2))

    def test_no_rows_rejected(self):
        with pytest.raises(DimensionError, match=r"A has no rows \(shape \(0, 3\)\)"):
            LsProblem(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("gen, args", [(gen_sparse, (0, 5, 2)), (gen_lowrank, (0, 3, 3, 1))])
    def test_generators_reject_no_rows(self, gen, args):
        # the sparse problem ran to a 0/0 in solve_exact and the low-rank
        # one to the sketch's "n must be >= 1"; both now stop here
        with pytest.raises(DimensionError, match="A has no rows"):
            gen(*args, 1.0, (1, 0))


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b)


class TestBlockProblems:
    """A block problem ``I_k (x) A_base`` solved on its base block equals
    the same stacked problem made flat and driven by the explicit sketch
    ``sqrt(k) (I_k (x) S_base)``, whose k m rows carry the same
    normalization as the m rows of S_base."""

    K, N_BASE, M = 3, 30, 20

    def _problems(self, constrained):
        block = gen_lowrank(self.N_BASE, 4, self.K, 1, 0.25, 61)
        if not constrained:
            block = LsProblem(block.A, block.y, truth=block.truth, sketch_blocks=self.K)
        return block, replace(block, sketch_blocks=1)

    def _flat_operator(self, block, spec):
        a_base = block.A[:self.N_BASE, :block.d // self.K]
        lev = leverage_scores(a_base) if spec.kind == "rowsample_leverage" else None
        base = build_sketch(spec, self.N_BASE, leverage_p=lev).materialize()
        return explicit_sketch(np.sqrt(self.K) * np.kron(np.eye(self.K), base))

    # iterates within tol relative; errors within tol absolute, as the
    # golden CSVs compare them (an error to x_ls is a small difference)
    @pytest.mark.parametrize("constrained, tol", [(False, 1e-12), (True, 1e-8)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_solvers_match_flat_form(self, kind, constrained, tol):
        block, flat = self._problems(constrained)
        spec = SketchSpec(kind, self.M, 7)
        x_ls = solve_exact(flat).x
        assert _rel(solve_exact(block).x, x_ls) <= tol

        cfg = IhsConfig(spec, 4, inner_schedule="fixed")
        got = ihs_solve(block, cfg, reference=x_ls)
        want = ihs_solve(flat, cfg, reference=x_ls,
                         operator_factory=lambda t: self._flat_operator(block, spec.for_round(t)))
        assert len(got.iterates) == len(want.iterates) == 5
        for xg, xw in zip(got.iterates[1:], want.iterates[1:]):
            assert _rel(xg, xw) <= tol
        assert np.allclose(got.errors_to_ls, want.errors_to_ls, rtol=0.0, atol=tol)
        assert np.allclose(got.errors_to_truth, want.errors_to_truth, rtol=0.0, atol=tol)

        op = self._flat_operator(block, spec)
        for solver in (classical_sketch_solve, hessian_sketch_solve):
            assert _rel(solver(block, spec).x, solver(flat, operator=op).x) <= tol

    def test_certificates_match_flat_form(self):
        block, flat = self._problems(constrained=False)
        spec = SketchSpec("gaussian", self.M, 8)
        x_ls = solve_exact(flat).x
        cfg = IhsConfig(spec, 3, collect_certificates=True)
        got = ihs_solve(block, cfg, reference=x_ls).certificates
        want = ihs_solve(flat, cfg, reference=x_ls, operator_factory=lambda t: (
            self._flat_operator(block, spec.for_round(t)))).certificates
        assert len(got) == len(want) == 3
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_block_structure_checked(self):
        block, _ = self._problems(constrained=False)
        a, nb, db = block.A, self.N_BASE, block.d // self.K
        off = a.copy()
        off[1, db + 2] = 0.5
        unequal = a.copy()
        unequal[nb + 1, db + 1] += 1.0
        for bad in (off, unequal):
            with pytest.raises(DimensionError, match="I_3"):
                LsProblem(bad, block.y, sketch_blocks=self.K)
        with pytest.raises(DimensionError, match="split"):
            LsProblem(np.hstack([a, np.zeros((a.shape[0], 1))]), block.y,
                      sketch_blocks=self.K)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_wrong_length_reference_and_start(self, constrained):
        block, flat = self._problems(constrained)
        cfg = IhsConfig(SketchSpec("gaussian", self.M, 9), 2)
        for prob in (block, flat):
            with pytest.raises(DimensionError, match="reference"):
                ihs_solve(prob, cfg, reference=np.zeros(prob.d + 1))
            with pytest.raises(DimensionError):
                ihs_solve(prob, replace(cfg, x0=np.zeros(prob.d - 1)))
