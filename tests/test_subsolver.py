import numpy as np
import pytest

import ihskit.subsolver as subsolver_mod
from ihskit.constraints import (
    Box, L1Ball, NuclearBall, Simplex, Unconstrained, contains, project,
)
from ihskit.errors import NonFiniteError, RankDeficiencyError
from ihskit.linalg import OPNORM_SAFETY, solve_psd, top_eigenvalue
from ihskit.subsolver import SketchedQuadratic, SolverControls, solve_constrained

rng = np.random.default_rng(888)


class TestUnconstrained:
    def test_identity(self):
        q = SketchedQuadratic(np.eye(2), [1.0, 2.0])
        assert solve_constrained(q).x == pytest.approx([1, 2])

    def test_diagonal(self):
        q = SketchedQuadratic(np.diag([2.0, 1.0]), [4.0, 1.0])
        assert solve_constrained(q).x == pytest.approx([1, 1])

    def test_matches_pseudo_inverse(self):
        b = rng.standard_normal((30, 5))
        c = rng.standard_normal(5)
        x = solve_constrained(SketchedQuadratic(b, c)).x
        want = np.linalg.pinv(b.T @ b) @ c
        assert np.max(np.abs(x - want)) <= 1e-8

    def test_exact_solve_without_iterations(self):
        b = rng.standard_normal((30, 5))
        c = rng.standard_normal((5, 2))
        q = SketchedQuadratic(b, c, Unconstrained())
        # neither the iteration cap nor the start point is read
        res = solve_constrained(q, x0=np.ones((5, 2)), ctl=SolverControls(max_iter=1))
        assert res.converged and res.iterations == 0 and res.grad_map_norm == 0.0
        assert np.array_equal(res.x, solve_psd(q.G, c))

    def test_singular_gram_rejected(self):
        b = np.ones((4, 3))  # rank one
        with pytest.raises(RankDeficiencyError, match="sketch size m"):
            solve_constrained(SketchedQuadratic(b, np.ones(3)))

    def test_singular_gram_given_directly_rejected(self):
        g = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(RankDeficiencyError, match=r"pivot 1\).*sketch size m"):
            solve_constrained(SketchedQuadratic(None, np.ones(3), G=g))


class TestConstrained:
    def test_matches_direct_solve_when_unconstrained(self):
        # a box that holds the unconstrained minimizer leaves projected
        # gradient with the Cholesky solution
        b = rng.standard_normal((25, 6))
        c = rng.standard_normal(6)
        want = solve_psd(b.T @ b, c)
        q = SketchedQuadratic(b, c, Box(-10.0 * np.abs(want).max(), 10.0 * np.abs(want).max()))
        res = solve_constrained(q, ctl=SolverControls(max_iter=20000))
        assert res.converged and res.iterations > 1
        assert np.max(np.abs(res.x - want)) <= 1e-6

    def test_box_clamps_separable_optimum(self):
        q = SketchedQuadratic(np.eye(2), [5.0, -0.2], Box(-1.0, 1.0))
        res = solve_constrained(q)
        assert res.x == pytest.approx([1.0, -0.2], abs=1e-9)

    def test_l1_ball_is_projection_of_linear_term(self):
        # with B = I the minimizer is the projection of c onto the ball
        q = SketchedQuadratic(np.eye(2), [3.0, 1.0], L1Ball(1.0))
        res = solve_constrained(q)
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("cset", [L1Ball(0.8), Simplex(), Box(-0.5, 0.5)],
                             ids=lambda c: type(c).__name__)
    def test_output_feasible(self, cset):
        b = rng.standard_normal((20, 5))
        c = rng.standard_normal(5)
        res = solve_constrained(SketchedQuadratic(b, c, cset))
        assert contains(cset, res.x, tol=1e-9)

    def test_accepted_iterates_monotone_with_acceleration(self):
        b = rng.standard_normal((15, 4))
        c = rng.standard_normal(4)
        q = SketchedQuadratic(b, c, L1Ball(0.7))
        values = []
        for k in range(1, 40):
            ctl = SolverControls(tol=1e-300, max_iter=k)
            values.append(q.value(solve_constrained(q, ctl=ctl).x))
        assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("cset", [L1Ball(0.9), Simplex(), Box(-1.0, 1.0)],
                             ids=lambda c: type(c).__name__)
    def test_variational_inequality_at_output(self, cset):
        b = rng.standard_normal((30, 6))
        c = rng.standard_normal(6)
        q = SketchedQuadratic(b, c, cset)
        ctl = SolverControls(tol=1e-9)
        res = solve_constrained(q, ctl=ctl)
        assert res.converged
        grad = b.T @ (b @ res.x) - c
        for _ in range(100):
            z = project(cset, 2.0 * rng.standard_normal(6))
            slack = ctl.tol * (1.0 + np.linalg.norm(z - res.x))
            assert grad @ (z - res.x) >= -slack

    def test_nonconvergence_flagged(self):
        b = rng.standard_normal((40, 10))
        c = 5.0 * rng.standard_normal(10)
        res = solve_constrained(
            SketchedQuadratic(b, c, L1Ball(1.0)),
            ctl=SolverControls(tol=1e-14, max_iter=2),
        )
        assert not res.converged
        assert res.grad_map_norm > 0
        assert res.iterations == 2

    def test_warm_start_infeasible_point_projected(self):
        q = SketchedQuadratic(np.eye(3), np.zeros(3), Simplex())
        res = solve_constrained(q, x0=np.zeros(3))
        assert contains(Simplex(), res.x, tol=1e-9)

    def test_default_tolerance_scales_with_c(self):
        assert SolverControls().resolve_tol(np.zeros(3)) == pytest.approx(1e-10)
        assert SolverControls().resolve_tol(200.0 * np.ones(1)) == pytest.approx(2e-8)
        assert SolverControls(tol=1e-5).resolve_tol(np.ones(3)) == 1e-5


class TestGramCheck:
    def test_non_finite_gram_rejected_at_construction(self):
        g = np.eye(3)
        g[1, 2] = np.nan
        with pytest.raises(NonFiniteError, match="G"):
            SketchedQuadratic(None, np.ones(3), L1Ball(1.0), G=g)

    def test_gram_formed_from_b_is_checked(self):
        # every entry of B is finite, but B^T B overflows
        with pytest.raises(NonFiniteError, match="G"), np.errstate(over="ignore"):
            SketchedQuadratic(np.full((2, 3), 1e200), np.ones(3))


def _ill_conditioned(gen, n, d, decades=2):
    """B with singular values spread over ``decades`` decades, so that
    momentum overshoots and restarts."""
    u, _ = np.linalg.qr(gen.standard_normal((n, d)))
    v, _ = np.linalg.qr(gen.standard_normal((d, d)))
    return (u * np.logspace(0, -decades, d)) @ v.T


class TestIterationCost:
    def test_one_projection_per_iteration_and_restart(self, monkeypatch):
        gen = np.random.default_rng(4401)
        b = _ill_conditioned(gen, 40, 12)
        truth = gen.standard_normal(12)
        q = SketchedQuadratic(b, b.T @ (b @ truth), L1Ball(0.5 * np.abs(truth).sum()))
        calls = []
        real = subsolver_mod.project

        def counting(cset, x):
            calls.append(cset)
            return real(cset, x)

        monkeypatch.setattr(subsolver_mod, "project", counting)
        res = solve_constrained(q, ctl=SolverControls(tol=1e-9, max_iter=20000))
        assert res.converged and res.iterations > 10
        # the initial projection of x0, one per step, one per restart
        assert len(calls) == 1 + res.iterations + res.restarts
        assert res.restarts > 0

    def test_no_restart_repeats_its_step_at_working_precision(self, monkeypatch):
        # From the minimizer the objective changes only by rounding, which
        # trips the restart test; a restart must never redo a step that
        # was already taken from the last accepted iterate.
        gen = np.random.default_rng(4401)
        b = _ill_conditioned(gen, 40, 12)
        truth = gen.standard_normal(12)
        q = SketchedQuadratic(b, b.T @ (b @ truth), L1Ball(0.5 * np.abs(truth).sum()))
        start = solve_constrained(q, ctl=SolverControls(tol=1e-12, max_iter=20000))
        assert start.converged
        inputs = []
        real = subsolver_mod.project

        def recording(cset, x):
            inputs.append(x.copy())
            return real(cset, x)

        monkeypatch.setattr(subsolver_mod, "project", recording)
        res = solve_constrained(q, x0=start.x, ctl=SolverControls(tol=1e-300, max_iter=400))
        assert not res.converged and res.restarts > 0
        assert len(inputs) == 1 + res.iterations + res.restarts
        assert not any(np.array_equal(p, n) for p, n in zip(inputs, inputs[1:]))

    def test_restarts_ignore_rounding_noise_in_the_objective(self):
        # kappa(G) = 1e6: once the objective has converged to working
        # precision, its rounding noise tripped a restart test on objective
        # values in about one iteration of four, and the solve took 46863
        # iterations and 11951 restarts to meet the tolerance
        gen = np.random.default_rng(4401)
        b = _ill_conditioned(gen, 40, 12, decades=3)
        truth = gen.standard_normal(12)
        q = SketchedQuadratic(b, b.T @ (b @ truth), L1Ball(0.9 * np.abs(truth).sum()))
        res = solve_constrained(q, ctl=SolverControls(tol=1e-9, max_iter=20000))
        assert res.converged and res.restarts <= 50


class TestStoppingMeasure:
    @pytest.mark.parametrize("cset", [L1Ball(0.8), NuclearBall(1.5, 4, 3), Simplex(),
                                      Box(-0.3, 0.3)], ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_returned_iterate_within_twice_the_tolerance(self, cset, tol):
        gen = np.random.default_rng(4402)
        b = gen.standard_normal((40, 12))
        c = 3.0 * gen.standard_normal(12)
        q = SketchedQuadratic(b, c, cset)
        res = solve_constrained(q, ctl=SolverControls(tol=tol))
        assert res.converged and res.grad_map_norm <= tol
        lip = OPNORM_SAFETY * top_eigenvalue(q.G)
        step = project(cset, res.x - (q.G @ res.x - c) / lip)
        assert lip * np.linalg.norm(res.x - step) <= 2.0 * tol


@pytest.mark.parametrize("kw, message", [
    ({"tol": 0}, "tol must be positive"), ({"max_iter": 0}, "max_iter must be >= 1"),
])
def test_controls_out_of_range_rejected(kw, message):
    with pytest.raises(ValueError, match=message):
        SolverControls(**kw)
