"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a PASS/FAIL line with the measured values (run
pytest with -s to see them all).
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from ihskit.constraints import Box, L1Ball, Simplex, Unconstrained, project
from ihskit.experiments import gen_unconstrained, run_experiment
from ihskit.ihs import (
    IhsConfig,
    LsProblem,
    classical_sketch_solve,
    hessian_sketch_solve,
    ihs_solve,
    recommend_iterations,
    solve_exact,
)
from ihskit.linalg import fwht_normalized
from ihskit.sketch import SketchSpec, identity_sketch, verify_projection_condition
from ihskit.subsolver import SolverControls

SEED = 20240901


_capture = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capfd):
    # let report() write around pytest's fd capture so the per-criterion
    # PASS/FAIL lines always land in the log
    global _capture
    _capture = capfd
    yield
    _capture = None


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def fitted_rate(errs):
    """Per-iteration contraction factor from the slope of log-error over t=1..5."""
    t = np.arange(1, 6)
    slope = np.polyfit(t, np.log(errs[1:6]), 1)[0]
    return math.exp(slope)


def test_criterion_1_geometric_convergence():
    """Unconstrained (d, n) = (50, 2000): geometric convergence, rate
    improving with the sketch-size factor, median factor <= 0.5 at 6x."""
    rows = run_experiment("fig2", seed=SEED, d=50, n=2000, trials=10, rounds=6)
    by_gamma = {}
    for row in rows:
        gamma = int(row.flag.split(";")[0].split("=")[1])
        by_gamma.setdefault(gamma, {}).setdefault(row.trial, {})[row.iteration] = row.err_ls_semi
    medians = {}
    for gamma, trials in sorted(by_gamma.items()):
        rates = []
        for errs_by_iter in trials.values():
            errs = [errs_by_iter[i] for i in range(7)]
            rates.append(fitted_rate(errs))
        medians[gamma] = float(np.median(rates))
    improving = medians[4] > medians[6] > medians[8]
    ok = improving and medians[6] <= 0.5
    report(1, ok, f"median contraction per gamma: "
                  f"{ {g: round(v, 4) for g, v in medians.items()} }, "
                  f"strictly improving: {improving}, need <= 0.5 at gamma=6")
    assert improving, "contraction must improve strictly with gamma"
    assert medians[6] <= 0.5, (
        f"median per-iteration contraction at gamma=6 is {medians[6]:.4f} > 0.5"
    )


def test_criterion_2_error_floor():
    """After the recommended round count the error to the truth matches
    the exact least-squares error to within 15%."""
    d, n, sigma, gamma = 50, 2000, 1.0, 6
    ratios = []
    for t in range(10):
        prob = gen_unconstrained(n, d, sigma, (SEED, 2, t))
        x_ls = solve_exact(prob).x
        rounds = recommend_iterations(n, prob.seminorm(x_ls), sigma, 0.5)
        spec = SketchSpec("gaussian", gamma * d, SEED, stream=(2, t))
        rep = ihs_solve(prob, IhsConfig(spec, rounds), reference=x_ls)
        ratios.append(rep.errors_to_truth[-1] / prob.seminorm(x_ls - prob.truth))
    med = float(np.median(ratios))
    ok = abs(med - 1.0) <= 0.15
    report(2, ok, f"median ||x_N - x*||_A / ||x_ls - x*||_A = {med:.4f}, need within 15%")
    assert ok


def test_criterion_3_fixed_sample_reproduction():
    """d in {16, 32, 64}, n = 100 d, m = 6 d: exact error 0.10 +- 0.03,
    iterated sketch 0.11 +- 0.04, naive sketch at M = 24 d at least
    1.5x worse than the iterated one."""
    rows = run_experiment("fig3", seed=SEED, trials=10)
    ok_all = True
    details = []
    for d in (16, 32, 64):
        per_method = {}
        for row in rows:
            if row.d == d:
                per_method.setdefault(row.method, []).append(row.err_truth_semi)
        ex = float(np.median(per_method["exact"]))
        ih = float(np.median(per_method["ihs"]))
        cl = float(np.median(per_method["classical"]))
        ok = (abs(ex - 0.10) <= 0.03 and abs(ih - 0.11) <= 0.04 and cl >= 1.5 * ih)
        ok_all = ok_all and ok
        details.append(f"d={d}: exact={ex:.3f} ihs={ih:.3f} classical/ihs={cl / ih:.2f}")
    report(3, ok_all, "; ".join(details))
    assert ok_all


def test_criterion_4_suboptimality_phenomenon():
    """Exact squared error decays like 1/n while the naive sketch with
    the same total projection budget stays nearly flat."""
    rows = run_experiment("fig1", seed=SEED, trials=30)
    ns = sorted({row.n for row in rows})
    mean_exact_sq, mean_classical = [], []
    for n in ns:
        ex = [r.err_truth_semi for r in rows if r.n == n and r.method == "exact"]
        cl = [r.err_truth_semi for r in rows if r.n == n and r.method == "classical"]
        mean_exact_sq.append(np.mean(np.square(ex)))
        mean_classical.append(np.mean(cl))
    lx = np.log(ns)
    slope_exact_sq = float(np.polyfit(lx, np.log(mean_exact_sq), 1)[0])
    slope_classical = float(np.polyfit(lx, np.log(mean_classical), 1)[0])
    ok = (-1.3 <= slope_exact_sq <= -0.7) and (-0.4 <= slope_classical <= 0.15)
    report(4, ok, f"exact err^2 slope={slope_exact_sq:.3f} (in [-1.3,-0.7]); "
                  f"classical err slope={slope_classical:.3f} (in [-0.4,0.15])")
    assert -1.3 <= slope_exact_sq <= -0.7
    assert -0.4 <= slope_classical <= 0.15


def test_criterion_5_sparse_case():
    """d = 128, s = ceil(2 sqrt(d)), n = 100 s log(e d / s), 5x sketch
    factor, 4 rounds: error to truth within 50% of the statistical rate
    and within 25% of the exact constrained solution's error."""
    d = 128
    s = math.ceil(2 * math.sqrt(d))
    width_sq = s * math.log(math.e * d / s)
    n = int(round(100 * width_sq))
    target = math.sqrt(width_sq / n)
    rows = run_experiment("fig5", seed=SEED, d_grid=(d,), gamma=5, rounds=4, trials=10)
    ihs = float(np.median([r.err_truth_semi for r in rows if r.method == "ihs"]))
    exact = float(np.median([r.err_truth_semi for r in rows if r.method == "exact"]))
    ok = abs(ihs / target - 1.0) <= 0.5 and abs(ihs / exact - 1.0) <= 0.25
    report(5, ok, f"s={s} n={n}: ihs={ihs:.4f} target={target:.4f} exact={exact:.4f} "
                  f"(need within 50% of target, 25% of exact)")
    assert ok


def test_criterion_6_lowrank_case():
    """20x20 rank-2 truth, m = 60 per round: the iterated sketch tracks
    the exact solution within 25%; at n = 80 the naive sketch's
    mean-squared error is at least twice the iterated one's."""
    rows = run_experiment("fig6a", seed=SEED, trials=5)
    ok_all = True
    details = []
    for n in (40, 80):
        per_method = {}
        for row in rows:
            if row.n == n:
                per_method.setdefault(row.method, []).append(row.err_truth_semi)
        ex = float(np.median(per_method["exact"]))
        ih = float(np.median(per_method["ihs"]))
        ok = abs(ih / ex - 1.0) <= 0.25
        if n == 80:
            mse_cl = float(np.mean(np.square(per_method["classical"])))
            mse_ih = float(np.mean(np.square(per_method["ihs"])))
            ok = ok and mse_cl >= 2.0 * mse_ih
            details.append(f"n=80: ihs/exact={ih / ex:.3f}, classical/ihs MSE ratio="
                           f"{mse_cl / mse_ih:.2f} (need >= 2)")
        else:
            details.append(f"n=40: ihs/exact={ih / ex:.3f}")
        ok_all = ok_all and ok
    report(6, ok_all, "; ".join(details))
    assert ok_all


def test_criterion_7_projection_condition():
    """Monte Carlo eta estimates: ~1 for gaussian and ROS, <= 1.1 for
    uniform row sampling, at (n, m) = (64, 16) over 2000 trials."""
    n, m, trials = 64, 16, 2000
    etas = {}
    for kind in ("gaussian", "ros", "rowsample_uniform"):
        etas[kind] = verify_projection_condition(
            SketchSpec(kind, m, SEED), n, trials=trials)
    ok = (0.9 <= etas["gaussian"] <= 1.1 and 0.9 <= etas["ros"] <= 1.1
          and etas["rowsample_uniform"] <= 1.1)
    report(7, ok, f"eta_hat: " + ", ".join(f"{k}={v:.4f}" for k, v in etas.items()))
    assert 0.9 <= etas["gaussian"] <= 1.1
    assert 0.9 <= etas["ros"] <= 1.1
    assert etas["rowsample_uniform"] <= 1.1


def test_criterion_8_certificate_bound():
    """On 50 seeded unconstrained runs (d=10, n=400, m=80) every round
    obeys err_{t+1} <= (Z2/Z1) err_t + 10 * inner tolerance."""
    d, n, m, rounds = 10, 400, 80, 6
    violations = 0
    total = 0
    worst_margin = -np.inf
    for run in range(50):
        prob = gen_unconstrained(n, d, 1.0, (SEED, 8, run))
        x_ls = solve_exact(prob).x
        inner_tol = SolverControls().resolve_tol(prob.A.T @ prob.y / n)
        cfg = IhsConfig(SketchSpec("gaussian", m, SEED, stream=(8, run)), rounds,
                        collect_certificates=True)
        rep = ihs_solve(prob, cfg, reference=x_ls)
        for t, (z1, z2) in enumerate(rep.certificates):
            total += 1
            bound = (z2 / z1) * rep.errors_to_ls[t] + 10.0 * inner_tol
            margin = rep.errors_to_ls[t + 1] - bound
            worst_margin = max(worst_margin, margin)
            if margin > 0:
                violations += 1
    ok = violations == 0
    report(8, ok, f"{total} rounds checked, {violations} violations, "
                  f"worst slack {worst_margin:.3e}")
    assert violations == 0


class TestCriterion9OracleSuites:
    """Independent-oracle checks at their stated tolerances."""

    def test_fwht_vs_naive_hadamard(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            h = scipy.linalg.hadamard(n) / np.sqrt(n)
            for _ in range(5):
                v = rng.standard_normal(n)
                worst = max(worst, float(np.max(np.abs(fwht_normalized(v) - h @ v))))
        ok = worst <= 1e-10
        report("9a", ok, f"fwht vs naive Hadamard, worst abs dev {worst:.2e} (<= 1e-10)")
        assert ok

    def test_l1_and_simplex_vs_kkt_oracle(self):
        rng = np.random.default_rng(SEED + 1)
        worst = 0.0
        for d in range(2, 9):
            for _ in range(30):
                x = 2.5 * rng.standard_normal(d)
                radius = float(rng.uniform(0.3, 2.0))
                got = project(L1Ball(radius), x)
                want = _l1_oracle(x, radius)
                worst = max(worst, float(np.max(np.abs(got - want))))
                got_s = project(Simplex(), x)
                want_s = _simplex_oracle(x)
                worst = max(worst, float(np.max(np.abs(got_s - want_s))))
        ok = worst <= 1e-12
        report("9b", ok, f"l1/simplex vs exhaustive KKT oracle, worst dev {worst:.2e} "
                         f"(<= 1e-12)")
        assert ok

    def test_identity_sketch_exactness(self):
        rng = np.random.default_rng(SEED + 2)
        a = rng.standard_normal((60, 5))
        y = a @ rng.standard_normal(5) + 0.5 * rng.standard_normal(60)
        worst = 0.0
        for cset in (Unconstrained(), L1Ball(1.0), Box(-0.5, 0.5)):
            prob = LsProblem(a, y, set=cset)
            x_ref = solve_exact(prob).x
            ident = identity_sketch(prob.n)
            for solver in (
                lambda: classical_sketch_solve(prob, operator=ident),
                lambda: hessian_sketch_solve(prob, operator=ident),
                lambda: ihs_solve(prob, IhsConfig(SketchSpec("gaussian", prob.n, 0), 1),
                                  operator_factory=lambda t: ident),
            ):
                worst = max(worst, prob.seminorm(solver().x - x_ref))
        ok = worst <= 1e-9
        report("9c", ok, f"identity-sketch exactness across solvers, worst error "
                         f"{worst:.2e} (<= 1e-9)")
        assert ok

    def test_projection_idempotence_and_nonexpansiveness(self):
        rng = np.random.default_rng(SEED + 3)
        sets = [L1Ball(1.0), Simplex(), Box(-1.0, 1.0)]
        checked = 0
        for _ in range(334):
            for cset in sets:
                x = 3.0 * rng.standard_normal(6)
                y = 3.0 * rng.standard_normal(6)
                px, py = project(cset, x), project(cset, y)
                assert np.max(np.abs(project(cset, px) - px)) <= 1e-12
                assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
                checked += 1
        report("9d", True, f"idempotence/nonexpansiveness on {checked} random pairs")


def _l1_oracle(x, radius):
    if np.abs(x).sum() <= radius:
        return x.copy()
    d = len(x)
    best, best_val = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            theta = (np.abs(x)[list(support)].sum() - radius) / k
            if theta < 0:
                continue
            z = np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)
            z[[j for j in range(d) if j not in support]] = 0.0
            if np.abs(z).sum() > radius + 1e-12:
                continue
            val = np.linalg.norm(z - x)
            if val < best_val:
                best, best_val = z, val
    return best


def _simplex_oracle(x):
    d = len(x)
    best, best_val = None, np.inf
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            z = np.zeros(d)
            shift = (1.0 - x[list(support)].sum()) / k
            z[list(support)] = x[list(support)] + shift
            if np.any(z[list(support)] < -1e-15):
                continue
            val = np.linalg.norm(z - x)
            if val < best_val:
                best, best_val = np.maximum(z, 0.0), val
    return best
