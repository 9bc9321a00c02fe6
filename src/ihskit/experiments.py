"""Problem generators, error metrics and figure-style experiment runners.

Each runner regenerates one of the benchmark experiments at desk scale.
A runner only lists its grid points (problem generator, reported n and
d, sketch size, rounds) and hands them to one task, which runs every
point and trial the same way: it draws the problem, solves it exactly
for the reference and runs IHS. The task writes one of two row layouts:

* comparison (fig1, fig3, fig5, fig6a) - per point and trial, an
  ``exact``, an ``ihs`` and a ``classical`` row with their final errors;
* trace (fig2, fig4) - per point and trial, one ``ihs`` row per iterate.

Point i, trial t draws its problem from the stream ``(seed, fig, i, t,
0)`` and its IHS and classical sketches from ``(fig, i, t, 1)`` and
``(fig, i, t, 2)``. A row's flag joins the point's tag (the traces'
``gamma=<value>``) and ``nonconverged``, set when its solver stopped at
its iteration cap, by ``;``. A typed solver error turns the point's
rows into one ``failed:<Error>`` row, of method ``ihs`` in a trace and
``all`` in a comparison. IHS runs with ``inner_schedule="fixed"``,
solving every constrained round to the fixed inner tolerance as the
paper's analysis assumes. Rows have the fixed CSV schema

    experiment,trial,n,d,method,iter,err_ls_semi,err_truth_semi,err_truth_l2,seconds,flag

Floats are written with 17 significant digits (round-trip exact); empty
fields mean "not applicable". Every row is reproducible from
``(experiment id, overrides, seed)`` apart from the wall-clock seconds
column. Trials may run on a thread pool; rows are always emitted in
deterministic (grid, trial) order.
"""

from __future__ import annotations

import csv
import inspect
import io
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .constraints import L1Ball, NuclearBall
from .errors import IhskitError
from .ihs import IhsConfig, LsProblem, classical_sketch_solve, ihs_solve, solve_exact
from .seeding import derive_rng
from .sketch import SketchSpec

CSV_HEADER = (
    "experiment", "trial", "n", "d", "method", "iter",
    "err_ls_semi", "err_truth_semi", "err_truth_l2", "seconds", "flag",
)

EXPERIMENT_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6a")
_FIG_STREAM = {name: i + 1 for i, name in enumerate(EXPERIMENT_IDS)}


@dataclass
class ExperimentRow:
    experiment: str
    trial: int
    n: int
    d: int
    method: str
    iteration: int
    err_ls_semi: Optional[float]
    err_truth_semi: Optional[float]
    err_truth_l2: Optional[float]
    seconds: float
    flag: str = ""


def gen_unconstrained(n: int, d: int, sigma: float, seed) -> LsProblem:
    """Random unconstrained instance: A with i.i.d. N(0,1) entries,
    truth uniform on the unit sphere, y = A x* + N(0, sigma^2) noise."""
    if not n > d >= 1:
        raise ValueError(f"need n > d >= 1, got n={n}, d={d}")
    rng = _gen_rng(seed)
    a = rng.standard_normal((n, d))
    x_star = rng.standard_normal(d)
    x_star /= np.linalg.norm(x_star)
    y = a @ x_star + _noise(rng, sigma, n)
    return LsProblem(a, y, truth=x_star)


def gen_sparse(n: int, d: int, s: int, sigma: float, seed) -> LsProblem:
    """Sparse instance: truth has s spikes of size +-1/sqrt(s) on a
    uniform random support, constraint set the l1 ball of radius
    ||x*||_1 = sqrt(s)."""
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    rng = _gen_rng(seed)
    a = rng.standard_normal((n, d))
    support = rng.choice(d, size=s, replace=False)
    x_star = np.zeros(d)
    x_star[support] = (2.0 * rng.integers(0, 2, size=s) - 1.0) / math.sqrt(s)
    y = a @ x_star + _noise(rng, sigma, n)
    return LsProblem(a, y, set=L1Ball(float(np.abs(x_star).sum())), truth=x_star)


def gen_lowrank(n: int, d1: int, d2: int, r: int, sigma: float, seed) -> LsProblem:
    """Low-rank multi-response instance, stacked column-major.

    The truth is a rank-r d1 x d2 matrix with unit Frobenius norm, the
    constraint set the nuclear ball of radius ||X*||_nuc, and the design
    matrix the block-diagonal stacking I_{d2} (x) A_base with
    ``sketch_blocks = d2``. The solvers work on A_base and the d1 x d2
    iterate, and each sketch is one m x n draw shared by all response
    columns.
    """
    if not 1 <= r <= min(d1, d2):
        raise ValueError(f"need 1 <= r <= min(d1, d2), got r={r}")
    rng = _gen_rng(seed)
    a_base = rng.standard_normal((n, d1))
    x_mat = rng.standard_normal((d1, r)) @ rng.standard_normal((r, d2))
    x_mat /= np.linalg.norm(x_mat)
    radius = float(np.linalg.svd(x_mat, compute_uv=False).sum())
    y_mat = a_base @ x_mat + _noise(rng, sigma, (n, d2))
    a = np.kron(np.eye(d2), a_base)
    return LsProblem(
        a,
        y_mat.ravel(order="F"),
        set=NuclearBall(radius, d1, d2),
        truth=x_mat.ravel(order="F"),
        sketch_blocks=d2,
    )


def _gen_rng(seed) -> np.random.Generator:
    # an integer master seed, or the sequence (seed, *stream ids)
    return derive_rng(seed) if isinstance(seed, (int, np.integer)) else derive_rng(*seed)


def _noise(rng: np.random.Generator, sigma: float, shape) -> np.ndarray:
    """N(0, sigma^2) noise, each generator's last draw. A sigma that is not
    finite and >= 0 is a plain ``ValueError``: the runners would turn an
    ``IhskitError`` into failed rows."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma * rng.standard_normal(shape)


class _Point(NamedTuple):
    """One grid point; ``make`` builds the problem from its RNG stream.
    The classical sketch defaults to IHS's total budget, rounds * m rows."""

    make: Callable[[tuple], LsProblem]
    n: int
    d: int
    m: int
    rounds: int
    classical_m: Optional[int] = None
    flat_classical: bool = False
    tag: str = ""


def _timed(fn):
    tic = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - tic


def _run(exp, seed, points, trials, kind, threads, trace=False, step="plain"):
    """The rows of every grid point and trial, in (point, trial) order: a
    comparison's final ``exact``, ``ihs`` and ``classical`` rows, or with
    ``trace`` one ``ihs`` row per iterate."""
    if trials < 1 or threads < 1:
        raise ValueError(f"trials and threads must be >= 1, got trials={trials}, "
                         f"threads={threads}")
    fig = _FIG_STREAM[exp]

    def task(i, p, t):
        def row(method, iteration, x, seconds, converged):
            flag = ";".join(part for part in (p.tag, "" if converged else "nonconverged")
                            if part)
            return ExperimentRow(exp, t, p.n, p.d, method, iteration, prob.seminorm(x - x_ls),
                                 prob.seminorm(x - prob.truth),
                                 float(np.linalg.norm(x - prob.truth)), seconds, flag)

        try:
            prob = p.make((seed, fig, i, t, 0))
            exact, sec_exact = _timed(lambda: solve_exact(prob))
            x_ls = exact.x
            spec = SketchSpec(kind, p.m, seed, stream=(fig, i, t, 1))
            ihs, sec_ihs = _timed(lambda: ihs_solve(
                prob, IhsConfig(spec, p.rounds, step=step, inner_schedule="fixed")))
            if trace:
                converged = [True] + ihs.round_converged
                return [row("ihs", it, x, sec_ihs / p.rounds if it else 0.0, converged[it])
                        for it, x in enumerate(ihs.iterates)]
            # fig6a sketches the full stacked problem: a block sketch of
            # rounds * m rows would be nearly exact there, as rounds * m >> n
            cl_prob = replace(prob, sketch_blocks=1) if p.flat_classical else prob
            cl_m = p.classical_m or p.rounds * p.m
            cl_spec = SketchSpec(kind, cl_m, seed, stream=(fig, i, t, 2))
            classical, sec_cl = _timed(lambda: classical_sketch_solve(cl_prob, cl_spec))
            return [row(method, rounds, rep.x, sec, rep.all_converged)
                    for method, rounds, rep, sec in (("exact", 0, exact, sec_exact),
                                                     ("ihs", p.rounds, ihs, sec_ihs),
                                                     ("classical", 0, classical, sec_cl))]
        except IhskitError as exc:
            return [ExperimentRow(exp, t, p.n, p.d, "ihs" if trace else "all", 0, None, None,
                                  None, 0.0, f"failed:{type(exc).__name__}")]

    jobs = [(i, p, t) for i, p in enumerate(points) for t in range(trials)]
    if threads <= 1:
        chunks = [task(*job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda job: task(*job), jobs))
    return [row for chunk in chunks for row in chunk]


def _run_fig1(seed, d=10, m_factor=7, n_grid=(100, 400, 1600, 6400), trials=30,
              sigma=1.0, kind="gaussian", threads=1):
    m = math.ceil(m_factor * d)
    points = [_Point(partial(gen_unconstrained, n, d, sigma), n, d, m,
                     1 + math.ceil(math.log(n))) for n in n_grid]
    return _run("fig1", seed, points, trials, kind, threads)


def _run_fig2(seed, d=200, n=6000, gammas=(4, 6, 8), rounds=6, trials=10,
              sigma=1.0, kind="gaussian", step="tuned", threads=1):
    # the tuned Gaussian step by default; step="plain" reproduces the
    # paper's plain-IHS traces
    points = [_Point(partial(gen_unconstrained, n, d, sigma), n, d, math.ceil(g * d), rounds,
                     tag=f"gamma={g:g}") for g in gammas]
    return _run("fig2", seed, points, trials, kind, threads, trace=True, step=step)


def _run_fig3(seed, d_grid=(16, 32, 64), n_factor=100, gamma=6, classical_budget=24,
              rounds=None, trials=10, sigma=1.0, kind="gaussian", threads=1):
    points = []
    for d in d_grid:
        n = n_factor * d
        nrounds = 1 + math.ceil(math.log2(math.sqrt(n / d))) if rounds is None else rounds
        points.append(_Point(partial(gen_unconstrained, n, d, sigma), n, d,
                             math.ceil(gamma * d), nrounds, classical_budget * d))
    return _run("fig3", seed, points, trials, kind, threads)


def _run_fig4(seed, d=256, n=8872, s=32, gammas=(2, 5, 25), rounds=6, trials=5,
              sigma=1.0, kind="gaussian", threads=1):
    points = [_Point(partial(gen_sparse, n, d, s, sigma), n, d, math.ceil(g * s * math.log(d)),
                     rounds, tag=f"gamma={g:g}") for g in gammas]
    return _run("fig4", seed, points, trials, kind, threads, trace=True)


def _run_fig5(seed, d_grid=(32, 64, 128), gamma=4, rounds=4, trials=10,
              sigma=1.0, kind="gaussian", threads=1):
    points = []
    for d in d_grid:
        s = math.ceil(2.0 * math.sqrt(d))
        width_sq = s * math.log(math.e * d / s)
        n = int(round(100.0 * width_sq))
        m = math.ceil(gamma * width_sq)
        points.append(_Point(partial(gen_sparse, n, d, s, sigma), n, d, m, rounds))
    return _run("fig5", seed, points, trials, kind, threads)


def _run_fig6a(seed, d1=20, d2=20, r=2, m=60, n_grid=(40, 80), rounds=None, trials=5,
               sigma=0.25, kind="gaussian", threads=1):
    points = [_Point(partial(gen_lowrank, n, d1, d2, r, sigma), n, d1 * d2, m,
                     1 + math.ceil(math.log(n)) if rounds is None else rounds,
                     flat_classical=True) for n in n_grid]
    return _run("fig6a", seed, points, trials, kind, threads)


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6a": _run_fig6a,
}

# paper-scale settings reachable through the --full-scale CLI flag
FULL_SCALE_OVERRIDES = {
    "fig1": {"n_grid": tuple(100 * 2 ** k for k in range(9)), "trials": 300},
    "fig2": {"trials": 10},
    "fig3": {"d_grid": (16, 32, 64, 128, 256), "trials": 20},
    "fig4": {"trials": 20},
    "fig5": {"d_grid": (16, 32, 64, 128, 256), "trials": 20},
    "fig6a": {"n_grid": (10, 20, 40, 60, 80, 100), "trials": 20},
}


# CLI flag -> (runner keyword taking a scalar, runner keyword taking a
# grid); a runner accepts the flag through whichever its signature has
FLAG_KEYWORDS = {
    "trials": ("trials", None),
    "sigma": ("sigma", None),
    "kind": ("kind", None),
    "rounds": ("rounds", None),
    "gamma": ("gamma", "gammas"),
    "d": ("d", "d_grid"),
    "n": ("n", "n_grid"),
    "m": ("m", None),
}


def _runner(exp_id: str):
    if exp_id not in _RUNNERS:
        raise ValueError(f"unknown experiment {exp_id!r}; valid ids: {', '.join(EXPERIMENT_IDS)}")
    return _RUNNERS[exp_id]


def flag_overrides(exp_id: str, flags) -> dict:
    """Runner keyword arguments for CLI flag values.

    ``flags`` maps :data:`FLAG_KEYWORDS` names to a value, a tuple of
    values (repeatable flag) or ``None``/``()`` (not given). Raises
    ``ValueError`` for an unknown id, a flag the runner has no keyword
    for, or several values for a scalar keyword.
    """
    params = inspect.signature(_runner(exp_id)).parameters
    out = {}
    for flag, value in flags.items():
        values = value if isinstance(value, tuple) else (value,)
        if value is None or not values:
            continue
        scalar, grid = FLAG_KEYWORDS[flag]
        if grid in params:
            out[grid] = values
        elif scalar not in params:
            raise ValueError(f"--{flag} does not apply to {exp_id}")
        elif len(values) != 1:
            raise ValueError(f"{exp_id} takes a single --{flag}")
        else:
            out[scalar] = values[0]
    return out


def run_experiment(exp_id: str, seed: int, threads: int = 1, **overrides):
    """Run one figure-style experiment and return its rows.

    ``overrides`` are the runner keyword arguments (grids, trial counts,
    sketch kind, ...). :func:`write_rows` writes the rows as CSV.
    """
    return _runner(exp_id)(seed, threads=threads, **overrides)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, without newline translation."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(rows: Sequence[ExperimentRow], path) -> None:
    """Write rows as CSV atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    writer.writerows([_fmt(v) for v in astuple(row)] for row in rows)
    write_text_atomic(path, buf.getvalue())


def read_rows(path) -> List[ExperimentRow]:
    """Read back a CSV written by :func:`write_rows`."""
    def opt(text):
        return float(text) if text else None

    parse = (str, int, int, int, str, int, opt, opt, opt, float, str)  # per CSV_HEADER column
    with open(path, newline="") as fh:
        return [ExperimentRow(*(f(rec[k]) for f, k in zip(parse, CSV_HEADER)))
                for rec in csv.DictReader(fh)]


def summarize(rows: Sequence[ExperimentRow]) -> str:
    """One summary line: mean final err_truth_semi per method, over every
    grid point (n, d and the flag's tag) and trial."""
    finals = {}
    for row in rows:
        if row.err_truth_semi is None:
            continue
        point = (row.n, row.d, row.flag.replace("nonconverged", "").rstrip(";"))
        by_run = finals.setdefault(row.method, {})
        key = (point, row.trial)
        if row.iteration >= by_run.get(key, (0, None))[0]:
            by_run[key] = (row.iteration, row.err_truth_semi)
    parts = []
    for method in sorted(finals):
        runs = finals[method]
        vals = [v for _, v in runs.values()]
        points = len({point for point, _ in runs})
        trials = len({trial for _, trial in runs})
        parts.append(f"{method}: mean err_truth={np.mean(vals):.4g} "
                     f"(trials={trials}, points={points})")
    failed = sum(1 for row in rows if row.flag.startswith("failed"))
    if failed:
        parts.append(f"failed rows={failed}")
    return "; ".join(parts) if parts else "no rows"
