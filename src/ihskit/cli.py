"""Command-line interface.

Commands: ``solve``, ``experiment``, ``diagnose``, ``verify-condition``
and ``project``. Matrix and vector inputs are headerless CSV files of
reals with dimensions inferred from the file. A flat ``key = value``
config file (TOML-compatible subset) can seed any option; explicit
flags override it. Randomized commands require an explicit --seed; no
entropy is ever taken from the clock.

Exit codes: 0 success, 1 usage error, 2 numerical non-convergence,
3 I/O error.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .constraints import Unconstrained, constraint_from_json
from .errors import IhskitError
from .experiments import (
    EXPERIMENT_IDS,
    FLAG_KEYWORDS,
    FULL_SCALE_OVERRIDES,
    flag_overrides,
    run_experiment,
    summarize,
    write_rows,
    write_text_atomic,
)
from .ihs import (
    IhsConfig,
    LsProblem,
    classical_sketch_solve,
    hessian_sketch_solve,
    ihs_solve,
    recommend_sketch_size,
    solve_exact,
)
from .constraints import project as project_onto
from .sketch import KINDS, SketchSpec, leverage_scores, verify_projection_condition
from .subsolver import SolverControls

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGED = 2
EXIT_IO = 3


class NonConvergence(Exception):
    """Raised after outputs are written when a solver did not converge."""


def _default_threads() -> int:
    env = os.environ.get("IHSKIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise click.UsageError(f"IHSKIT_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def _load_table(path) -> np.ndarray:
    """Headerless CSV of reals -> 2-D array; malformed rows name the line."""
    rows = []
    width = None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    vals = [float(p) for p in line.split(",")]
                except ValueError as exc:
                    raise click.UsageError(
                        f"{path}: line {lineno}: not a number ({exc})") from exc
                if width is None:
                    width = len(vals)
                elif len(vals) != width:
                    raise click.UsageError(
                        f"{path}: line {lineno}: expected {width} fields, got {len(vals)}")
                rows.append(vals)
    except OSError as exc:
        raise _IOError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise click.UsageError(f"{path}: file contains no data")
    return np.asarray(rows, dtype=np.float64)


def _load_vector(path) -> np.ndarray:
    table = _load_table(path)
    if 1 in table.shape:
        return table.ravel()
    raise click.UsageError(f"{path}: expected a single row or column, got shape {table.shape}")


class _IOError(click.ClickException):
    exit_code = EXIT_IO


def _atomic_write(path, text: str) -> None:
    try:
        write_text_atomic(path, text)
    except OSError as exc:
        raise _IOError(f"cannot write {path}: {exc}") from exc


def _fmt_vec(v: np.ndarray) -> str:
    return "\n".join(format(float(t), ".17g") for t in v) + "\n"


def _parse_config_file(path):
    """Flat ``key = value`` file: strings quoted, numbers and booleans bare."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{path}: line {lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                val = val.strip()
                if val.startswith(("'", '"')) and val.endswith(val[0]) and len(val) >= 2:
                    values[key] = val[1:-1]
                elif val.lower() in ("true", "false"):
                    values[key] = val.lower() == "true"
                else:
                    try:
                        values[key] = int(val)
                    except ValueError:
                        try:
                            values[key] = float(val)
                        except ValueError as exc:
                            raise click.UsageError(
                                f"{path}: line {lineno}: unquoted non-numeric value {val!r}"
                            ) from exc
    except OSError as exc:
        raise _IOError(f"cannot read {path}: {exc}") from exc
    return values


def _apply_config(ctx: click.Context, config_path) -> None:
    """Fill parameters that the user did not pass from the config file."""
    if not config_path:
        return
    values = _parse_config_file(config_path)
    params = {p.name: p for p in ctx.command.params}
    for key, val in values.items():
        if key == "config":
            continue
        if key not in params:
            raise click.UsageError(f"config key {key!r} is not an option of this command")
        if ctx.get_parameter_source(key) == click.core.ParameterSource.DEFAULT:
            param = params[key]
            if param.multiple and not isinstance(val, (list, tuple)):
                val = (val,)
            ctx.params[key] = param.type_cast_value(ctx, val)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
def cli():
    """Randomized sketching solvers for constrained least squares."""


_problem_options = [
    click.option("--matrix", type=click.Path(), help="Headerless CSV for the data matrix A."),
    click.option("--rhs", type=click.Path(), help="Headerless CSV for the response vector y."),
    click.option("--generate", type=click.Choice(["unconstrained", "sparse", "lowrank"]),
                 help="Generate a random problem instead of reading files."),
    click.option("--n", type=int, help="Rows of the generated problem."),
    click.option("--d", type=int, help="Columns of the generated problem."),
    click.option("--s", type=int, help="Sparsity of the generated sparse problem."),
    click.option("--d1", type=int, help="Row dimension of the generated low-rank matrix."),
    click.option("--d2", type=int, help="Column dimension of the generated low-rank matrix."),
    click.option("--r", type=int, help="Rank of the generated low-rank matrix."),
    click.option("--sigma", type=float, default=1.0, show_default=True,
                 help="Noise level of the generated problem."),
    click.option("--constraint", "constraint_json", default=None,
                 help='Constraint descriptor, e.g. {"type": "l1", "radius": 1.0}.'),
]


def _add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


def _build_problem(matrix, rhs, generate, n, d, s, d1, d2, r, sigma, constraint_json, seed):
    from .experiments import gen_lowrank, gen_sparse, gen_unconstrained

    file_source = matrix is not None or rhs is not None
    if file_source == (generate is not None):
        raise click.UsageError("supply exactly one problem source: --matrix/--rhs or --generate")
    if file_source:
        if matrix is None or rhs is None:
            raise click.UsageError("--matrix and --rhs must be given together")
        a = _load_table(matrix)
        y = _load_vector(rhs)
        cset = constraint_from_json(constraint_json) if constraint_json else Unconstrained()
        try:
            return LsProblem(a, y, set=cset)
        except IhskitError as exc:
            raise click.UsageError(str(exc)) from exc
    if seed is None:
        raise click.UsageError("--seed is required when generating a random problem")
    if seed < 0:
        raise click.UsageError("--seed must be a non-negative integer")
    try:
        if generate == "unconstrained":
            if n is None or d is None:
                raise click.UsageError("--generate unconstrained needs --n and --d")
            prob = gen_unconstrained(n, d, sigma, (seed, 0))
        elif generate == "sparse":
            if n is None or d is None or s is None:
                raise click.UsageError("--generate sparse needs --n, --d and --s")
            prob = gen_sparse(n, d, s, sigma, (seed, 0))
        else:
            if n is None or d1 is None or d2 is None or r is None:
                raise click.UsageError("--generate lowrank needs --n, --d1, --d2 and --r")
            prob = gen_lowrank(n, d1, d2, r, sigma, (seed, 0))
    except (ValueError, IhskitError) as exc:
        raise click.UsageError(str(exc)) from exc
    if constraint_json:
        from dataclasses import replace as dc_replace
        prob = dc_replace(prob, set=constraint_from_json(constraint_json))
    return prob


def _sketch_spec(kind, m, seed, what="sketch"):
    if seed is None:
        raise click.UsageError(f"--seed is required for a randomized {what}")
    if seed < 0:
        raise click.UsageError("--seed must be a non-negative integer")
    try:
        return SketchSpec(kind, m, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _controls(inner_tol, inner_max_iter, no_acceleration) -> SolverControls:
    try:
        return SolverControls(
            tol=inner_tol, max_iter=inner_max_iter, acceleration=not no_acceleration)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _recommended_m(problem, p) -> int:
    """Derive the sketch dimension from the width formula when possible."""
    try:
        if p["generate"] == "sparse":
            m = recommend_sketch_size("sparse", d=problem.d, s=p["s"],
                                      rho=p["rho"], c0=p["c0"])
        elif p["generate"] == "lowrank":
            m = recommend_sketch_size("lowrank", d1=p["d1"], d2=p["d2"], r=p["r"],
                                      rho=p["rho"], c0=p["c0"])
        elif isinstance(problem.set, Unconstrained):
            m = recommend_sketch_size("unconstrained", d=problem.d,
                                      rho=p["rho"], c0=p["c0"])
        else:
            raise click.UsageError(
                "--m is required (no structural hint available to derive it)")
    except (ValueError, IhskitError) as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(f"using recommended sketch dimension m = {m}", err=True)
    return m


@cli.command()
@_add_options(_problem_options)
@click.option("--method", type=click.Choice(["exact", "classical", "hessian", "ihs"]),
              default=None, help="Solver to run (required here or in the config file).")
@click.option("--sketch", "kind", type=click.Choice(KINDS), default="gaussian",
              show_default=True, help="Sketch ensemble for sketched methods.")
@click.option("--m", type=int, default=None, help="Sketch dimension per round.")
@click.option("--rounds", type=int, default=8, show_default=True,
              help="Iteration count for --method ihs.")
@click.option("--rho", type=click.FloatRange(0.0, 0.5, min_open=True), default=0.5,
              show_default=True, help="Target contraction used when --m is derived automatically.")
@click.option("--c0", type=float, default=1.5, show_default=True,
              help="Width constant used when --m is derived automatically.")
@click.option("--seed", type=int, default=None, help="Master seed (required when random).")
@click.option("--inner-tol", type=float, default=None,
              help="Gradient-mapping tolerance of the inner solver; for ihs, the floor "
                   "under each constrained round's tolerance, which tracks the outer step.")
@click.option("--inner-max-iter", type=int, default=5000, show_default=True,
              help="Iteration cap of the inner solver.")
@click.option("--no-acceleration", is_flag=True, help="Disable inner-solver momentum.")
@click.option("--reference", type=click.Path(), default=None,
              help="CSV vector; prints the final error to it in the prediction seminorm.")
@click.option("--certificates", is_flag=True,
              help="Record per-round (Z1, Z2) certificates (ihs, unconstrained only).")
@click.option("--out", "out_prefix", type=click.Path(), default=None,
              help="Prefix for output files (PREFIX_solution.csv, PREFIX_report.json, ...).")
@click.option("--timings", is_flag=True,
              help="Include wall-clock timings in the JSON report (breaks byte-for-byte "
                   "reproducibility of outputs).")
@click.option("--config", type=click.Path(), default=None,
              help="Flat key = value config file; flags override.")
@click.pass_context
def solve(ctx, matrix, rhs, generate, n, d, s, d1, d2, r, sigma, constraint_json,
          method, kind, m, rounds, rho, c0, seed, inner_tol, inner_max_iter,
          no_acceleration, reference, certificates, out_prefix, timings, config):
    """Solve one least-squares problem with the chosen method."""
    _apply_config(ctx, config)
    p = ctx.params
    if p["method"] is None:
        raise click.UsageError("--method is required (exact, classical, hessian or ihs)")
    problem = _build_problem(p["matrix"], p["rhs"], p["generate"], p["n"], p["d"], p["s"],
                             p["d1"], p["d2"], p["r"], p["sigma"], p["constraint_json"],
                             p["seed"])
    ctl = _controls(p["inner_tol"], p["inner_max_iter"], p["no_acceleration"])
    ref = _load_vector(p["reference"]) if p["reference"] else None
    if ref is not None and ref.shape[0] != problem.d:
        raise click.UsageError(f"{p['reference']}: the reference has {ref.shape[0]} "
                               f"entries, the problem has d = {problem.d}")
    method = p["method"]
    report = None
    converged = True
    if method == "exact":
        x, converged = solve_exact(problem, ctl, full_result=True)
    else:
        if p["m"] is None:
            p["m"] = _recommended_m(problem, p)
        spec = _sketch_spec(p["kind"], p["m"], p["seed"], what=f"{method} solve")
        if method == "classical":
            x, converged = classical_sketch_solve(problem, spec, ctl, full_result=True)
        elif method == "hessian":
            x, converged = hessian_sketch_solve(problem, spec, ctl, full_result=True)
        else:
            try:
                cfg = IhsConfig(spec, p["rounds"], inner=ctl,
                                collect_certificates=p["certificates"])
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
            report = ihs_solve(problem, cfg, reference=ref)
            x = report.x
            converged = report.all_converged

    final_ref_err = None
    if ref is not None:
        final_ref_err = problem.seminorm(x - ref)
        click.echo(f"error to reference (prediction seminorm): {final_ref_err:.10e}")

    if p["out_prefix"]:
        prefix = p["out_prefix"]
        _atomic_write(prefix + "_solution.csv", _fmt_vec(x))
        rep = {
            "method": method,
            "n": problem.n,
            "d": problem.d,
            "converged": bool(converged),
            "final_error_to_reference": final_ref_err,
        }
        if method != "exact":
            rep["sketch"] = {"kind": p["kind"], "m": p["m"], "seed": p["seed"]}
        if report is not None:
            rep["rounds"] = len(report.per_round_seconds)
            rep["round_converged"] = report.round_converged
            rep["inner_iterations"] = report.inner_iterations
            if report.errors_to_ls is not None:
                rep["errors_to_reference"] = report.errors_to_ls
            if report.errors_to_truth is not None:
                rep["errors_to_truth"] = report.errors_to_truth
            if report.certificates is not None:
                rep["certificates"] = [[z1, z2] for z1, z2 in report.certificates]
            if p["timings"]:
                rep["per_round_seconds"] = report.per_round_seconds
        _atomic_write(prefix + "_report.json", json.dumps(rep, indent=2) + "\n")
        if report is not None:
            lines = ["iter,err_ls_semi,err_truth_semi"]
            for it in range(len(report.iterates)):
                e1 = ("" if report.errors_to_ls is None
                      else format(report.errors_to_ls[it], ".17g"))
                e2 = ("" if report.errors_to_truth is None
                      else format(report.errors_to_truth[it], ".17g"))
                lines.append(f"{it},{e1},{e2}")
            _atomic_write(prefix + "_trace.csv", "\n".join(lines) + "\n")
    elif ref is None:
        click.echo(_fmt_vec(x), nl=False)

    if not converged:
        raise NonConvergence("inner solver did not converge in at least one round")


@cli.command()
@click.option("--id", "exp_id", default=None, help=f"One of: {', '.join(EXPERIMENT_IDS)}.")
@click.option("--out", type=click.Path(), default=None, help="Output CSV path.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--trials", type=int, default=None, help="Trials per grid point.")
@click.option("--d", type=int, default=None, help="Override the problem dimension (grid).")
@click.option("--n", type=int, default=None, help="Override the sample size (grid).")
@click.option("--m", type=int, default=None, help="Override the sketch dimension (fig6a).")
@click.option("--gamma", type=float, multiple=True,
              help="Override the sketch-size factor(s).")
@click.option("--rounds", type=int, default=None, help="Override the iteration count.")
@click.option("--sigma", type=float, default=None, help="Override the noise level.")
@click.option("--kind", type=click.Choice(KINDS), default=None, help="Sketch ensemble.")
@click.option("--full-scale", is_flag=True, help="Paper-scale grids and trial counts.")
@click.option("--threads", type=int, default=None, help="Worker threads (default: all cores).")
@click.option("--config", type=click.Path(), default=None,
              help="Flat key = value config file; flags override.")
@click.pass_context
def experiment(ctx, exp_id, out, seed, trials, d, n, m, gamma, rounds, sigma, kind,
               full_scale, threads, config):
    """Regenerate one benchmark experiment and write its CSV."""
    _apply_config(ctx, config)
    p = ctx.params
    exp_id = p["exp_id"]
    if exp_id is None or p["out"] is None or p["seed"] is None:
        raise click.UsageError("--id, --out and --seed are required")
    if p["seed"] < 0:
        raise click.UsageError("--seed must be a non-negative integer")
    try:
        flags = flag_overrides(exp_id, {f: p[f] for f in FLAG_KEYWORDS})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    overrides = {**(FULL_SCALE_OVERRIDES[exp_id] if p["full_scale"] else {}), **flags}
    nthreads = p["threads"] if p["threads"] is not None else _default_threads()
    rows = run_experiment(exp_id, p["seed"], threads=nthreads, **overrides)
    try:
        write_rows(rows, p["out"])
    except OSError as exc:
        raise _IOError(f"cannot write {p['out']}: {exc}") from exc
    click.echo(f"{exp_id}: {len(rows)} rows -> {p['out']}")
    click.echo(summarize(rows))


@cli.command()
@_add_options(_problem_options)
@click.option("--sketch", "kind", type=click.Choice(KINDS), default="gaussian",
              show_default=True)
@click.option("--m", type=int, default=None, help="Sketch dimension per round.")
@click.option("--rounds", type=int, default=6, show_default=True)
@click.option("--seed", type=int, default=None, help="Master seed (required).")
@click.option("--out", type=click.Path(), default=None, help="Write the table as JSON.")
@click.option("--config", type=click.Path(), default=None)
@click.pass_context
def diagnose(ctx, matrix, rhs, generate, n, d, s, d1, d2, r, sigma, constraint_json,
             kind, m, rounds, seed, out, config):
    """Per-round contraction certificates (Z1, Z2) for an unconstrained problem."""
    _apply_config(ctx, config)
    p = ctx.params
    if p["m"] is None:
        raise click.UsageError("--m is required")
    problem = _build_problem(p["matrix"], p["rhs"], p["generate"], p["n"], p["d"], p["s"],
                             p["d1"], p["d2"], p["r"], p["sigma"], p["constraint_json"],
                             p["seed"])
    if not isinstance(problem.set, Unconstrained):
        raise click.UsageError(
            "diagnose supports unconstrained problems only (certificates for constrained "
            "cones have no closed form)")
    spec = _sketch_spec(p["kind"], p["m"], p["seed"], what="diagnosis")
    x_ls = solve_exact(problem)
    cfg = IhsConfig(spec, p["rounds"], collect_certificates=True)
    report = ihs_solve(problem, cfg, reference=x_ls)
    click.echo(f"{'round':>5} {'Z1':>12} {'Z2':>12} {'Z2/Z1':>12} {'err_ls_semi':>14}")
    table = []
    for t, (z1, z2) in enumerate(report.certificates, start=1):
        ratio = z2 / z1 if z1 > 0 else math.inf
        click.echo(f"{t:>5} {z1:>12.6f} {z2:>12.6f} {ratio:>12.6f} "
                   f"{report.errors_to_ls[t]:>14.6e}")
        table.append({"round": t, "Z1": z1, "Z2": z2, "ratio": ratio,
                      "err_ls_semi": report.errors_to_ls[t]})
    if p["out"]:
        _atomic_write(p["out"], json.dumps({"rounds": table}, indent=2) + "\n")


@cli.command("verify-condition")
@click.option("--kind", type=click.Choice(KINDS), default="gaussian", show_default=True)
@click.option("--n", type=int, default=None, help="Source dimension.")
@click.option("--m", type=int, default=None, help="Sketch dimension.")
@click.option("--trials", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--matrix", type=click.Path(), default=None,
              help="Data matrix for leverage-score sampling probabilities.")
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
@click.option("--config", type=click.Path(), default=None)
@click.pass_context
def verify_condition(ctx, kind, n, m, trials, seed, matrix, out, config):
    """Monte Carlo estimate of the projection-condition constant eta."""
    _apply_config(ctx, config)
    p = ctx.params
    if p["n"] is None or p["m"] is None or p["seed"] is None:
        raise click.UsageError("--n, --m and --seed are required")
    lev = None
    if p["kind"] == "rowsample_leverage":
        if not p["matrix"]:
            raise click.UsageError("rowsample_leverage needs --matrix to compute probabilities")
        a = _load_table(p["matrix"])
        if a.shape[0] != p["n"]:
            raise click.UsageError(f"--matrix has {a.shape[0]} rows, expected n={p['n']}")
        lev = leverage_scores(a)
    spec = _sketch_spec(p["kind"], p["m"], p["seed"], what="condition check")
    try:
        eta, details = verify_projection_condition(
            spec, p["n"], p["trials"], leverage_p=lev, return_details=True)
    except IhskitError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(f"eta_hat = {eta:.6f}  (kind={p['kind']}, n={p['n']}, m={p['m']}, "
               f"trials={p['trials']}, singular draws={details['singular_draws']})")
    if p["out"]:
        _atomic_write(p["out"], json.dumps({
            "kind": p["kind"], "n": p["n"], "m": p["m"], "trials": p["trials"],
            "eta_hat": eta, "singular_draws": details["singular_draws"],
        }, indent=2) + "\n")


@cli.command("project")
@click.option("--constraint", "constraint_json", required=True,
              help='Constraint descriptor, e.g. {"type": "simplex"}.')
@click.option("--vector", type=click.Path(), required=True, help="CSV vector to project.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the projection as CSV (default: stdout).")
@click.pass_context
def project_cmd(ctx, constraint_json, vector, out):
    """Euclidean projection of a vector onto a constraint set."""
    try:
        cset = constraint_from_json(constraint_json)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    v = _load_vector(vector)
    try:
        z = project_onto(cset, v)
    except IhskitError as exc:
        raise click.UsageError(str(exc)) from exc
    if out:
        _atomic_write(out, _fmt_vec(z))
    else:
        click.echo(_fmt_vec(z), nl=False)


def main(argv=None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except NonConvergence as exc:
        click.echo(f"warning: {exc}", err=True)
        return EXIT_NONCONVERGED
    except _IOError as exc:
        click.echo(f"error: {exc.message}", err=True)
        return EXIT_IO
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}\nTry --help for usage.", err=True)
        return EXIT_USAGE
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return EXIT_USAGE
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return EXIT_IO
    except IhskitError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
