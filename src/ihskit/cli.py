"""Command-line interface.

Commands: ``solve``, ``experiment``, ``diagnose``, ``verify-condition``
and ``project``. Matrix and vector inputs are headerless CSV files of
reals with dimensions inferred from the file. A TOML config file, read
by ``tomllib``, can seed any option; explicit flags override it.
Randomized commands require an explicit --seed; no entropy is ever
taken from the clock.

Exit codes: 0 success; 1 usage error: bad flags, constraint
descriptors, config values, input files or experiment grids (a
``ValueError`` raised inside a command's ``_reading_inputs()`` block);
2 numerical failure: non-convergence, LAPACK or SVD failures (any
other ``IhskitError`` or ``LinAlgError``); 3 any ``OSError``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import tomllib
import warnings
from dataclasses import replace

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
    gen_lowrank,
    gen_sparse,
    gen_unconstrained,
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


def _default_threads() -> int:
    env = os.environ.get("IHSKIT_THREADS")
    try:
        threads = int(env) if env else os.cpu_count() or 1
    except ValueError:
        threads = 0
    if threads < 1:
        raise click.UsageError(f"IHSKIT_THREADS must be a positive integer, got {env!r}")
    return threads


def _load_table(path) -> np.ndarray:
    """Headerless CSV of reals -> 2-D array; malformed rows name the line.

    numpy's C reader parses the file. When it rejects the file or finds no
    rows, ``_read_lines`` reads it again: that accepts what the C reader
    does not (``1_0``) and names a bad line.
    """
    # Opened here, not by loadtxt(path): numpy's DataSource would unpack .gz
    # names, fetch URLs and word a missing file differently.
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(_lines_for_c_reader(fh), delimiter=",", comments=None,
                               ndmin=2, dtype=np.float64)
    except ValueError:  # UnicodeDecodeError among them
        table = None
    if table is None or not table.size:
        return _read_lines(path)
    return table


def _lines_for_c_reader(fh):
    """Yield the lines of ``fh`` that ``_read_lines`` would not skip.

    The C reader would refuse a whitespace-only line as a row of one empty
    field. It strips the ASCII separators 0x1c-0x1f around a field, which
    ``float()`` rejects, so a line holding one leaves the file to
    ``_read_lines``.
    """
    for line in fh:
        if line.isspace():
            continue
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator in a field")
        yield line


def _read_lines(path) -> np.ndarray:
    """``_load_table`` one line at a time with ``float()`` per field."""
    rows = []
    width = None
    try:
        with open(path, encoding="utf-8") as fh:
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
    except UnicodeDecodeError as exc:
        raise click.UsageError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from exc
    if not rows:
        raise click.UsageError(f"{path}: file contains no data")
    return np.asarray(rows, dtype=np.float64)


def _load_vector(path) -> np.ndarray:
    table = _load_table(path)
    if 1 in table.shape:
        return table.ravel()
    raise click.UsageError(f"{path}: expected a single row or column, got shape {table.shape}")


def _fmt_vec(v: np.ndarray) -> str:
    # + 0.0 writes a signed zero (the l1 projection leaves -0.0) as 0 and
    # keeps every other value's bits
    return "\n".join(format(float(t) + 0.0, ".17g") for t in v) + "\n"


@contextlib.contextmanager
def _reading_inputs():
    """Report a ``ValueError`` raised while a command reads its inputs as
    a usage error (exit 1).

    The package's input errors (``DimensionError``, ``NonFiniteError``,
    ``MissingHintError``) are ``ValueError``s. So is ``LinAlgError``, a
    numerical failure, which passes through to ``main()`` (exit 2).
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _apply_config(ctx: click.Context, config_path) -> None:
    """Fill parameters that the user did not pass from the config file.

    A key is an option's long flag name or its parameter name, with
    ``-`` read as ``_``: ``out`` or ``out_prefix`` for ``solve --out``.
    An integer option takes a TOML integer only: ``seed = 2.0`` is
    refused like ``--seed 2.0``, not truncated.
    """
    if not config_path:
        return
    with open(config_path, "rb") as fh:
        try:
            values = tomllib.load(fh)
        except ValueError as exc:  # TOMLDecodeError or UnicodeDecodeError
            raise click.UsageError(f"{config_path}: {exc}") from exc
    params = {p.name: p for p in ctx.command.params}
    params.update((opt[2:].replace("-", "_"), p) for p in ctx.command.params
                  for opt in p.opts if opt.startswith("--"))
    for key, val in values.items():
        key = key.replace("-", "_")
        if key == "config":
            continue
        if key not in params:
            raise click.UsageError(f"config key {key!r} is not an option of this command")
        param = params[key]
        if ctx.get_parameter_source(param.name) == click.core.ParameterSource.DEFAULT:
            vals = val if param.multiple and isinstance(val, list) else [val]
            if not all(isinstance(v, (str, int, float)) for v in vals):  # bool is an int
                raise click.UsageError(
                    f"config key {key!r} must be a string, number or boolean"
                    f"{' or an array of them' if param.multiple else ''}, got {val!r}")
            # click's int() would truncate 1.5 to 1, where the command line
            # refuses "1.5"; 2.0 and true are refused as "--seed 2.0" is
            if isinstance(param.type, click.types.IntParamType) and not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in vals):
                raise click.UsageError(f"config key {key!r} must be an integer, got {val!r}")
            ctx.params[param.name] = param.type_cast_value(
                ctx, tuple(vals) if param.multiple else val)


class _ConfigCommand(click.Command):
    """A command that takes ``--config``. The file fills the options left
    at their defaults (``_apply_config``); then the callback runs with
    every option as a keyword."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--config"], type=click.Path(), default=None,
                                        help="TOML config file; flags override."))

    def invoke(self, ctx):
        _apply_config(ctx, ctx.params["config"])
        return super().invoke(ctx)


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


# --generate family: its generator and the params it reads before sigma
_GENERATORS = {
    "unconstrained": (gen_unconstrained, ("n", "d")),
    "sparse": (gen_sparse, ("n", "d", "s")),
    "lowrank": (gen_lowrank, ("n", "d1", "d2", "r")),
}


def _build_problem(p):
    """The problem that a command's params ``p`` describe: read from
    --matrix/--rhs or generated by --generate."""
    file_source = p["matrix"] is not None or p["rhs"] is not None
    if file_source == (p["generate"] is not None):
        raise click.UsageError("supply exactly one problem source: --matrix/--rhs or --generate")
    constraint_json = p["constraint_json"]
    if file_source:
        if p["matrix"] is None or p["rhs"] is None:
            raise click.UsageError("--matrix and --rhs must be given together")
        a = _load_table(p["matrix"])
        y = _load_vector(p["rhs"])
        cset = constraint_from_json(constraint_json) if constraint_json else Unconstrained()
        return LsProblem(a, y, set=cset)
    seed = p["seed"]
    if seed is None:
        raise click.UsageError("--seed is required when generating a random problem")
    gen, keys = _GENERATORS[p["generate"]]
    if any(p[k] is None for k in keys):
        flags = [f"--{k}" for k in keys]
        raise click.UsageError(
            f"--generate {p['generate']} needs {', '.join(flags[:-1])} and {flags[-1]}")
    prob = gen(*(p[k] for k in keys), p["sigma"], (seed, 0))
    if constraint_json:
        prob = replace(prob, set=constraint_from_json(constraint_json))
    return prob


def _sketch_spec(kind, m, seed, what="sketch"):
    if seed is None:
        raise click.UsageError(f"--seed is required for a randomized {what}")
    return SketchSpec(kind, m, seed)


def _recommended_m(problem, p) -> int:
    """Derive the sketch dimension from the width formula when possible."""
    if p["generate"] == "sparse":
        m = recommend_sketch_size("sparse", d=problem.d, s=p["s"], rho=p["rho"], c0=p["c0"])
    elif p["generate"] == "lowrank":
        m = recommend_sketch_size("lowrank", d1=p["d1"], d2=p["d2"], r=p["r"],
                                  rho=p["rho"], c0=p["c0"])
    elif isinstance(problem.set, Unconstrained):
        m = recommend_sketch_size("unconstrained", d=problem.d, rho=p["rho"], c0=p["c0"])
    else:
        raise click.UsageError("--m is required (no structural hint available to derive it)")
    click.echo(f"using recommended sketch dimension m = {m}", err=True)
    return m


@cli.command(cls=_ConfigCommand)
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
@click.option("--c0", type=click.FloatRange(0, min_open=True), default=1.5, show_default=True,
              help="Width constant used when --m is derived automatically.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Master seed (required when random).")
@click.option("--inner-tol", type=float, default=None,
              help="Gradient-mapping tolerance of the inner solver; for ihs, the floor "
                   "under each constrained round's tolerance, which tracks the outer step.")
@click.option("--inner-max-iter", type=int, default=5000, show_default=True,
              help="Iteration cap of the inner solver.")
@click.option("--reference", type=click.Path(), default=None,
              help="CSV vector; prints the final error to it in the prediction seminorm.")
@click.option("--certificates", is_flag=True,
              help="Record per-round (Z1, Z2) certificates in the report (ihs with "
                   "--reference and --out, unconstrained only).")
@click.option("--out", "out_prefix", type=click.Path(), default=None,
              help="Prefix for output files: PREFIX_solution.csv and PREFIX_report.json.")
@click.option("--timings", is_flag=True,
              help="Include wall-clock timings in the JSON report (breaks byte-for-byte "
                   "reproducibility of outputs).")
def solve(**p):
    """Solve one least-squares problem with the chosen method."""
    if p["method"] is None:
        raise click.UsageError("--method is required (exact, classical, hessian or ihs)")
    method = p["method"]
    with _reading_inputs():
        problem = _build_problem(p)
        ctl = SolverControls(tol=p["inner_tol"], max_iter=p["inner_max_iter"])
        ref = _load_vector(p["reference"]) if p["reference"] else None
        if ref is not None and ref.shape[0] != problem.d:
            raise click.UsageError(f"{p['reference']}: the reference has {ref.shape[0]} "
                                   f"entries, the problem has d = {problem.d}")
        if p["certificates"]:
            if method != "ihs":
                raise click.UsageError("--certificates needs --method ihs")
            if ref is None:
                raise click.UsageError(
                    "--certificates needs --reference (they bound the error to it)")
            if p["out_prefix"] is None:
                raise click.UsageError("--certificates needs --out (they go to the report)")
            if not isinstance(problem.set, Unconstrained):
                raise click.UsageError(
                    "--certificates supports unconstrained problems only (certificates for "
                    "constrained cones have no closed form)")
        if method != "exact":
            if p["m"] is None:
                p["m"] = _recommended_m(problem, p)
            spec = _sketch_spec(p["kind"], p["m"], p["seed"], what=f"{method} solve")
        if method == "ihs":
            cfg = IhsConfig(spec, p["rounds"], inner=ctl, step="tuned",
                            collect_certificates=p["certificates"])
    report = {
        "exact": lambda: solve_exact(problem, ctl),
        "classical": lambda: classical_sketch_solve(problem, spec, ctl),
        "hessian": lambda: hessian_sketch_solve(problem, spec, ctl),
        "ihs": lambda: ihs_solve(problem, cfg, reference=ref),
    }[method]()
    x, converged = report.x, report.all_converged

    final_ref_err = None
    if ref is not None:
        final_ref_err = problem.seminorm(x - ref)
        click.echo(f"error to reference (prediction seminorm): {final_ref_err:.10e}")

    if p["out_prefix"]:
        prefix = p["out_prefix"]
        write_text_atomic(prefix + "_solution.csv", _fmt_vec(x))
        rep = {
            "method": method,
            "n": problem.n,
            "d": problem.d,
            "converged": bool(converged),
            "final_error_to_reference": final_ref_err,
        }
        if method != "exact":
            rep["sketch"] = {"kind": p["kind"], "m": p["m"], "seed": p["seed"]}
        if method == "ihs":
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
        write_text_atomic(prefix + "_report.json", json.dumps(rep, indent=2) + "\n")
    elif ref is None:
        click.echo(_fmt_vec(x), nl=False)

    if not converged:
        click.echo("warning: inner solver did not converge in at least one round", err=True)
        return EXIT_NONCONVERGED


@cli.command(cls=_ConfigCommand)
@click.option("--id", "exp_id", default=None, help=f"One of: {', '.join(EXPERIMENT_IDS)}.")
@click.option("--out", type=click.Path(), default=None, help="Output CSV path.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed.")
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
def experiment(**p):
    """Regenerate one benchmark experiment and write its CSV."""
    exp_id = p["exp_id"]
    if exp_id is None or p["out"] is None or p["seed"] is None:
        raise click.UsageError("--id, --out and --seed are required")
    nthreads = p["threads"] if p["threads"] is not None else _default_threads()
    # The runners check their grids as they generate the problems, so the
    # whole run is input reading: trials turn numerical failures into rows.
    with _reading_inputs():
        flags = flag_overrides(exp_id, {f: p[f] for f in FLAG_KEYWORDS})
        overrides = {**(FULL_SCALE_OVERRIDES[exp_id] if p["full_scale"] else {}), **flags}
        rows = run_experiment(exp_id, p["seed"], threads=nthreads, **overrides)
    write_rows(rows, p["out"])
    click.echo(f"{exp_id}: {len(rows)} rows -> {p['out']}")
    click.echo(summarize(rows))


@cli.command(cls=_ConfigCommand)
@_add_options(_problem_options)
@click.option("--sketch", "kind", type=click.Choice(KINDS), default="gaussian",
              show_default=True, help="Sketch ensemble of every round.")
@click.option("--m", type=int, default=None, help="Sketch dimension per round.")
@click.option("--rounds", type=int, default=6, show_default=True,
              help="IHS rounds to certify, one table row each.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed (required).")
@click.option("--out", type=click.Path(), default=None, help="Write the table as JSON.")
def diagnose(**p):
    """Per-round contraction certificates (Z1, Z2) for an unconstrained problem.

    The rounds run the plain IHS update (mu = 1). "solve --method ihs"
    runs the tuned step and measures Z2 against mu I, so with a Gaussian
    sketch its --certificates differ from this table.
    """
    if p["m"] is None:
        raise click.UsageError("--m is required")
    with _reading_inputs():
        problem = _build_problem(p)
        if not isinstance(problem.set, Unconstrained):
            raise click.UsageError(
                "diagnose supports unconstrained problems only (certificates for constrained "
                "cones have no closed form)")
        spec = _sketch_spec(p["kind"], p["m"], p["seed"], what="diagnosis")
        cfg = IhsConfig(spec, p["rounds"], step="plain", collect_certificates=True)
    report = ihs_solve(problem, cfg, reference=solve_exact(problem).x)
    click.echo(f"{'round':>5} {'Z1':>12} {'Z2':>12} {'Z2/Z1':>12} {'err_ls_semi':>14}")
    table = []
    for t, (z1, z2) in enumerate(report.certificates, start=1):
        ratio = z2 / z1 if z1 > 0 else math.inf
        click.echo(f"{t:>5} {z1:>12.6f} {z2:>12.6f} {ratio:>12.6f} "
                   f"{report.errors_to_ls[t]:>14.6e}")
        table.append({"round": t, "Z1": z1, "Z2": z2, "ratio": ratio,
                      "err_ls_semi": report.errors_to_ls[t]})
    if p["out"]:
        write_text_atomic(p["out"], json.dumps({"rounds": table}, indent=2) + "\n")


@cli.command("verify-condition", cls=_ConfigCommand)
@click.option("--kind", type=click.Choice(KINDS), default="gaussian", show_default=True,
              help="Sketch ensemble to check.")
@click.option("--n", type=int, default=None, help="Source dimension.")
@click.option("--m", type=int, default=None, help="Sketch dimension.")
@click.option("--trials", type=int, default=2000, show_default=True,
              help="Independent sketch draws averaged in the estimate.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed.")
@click.option("--matrix", type=click.Path(), default=None,
              help="Data matrix for leverage-score sampling probabilities.")
@click.option("--out", type=click.Path(), default=None, help="Write the result as JSON.")
def verify_condition(**p):
    """Monte Carlo estimate of the projection-condition constant eta."""
    if p["n"] is None or p["m"] is None or p["seed"] is None:
        raise click.UsageError("--n, --m and --seed are required")
    lev = None
    # verify_projection_condition checks trials and m <= n before it draws.
    with _reading_inputs():
        if p["kind"] == "rowsample_leverage":
            if not p["matrix"]:
                raise click.UsageError(
                    "rowsample_leverage needs --matrix to compute probabilities")
            a = _load_table(p["matrix"])
            if a.shape[0] != p["n"]:
                raise click.UsageError(f"--matrix has {a.shape[0]} rows, expected n={p['n']}")
            lev = leverage_scores(a)
        spec = _sketch_spec(p["kind"], p["m"], p["seed"], what="condition check")
        eta, details = verify_projection_condition(
            spec, p["n"], p["trials"], leverage_p=lev, return_details=True)
    click.echo(f"eta_hat = {eta:.6f}  (kind={p['kind']}, n={p['n']}, m={p['m']}, "
               f"trials={p['trials']}, singular draws={details['singular_draws']})")
    # The sum of `trials` projectors of rank <= m has a trace, the sum of
    # their ranks, of at least its own rank, so its lambda_max >= 1 and
    # eta_hat >= n / (trials m) for any sketch: above 1, that floor is
    # the estimator's bias, not a property of the sketch.
    floor = p["n"] / (p["trials"] * p["m"])
    if floor > 1:
        click.echo(f"warning: trials * m = {p['trials'] * p['m']} < n = {p['n']}, so "
                   f"eta_hat >= n / (trials * m) = {floor:.6g} for any sketch (bias floor); "
                   f"{-(-p['n'] // p['m'])} trials or more bring it to at most 1", err=True)
    if p["out"]:
        write_text_atomic(p["out"], json.dumps({
            "kind": p["kind"], "n": p["n"], "m": p["m"], "trials": p["trials"],
            "eta_hat": eta, "singular_draws": details["singular_draws"], "bias_floor": floor,
        }, indent=2) + "\n")


@cli.command("project")
@click.option("--constraint", "constraint_json", required=True,
              help='Constraint descriptor, e.g. {"type": "simplex"}.')
@click.option("--vector", type=click.Path(), required=True, help="CSV vector to project.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the projection as CSV (default: stdout).")
def project_cmd(constraint_json, vector, out):
    """Euclidean projection of a vector onto a constraint set."""
    # A vector that does not fit the set is a DimensionError; an SVD
    # failure is not a ValueError and keeps exit 2.
    with _reading_inputs():
        cset = constraint_from_json(constraint_json)
        z = project_onto(cset, _load_vector(vector))
    if out:
        write_text_atomic(out, _fmt_vec(z))
    else:
        click.echo(_fmt_vec(z), nl=False)


def main(argv=None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    try:
        return cli.main(args=argv, standalone_mode=False) or EXIT_OK
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}\nTry --help for usage.", err=True)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return EXIT_IO
    except (IhskitError, np.linalg.LinAlgError) as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
