"""Time-to-accuracy benchmark of ihskit: IHS against the exact solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ls_gaussian --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The line before it holds the raw seconds, the
calibration kernel times and the versions the run used. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional

from tracer import Tracer, take

# Pinned in the environment before numpy loads: one BLAS thread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")

# The per-layer metrics a traced run reports: the layers and counts that
# an optimisation of one layer is most likely to move.
PER_LAYER = (
    "sketch.build_sketch.self_s", "sketch.build_sketch.calls",
    "sketch.apply.self_s", "sketch.apply.calls",
    "linalg.fwht_normalized.self_s",
    "linalg.estimate_opnorm_sq.self_s", "linalg.estimate_opnorm_sq.calls",
    "subsolver.gram.self_s", "subsolver.gram.calls",
    "ihs.ihs_solve.self_s",
    "subsolver.solve_constrained.self_s", "subsolver.solve_constrained.calls",
    "subsolver.inner_iters",
    "constraints.project.self_s", "constraints.project.calls",
    "linalg.thin_svd.self_s", "linalg.thin_svd.calls",
    "linalg.solve_psd.self_s",
    "ihs.solve_exact.self_s",
    "cli.main.self_s",
)

SETUP_MIN = 3        # set-up passes per run at least; setup_s is their median


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import ihskit from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ihskit", "__init__.py")):
        raise SystemExit(f"error: no ihskit sources under {SRC}")
    sys.path.insert(0, SRC)
    import ihskit
    if os.path.dirname(os.path.dirname(os.path.abspath(ihskit.__file__))) != SRC:
        raise SystemExit(f"error: ihskit was imported from {ihskit.__file__}, not {SRC}")


@dataclass
class Op:
    """One timed operation: its timings (two for a set-up whose warm-up
    was retried), the solves it made and whether all of them passed."""

    timings: list
    calls: int
    ok: bool
    layers: Optional[dict] = None

    @property
    def seconds(self) -> float:
        """Calibrated seconds per solve."""
        return sum(t.calibrated_s for t in self.timings) / self.calls


def _call(fn):
    """``(fn(), None)``, or ``(None, exception)`` when ``fn`` raises."""
    try:
        return fn(), None
    except Exception as exc:         # an operation that raises counts as failed
        return None, exc


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Run:
    """Counts, checks and timed operations of one benchmark run."""

    def __init__(self, workload, clock):
        self.wl = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.ops = {key: [] for key in ("time_to_target_s", "exact_s", "setup_s",
                                        "traced_ihs", "traced_exact")}
        self.problems = []
        self.absent = []

    def fail(self, metric: str, count: int, reason: str, wrong: bool) -> None:
        self.failed += count
        self.correct = self.correct and not wrong
        self.problems.append(f"{metric}: {reason}")

    def check(self, item, out) -> Optional[str]:
        """None, or why ``out`` is wrong; a check that raises rejects it."""
        bad, exc = _call(lambda: self.wl.check_one(item, out))
        return bad if exc is None else _describe(exc)

    def timed(self, metric, fn, reps=1, tracer=None) -> None:
        """Run ``fn`` (which solves every problem of the workload once)
        ``reps`` times between two kernel passes and check every output."""
        calls = reps * len(self.wl.items)
        self.attempted += calls
        if tracer is not None:
            tracer.install()
        try:
            (outs, exc), timing = self.clock.time(
                lambda: _call(lambda: [fn() for _ in range(reps)]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        layers = take(tracer) if tracer is not None else None
        if exc is not None:
            self.fail(metric, calls, _describe(exc), wrong=False)
            self.ops[metric].append(Op([timing], calls, False, layers))
            return
        # the first pass is checked against the references; repeats of a
        # deterministic solve must reproduce it bit for bit
        bad = [self.check(item, out) for item, out in zip(self.wl.items, outs[0])]
        bad += ["differs from the first solve of the same problem"
                if not _same(first, out) else None
                for again in outs[1:] for first, out in zip(outs[0], again)]
        reasons = [b for b in bad if b is not None]
        if reasons:
            self.fail(metric, len(reasons), reasons[0], wrong=True)
        self.ops[metric].append(Op([timing], calls, not reasons, layers))

    def passed(self, metric):
        """The operations under ``metric`` that passed; all of them when
        none did, so that a run whose every operation failed still reports
        its times (with the failures counted)."""
        ops = self.ops[metric]
        return [op for op in ops if op.ok] or ops

    def median(self, metric):
        return statistics.median(op.seconds for op in self.passed(metric))

    def record(self):
        """Raw seconds per solve and kernel seconds around each timing."""
        return {metric: [[t.raw_s / op.calls, t.kernel_s] for op in ops for t in op.timings]
                for metric, ops in self.ops.items() if ops}


def _same(a, b) -> bool:
    import numpy as np
    return bool(np.array_equal(getattr(a, "x", a), getattr(b, "x", b)))


def _setup(run: Run, passes: int) -> None:
    """Set up every problem, cycling through them for ``passes`` passes.

    A warm-up that misses the target within the workload's ``cap`` rounds
    runs once more with ``max_rounds``, so that a rise in the rounds shows
    in ``rounds_to_target`` and ``setup_s`` rather than stopping the run.
    A pass that raises, or misses the target even then, counts as failed.
    """
    wl = run.wl
    count = len(wl.items)
    for k in range(max(passes, count)):
        i = k % count
        run.attempted += 1
        timings, reason = [], f"target not reached within {wl.max_rounds} rounds"
        for rounds in (wl.cap, wl.max_rounds):
            (out, exc), timing = run.clock.time(lambda: _call(lambda: wl.setup(i, rounds)))
            timings.append(timing)
            if exc is None:
                reached, exc = _call(lambda: wl.finish_setup(i, out))
            if exc is not None:
                reason = _describe(exc)
                break
            if reached:
                reason = None
                break
        if reason is not None:
            run.fail("setup_s", 1, reason, wrong=False)
        run.ops["setup_s"].append(Op(timings, 1, reason is None))


def _peak_mb(run: Run) -> float:
    run.attempted += 1
    tracemalloc.start()
    try:
        out, exc = _call(run.wl.peak_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if exc is not None:
        run.fail("peak_mb", 1, _describe(exc), wrong=False)
    else:
        bad = run.check(run.wl.items[0], out[0])
        if bad:
            run.fail("peak_mb", 1, bad, wrong=True)
    return peak / 2 ** 20


def measure(run: Run, seconds: float) -> dict:
    _setup(run, SETUP_MIN)
    peak = _peak_mb(run)
    run.clock.fresh()                     # the untimed pass above ran slow work
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run.timed("time_to_target_s", run.wl.ihs_op)
        run.timed("exact_s", run.wl.exact_op, reps=run.wl.exact_reps)
    run.clock.fresh()                     # the window of the last operation
    return {
        "time_to_target_s": run.median("time_to_target_s"),
        "exact_s": run.median("exact_s"),
        "setup_s": run.median("setup_s"),
        "peak_mb": peak,
        "rounds_to_target": run.wl.rounds,
    }


def measure_layers(run: Run, seconds: float) -> dict:
    """Per-layer self times and counts per problem solved twice, once by
    IHS to the target and once exactly, and the tracing overhead."""
    tracer = Tracer()
    _setup(run, 1)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run.timed("time_to_target_s", run.wl.ihs_op)
        run.timed("traced_ihs", run.wl.ihs_op, tracer=tracer)
        run.timed("traced_exact", run.wl.exact_op, tracer=tracer)
    run.clock.fresh()
    run.absent = tracer.absent
    totals = dict.fromkeys(PER_LAYER, 0.0)
    solves = 0
    for metric in ("traced_ihs", "traced_exact"):
        ops = run.passed(metric)
        for op in ops:
            for key in totals:
                scale = op.timings[0].scale if key.endswith("_s") else 1.0
                totals[key] += op.layers[key] * scale
        solves = max(solves, sum(op.calls for op in ops))
    out = {key: val / solves for key, val in totals.items()}
    out["trace.overhead_s"] = run.median("traced_ihs") - run.median("time_to_target_s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    _import_program()
    import numpy
    import scipy

    from calibrate import REFERENCE_S, CalibratedClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        clock = CalibratedClock()
        clock.kernel.run()                # the first pass runs cold; not recorded
        run = Run(wl, clock)
        if args.trace:
            values = measure_layers(run, args.seconds)
            units = {k: ("count" if not k.endswith("_s") else "s") for k in values}
        else:
            values = measure(run, args.seconds)
            units = {"time_to_target_s": "s", "exact_s": "s", "setup_s": "s",
                     "peak_mb": "MB", "rounds_to_target": "rounds"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds_to_target": [it.rounds for it in wl.items],
        "references": [{"certified_seminorm": it.ref.certified_semi, "target": it.ref.target,
                        "iterations": it.ref.iterations} for it in wl.items],
        "raw_and_kernel_s": run.record(),
        "calibrated_s": {metric: [op.seconds for op in ops] for metric, ops in run.ops.items()},
        "calibration": {"reference_s": REFERENCE_S,
                        "kernel_s": clock.kernel_times},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "absent": run.absent,
        "problems": run.problems,
    }
    print(json.dumps(info))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
