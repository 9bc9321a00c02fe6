"""The benchmark's workloads: inputs, set-up, timed operations, checks.

Inputs are drawn here from the workload seed and handed to ihskit only
through its public constructors (``LsProblem``, ``L1Ball``,
``NuclearBall``, ``SketchSpec``, ``IhsConfig`` with the default step and
inner controls) or, for ``cli_csv``, through CSV files and
``ihskit.cli.main`` called in-process. Program functions are looked up
on their modules at call time, so the tracer's wrappers see every call.

A workload holds ``instances`` independent problems drawn from the
seed. The rounds IHS needs, and the iterations of the exact solver,
vary from one problem to the next by 5-10%, so a run times all of them
and reports the mean per problem.
Each workload provides:

* ``setup(i, rounds)`` - the program's share of set-up for problem i:
  build it and run a warm-up solve of ``rounds`` rounds;
* ``finish_setup(i, output)`` - set problem i's ``rounds_to_target``
  from the warm-up's iterates; False when none of them met the target.
  A warm-up runs ``cap`` rounds, and once more ``max_rounds`` rounds
  when that falls short;
* ``ihs_op()`` - one IHS solve to the target of every problem;
* ``exact_op()`` - one exact solve of every problem;
* ``check_one(item, output)`` - None, or the reason an output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import ihskit
import ihskit.cli
from reference import Problem, Reference, certified_reference, check_solution


RETRY_FACTOR = 8    # a warm-up that misses the target is run again at this many times the cap


class SetupError(RuntimeError):
    """A warm-up solve failed or disagreed with an earlier one."""


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 0x1411_0347, stream, index])


@dataclass
class Instance:
    args: tuple                  # (A, y, constraint set, sketch_blocks) for LsProblem
    ref: Reference
    sketch_seed: int
    rounds: Optional[int] = None
    problem: object = None       # the program's LsProblem, built by setup


class Workload:
    name = ""
    stream = 0
    instances = 1
    cap = 0                 # rounds of the first warm-up solve
    exact_reps = 1          # exact solves of each problem per timed exact operation

    items: List

    @property
    def max_rounds(self) -> int:
        return RETRY_FACTOR * self.cap

    @property
    def rounds(self) -> float:
        """Mean rounds to the target; a problem whose warm-up failed counts
        as ``max_rounds``, a lower bound."""
        return sum(it.rounds or self.max_rounds for it in self.items) / len(self.items)

    @staticmethod
    def _rounds(item) -> int:
        if item.rounds is None:
            raise SetupError("no warm-up solve reached the target")
        return item.rounds

    def _set_rounds(self, item, t: Optional[int]) -> bool:
        if t is None:
            return False
        if item.rounds not in (None, t):
            raise SetupError(f"{self.name}: warm-up solves disagree: {item.rounds} vs {t}")
        item.rounds = t
        return True


class ApiWorkload(Workload):
    """A workload driven through ``ihs_solve`` and ``solve_exact``."""

    kind = "gaussian"       # sketch kind
    m = 0

    def __init__(self, seed: int, workdir: str):
        self.items = []
        for k in range(self.instances):
            rng = _rng(seed, self.stream, k)
            sketch_seed = int(rng.integers(2 ** 31))
            bench, args = self.generate(rng)
            self.items.append(Instance(args, certified_reference(bench), sketch_seed))

    def generate(self, rng):
        """(benchmark Problem, LsProblem arguments) of one problem."""
        raise NotImplementedError

    def _config(self, item: Instance, rounds: int):
        return ihskit.IhsConfig(ihskit.SketchSpec(self.kind, self.m, item.sketch_seed), rounds)

    def _make_problem(self, item: Instance):
        a, y, cset, blocks = item.args
        return ihskit.LsProblem(a, y, set=cset, sketch_blocks=blocks)

    def setup(self, i: int, rounds: int):
        item = self.items[i]
        item.problem = self._make_problem(item)
        return ihskit.ihs_solve(item.problem, self._config(item, rounds))

    def finish_setup(self, i: int, report) -> bool:
        item = self.items[i]
        hit = next((t for t, x in enumerate(report.iterates[1:], start=1)
                    if check_solution(item.ref, x) is None), None)
        return self._set_rounds(item, hit)

    def ihs_op(self):
        return [ihskit.ihs_solve(it.problem, self._config(it, self._rounds(it)))
                for it in self.items]

    def exact_op(self):
        return [ihskit.solve_exact(it.problem) for it in self.items]

    def peak_op(self):
        """Problem 0 from handing its inputs to the program to the return
        of its IHS solve."""
        item = self.items[0]
        return [ihskit.ihs_solve(self._make_problem(item),
                                 self._config(item, self._rounds(item)))]

    @staticmethod
    def check_one(item: Instance, out) -> Optional[str]:
        if isinstance(out, ihskit.IhsReport):
            if not out.all_converged:
                return "an inner solve did not converge"
            out = out.x
        return check_solution(item.ref, out)


class LsGaussian(ApiWorkload):
    name = "ls_gaussian"
    stream = 1
    instances = 6
    n, d = 2048, 48
    m = 6 * 48
    sigma = 1.0
    cap = 48
    exact_reps = 200

    def generate(self, rng):
        a = rng.standard_normal((self.n, self.d))
        truth = rng.standard_normal(self.d)
        truth /= np.linalg.norm(truth)
        y = a @ truth + self.sigma * rng.standard_normal(self.n)
        return Problem(a, y), (a, y, ihskit.Unconstrained(), 1)


class LassoRos(ApiWorkload):
    name = "lasso_ros"
    stream = 2
    kind = "ros"
    instances = 5
    n, d, s = 3000, 128, 16       # n pads to 4096 rows for the transform
    m = 888
    sigma = 1.0
    cap = 20
    exact_reps = 6

    def generate(self, rng):
        a = rng.standard_normal((self.n, self.d))
        truth = np.zeros(self.d)
        support = rng.choice(self.d, size=self.s, replace=False)
        truth[support] = rng.choice([-1.0, 1.0], size=self.s) / math.sqrt(self.s)
        radius = float(np.abs(truth).sum())
        y = a @ truth + self.sigma * rng.standard_normal(self.n)
        return Problem(a, y, "l1", radius), (a, y, ihskit.L1Ball(radius), 1)


class LowrankNuclear(ApiWorkload):
    name = "lowrank_nuclear"
    stream = 3
    instances = 8
    n, d1, d2, r = 120, 12, 12, 2
    m = 72
    sigma = 0.25
    cap = 36
    exact_reps = 5

    def generate(self, rng):
        a_base = rng.standard_normal((self.n, self.d1))
        x_mat = rng.standard_normal((self.d1, self.r)) @ rng.standard_normal((self.r, self.d2))
        x_mat /= np.linalg.norm(x_mat)
        radius = float(np.linalg.svd(x_mat, compute_uv=False).sum())
        y_mat = a_base @ x_mat + self.sigma * rng.standard_normal((self.n, self.d2))
        # today's public form of a multi-response problem: the stacked
        # design I_{d2} (x) A_base, the response stacked column-major
        stacked = np.kron(np.eye(self.d2), a_base)
        return (Problem(a_base, y_mat, "nuclear", radius),
                (stacked, y_mat.ravel(order="F"),
                 ihskit.NuclearBall(radius, self.d1, self.d2), self.d2))


def _write_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(rows).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _read_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(v) for v in fh.read().split()])


@dataclass
class CliInstance:
    ref: Reference
    sketch_seed: int
    files: dict
    rounds: Optional[int] = None


class CliCsv(Workload):
    """``ihskit solve`` on headerless CSV files, called in-process."""

    name = "cli_csv"
    stream = 4
    instances = 2
    n, d = 12000, 80
    m = 6 * 80
    sigma = 1.0
    cap = 48

    def __init__(self, seed: int, workdir: str):
        self.items = []
        for k in range(self.instances):
            rng = _rng(seed, self.stream, k)
            sketch_seed = int(rng.integers(2 ** 31))
            a = rng.standard_normal((self.n, self.d))
            truth = rng.standard_normal(self.d)
            truth /= np.linalg.norm(truth)
            y = a @ truth + self.sigma * rng.standard_normal(self.n)
            files = {name: os.path.join(workdir, f"{k}-{name}") for name in
                     ("A.csv", "y.csv", "ref.csv", "warm", "ihs", "exact")}
            _write_csv(files["A.csv"], a)
            _write_csv(files["y.csv"], y[:, None])
            ref = certified_reference(Problem(a, y))
            _write_csv(files["ref.csv"], ref.x[:, None])
            self.items.append(CliInstance(ref, sketch_seed, files))

    def _solve(self, item: CliInstance, method: str, out: str, *extra: str) -> dict:
        argv = ["solve", "--method", method, "--matrix", item.files["A.csv"],
                "--rhs", item.files["y.csv"], "--out", item.files[out], *extra]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = ihskit.cli.main(argv)
        return {"code": code, "out": item.files[out], "log": sink.getvalue()}

    def _ihs_args(self, item: CliInstance, rounds: int):
        return ("--sketch", "rowsample_uniform", "--m", str(self.m),
                "--rounds", str(rounds), "--seed", str(item.sketch_seed))

    def setup(self, i: int, rounds: int):
        item = self.items[i]
        return self._solve(item, "ihs", "warm", *self._ihs_args(item, rounds),
                           "--reference", item.files["ref.csv"])

    def finish_setup(self, i: int, result) -> bool:
        item = self.items[i]
        bad = self._check_run(result)
        if bad:
            raise SetupError(f"cli_csv warm-up failed: {bad}")
        with open(result["out"] + "_report.json") as fh:
            errors = json.load(fh)["errors_to_reference"]
        return self._set_rounds(item, next(
            (t for t, e in enumerate(errors) if t >= 1 and e <= item.ref.target), None))

    def ihs_op(self):
        return [self._solve(it, "ihs", "ihs", *self._ihs_args(it, self._rounds(it)))
                for it in self.items]

    def exact_op(self):
        return [self._solve(it, "exact", "exact") for it in self.items]

    def peak_op(self):
        item = self.items[0]
        return [self._solve(item, "ihs", "ihs", *self._ihs_args(item, self._rounds(item)))]

    @staticmethod
    def _check_run(result) -> Optional[str]:
        if result["code"] != 0:
            return f"exit code {result['code']}: {result['log'].strip()[-200:]}"
        with open(result["out"] + "_report.json") as fh:
            if json.load(fh).get("converged") is not True:
                return 'the report does not say "converged": true'
        return None

    @classmethod
    def check_one(cls, item: CliInstance, result) -> Optional[str]:
        return cls._check_run(result) or check_solution(
            item.ref, _read_vector(result["out"] + "_solution.csv"))


WORKLOADS = {w.name: w for w in (LsGaussian, LassoRos, LowrankNuclear, CliCsv)}
