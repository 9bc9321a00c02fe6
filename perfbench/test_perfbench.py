"""Fast tests of the benchmark itself: its checks, its tracer and its
metric names. Run with ``python -m pytest perfbench``."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import types
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import TARGET_REL, Problem, certified_reference, check_solution  # noqa: E402


def _problems():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((300, 12))
    x = np.zeros(12)
    x[:3] = [1.0, -0.5, 0.25]
    y = a @ x + rng.standard_normal(300)
    base = rng.standard_normal((60, 6))
    xm = rng.standard_normal((6, 1)) @ rng.standard_normal((1, 5))
    ym = base @ xm + 0.25 * rng.standard_normal((60, 5))
    return {
        "ls": Problem(a, y),
        "l1": Problem(a, y, "l1", 1.75),
        "nuclear": Problem(base, ym, "nuclear",
                           float(np.linalg.svd(xm, compute_uv=False).sum())),
    }


@pytest.mark.parametrize("kind", ["ls", "l1", "nuclear"])
def test_check_accepts_reference_rejects_ten_times_target(kind):
    prob = _problems()[kind]
    ref = certified_reference(prob)
    assert ref.certified_semi <= ref.target / reference.CERT_MARGIN
    assert check_solution(ref, ref.x) is None
    assert check_solution(ref, ref.x.ravel(order="F")) is None
    v = np.random.default_rng(1).standard_normal(ref.x.shape)
    v *= 10 * ref.target / prob.seminorm(v)
    reason = check_solution(ref, ref.x + v)
    assert reason is not None and ("seminorm" in reason or "infeasible" in reason)
    # shrinking toward 0 stays feasible and moves the seminorm by 10x the target
    shrunk = ref.x * (1 - 10 * TARGET_REL)
    assert prob.norm(shrunk) <= prob.norm(ref.x)
    assert "seminorm" in check_solution(ref, shrunk)


@pytest.mark.parametrize("kind", ["l1", "nuclear"])
def test_feasibility_check_rejects_norm_ten_times_target_over(kind):
    prob = _problems()[kind]
    ref = certified_reference(prob)
    assert abs(prob.norm(ref.x) - prob.radius) <= 1e-9 * prob.radius
    loose = reference.Reference(prob, ref.x, ref.certified_semi, math.inf, ref.iterations)
    outside = ref.x * (1 + 10 * TARGET_REL)
    assert "infeasible" in check_solution(loose, outside)


def test_reference_projections_are_exact():
    v = np.array([3.0, -1.0, 0.5, 0.0])
    p = reference.project_l1(v, 2.0)
    assert np.abs(p).sum() == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(p, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    m = np.diag([3.0, 1.0])
    np.testing.assert_allclose(reference.project_nuclear(m, 2.0), np.diag([2.0, 0.0]),
                               atol=1e-14)


def test_workload_check_rejects_unconverged_report_and_cli_failures(tmp_path):
    item = types.SimpleNamespace(ref=certified_reference(_problems()["l1"]))
    check = workloads.ApiWorkload.check_one
    report = workloads.ihskit.IhsReport([item.ref.x], None, None, [0.0], None, [True])
    assert check(item, report) is None
    report.round_converged = [False]
    assert "converge" in check(item, report)
    item = types.SimpleNamespace(ref=certified_reference(_problems()["ls"]))
    check = workloads.CliCsv.check_one
    out = str(tmp_path / "run")
    with open(out + "_report.json", "w") as fh:
        json.dump({"converged": True}, fh)
    with open(out + "_solution.csv", "w") as fh:
        fh.write("\n".join(repr(v) for v in item.ref.x.tolist()) + "\n")
    assert check(item, {"code": 0, "out": out, "log": ""}) is None
    assert "exit code 2" in check(item, {"code": 2, "out": out, "log": ""})
    with open(out + "_solution.csv", "w") as fh:
        fh.write("\n".join(repr(v) for v in (item.ref.x * (1 + 10 * TARGET_REL)).tolist()) + "\n")
    assert "seminorm" in check(item, {"code": 0, "out": out, "log": ""})
    with open(out + "_report.json", "w") as fh:
        json.dump({"converged": False}, fh)
    assert "converged" in check(item, {"code": 0, "out": out, "log": ""})


def _fake_module():
    mod = types.ModuleType("fakepkg")

    def leaf(t):
        time.sleep(t)
        return types.SimpleNamespace(iterations=3)

    def middle():
        time.sleep(0.002)
        mod.leaf(0.003)
        return mod.leaf(0.001)

    def root():
        time.sleep(0.001)
        mod.middle()
        return mod.middle()

    mod.leaf, mod.middle, mod.root = leaf, middle, root
    return mod


def test_tracer_self_times_sum_to_root_duration(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "fakepkg", mod)
    targets = (("a.root", "fakepkg", "root"), ("a.middle", "fakepkg", "middle"),
               ("subsolver.solve_constrained", "fakepkg", "leaf"),
               ("a.gone", "fakepkg", "no_such_function"))
    tr = tracer.Tracer(targets=targets, prefix="fakepkg")
    tr.install()
    tic = time.perf_counter()
    mod.root()
    outer = time.perf_counter() - tic
    tr.uninstall()
    assert tr.absent == ["fakepkg.no_such_function"]
    total = sum(st.self_s for st in tr.stats.values())
    assert total == pytest.approx(tr.root_s, rel=1e-12, abs=1e-12)
    assert tr.root_s <= outer
    assert [tr.stats[k].calls for k in ("a.root", "a.middle", "subsolver.solve_constrained")] \
        == [1, 2, 4]
    assert tr.stats["a.gone"].calls == 0
    assert tr.inner_iters == 12
    assert tr.stats["subsolver.solve_constrained"].self_s >= 0.008
    assert mod.root.__name__ == "root" and not hasattr(mod.root, "__wrapped__")
    metrics = tracer.take(tr)
    assert metrics["a.root.self_s"] > 0 and metrics["subsolver.inner_iters"] == 12
    assert tr.stats["a.root"].calls == 0


def test_tracer_wraps_every_program_target():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == []
        assert workloads.ihskit.ihs.build_sketch is workloads.ihskit.sketch.build_sketch
        assert hasattr(workloads.ihskit.ihs.build_sketch, "__wrapped__")
        assert hasattr(workloads.ihskit.ihs_solve, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(workloads.ihskit.ihs_solve, "__wrapped__")


class _Tiny(workloads.LsGaussian):
    """ls_gaussian at toy size, so a whole run takes a second."""
    name = "tiny"
    instances = 2
    n, d, m = 400, 6, 36
    cap = 40
    exact_reps = 2


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(monkeypatch, trace, key):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _Tiny)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.001",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


class _ShortCap(_Tiny):
    """A first warm-up that stops well short of the target."""
    cap = 4


class _Broken(_Tiny):
    """A set-up that raises, as a program fault would."""

    def setup(self, i, rounds):
        raise RuntimeError("broken set-up")


def _result(monkeypatch, workload):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workload)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.001",
                         "--trace", "0"])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_short_warm_up_is_retried_and_reports_the_rounds(monkeypatch):
    result = _result(monkeypatch, _ShortCap)
    assert result["correct"] is True and result["failed"] == 0
    assert _ShortCap.cap < result["metrics"]["rounds_to_target"]["value"] <= 8 * _ShortCap.cap


def test_failed_set_up_is_counted_and_the_run_still_reports(monkeypatch):
    result = _result(monkeypatch, _Broken)
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["rounds_to_target"]["value"] == 8 * _Broken.cap
    assert all(m["value"] >= 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ls_gaussian", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
