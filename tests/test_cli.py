import json

import numpy as np
import pytest

from ihskit.cli import main

A_CSV = "1,0\n0,1\n1,1\n"
Y_CSV = "1\n2\n3\n"


@pytest.fixture
def problem_files(tmp_path):
    a = tmp_path / "A.csv"
    y = tmp_path / "y.csv"
    a.write_text(A_CSV)
    y.write_text(Y_CSV)
    return a, y


def run(args):
    return main([str(a) for a in args])


class TestSolve:
    def test_exact_matches_hand_solution(self, problem_files, capsys):
        a, y = problem_files
        code = run(["solve", "--method", "exact", "--matrix", a, "--rhs", y])
        assert code == 0
        out = [float(v) for v in capsys.readouterr().out.split()]
        # normal equations: [[2,1],[1,2]] x = (4,5)  ->  x = (1, 2)
        assert out == pytest.approx([1.0, 2.0])

    def test_m_zero_is_usage_error(self, capsys):
        code = run(["solve", "--method", "ihs", "--sketch", "gaussian", "--m", "0",
                    "--generate", "unconstrained", "--n", "50", "--d", "3", "--seed", "1"])
        assert code == 1
        assert "m must be >= 1" in capsys.readouterr().err

    def test_seed_required_for_random(self, capsys):
        code = run(["solve", "--method", "classical", "--m", "4",
                    "--generate", "unconstrained", "--n", "30", "--d", "3"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["solve", "--method", "ihs", "--m", "30", "--rounds", "4", "--seed", "9",
                "--generate", "unconstrained", "--n", "100", "--d", "5"]
        outs = []
        for sub in ("r1", "r2"):
            prefix = tmp_path / sub / "run"
            code = run(args + ["--out", prefix])
            assert code == 0
            outs.append({
                name: (prefix.parent / (prefix.name + name)).read_bytes()
                for name in ("_solution.csv", "_report.json", "_trace.csv")
            })
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_reference_prints_seminorm_error(self, problem_files, tmp_path, capsys):
        a, y = problem_files
        ref = tmp_path / "ref.csv"
        ref.write_text("1\n2\n")
        code = run(["solve", "--method", "exact", "--matrix", a, "--rhs", y,
                    "--reference", ref])
        assert code == 0
        out = capsys.readouterr().out
        assert "error to reference" in out
        assert float(out.strip().rsplit(" ", 1)[-1]) <= 1e-9

    @pytest.mark.parametrize("method", ["exact", "ihs"])
    def test_wrong_length_reference_is_usage_error(self, tmp_path, capsys, method):
        ref = tmp_path / "ref.csv"
        ref.write_text("1\n2\n3\n4\n5\n")
        code = run(["solve", "--method", method, "--generate", "unconstrained", "--n", "30",
                    "--d", "4", "--m", "12", "--seed", "3", "--reference", ref])
        assert code == 1
        err = capsys.readouterr().err
        assert "5 entries" in err and "d = 4" in err

    @pytest.mark.parametrize("method", ["classical", "ihs"])
    def test_rho_checked_when_m_given(self, capsys, method):
        code = run(["solve", "--method", method, "--m", "30", "--rho", "0.7",
                    "--generate", "unconstrained", "--n", "100", "--d", "5", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--rho" in err and "0<x<=0.5" in err

    def test_constrained_solve_respects_constraint(self, problem_files, capsys):
        a, y = problem_files
        code = run(["solve", "--method", "exact", "--matrix", a, "--rhs", y,
                    "--constraint", '{"type": "box", "lo": -1, "hi": 1}'])
        assert code == 0
        out = [float(v) for v in capsys.readouterr().out.split()]
        assert max(np.abs(out)) <= 1.0 + 1e-9

    def test_reference_read_once(self, problem_files, tmp_path, monkeypatch, capsys):
        import ihskit.cli as cli_mod

        a, y = problem_files
        ref = tmp_path / "ref.csv"
        ref.write_text("1\n2\n")
        reads = []
        real = cli_mod._load_vector

        def counting(path):
            reads.append(str(path))
            return real(path)

        monkeypatch.setattr(cli_mod, "_load_vector", counting)
        code = run(["solve", "--method", "ihs", "--matrix", a, "--rhs", y, "--m", "3",
                    "--rounds", "2", "--seed", "4", "--reference", ref])
        assert code == 0
        assert reads.count(str(ref)) == 1
        assert "error to reference" in capsys.readouterr().out

    def test_report_lists_inner_iterations(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code = run(["solve", "--method", "ihs", "--m", "40", "--rounds", "3", "--seed", "3",
                    "--generate", "sparse", "--n", "200", "--d", "10", "--s", "3",
                    "--out", prefix])
        assert code == 0
        rep = json.loads((tmp_path / "run_report.json").read_text())
        assert len(rep["inner_iterations"]) == 3
        assert all(isinstance(k, int) and k >= 1 for k in rep["inner_iterations"])
        capsys.readouterr()

    def test_nonconvergence_exit_code(self, capsys):
        code = run(["solve", "--method", "ihs", "--m", "40", "--rounds", "2", "--seed", "3",
                    "--generate", "sparse", "--n", "200", "--d", "10", "--s", "3",
                    "--inner-max-iter", "1", "--inner-tol", "1e-15"])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err

    def test_exact_nonconvergence_exit_code(self, tmp_path, capsys):
        prefix = str(tmp_path / "p")
        code = run(["solve", "--method", "exact", "--generate", "sparse", "--n", "2000",
                    "--d", "64", "--s", "8", "--seed", "1", "--inner-max-iter", "3",
                    "--out", prefix])
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        with open(prefix + "_report.json") as fh:
            assert json.load(fh)["converged"] is False

    def test_malformed_matrix_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        y = tmp_path / "y.csv"
        y.write_text("1\n2\n")
        code = run(["solve", "--method", "exact", "--matrix", bad, "--rhs", y])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_ragged_matrix_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        y = tmp_path / "y.csv"
        y.write_text("1\n2\n")
        code = run(["solve", "--method", "exact", "--matrix", bad, "--rhs", y])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_two_sources_rejected(self, problem_files, capsys):
        a, y = problem_files
        code = run(["solve", "--method", "exact", "--matrix", a, "--rhs", y,
                    "--generate", "unconstrained", "--n", "10", "--d", "2", "--seed", "1"])
        assert code == 1
        capsys.readouterr()

    def test_unknown_flag_is_error(self, capsys):
        code = run(["solve", "--method", "exact", "--frobnicate"])
        assert code == 1
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text('method = "exact"\ngenerate = "unconstrained"\n'
                       "n = 40\nd = 3\nseed = 5\nsigma = 0.5\n")
        code = run(["solve", "--config", cfg])
        assert code == 0
        first = capsys.readouterr().out
        # --d on the command line beats the config value
        code = run(["solve", "--config", cfg, "--d", "2"])
        assert code == 0
        second = capsys.readouterr().out
        assert len(first.split()) == 3
        assert len(second.split()) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text("zzz = 1\n")
        code = run(["solve", "--method", "exact", "--config", cfg,
                    "--generate", "unconstrained", "--n", "30", "--d", "3", "--seed", "2"])
        assert code == 1
        assert "zzz" in capsys.readouterr().err


class TestExperiment:
    def test_fig2_row_count(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = run(["experiment", "--id", "fig2", "--out", out, "--seed", "3",
                    "--trials", "3", "--d", "20", "--n", "400", "--threads", "2"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 7 * 3
        capsys.readouterr()

    def test_fig3_summary_line(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code = run(["experiment", "--id", "fig3", "--out", out, "--seed", "4",
                    "--trials", "2", "--d", "16"])
        assert code == 0
        text = capsys.readouterr().out
        for method in ("exact", "ihs", "classical"):
            assert f"{method}: mean err_truth" in text

    @pytest.mark.parametrize("exp_id, extra, rows", [
        ("fig2", ["--n", "400", "--gamma", "4", "--gamma", "6"], 3 * 7 * 2),
        ("fig3", ["--gamma", "4"], 3 * 3),
    ])
    def test_gamma_override(self, tmp_path, capsys, exp_id, extra, rows):
        # --gamma parses as a float; the sketch size must still be an integer
        out = tmp_path / f"{exp_id}.csv"
        code = run(["experiment", "--id", exp_id, "--out", out, "--seed", "3",
                    "--trials", "3", "--d", "16", "--threads", "1"] + extra)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + rows
        assert not any("failed" in line for line in lines)
        if exp_id == "fig2":
            assert {line.split(",")[-1].split(";")[0] for line in lines[1:]} == {
                "gamma=4", "gamma=6"}
        capsys.readouterr()

    def test_unknown_id_lists_valid(self, tmp_path, capsys):
        code = run(["experiment", "--id", "fig9", "--out", tmp_path / "x.csv", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "fig1" in err and "fig6a" in err

    def test_inapplicable_override_rejected(self, tmp_path, capsys):
        for exp_id, extra in [("fig1", ["--gamma", "4"]), ("fig1", ["--rounds", "3"]),
                              ("fig6a", ["--d", "4"]), ("fig2", ["--m", "30"]),
                              ("fig3", ["--gamma", "4", "--gamma", "5"])]:
            code = run(["experiment", "--id", exp_id, "--out", tmp_path / "x.csv",
                        "--seed", "1"] + extra)
            assert code == 1, (exp_id, extra)
            assert "--" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestDiagnose:
    def test_prints_certificate_table(self, tmp_path, capsys):
        out = tmp_path / "diag.json"
        code = run(["diagnose", "--generate", "unconstrained", "--n", "200", "--d", "5",
                    "--m", "40", "--rounds", "3", "--seed", "6", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "Z1" in text and "Z2" in text
        data = json.loads(out.read_text())
        assert len(data["rounds"]) == 3
        for rec in data["rounds"]:
            assert 0 < rec["Z1"] <= 2.5
            assert rec["ratio"] == pytest.approx(rec["Z2"] / rec["Z1"])

    def test_constrained_problem_rejected(self, capsys):
        code = run(["diagnose", "--generate", "sparse", "--n", "100", "--d", "6",
                    "--s", "2", "--m", "20", "--seed", "1"])
        assert code == 1
        assert "unconstrained" in capsys.readouterr().err


class TestVerifyCondition:
    def test_ros_small(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        code = run(["verify-condition", "--kind", "ros", "--n", "16", "--m", "4",
                    "--trials", "200", "--seed", "5", "--out", out])
        assert code == 0
        assert "eta_hat" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert 0.8 <= data["eta_hat"] <= 1.2

    def test_m_exceeding_n_rejected(self, capsys):
        code = run(["verify-condition", "--kind", "gaussian", "--n", "8", "--m", "16",
                    "--trials", "10", "--seed", "1"])
        assert code == 1
        capsys.readouterr()


class TestProject:
    def test_box_projection(self, tmp_path, capsys):
        v = tmp_path / "v.csv"
        v.write_text("2\n-3\n0.5\n")
        code = run(["project", "--constraint", '{"type": "box", "lo": -1, "hi": 1}',
                    "--vector", v])
        assert code == 0
        out = [float(t) for t in capsys.readouterr().out.split()]
        assert out == pytest.approx([1.0, -1.0, 0.5])

    def test_simplex_projection_to_file(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("0.4\n0.4\n")
        out = tmp_path / "p.csv"
        code = run(["project", "--constraint", '{"type": "simplex"}',
                    "--vector", v, "--out", out])
        assert code == 0
        got = [float(t) for t in out.read_text().split()]
        assert got == pytest.approx([0.5, 0.5])


def test_help_lists_commands(capsys):
    code = run(["--help"])
    assert code == 0
    out = capsys.readouterr().out
    for cmd in ("solve", "experiment", "diagnose", "verify-condition", "project"):
        assert cmd in out


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run(["experiment", "--id", "fig2", "--seed", "1", "--trials", "1",
                "--d", "5", "--n", "60", "--out", blocker / "sub" / "out.csv"])
    assert code == 3
    capsys.readouterr()


def test_solve_derives_sketch_dimension(capsys):
    code = run(["solve", "--method", "ihs", "--rounds", "3", "--seed", "11",
                "--generate", "unconstrained", "--n", "400", "--d", "10"])
    assert code == 0
    err = capsys.readouterr().err
    assert "m = 60" in err  # 6d at the default contraction target
