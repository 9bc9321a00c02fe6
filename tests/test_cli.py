import json
import re
import warnings

import click
import numpy as np
import pytest

import ihskit.cli as cli_mod
from ihskit.cli import main
from ihskit.experiments import gen_unconstrained
from ihskit.ihs import IhsConfig, ihs_solve, solve_exact
from ihskit.sketch import SketchSpec

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

    def test_no_acceleration_flag_is_gone(self, capsys):
        code = run(["solve", "--method", "ihs", "--generate", "sparse", "--n", "400",
                    "--d", "20", "--s", "3", "--rounds", "2", "--seed", "3",
                    "--no-acceleration"])
        assert code == 1
        assert "--no-acceleration" in capsys.readouterr().err
        assert run(["solve", "--help"]) == 0
        assert "acceleration" not in capsys.readouterr().out

    def test_l1_solution_writes_zeros_unsigned(self, monkeypatch, capsys):
        # the l1 projection leaves -0.0 in the entries it zeroes
        seen, real = [], cli_mod._fmt_vec
        monkeypatch.setattr(cli_mod, "_fmt_vec", lambda v: seen.append(v.copy()) or real(v))
        code = run(["solve", "--method", "exact", "--generate", "sparse", "--n", "400",
                    "--d", "20", "--s", "3", "--seed", "3"])
        assert code == 0
        lines = capsys.readouterr().out.split()
        (x,) = seen
        assert np.signbit(x[x == 0.0]).any() and len(lines) == x.size
        for line, v in zip(lines, x):
            if v == 0.0:
                assert line == "0"
            else:
                assert np.float64(line).tobytes() == v.tobytes()

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
                for name in ("_solution.csv", "_report.json")
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

    def test_recommended_m_contracts_below_rho(self, tmp_path, capsys):
        # with --m omitted the problem gets m = 6d from the recommender at
        # rho = 1/2; the tuned step contracts at about 0.41 per round there
        gen = ["--generate", "unconstrained", "--n", "1200", "--d", "20", "--seed", "9"]
        assert run(["solve", "--method", "exact", *gen]) == 0
        ref = tmp_path / "x_ls.csv"
        ref.write_text(capsys.readouterr().out)
        prefix = str(tmp_path / "run")
        code = run(["solve", "--method", "ihs", "--rounds", "6", "--reference", ref,
                    "--out", prefix, *gen])
        assert code == 0
        assert "m = 120" in capsys.readouterr().err
        errs = json.loads((tmp_path / "run_report.json").read_text())["errors_to_reference"]
        assert (errs[-1] / errs[0]) ** (1 / 6) < 0.5

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

    def test_certificates_recorded(self, tmp_path, capsys):
        gen = ["--generate", "unconstrained", "--n", "400", "--d", "10", "--seed", "3"]
        assert run(["solve", "--method", "exact", *gen]) == 0
        ref = tmp_path / "x_ls.csv"
        ref.write_text(capsys.readouterr().out)
        code = run(["solve", "--method", "ihs", "--m", "80", "--rounds", "3", "--certificates",
                    "--reference", ref, "--out", tmp_path / "run", *gen])
        assert code == 0
        rep = json.loads((tmp_path / "run_report.json").read_text())
        assert len(rep["certificates"]) == 3
        assert all(0 < z1 and 0 <= z2 for z1, z2 in rep["certificates"])
        capsys.readouterr()

    @pytest.mark.parametrize("args, message", [
        (["--method", "ihs", "--generate", "unconstrained", "--n", "400", "--d", "10",
          "--out", "OUT"], "--reference"),
        (["--method", "ihs", "--generate", "unconstrained", "--n", "400", "--d", "10",
          "--reference", "REF"], "--out"),
        (["--method", "ihs", "--generate", "sparse", "--n", "400", "--d", "10", "--s", "3",
          "--reference", "REF", "--out", "OUT"], "unconstrained"),
        (["--method", "hessian", "--generate", "unconstrained", "--n", "400", "--d", "10",
          "--reference", "REF", "--out", "OUT"], "--method ihs"),
    ])
    def test_certificates_that_would_record_nothing_are_usage_errors(
            self, tmp_path, capsys, args, message):
        ref = tmp_path / "ref.csv"
        ref.write_text("0\n" * 10)
        paths = {"REF": ref, "OUT": tmp_path / "run"}
        code = run(["solve", *[paths.get(a, a) for a in args], "--m", "80", "--rounds", "3",
                    "--seed", "3", "--certificates"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

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

    def test_capped_solve_warns_and_reports_nonconvergence(self, tmp_path, capsys):
        code = run(["solve", "--method", "ihs", "--m", "40", "--rounds", "2", "--seed", "3",
                    "--generate", "sparse", "--n", "200", "--d", "10", "--s", "3",
                    "--inner-max-iter", "1", "--out", tmp_path / "capped"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "warning: inner solver did not converge in at least one round\n"
        assert captured.out == ""
        assert json.loads((tmp_path / "capped_report.json").read_text())["converged"] is False

    @pytest.mark.parametrize("method", ["exact", "ihs"])
    def test_out_writes_solution_and_report_only(self, tmp_path, capsys, method):
        code = run(["solve", "--method", method, "--m", "30", "--rounds", "3", "--seed", "9",
                    "--generate", "unconstrained", "--n", "100", "--d", "5",
                    "--out", tmp_path / "run"])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run_report.json",
                                                               "run_solution.csv"]
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["--method", "ihs", "--generate", "lowrank", "--n", "0", "--d1", "3", "--d2", "3",
         "--r", "1", "--seed", "1"],
        ["--method", "exact", "--generate", "sparse", "--n", "0", "--d", "5", "--s", "2",
         "--seed", "1"],
    ], ids=["lowrank_ihs", "sparse_exact"])
    def test_zero_rows_is_usage_error(self, capsys, args):
        # these ended in a traceback from the sketch and in a numpy
        # RuntimeWarning and exit 2 from the exact solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["solve", *args])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: A has no rows (shape (0, ")
        assert captured.out == ""

    @pytest.mark.parametrize("c0, message", [
        ("-1", "Invalid value for '--c0': -1.0 is not in the range x>0."),
        ("0", "Invalid value for '--c0': 0.0 is not in the range x>0."),
        ("nan", "width constant c0 must be finite and positive, got nan"),
        ("inf", "width constant c0 must be finite and positive, got inf"),
    ])
    def test_c0_checked(self, capsys, c0, message):
        # --c0 -1 was reported as "sketch dimension m must be >= 1, got -8"
        code = run(["solve", "--method", "ihs", "--generate", "sparse", "--n", "200",
                    "--d", "10", "--s", "3", "--seed", "1", "--c0", c0])
        assert code == 1
        captured = capsys.readouterr()
        assert message in captured.err and "sketch dimension m" not in captured.err
        assert captured.out == ""

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

    def test_timings_add_per_round_seconds_only_on_request(self, tmp_path, capsys):
        args = ["solve", "--method", "ihs", "--m", "30", "--rounds", "4", "--seed", "9",
                "--generate", "unconstrained", "--n", "100", "--d", "5"]
        reports = {}
        for sub, extra in (("t", ["--timings"]), ("r1", []), ("r2", [])):
            prefix = tmp_path / sub / "P"
            assert run(args + ["--out", prefix] + extra) == 0
            reports[sub] = (tmp_path / sub / "P_report.json").read_bytes()
        timed = json.loads(reports["t"])
        assert timed["rounds"] == 4 and len(timed["per_round_seconds"]) == 4
        assert all(s >= 0 for s in timed["per_round_seconds"])
        assert "per_round_seconds" not in json.loads(reports["r1"])
        assert reports["r1"] == reports["r2"]
        capsys.readouterr()

    def test_lowrank_sketch_dimension_derived(self, capsys):
        code = run(["solve", "--method", "ihs", "--generate", "lowrank", "--n", "120",
                    "--d1", "6", "--d2", "6", "--r", "2", "--rounds", "2", "--seed", "3"])
        assert code == 0
        assert "using recommended sketch dimension m = 144" in capsys.readouterr().err

    def test_constrained_file_problem_needs_m(self, problem_files, capsys):
        a, y = problem_files
        code = run(["solve", "--method", "ihs", "--matrix", a, "--rhs", y, "--seed", "1",
                    "--constraint", '{"type": "l1", "radius": 1}'])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--m is required" in captured.err

    def test_two_column_rhs_is_usage_error(self, problem_files, tmp_path, capsys):
        a, _ = problem_files
        y2 = tmp_path / "y2.csv"
        y2.write_text("1,2\n3,4\n5,6\n")
        code = run(["solve", "--method", "exact", "--matrix", a, "--rhs", y2])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "expected a single row or column, got shape (3, 2)" in captured.err


def _hard_tokens(rng):
    """Number spellings where a careless parser would round or refuse differently."""
    tokens = ["5e-324", "-4.9406564584124654e-324", "2.2250738585072014e-308",
              "2.2250738585072011e-308", "1e400", "-1e+400", "1e-400", "+0.0", "-0.0",
              "nan", "NaN", "-nan", "+NAN", "inf", "-Inf", "infinity", "+INFINITY",
              "1.7976931348623157e308", "1.7976931348623159e308", "0.1", "1.", ".5"]
    tokens += [repr(float(v)) for v in rng.uniform(0, 1, 40) * 2.0 ** -1060]
    for width in (25, 40):
        for _ in range(40):
            digits = "".join(str(t) for t in rng.integers(0, 10, width))
            point = int(rng.integers(0, width + 1))
            sign = "-" if rng.random() < 0.5 else ""
            tokens.append(f"{sign}{digits[:point]}.{digits[point:]}e{int(rng.integers(-30, 30))}")
    return tokens


def _float_oracle(text):
    """Today's contract: ``float()`` per field, blank lines skipped."""
    rows = [[float(t) for t in line.split(",")] for line in text.splitlines() if line.strip()]
    return np.asarray(rows, dtype=np.float64)


def _oracle_cases():
    rng = np.random.default_rng(20141103)
    cases = {}
    for name, shape in (("matrix", (40, 7)), ("single_row", (1, 9)), ("single_col", (13, 1))):
        rows = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)).tolist()
        cases[name] = "\n".join(",".join(map(repr, row)) for row in rows) + "\n"
    cases["crlf"] = cases["matrix"].replace("\n", "\r\n")
    cases["no_trailing_newline"] = cases["matrix"].rstrip("\n")
    cases["whitespace_lines"] = " \t\n\n" + cases["matrix"].replace("\n", "\n  \n", 3) + "\x0c\n"
    tokens = _hard_tokens(rng)
    tokens += ["0"] * (-len(tokens) % 6)
    cases["hard_tokens"] = "\n".join(
        ",".join(tokens[i:i + 6]) for i in range(0, len(tokens), 6)) + "\n"
    return cases


class TestLoader:
    @pytest.mark.parametrize("name", sorted(_oracle_cases()))
    def test_matches_float_oracle_bit_for_bit(self, tmp_path, monkeypatch, name):
        def no_line_loop(path):
            raise AssertionError(f"{path} fell back to the line loop")

        monkeypatch.setattr(cli_mod, "_read_lines", no_line_loop)
        text = _oracle_cases()[name]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        got = cli_mod._load_table(path)
        want = _float_oracle(text)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_well_formed_file_skips_line_loop(self, tmp_path, monkeypatch):
        calls = []
        real = cli_mod._read_lines

        def spy(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli_mod, "_read_lines", spy)
        good = tmp_path / "good.csv"
        good.write_text(_oracle_cases()["matrix"])
        cli_mod._load_table(good)
        assert calls == []
        odd = tmp_path / "odd.csv"
        odd.write_text("1,2\n3,4_0\n")
        cli_mod._load_table(odd)
        assert calls == [odd]

    @pytest.mark.parametrize("text, rows", [
        ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1_0,2\n3,4_5\n", [[10.0, 2.0], [3.0, 45.0]]),
        ("\t\n1,2\n", [[1.0, 2.0]]),
        ("1,2\x1c\n", [[1.0, 2.0]]),
    ], ids=["whitespace_line", "underscores", "leading_tab_line", "trailing_separator"])
    def test_inputs_a_bare_c_reader_refuses(self, tmp_path, text, rows):
        path = tmp_path / "t.csv"
        path.write_text(text)
        got = cli_mod._load_table(path)
        assert got.tolist() == rows
        assert got.shape == (len(rows), len(rows[0]))

    @pytest.mark.parametrize("text, message", [
        ("# header\n1,2\n", "line 1: not a number"),
        ("1,2 # note\n", "line 1: not a number"),
        ("1,2\n3\x1c,4\n", "line 2: not a number"),
        ("1,2\n\n5\n", "line 3: expected 2 fields, got 1"),
        ("1,2,\n", "line 1: not a number"),
    ], ids=["comment_line", "trailing_comment", "separator_in_field", "ragged", "empty_field"])
    def test_bad_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(click.UsageError, match=message):
            cli_mod._load_table(path)

    @pytest.mark.parametrize("text", ["", "\n\n\n", "\r\n \n\t\n"])
    def test_no_data_without_numpy_warning(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(click.UsageError, match="file contains no data"):
                cli_mod._load_table(path)

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"1,2\n\xff\xfe,3\n")
        y = tmp_path / "y.csv"
        y.write_text("1\n2\n")
        code = run(["solve", "--method", "exact", "--matrix", bad, "--rhs", y])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        y = tmp_path / "y.csv"
        y.write_text("1\n2\n")
        code = run(["solve", "--method", "exact", "--matrix", tmp_path / "nope.csv",
                    "--rhs", y])
        assert code == 3
        assert "No such file or directory" in capsys.readouterr().err


GEN = ["--generate", "unconstrained", "--n", "30", "--d", "3", "--seed", "1"]


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["solve", "--method", "exact", *GEN, "--constraint", '{"type": "l1"}'],
        ["solve", "--method", "exact", *GEN, "--constraint", '{"type": "ball"}'],
        ["solve", "--method", "exact", "--generate", "sparse", "--n", "30", "--d", "4",
         "--s", "2", "--seed", "1",
         "--constraint", '{"type": "nuclear", "radius": 1, "d1": 3, "d2": 3}'],
        ["solve", "--method", "exact", *GEN,
         "--constraint", '{"type": "box", "lo": [0, 0], "hi": [1, 1, 1]}'],
        ["diagnose", *GEN, "--m", "10", "--rounds", "0"],
        ["experiment", "--id", "fig1", "--d", "500", "--out", "{tmp}/x.csv", "--seed", "1"],
        ["verify-condition", "--n", "8", "--m", "4", "--seed", "1", "--trials", "0"],
        ["project", "--constraint", '{"type": "l1"}', "--vector", "{tmp}/v.csv"],
        ["project", "--constraint", '{"type": "l1", "radius": null}',
         "--vector", "{tmp}/v.csv"],
    ], ids=["l1_no_radius", "unknown_type", "nuclear_dim", "box_lengths", "rounds_zero",
            "grid_d_over_n", "trials_zero", "project_no_radius", "project_null_radius"])
    def test_bad_input_is_usage_error(self, tmp_path, capsys, args):
        (tmp_path / "v.csv").write_text("1\n2\n3\n")
        code = run([a.replace("{tmp}", str(tmp_path)) for a in args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_project_svd_failure_is_numerical(self, tmp_path, monkeypatch, capsys):
        import ihskit.constraints
        from ihskit.errors import SvdConvergenceError

        def failing_svd(x, check_finite=True):
            raise SvdConvergenceError("SVD did not converge")

        monkeypatch.setattr(ihskit.constraints, "thin_svd", failing_svd)
        v = tmp_path / "v.csv"
        v.write_text("1\n2\n3\n4\n")
        code = run(["project", "--vector", v,
                    "--constraint", '{"type": "nuclear", "radius": 1, "d1": 2, "d2": 2}'])
        assert code == 2
        assert "numerical error: SVD did not converge" in capsys.readouterr().err

    def test_linalg_error_inside_boundary_is_numerical(self, tmp_path, monkeypatch, capsys):
        def failing_project(cset, x):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(cli_mod, "project_onto", failing_project)
        v = tmp_path / "v.csv"
        v.write_text("1\n2\n")
        code = run(["project", "--vector", v, "--constraint", '{"type": "simplex"}'])
        assert code == 2
        assert "numerical error: eigenvalues did not converge" in capsys.readouterr().err

    def test_diverging_solve_stays_numerical(self, monkeypatch, capsys):
        from ihskit.errors import NonFiniteError

        def diverging(problem, cfg, reference=None):
            raise NonFiniteError("iterate is not finite")

        monkeypatch.setattr(cli_mod, "ihs_solve", diverging)
        code = run(["solve", "--method", "ihs", "--m", "12", *GEN])
        assert code == 2
        assert "numerical error: iterate is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["hessian", "classical", "ihs"])
    def test_unconstrained_sketch_smaller_than_d_is_numerical(self, capsys, method):
        code = run(["solve", "--method", method, "--generate", "unconstrained", "--n", "50",
                    "--d", "3", "--m", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "numerical error: sketch size m = 2 is below d = 3" in captured.err

    @pytest.mark.parametrize("args", [
        ["experiment", "--id", "fig1", "--d", "4", "--trials", "1", "--seed", "1",
         "--sigma", "nan", "--out", "{tmp}/x.csv"],
        ["solve", "--method", "exact", "--generate", "unconstrained", "--n", "50", "--d", "3",
         "--seed", "1", "--sigma", "inf"],
    ], ids=["experiment_nan", "solve_inf"])
    def test_non_finite_sigma_is_usage_error(self, tmp_path, capsys, args):
        code = run([a.replace("{tmp}", str(tmp_path)) for a in args])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: sigma must be finite and >= 0" in captured.err
        assert not (tmp_path / "x.csv").exists()

    def test_out_under_regular_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = run(["solve", "--method", "exact", *GEN, "--out", blocker / "sub" / "run"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: [Errno ") and str(blocker) in err


@pytest.mark.parametrize("args", [
    ["solve", "--method", "exact", "--generate", "unconstrained", "--n", "30", "--d", "3"],
    ["experiment", "--id", "fig2", "--out", "fig2.csv"],
    ["diagnose", "--generate", "unconstrained", "--n", "60", "--d", "3", "--m", "12"],
    ["verify-condition", "--n", "16", "--m", "4"],
], ids=lambda args: args[0])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error(tmp_path, capsys, args, source):
    if source == "flag":
        args = args + ["--seed", "-1"]
    else:
        cfg = tmp_path / "run.toml"
        cfg.write_text("seed = -1\n")
        args = args + ["--config", cfg]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err and "-1 is not in the range x>=0" in captured.err
    assert captured.out == ""


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

    def test_hash_inside_quotes_is_read_whole(self, tmp_path, capsys):
        out = tmp_path / "runs" / "#1.json"
        cfg = tmp_path / "run.toml"
        cfg.write_text(f'out = "{out}"  # a comment\nn = 16\nm = 4\ntrials = 5\n'
                       'seed = 2\nkind = "ros"\n')
        code = run(["verify-condition", "--config", cfg])
        assert code == 0
        assert json.loads(out.read_text())["trials"] == 5
        capsys.readouterr()

    def test_dashed_keys_arrays_and_scalars(self, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text(f'exp-id = "fig2"\nout = "{tmp_path / "f.csv"}"\nseed = 3\n'
                       "trials = 1\nd = 5\nn = 60\nthreads = 1\ngamma = [4, 6]\n"
                       "full-scale = false\n")
        assert run(["experiment", "--config", cfg]) == 0
        flags = {line.split(",")[-1].split(";")[0]
                 for line in (tmp_path / "f.csv").read_text().splitlines()[1:]}
        assert flags == {"gamma=4", "gamma=6"}
        # a scalar for a repeatable option is a one-element tuple
        assert run(["experiment", "--config", cfg, "--gamma", "8"]) == 0
        capsys.readouterr()

    def test_flag_name_keys(self, tmp_path, capsys):
        # out, sketch, constraint and id name options whose parameters are
        # out_prefix, kind, constraint_json and exp_id
        cfg = tmp_path / "solve.toml"
        cfg.write_text(f'out = "{tmp_path / "runs" / "x"}"\nsketch = "ros"\n'
                       "constraint = '{\"type\": \"l1\", \"radius\": 0.5}'\n"
                       'method = "hessian"\ngenerate = "unconstrained"\n'
                       "n = 60\nd = 4\nm = 30\nseed = 2\n")
        assert run(["solve", "--config", cfg]) == 0
        report = json.loads((tmp_path / "runs" / "x_report.json").read_text())
        assert report["sketch"]["kind"] == "ros"
        x = np.loadtxt(tmp_path / "runs" / "x_solution.csv")
        assert np.abs(x).sum() <= 0.5 + 1e-9
        cfg = tmp_path / "exp.toml"
        cfg.write_text(f'id = "fig3"\nout = "{tmp_path / "f.csv"}"\nseed = 3\n'
                       "trials = 1\nd = 16\nthreads = 1\n")
        assert run(["experiment", "--config", cfg]) == 0
        assert (tmp_path / "f.csv").read_text().splitlines()[1].startswith("fig3,")
        capsys.readouterr()

    @pytest.mark.parametrize("text, message", [
        ("n = True\n", "run.toml: Invalid value (at line 1"),
        ("seed = 1\nseed = 2\n", "run.toml: Cannot overwrite a value"),
        ("n = [1, 2]\n", "config key 'n' must be a string, number or boolean, got [1, 2]"),
        ("matrix = {path = 'A.csv'}\n", "config key 'matrix' must be a string"),
        ("gamma = [[4]]\n", "'gamma' must be a string, number or boolean or an array"),
    ], ids=["capital_bool", "duplicate_key", "array_for_scalar", "table", "nested_array"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.toml"
        cfg.write_text(text)
        command = "experiment" if "gamma" in text else "solve"
        code = run([command, "--config", cfg])
        assert code == 1
        assert message in capsys.readouterr().err

    # an integer option takes a TOML integer only, as "--seed 2.0" is
    # refused on the command line; click would truncate 1.5 to seed 1
    @pytest.mark.parametrize("text, key, value", [
        ("seed = 1.5\nn = 200\n", "seed", "1.5"),
        ("seed = 1\nn = 200.7\n", "n", "200.7"),
        ("seed = 2.0\nn = 200\n", "seed", "2.0"),
        ("seed = true\nn = 200\n", "seed", "True"),
    ], ids=["fractional_seed", "fractional_n", "integral_float_seed", "bool_seed"])
    def test_non_integer_for_integer_option_is_usage_error(self, tmp_path, capsys, text, key, value):
        cfg = tmp_path / "c.toml"
        cfg.write_text(text)
        code = run(["solve", "--method", "exact", "--generate", "unconstrained", "--d", "3",
                    "--config", cfg])
        assert code == 1
        captured = capsys.readouterr()
        assert f"config key {key!r} must be an integer, got {value}" in captured.err
        assert captured.out == ""

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = run(["solve", "--config", tmp_path / "nope.toml"])
        assert code == 3
        assert "No such file or directory" in capsys.readouterr().err


# Each command that takes --config, the flags a run needs besides --out,
# and the suffix its --out value gets.
CONFIG_COMMANDS = {
    "solve": (["--method", "exact", "--generate", "unconstrained", "--n", "30", "--d", "3",
               "--seed", "1"], "_report.json"),
    "experiment": (["--id", "fig3", "--d", "4", "--trials", "1", "--seed", "1",
                    "--threads", "1"], ""),
    "diagnose": (["--generate", "unconstrained", "--n", "60", "--d", "3", "--m", "12",
                  "--rounds", "2", "--seed", "1"], ""),
    "verify-condition": (["--n", "16", "--m", "4", "--trials", "5", "--seed", "1"], ""),
}


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
class TestConfigOption:
    def _config(self, tmp_path, text):
        cfg = tmp_path / "run.toml"
        cfg.write_text(text)
        return cfg

    def test_key_seeds_option(self, tmp_path, capsys, command):
        args, suffix = CONFIG_COMMANDS[command]
        cfg = self._config(tmp_path, f'out = "{tmp_path / "from_config"}"\n')
        assert run([command, *args, "--config", cfg]) == 0
        assert (tmp_path / ("from_config" + suffix)).exists()
        capsys.readouterr()

    def test_flag_overrides_key(self, tmp_path, capsys, command):
        args, suffix = CONFIG_COMMANDS[command]
        cfg = self._config(tmp_path, f'out = "{tmp_path / "from_config"}"\n')
        assert run([command, *args, "--config", cfg, "--out", tmp_path / "from_flag"]) == 0
        assert (tmp_path / ("from_flag" + suffix)).exists()
        assert not (tmp_path / ("from_config" + suffix)).exists()
        capsys.readouterr()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys, command):
        args, _ = CONFIG_COMMANDS[command]
        cfg = self._config(tmp_path, "zzz = 1\n")
        assert run([command, *args, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "config key 'zzz' is not an option of this command" in captured.err
        assert captured.out == ""

    def test_help_describes_config(self, capsys, command):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"--config PATH\s+TOML config file; flags override\.", out)


def test_project_takes_no_config(capsys):
    assert run(["project", "--help"]) == 0
    assert "--config" not in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--version"], ["--help"], ["solve", "--help"],
    ["solve", "--method", "exact", "--generate", "unconstrained", "--n", "30", "--d", "3",
     "--seed", "1"],
], ids=["version", "help", "command_help", "solve"])
def test_main_returns_int(capsys, args):
    code = main(args)
    assert type(code) is int and code == 0
    capsys.readouterr()


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

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--threads", "-3")])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        code = run(["experiment", "--id", "fig1", "--out", out, "--seed", "1",
                    "--n", "100", flag, value])
        assert code == 1
        assert f"{flag[2:]}={value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exp_id, size", [("fig3", ["--d", "4"]), ("fig6a", ["--n", "40"])])
    def test_zero_rounds_is_usage_error(self, tmp_path, capsys, exp_id, size):
        out = tmp_path / "x.csv"
        code = run(["experiment", "--id", exp_id, "--out", out, "--seed", "1",
                    "--trials", "1", "--rounds", "0"] + size)
        assert code == 1
        assert "rounds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_thread_variable_is_usage_error(self, tmp_path, capsys,
                                                         monkeypatch, value):
        monkeypatch.setenv("IHSKIT_THREADS", value)
        out = tmp_path / "x.csv"
        code = run(["experiment", "--id", "fig1", "--out", out, "--seed", "1",
                    "--n", "100", "--trials", "1"])
        assert code == 1
        assert f"IHSKIT_THREADS must be a positive integer, got '{value}'" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exp_id, extra", [
        ("fig2", ["--n", "200"]), ("fig3", []),
    ])
    def test_sketch_smaller_than_d_is_grid_error(self, tmp_path, capsys, exp_id, extra):
        out = tmp_path / "g.csv"
        code = run(["experiment", "--id", exp_id, "--d", "8", "--gamma", "0.5", "--trials",
                    "1", "--seed", "1", "--out", out] + extra)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: {exp_id}: sketch size m = 4 is below d = 8" in captured.err
        assert not out.exists()

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

    def test_table_is_plain_step_certificates(self, tmp_path, capsys):
        out = tmp_path / "diag.json"
        code = run(["diagnose", "--generate", "unconstrained", "--n", "400", "--d", "10",
                    "--m", "80", "--rounds", "3", "--seed", "3", "--out", out])
        assert code == 0
        capsys.readouterr()
        table = json.loads(out.read_text())["rounds"]
        problem = gen_unconstrained(400, 10, 1.0, (3, 0))
        reference = solve_exact(problem).x
        reports = {step: ihs_solve(problem, IhsConfig(SketchSpec("gaussian", 80, 3), 3, step=step,
                                                      collect_certificates=True),
                                   reference=reference)
                   for step in ("plain", "tuned")}
        plain = reports["plain"]
        assert [[rec["Z1"], rec["Z2"]] for rec in table] == [list(c) for c in plain.certificates]
        assert [rec["err_ls_semi"] for rec in table] == plain.errors_to_ls[1:]
        # solve --method ihs runs the tuned step, whose Z2 differs
        assert reports["tuned"].certificates[0][1] != table[0]["Z2"]

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

    def test_bias_floor_is_warned_and_written(self, tmp_path, capsys):
        # 5 trials of m = 4 at n = 64: the sum of projectors has rank at
        # most 20, so eta_hat >= 64 / 20 = 3.2 whatever the sketch
        out = tmp_path / "eta.json"
        code = run(["verify-condition", "--kind", "gaussian", "--n", "64", "--m", "4",
                    "--trials", "5", "--seed", "5", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("eta_hat = ") and captured.out.count("\n") == 1
        assert "trials * m = 20 < n = 64" in captured.err
        assert "eta_hat >= n / (trials * m) = 3.2 for any sketch (bias floor)" in captured.err
        data = json.loads(out.read_text())
        assert data["bias_floor"] == pytest.approx(3.2)
        assert data["eta_hat"] >= 3.2 * (1 - 1e-12)

    def test_no_bias_warning_once_trials_m_reaches_n(self, tmp_path, capsys):
        out = tmp_path / "eta.json"
        code = run(["verify-condition", "--kind", "gaussian", "--n", "16", "--m", "4",
                    "--trials", "4", "--seed", "5", "--out", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["bias_floor"] == 1.0

    def test_leverage_matrix_with_nan_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "A.csv"
        a.write_text("1,0\nnan,1\n1,1\n0,2\n")
        code = run(["verify-condition", "--kind", "rowsample_leverage", "--matrix", a,
                    "--n", "4", "--m", "2", "--trials", "5", "--seed", "1"])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_rank_deficient_leverage_matrix_exits_2(self, tmp_path, capsys):
        a = tmp_path / "A.csv"
        a.write_text("1,2\n2,4\n3,6\n4,8\n")
        code = run(["verify-condition", "--kind", "rowsample_leverage", "--matrix", a,
                    "--n", "4", "--m", "2", "--trials", "5", "--seed", "1"])
        assert code == 2
        assert "rank deficient" in capsys.readouterr().err

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

    def test_nan_box_bound_is_usage_error(self, tmp_path, capsys):
        v = tmp_path / "v.csv"
        v.write_text("2\n-3\n0.5\n")
        code = run(["project", "--constraint", '{"type": "box", "lo": NaN}', "--vector", v])
        assert code == 1
        captured = capsys.readouterr()
        assert "lo <= hi" in captured.err and captured.out == ""

    def test_fractional_nuclear_dimension_is_usage_error(self, tmp_path, capsys):
        v = tmp_path / "v.csv"
        v.write_text("1\n2\n3\n4\n")
        code = run(["project", "--vector", v,
                    "--constraint", '{"type": "nuclear", "radius": 1, "d1": 2.5, "d2": 2}'])
        assert code == 1
        captured = capsys.readouterr()
        assert "'d1' must be an integer, got 2.5" in captured.err and captured.out == ""

    def test_simplex_projection_to_file(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("0.4\n0.4\n")
        out = tmp_path / "p.csv"
        code = run(["project", "--constraint", '{"type": "simplex"}',
                    "--vector", v, "--out", out])
        assert code == 0
        got = [float(t) for t in out.read_text().split()]
        assert got == pytest.approx([0.5, 0.5])


def test_every_option_has_help_text():
    for name, command in cli_mod.cli.commands.items():
        for param in command.params:
            if isinstance(param, click.Option):
                assert param.help, f"{name} {param.opts[0]} has no help text"


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
