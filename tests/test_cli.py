"""Command-line surface: config parsing, artifact emission, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracheat
from fracheat.cli import emit_table, main, parse_config
from fracheat.kernel import KernelParams, heat_kernel, kernel_gradient, kernel_time_derivative
from fracheat.report import VerificationReport
from fracheat.suites import SUITES


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("{}")
        assert cfg.suites == tuple(SUITES)
        assert cfg.out == "artifacts"
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "text",
        [
            '{"N": 1}',
            '{"dim": 2}',
            '{"s": 0.75}',
            '{"datum": "cosine:1"}',
            '{"grid": {"counts": [9]}}',
        ],
        ids=["N", "dim", "s", "datum", "grid"],
    )
    def test_fields_no_suite_reads_are_refused_by_name(self, text):
        name = next(iter(json.loads(text)))
        with pytest.raises(ValueError, match=f"config field '{name}' is not recognized"):
            parse_config(text)

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="'bogus' is not recognized"):
            parse_config('{"s": 0.5, "bogus": 1}')

    def test_unknown_suite_is_named(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            parse_config('{"suites": ["nope"]}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(ValueError, match="line 1 column"):
            parse_config('{"s": 0.5,,}')

    def test_non_object_document_is_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config("[1, 2]")


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # a fresh process, so no other test's imports count
    src = str(Path(fracheat.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, fracheat.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestEmitTable:
    def test_csv_layout(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_table((["a", "b"], [[math.pi, True], [-1.0, False]]), path)
        text = open(path).read()
        assert text == "a,b\n3.1415926535897931,true\n-1,false\n"

    def test_empty_rows_leave_header_only(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_table((["x"], []), path)
        assert open(path).read() == "x\n"

    def test_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = str(tmp_path / "t.json")
        emit_table({"b": 1, "a": [2.5, "s"]}, path, format="json")
        text = open(path).read()
        assert text.endswith("}\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [2.5, "s"]}

    def test_identical_data_identical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        data = (["v"], [[0.1 + 0.2]])
        emit_table(data, p1)
        emit_table(data, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="csv or json"):
            emit_table((["x"], []), str(tmp_path / "t"), format="xml")

    def test_unwritable_path_names_the_file(self, tmp_path):
        blocker = tmp_path / "f"
        blocker.write_text("")
        target = str(blocker / "sub" / "t.csv")
        with pytest.raises(OSError, match="t.csv"):
            emit_table((["x"], []), target)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_numbers(self, value, capsys):
        with pytest.raises(ValueError):
            emit_table({"v": value}, None, format="json")
        rep = VerificationReport(suite="s")
        rep.add(name="c", measured=value, bound=0.0, tolerance=0.0, passed=False)
        with pytest.raises(ValueError):
            rep.to_json()
        assert capsys.readouterr().out == ""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_cells_round_trip_exactly(self, value):
        # 17 significant digits reproduce every double exactly
        buf = io.StringIO()
        emit_csv = "%.17g" % value
        buf.write(emit_csv)
        assert float(buf.getvalue()) == value


def _failing_suite(cfg):
    rep = VerificationReport(suite="alwaysfail")
    rep.add(name="boom", measured=1.0, bound=0.0, tolerance=0.0, passed=False)
    return rep


class TestVerifyCommand:
    def test_passing_suite_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(["verify", "derivative-recursion", "--out", str(out)])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        report = VerificationReport.from_json(
            (out / "derivative-recursion.json").read_text()
        )
        assert report.overall_pass
        rows = list(csv.reader(open(out / "derivative-recursion.csv")))
        assert rows[0] == ["name", "measured", "bound", "tolerance", "passed", "worst_point"]
        assert len(rows) == len(report.records) + 1

    def test_failing_suite_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setitem(SUITES, "alwaysfail", _failing_suite)
        code = main(["verify", "alwaysfail", "--out", str(tmp_path / "a")])
        assert code == 1
        data = json.loads((tmp_path / "a" / "alwaysfail.json").read_text())
        assert data["overall_pass"] is False

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"suites": ["nope"]}')
        code = main(["verify", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 2
        assert "error: config field suites: unknown suite 'nope'" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, monkeypatch):
        seen = []

        def record(cfg):
            seen.append((cfg.seed, cfg.out))
            return VerificationReport(suite="record")

        monkeypatch.setitem(SUITES, "record", record)
        out = str(tmp_path / "o")
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"seed": 5, "out": "elsewhere"}')
        code = main(["verify", "record", "--config", str(cfg_file), "--seed", "7", "--out", out])
        assert code == 0
        assert seen == [(7, out)]

    @pytest.mark.parametrize(
        "flags",
        [["--dim", "2"], ["--s", "0.3"], ["--s", "3"], ["--datum", "cosine:1"]],
        ids=["dim", "s", "s-integral", "datum"],
    )
    def test_removed_flags_exit_two(self, tmp_path, monkeypatch, flags):
        # --s 3 must not be taken as an abbreviation of --seed
        ran = []
        monkeypatch.setitem(SUITES, "definiteness", lambda cfg: ran.append(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "definiteness", *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert ran == []

    @pytest.mark.parametrize(
        "text, reason",
        [('{"s": 0.6,,}', "config is not valid JSON: line 1 column 11"), ("[1]", "JSON object")],
        ids=["malformed", "not-an-object"],
    )
    def test_bad_config_file_is_named(self, tmp_path, capsys, text, reason):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(text)
        code = main(["verify", "definiteness", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg_file}: " in err
        assert reason in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"seed": 1.9}', "config field seed must be an integer, got 1.9"),
        ],
        ids=["fractional-seed"],
    )
    def test_non_integral_config_field_exits_two(self, tmp_path, capsys, text, reason):
        # int() would truncate each of these silently
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(text)
        code = main(["verify", "definiteness", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {reason}" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["verify", "derivative-recursion", "--out", str(out)]) == 0
        for name in ("derivative-recursion.json", "derivative-recursion.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_documents_the_datum_grammar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "abs_power:power" in text
        assert "piecewise_linear_1d:left_slope" in text


class TestKernelCommand:
    def test_eval_csv_layout_and_half_order_value(self, capsys):
        code = main(["kernel", "eval", "--dim", "1", "--s", "0.5",
                     "--x", "0;1", "--t", "1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["N", "s", "x1", "t", "p", "g1", "p_t",
                           "ratio_lower", "ratio_upper"]
        assert len(rows) == 3
        origin = [float(v) for v in rows[1]]
        assert origin[4] == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert origin[5] == 0.0
        # ratio interval must be positive and ordered
        assert 0.0 < origin[7] <= origin[8]

    def test_eval_two_dim_point_parsing(self, capsys):
        code = main(["kernel", "eval", "--dim", "2", "--s", "0.5",
                     "--x", "0,0; 1,1", "--t", "0.5,2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:5] == ["N", "s", "x1", "x2", "t"]
        assert len(rows) == 5

    @pytest.mark.parametrize(
        "dim, s, x", [(1, 0.6, "0;0.4;-2.5;35"), (2, 0.75, "0,0;1,0;3,4;-0.2,0.1"), (3, 0.55, "0,0,0;1,-2,2;30,1,0")]
    )
    def test_eval_equals_the_per_point_public_functions(self, dim, s, x, capsys):
        # the CSV of one batched evaluation, byte for byte the CSV of a
        # per-point loop of heat_kernel, kernel_gradient and kernel_time_derivative
        params = KernelParams(dim=dim, s=s)
        sp = params.scaling_power
        points = [np.array([float(v) for v in p.split(",")]) for p in x.split(";")]
        rows, lo, hi = [], math.inf, -math.inf
        for t in (0.1, 1.0, 10.0):
            for pt in points:
                p = heat_kernel(params, pt, t)
                nx = float(np.linalg.norm(pt))
                envelope = t ** (-dim * sp) if nx == 0.0 else min(t ** (-dim * sp), t * nx ** (-dim - 2.0 * s))
                lo, hi = min(lo, p / envelope), max(hi, p / envelope)
                grad = kernel_gradient(params, pt, t)
                rows.append([dim, s, *pt, t, p, *grad, kernel_time_derivative(params, pt, t), lo, hi])
        headers = ["N", "s", *[f"x{i + 1}" for i in range(dim)], "t", "p", *[f"g{i + 1}" for i in range(dim)]]
        emit_table((headers + ["p_t", "ratio_lower", "ratio_upper"], rows), None)
        expected = capsys.readouterr().out
        assert main(["kernel", "eval", "--dim", str(dim), "--s", str(s), "--x", x, "--t", "0.1,1,10"]) == 0
        assert capsys.readouterr().out == expected

    def test_eval_at_a_point_whose_space_power_overflows(self, capsys):
        # |x|^(-(d+2s)) overflows at 1e-160: the envelope is the t-power there
        assert main(["kernel", "eval", "--dim", "1", "--s", "0.6", "--x", "1e-160", "--t", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2
        assert all(math.isfinite(float(v)) for v in rows[1])
        assert float(rows[1][7]) == float(rows[1][8]) > 0.0

    def test_eval_far_out_where_the_envelope_stays_in_range(self, capsys):
        params = KernelParams(dim=1, s=0.6)
        assert main(["kernel", "eval", "--dim", "1", "--s", "0.6", "--x", "1e100", "--t", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        p = heat_kernel(params, [1e100], 1.0)
        assert float(rows[1][4]) == p > 0.0
        assert float(rows[1][7]) == float(rows[1][8]) == p / 1e100**-2.2

    @pytest.mark.parametrize("x", ["1e150", "1e200"])
    def test_eval_where_the_envelope_underflows_is_refused_by_name(self, x, capsys):
        # past about 1e140 the envelope t |x|^(-(d+2s)) falls below the
        # float range (at 1e150 to 0, which the ratio divided by); past
        # about 1e154 the sum of squares of |x| overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["kernel", "eval", "--dim", "1", "--s", "0.6", "--x", x, "--t", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --x and --t: ") and err.count("\n") == 1
        assert f"|x|={float(x):g}, t=1" in err

    def test_table_goes_to_file(self, tmp_path):
        path = tmp_path / "tab.csv"
        assert main(["kernel", "table", "--dim", "1", "--s", "0.75",
                     "--out", str(path)]) == 0
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["r", "value"]
        assert float(rows[1][0]) == 0.0
        assert all(float(r[1]) > 0.0 for r in rows[1:])

    def test_small_order_table_exits_two_before_allocating(self, monkeypatch, capsys):
        def allocate(*args):
            raise AssertionError("panel_edges was called")

        monkeypatch.setattr("fracheat.specfun.panel_edges", allocate)
        assert main(["kernel", "table", "--dim", "1", "--s", "0.15"]) == 2
        assert "dim 1, s 0.15" in capsys.readouterr().err

    def test_verify_bounds_passes(self, capsys):
        assert main(["kernel", "verify-bounds", "--dim", "1", "--s", "0.6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overall_pass"] is True

    @pytest.mark.parametrize("flag", ["--x", "--t"])
    @pytest.mark.parametrize("text", ["", ","])
    def test_eval_refuses_an_empty_list(self, flag, text, capsys):
        code = main(["kernel", "eval", "--dim", "1", "--s", "0.6", flag, text])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: kernel eval needs at least one value in {flag}, got {text!r}" in captured.err
        assert "Traceback" not in captured.err

    def test_wrong_coordinate_count_exits_two(self, capsys):
        code = main(["kernel", "eval", "--dim", "2", "--s", "0.5", "--x", "1"])
        assert code == 2
        assert "coordinates" in capsys.readouterr().err


class TestFraclapCommand:
    def test_eval_reports_the_eigenvalue_identity(self, capsys):
        assert main(["fraclap", "eval", "--function", "cosine:1",
                     "--s", "0.6", "--x", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(math.cos(0.5), abs=1e-9)
        assert data["near_part"] + data["tail_part"] == pytest.approx(
            data["value"], abs=1e-12
        )
        assert data["error_estimate"] >= 0.0

    def test_classify_constant(self, capsys):
        assert main(["fraclap", "classify", "--function", "constant:2",
                     "--s", "0.6"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "identically-zero"

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_point_exits_two_without_output(self, x, capsys):
        code = main(["fraclap", "eval", "--function", "cosine:1", "--s", "0.6", "--x", x])
        captured = capsys.readouterr()
        assert code == 2
        assert "NaN" not in captured.out and "Infinity" not in captured.out
        assert "finite" in captured.err

    def test_infinite_frequency_exits_two_with_the_reason(self, capsys):
        code = main(["fraclap", "eval", "--function", "cosine:inf", "--s", "0.6", "--x", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: cosine frequency must be positive and finite, got inf" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "function, x, count",
        [("cosine:1", "0.5,1.5", 2), ("cosine:1", "", 0), ("ruled:1.2", "0.3,0.2;1,1", 2)],
        ids=["two-1d", "none", "two-2d"],
    )
    def test_eval_takes_exactly_one_point(self, function, x, count, capsys):
        code = main(["fraclap", "eval", "--function", function, "--s", "0.75", "--x", x])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: fraclap eval takes one point, got {count}" in captured.err
        assert "Traceback" not in captured.err

    def test_unexpected_error_exits_two_with_a_message(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("fracheat.cli.frac_laplacian", boom)
        code = main(["fraclap", "eval", "--function", "cosine:1", "--s", "0.6"])
        assert code == 2
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_vanish_check_equal_radii_exit_two(self, capsys):
        code = main(["fraclap", "vanish-check", "--function", "gaussian:1",
                     "--s", "0.75", "--radii", "1,1"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_vanish_check_control_fails(self, capsys):
        code = main(["fraclap", "vanish-check", "--function", "cosine:1",
                     "--s", "0.75", "--radii", "1,100"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["overall_pass"] is False


class TestSolveCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        argv = ["solve", "--datum", "cosine:1", "--s", "0.6",
                "--grid=-1:1:5", "--times", "0.5", "--out"]
        assert main(argv + [str(tmp_path / "r1")]) == 0
        assert main(argv + [str(tmp_path / "r2")]) == 0
        sol = (tmp_path / "r1" / "solution.csv").read_bytes()
        assert sol == (tmp_path / "r2" / "solution.csv").read_bytes()
        man = (tmp_path / "r1" / "manifest.json").read_bytes()
        assert man == (tmp_path / "r2" / "manifest.json").read_bytes()

        rows = list(csv.reader(io.StringIO(sol.decode())))
        assert rows[0] == ["t", "x1", "u", "err_est"]
        assert len(rows) == 6
        # the middle node sits at the origin, where u = exp(-t)
        mid = [float(v) for v in rows[3]]
        assert mid[1] == 0.0
        assert mid[2] == pytest.approx(math.exp(-0.5), abs=1e-4)
        assert mid[3] >= 0.0

        manifest = json.loads(man.decode())
        assert manifest["params"] == {"dim": 1, "s": 0.6}
        assert manifest["residual"]["max_abs"] <= 1e-3
        sample = manifest["residual"]["samples"][0]
        assert sample["t"] == 0.5
        assert abs(sample["residual"]) <= sample["estimate"]
        envelope = manifest["envelope"]
        assert envelope["suite"] == "growth-envelope" and envelope["overall_pass"]
        assert [r["name"] for r in envelope["records"]] == ["t=0.5"]

    @pytest.mark.parametrize("datum", ["affine:0,1", "constant:0"])
    def test_the_envelope_of_an_exact_solution_passes(self, datum, tmp_path):
        # the flow leaves these data where they are; at t = 0 and at the
        # origin the bound is met with equality or is zero
        code = main(["solve", "--datum", datum, "--s", "0.75", "--grid=-2:2:5",
                     "--times", "0,0.5,2", "--out", str(tmp_path)])
        assert code == 0
        envelope = json.loads((tmp_path / "manifest.json").read_text())["envelope"]
        assert envelope["overall_pass"]
        assert [r["name"] for r in envelope["records"]] == ["t=0", "t=0.5", "t=2"]

    def test_the_envelope_is_checked_on_the_solved_grid_alone(self, tmp_path, monkeypatch):
        from fracheat import solver

        calls, solve_batch = [], solver._solve_batch

        def counting(u0, pts, *args, **kwargs):
            calls.append(len(pts))
            return solve_batch(u0, pts, *args, **kwargs)

        monkeypatch.setattr(solver, "_solve_batch", counting)
        code = main(["solve", "--datum", "ruled:1.2", "--s", "0.75", "--grid=-2:2:5,-1:1:2",
                     "--times", "0.5,2", "--out", str(tmp_path)])
        assert code == 0
        # one block of the 10 nodes per time, and nothing else
        assert calls == [10, 10]
        assert json.loads((tmp_path / "manifest.json").read_text())["envelope"]["overall_pass"]

    def test_a_large_time_is_refused_before_its_panels_are_laid(self, tmp_path, capsys):
        # the body band resolves the cosine's period at the kernel's scale
        # t^(1/2s) = 1e10: 4.3e10 panels, which the split refuses by name
        code = main(["solve", "--datum", "cosine:1", "--s", "0.6", "--grid=-1:1:3",
                     "--times", "1e12", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the body band of cosine:1 at t = 1e+12 needs 4.34e+10 panels") and err.count("\n") == 1

    def test_grid_syntax_error_exits_two(self, tmp_path, capsys):
        code = main(["solve", "--datum", "cosine:1", "--s", "0.6",
                     "--grid", "oops", "--times", "0.5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "lo:hi:count" in capsys.readouterr().err

    def test_refused_residual_still_writes_the_manifest(self, tmp_path):
        # the ruled family declares no curvature decay, and the residual
        # covers 1-D only; either refusal is recorded, not fatal
        code = main(["solve", "--datum", "ruled:1.2", "--s", "0.75",
                     "--grid=-1:1:3,-1:1:3", "--times", "0.5",
                     "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "dim 1 only" in manifest["residual"]["unavailable"]
        assert (tmp_path / "solution.csv").is_file()

    def test_four_dimensional_grid_exits_two(self, tmp_path, capsys):
        code = main(["solve", "--datum", "gaussian:1", "--s", "0.75",
                     "--grid=0:1:2,0:1:2,0:1:2,0:1:2", "--times", "0.5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "dim <= 3" in capsys.readouterr().err

    def test_zero_workers_exits_two(self, tmp_path, capsys):
        code = main(["solve", "--datum", "cosine:1", "--s", "0.6",
                     "--grid=-1:1:3", "--times", "0.5", "--workers", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "workers must be a positive integer, got 0" in capsys.readouterr().err

    def test_bad_thread_env_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FRACHEAT_THREADS", "many")
        code = main(["solve", "--datum", "cosine:1", "--s", "0.6",
                     "--grid=-1:1:3", "--times", "0.5", "--out", str(tmp_path)])
        assert code == 2
        assert "FRACHEAT_THREADS must be a positive integer, got 'many'" in capsys.readouterr().err
