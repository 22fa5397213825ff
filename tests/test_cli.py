import csv
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meanineq import MeanIneqError, cli
from meanineq.cli import RunConfig, run
from meanineq.inequalities import _CATALOG

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeanCommand:
    def test_prints_the_value(self, capsys):
        code, out, _ = invoke(["mean", "--x", "1,4", "--q", "0.5,0.5", "--r", "0.5"], capsys)
        assert code == 0
        assert out == "2.25\n"

    @pytest.mark.parametrize("r", ["5e-324", "-5e-324", "1e-310"])
    def test_a_subnormal_order_gives_the_geometric_mean(self, r, capsys):
        # --r 5e-324 printed e^2 = 7.38905609893065, from r ln x_n rounded to a subnormal
        argv = ["mean", "--x", "1,4,9", "--q", ".2,.3,.5"]
        assert invoke([*argv, f"--r={r}"], capsys) == invoke([*argv, "--r=0"], capsys) \
            == (0, "4.547149699531195\n", "")

    def test_weight_normalization_within_tolerance(self, capsys):
        code, out, _ = invoke(
            ["mean", "--x", "1,4", "--q", "0.5000001,0.4999998", "--r", "1"], capsys
        )
        assert code == 0
        assert float(out) == pytest.approx(2.5, rel=1e-6)

    def test_weight_sum_too_far_off_rejected(self, capsys):
        code, _, err = invoke(["mean", "--x", "1,4", "--q", "0.6,0.5", "--r", "1"], capsys)
        assert code == 2
        assert "refusing to normalize" in err


class TestNegativeValues:
    """A value starting with "-" reads as the value of the flag before it."""

    def test_an_exponent_reads_as_with_an_equals_sign(self, capsys):
        argv = ["mean", "--x", "1,4,9", "--q", ".2,.3,.5"]
        assert invoke([*argv, "--r", "-1e-3"], capsys) == invoke([*argv, "--r=-1e-3"], capsys) \
            == (0, "4.545565502562452\n", "")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--quantity", "a-r-profile", "--r", "1.5", "--grid", "-1,1,3"],
         "the profile sweep needs a t-grid inside [0, 1]"),
        (["mean", "--x", "-1,2", "--q", ".5,.5", "--r", "1"], "samples must be nonnegative"),
    ])
    def test_a_negative_list_reaches_the_library(self, argv, message, capsys):
        assert invoke(argv, capsys) == (2, "", f"meanineq: error: {message}\n")

    def test_a_flag_after_a_flag_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mean", "--r", "--x", "1"])
        assert exc.value.code == 2
        assert "argument --r: expected one argument" in capsys.readouterr().err


class TestCheckCommand:
    ARGV = [
        "check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--alpha", "1",
        "--x", "1,4,9", "--q", "0.333333,0.333333,0.333334",
    ]

    def test_holds_exit_zero(self, capsys):
        code, out, _ = invoke(self.ARGV, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "Holds"
        assert payload["id"] == "diananda-upper"

    def test_violation_exit_one(self, capsys):
        # the upper mean-difference bound fails past r = 2 at extreme weights
        code, out, _ = invoke(
            ["check", "--ineq", "mg-sigma-upper", "--r", "6", "--x", "1,5",
             "--q", "0.999,0.001"], capsys
        )
        payload = json.loads(out)
        assert payload["status"] == "Violated"
        assert code == 1

    def test_overflowing_weight_power_is_degenerate(self, capsys):
        # 0.1^(2 - 1/r) overflows; this used to print a traceback and exit 1
        code, out, err = invoke(["check", "--ineq", "half-mean-lower", "--x", "1,2,3",
                                 "--q", ".1,.3,.6", "--r", "0.001", "--force"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "Degenerate"

    def test_csv_is_a_header_and_a_row(self, capsys):
        code, out, _ = invoke([*self.ARGV, "--format", "csv"], capsys)
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert header == ["id", "params", "lhs", "rhs", "residual", "residual_rel", "status",
                          "q"]
        assert json.loads(row[1]) == {"triple": [1.0, 0.5, 0.0], "alpha": 1.0}

    def test_unknown_tag_exit_two(self, capsys):
        code, _, err = invoke(["check", "--ineq", "nope", "--x", "1,2", "--q", ".5,.5"], capsys)
        assert code == 2
        assert "error" in err

    def test_non_finite_parameter_exit_two(self, capsys):
        # used to exit 0 with `"r": Infinity`, which is not JSON
        code, out, err = invoke(["check", "--ineq", "mix-variance-upper", "--r", "inf",
                                 "--x", "1,2", "--q", "0.5,0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "r must be a finite real number, got inf" in err

    def test_ineq_help_lists_the_catalog(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "2000")  # one line per option: no wrap at hyphens
        with pytest.raises(SystemExit):
            run(["check", "--help"])
        help_text = capsys.readouterr().out
        for id, tag in _CATALOG.items():
            assert f"{id.value} ({tag.hypotheses})" in help_text

    @pytest.mark.parametrize("argv, message", [
        (["check", "--ineq", "diananda-base-upper", "--x", "1,4", "--q", ".5,.5", "--r", "7",
          "--s", "3", "--triple", "1,2,3", "--alpha", "5"],
         "diananda-base-upper takes no parameter 'triple'"),
        (["check", "--ineq", "diananda-base-upper", "--x", "1,4", "--q", ".5,.5", "--r", "7"],
         "diananda-base-upper takes no parameter 'r'"),
        (["check", "--ineq", "mg-sigma-upper", "--x", "1,4", "--q", ".5,.5", "--r", "1",
          "--alpha", "2"], "mg-sigma-upper takes no parameter 'alpha'"),
        (["hunt", "--ineq", "mg-sigma-upper", "--r", "2.5", "--s", "1", "--budget", "300"],
         "mg-sigma-upper takes no parameter 's'"),
        # a tag given only some of its own parameters used to accept, and ignore, these two
        (["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--x", "1,4", "--q", ".5,.5",
          "--r", "5"], "diananda-upper takes no parameter 'r'"),
        (["hunt", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--r", "5", "--budget", "50"],
         "diananda-upper takes no parameter 'r'"),
        (["sharpness", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--q-target", "0.2",
          "--alpha", "1", "--budget", "50"], None),
    ])
    def test_parameters_the_tag_does_not_take_exit_two(self, argv, message, capsys):
        code, out, err = invoke(argv, capsys)
        if message is None:  # a tag's own parameters pass
            assert code == 0 and out
            return
        assert code == 2
        assert out == ""
        assert err == f"meanineq: error: {message}\n"

    def test_domain_error_named(self, capsys):
        code, _, err = invoke(
            ["check", "--ineq", "mg-sigma-upper", "--x", "1,2", "--q", "0.5,0.5"], capsys
        )
        assert code == 2
        assert "'r'" in err


class TestThresholdCommand:
    def test_r0(self, capsys):
        code, out, _ = invoke(["threshold", "--which", "r0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.65 < payload["value"] < 0.67
        assert abs(payload["residual"]) <= 1e-12
        assert set(payload) == {"value", "lo", "hi", "residual", "iterations"}

    def test_alpha_thresholds(self, capsys):
        code, out, _ = invoke(["threshold", "--which", "alpha-lower", "--r", "3"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 1.0 - 1.0 / 9.0
        code, out, _ = invoke(["threshold", "--which", "alpha-upper", "--r", "1.5"], capsys)
        assert json.loads(out)["value"] > 1.0

    def test_min_a(self, capsys):
        code, out, _ = invoke(["threshold", "--which", "min-a", "--r", "2"], capsys)
        payload = json.loads(out)
        assert payload["a_star"] == pytest.approx(0.0, abs=1e-10)

    def test_missing_r_exit_two(self, capsys):
        code, _, err = invoke(["threshold", "--which", "t1"], capsys)
        assert code == 2

    def test_unknown_threshold_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "threshold", "options": {"which": "nope"}}))
        code, out, err = invoke(["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == "meanineq: error: unknown threshold 'nope'\n"

    def test_out_of_range_exit_two(self, capsys):
        code, _, err = invoke(["threshold", "--which", "t1", "--r", "2.5"], capsys)
        assert code == 2

    def test_non_finite_profile_order_exit_two(self, capsys):
        for argv in (["threshold", "--which", "min-a", "--r", "inf"],
                     ["sweep", "--quantity", "a-r-profile", "--r", "inf", "--grid", "0,1,3"]):
            code, out, err = invoke(argv, capsys)
            assert code == 2, argv
            assert out == ""
            assert "finite" in err

    @pytest.mark.parametrize("argv, value", [
        (["threshold", "--which", "alpha-lower", "--r", "1e300"], {"r": 1e300, "value": 1.0}),
        (["sweep", "--quantity", "alpha-threshold", "--grid", "3,1e300,3"],
         {"columns": ["r", "alpha"], "rows": [[3.0, 1.0 - 1.0 / 9.0], [5e299, 1.0], [1e300, 1.0]]}),
    ])
    def test_alpha_lower_past_where_r_squared_overflows(self, argv, value, capsys):
        # these printed an OverflowError traceback and exited 1, the violation code
        code, out, err = invoke(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == value

    # an infinite order has no threshold: 1 - (r - 2) / r^2 is inf / inf there
    @pytest.mark.parametrize("argv, message", [
        (["threshold", "--which", "alpha-lower", "--r", "inf"],
         "r must be a finite real number, got inf"),
        (["sweep", "--quantity", "alpha-threshold", "--grid", "2.5,inf,3"],
         "grid ends must be finite (got 2.5, inf)"),
    ])
    def test_non_finite_alpha_order_exit_two(self, argv, message, capsys):
        code, out, err = invoke(argv, capsys)
        assert (code, out, err) == (2, "", f"meanineq: error: {message}\n")


class TestSearchCommands:
    def test_sharpness(self, capsys):
        code, out, _ = invoke(
            ["sharpness", "--ineq", "diananda-upper", "--triple", "1,0.5,0",
             "--alpha", "1", "--q-target", "0.25", "--budget", "500", "--seed", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SupremumGap"
        assert payload["supremum_gap"] <= 1e-12

    def test_hunt_violation_exit_one(self, capsys):
        code, out, _ = invoke(
            ["hunt", "--ineq", "mg-sigma-upper", "--r", "2.5", "--budget", "20000",
             "--seed", "42"], capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "ViolationFound"
        assert "x" in payload["best_config"] and "q" in payload["best_config"]

    def test_hunt_missing_parameter_fails_before_evaluating(self, capsys, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the hunt evaluated configurations")

        monkeypatch.setattr("meanineq.search.relative_residuals", no_evaluation)
        code, out, err = invoke(["hunt", "--ineq", "mg-sigma-upper", "--budget", "300"], capsys)
        assert code == 2
        assert out == ""
        assert err == "meanineq: error: mg-sigma-upper requires parameter 'r'\n"

    def test_hunt_non_finite_parameter_fails_before_evaluating(self, capsys, monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the hunt evaluated configurations")

        monkeypatch.setattr("meanineq.search.relative_residuals", no_evaluation)
        code, out, err = invoke(["hunt", "--ineq", "mix-variance-upper", "--r", "inf",
                                 "--budget", "300", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "meanineq: error: r must be a finite real number, got inf\n"

    @pytest.mark.parametrize("flag, message", [
        ("--budget", "max_evals must be at least 1"),
        ("--restarts", "restarts must be at least 1"),
        ("--n-min", "n_range must satisfy 2 <= lo <= hi"),
        ("--n-max", "n_range must satisfy 2 <= lo <= hi"),
    ])
    def test_hunt_zero_search_argument_is_a_usage_error(self, flag, message, capsys,
                                                        monkeypatch):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("the hunt evaluated configurations")

        monkeypatch.setattr("meanineq.search.relative_residuals", no_evaluation)
        code, out, err = invoke(["hunt", "--ineq", "mg-sigma-upper", "--r", "6", flag, "0",
                                 "--seed", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"meanineq: error: {message}\n"

    def test_sharpness_with_a_degenerate_constant_is_a_usage_error(self, capsys):
        # (1 - q)^(1/s - 1/r) rounds to 1: the constant has no finite value
        code, out, err = invoke(
            ["sharpness", "--ineq", "diananda-upper", "--triple", "1,0.999999999999999,0",
             "--q-target", "0.001", "--budget", "100"], capsys)
        assert code == 2
        assert out == ""
        assert "denominator vanished" in err

    def test_hunt_no_violation_exit_zero(self, capsys):
        code, out, _ = invoke(
            ["hunt", "--ineq", "diananda-base-upper", "--budget", "2000", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "NoViolationFound"


class TestSweepCommand:
    def test_profile_rows_and_limits(self, capsys):
        code, out, _ = invoke(
            ["sweep", "--quantity", "a-r-profile", "--r", "1.5", "--grid", "0,1,101"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["t", "a_r"]
        assert len(payload["rows"]) == 101
        assert payload["rows"][0][1] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_alpha_threshold_piecewise_continuity(self, capsys):
        code, out, _ = invoke(
            ["sweep", "--quantity", "alpha-threshold", "--grid", "2.1,6,40"], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 40
        values = [row[1] for row in rows]
        assert all(0.8 < v < 1.0 for v in values)
        # continuity within pieces: adjacent steps stay small
        for (r1, v1), (r2, v2) in zip(rows, rows[1:]):
            if (r1 < 3 <= r2) or (r1 < 4 <= r2):
                continue
            assert abs(v2 - v1) < 0.02

    def test_alpha_threshold_rejects_bad_grid(self, capsys):
        code, _, err = invoke(
            ["sweep", "--quantity", "alpha-threshold", "--grid", "1.5,3,4"], capsys
        )
        assert code == 2

    def test_unknown_quantity_without_grid(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "sweep", "options": {"quantity": "nope"}}))
        code, out, err = invoke(["--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == "meanineq: error: unknown sweep quantity 'nope'\n"

    def test_residual_boundary_nonnegative(self, capsys):
        code, out, _ = invoke(
            ["sweep", "--quantity", "residual-boundary", "--grid", "0.02,0.5,25"],
            capsys,
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row[1] >= -1e-15
            assert row[2] >= -1e-15

    def test_csv_round_trips_floats(self, capsys):
        code, out, _ = invoke(
            ["sweep", "--quantity", "a-r-profile", "--r", "1.3", "--grid", "0,1,21",
             "--format", "csv"], capsys,
        )
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == ["t", "a_r"]
        from meanineq import a_r_fn
        for row in reader:
            t, value = float(row[0]), float(row[1])
            assert value == a_r_fn(1.3, t)  # exact round trip


class TestDeterminismAndPlumbing:
    def test_byte_identical_reruns(self, capsys):
        argv = ["hunt", "--ineq", "mg-sigma-lower", "--r", "3.5", "--budget", "4000",
                "--seed", "11"]
        _, out1, _ = invoke(argv, capsys)
        _, out2, _ = invoke(argv, capsys)
        assert out1.encode() == out2.encode()

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = invoke(
            ["threshold", "--which", "r0", "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["value"] == pytest.approx(0.6598, abs=1e-3)

    @pytest.mark.parametrize("argv", [
        ["threshold", "--which", "r0"],
        # a Violated outcome: a write error must not exit 1, the Violated code
        ["check", "--ineq", "mg-sigma-upper", "--r", "6", "--x", "1,5", "--q", "0.999,0.001"],
    ])
    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_exits_two(self, argv, target, tmp_path, capsys):
        code, out, err = invoke([*argv, "--output", str(tmp_path / target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("meanineq: error: [Errno ")
        assert str(tmp_path) in err

    def test_run_config_round_trip(self):
        rc = RunConfig(command="mean", options={"x": "1,4", "q": "0.5,0.5", "r": 0.5},
                       output=None, format="json")
        assert RunConfig.from_json_dict(json.loads(json.dumps(rc.to_json_dict()))) == rc

    def test_config_file_drives_a_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "mean",
            "options": {"x": "1,4", "q": "0.5,0.5", "r": 0.5},
        }))
        code, out, _ = invoke(["--config", str(cfg)], capsys)
        assert code == 0
        assert out == "2.25\n"

    def test_config_file_without_command(self, tmp_path, capsys):
        # the command comes from the command line; this used to fail with
        # "meanineq: error: 'command'", a KeyError
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"options": {"x": "1,4", "q": "0.5,0.5", "r": 0.5},
                                   "format": "csv"}))
        code, out, err = invoke(["--config", str(cfg), "mean"], capsys)
        assert (code, out, err) == (0, "value\n2.25\n", "")
        code, out, err = invoke(["--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == "meanineq: error: no command given (flag or config file)\n"

    def test_cli_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "command": "mean",
            "options": {"x": "1,4", "q": "0.5,0.5", "r": 0.5},
        }))
        code, out, _ = invoke(["--config", str(cfg), "mean", "--r", "0"], capsys)
        assert code == 0
        assert out == "2.0\n"

    @pytest.mark.parametrize("payload, message", [
        # a list used to raise TypeError, exit 1 (the Violated code)
        ([1, 2], "a run configuration must be a JSON object"),
        ({"command": "mean", "options": [1]}, "'options' must be a JSON object"),
        ({"command": "mean", "options": {"x": "1,4", "q": "0.5,0.5", "r": [1]}},
         "option 'r' must be a number, got [1]"),
        ({"command": "mean", "options": {"x": "1,4", "q": "0.5,0.5", "r": True}},
         "option 'r' must be a number, got true"),
        ({"command": "mean", "options": {"x": 1, "q": "0.5,0.5", "r": 1}},
         "option 'x' must be a string or a list of numbers, got 1"),
        ({"command": "threshold", "options": {"which": ["r0"]}},
         "option 'which' must be a string, got [\"r0\"]"),
        ({"command": "check", "options": {"ineq": "diananda-base-lower", "x": "1,4",
                                          "q": "0.5,0.5", "force": 1}},
         "option 'force' must be true or false, got 1"),
        # a float budget used to run silently as its integer part
        *(({"command": "hunt", "options": {"ineq": "mg-sigma-upper", "r": 2.5, key: value}},
           f"option '{key}' must be an integer, got {json.dumps(value)}")
          for key, value in [("budget", 2.7), ("budget", True), ("seed", 1.5),
                             ("restarts", 2.5), ("n_min", 2.5), ("n_max", "4")]),
        ({"command": "threshold", "options": {"which": "r0"}, "output": [1]},
         "'output' must be a path, got [1]"),
        # an unknown format used to give JSON silently
        ({"command": "threshold", "options": {"which": "r0"}, "format": "xml"},
         "'format' must be \"json\" or \"csv\", got \"xml\""),
        ({"command": "threshold", "options": {"which": "r0"}, "format": ["csv"]},
         "'format' must be \"json\" or \"csv\", got [\"csv\"]"),
        ({"command": ["threshold"], "options": {"which": "r0"}},
         "'command' must be a string, got [\"threshold\"]"),
        ({"command": 1, "options": {"which": "r0"}}, "'command' must be a string, got 1"),
    ])
    def test_malformed_config_file_is_a_usage_error(self, payload, message, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = invoke(["--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", f"meanineq: error: {message}\n")

    @pytest.mark.parametrize("payload, argv", [
        ({"command": "mean", "options": {"x": [1, 2], "q": [0.5, 0.5], "r": 10**400}},
         ["mean", "--x", "1,2", "--q", "0.5,0.5", "--r=inf"]),
        ({"command": "mean", "options": {"x": [1, 2], "q": [0.5, 0.5], "r": -10**400}},
         ["mean", "--x", "1,2", "--q", "0.5,0.5", "--r=-inf"]),
        ({"command": "check", "options": {"ineq": "diananda-base-upper", "x": [1, 2],
                                          "q": [0.5, 0.5], "tol": 10**400}},
         ["check", "--ineq", "diananda-base-upper", "--x", "1,2", "--q", "0.5,0.5",
          "--tol=inf"]),
    ], ids=["mean-r", "mean-negative-r", "check-tol"])
    def test_config_integer_past_the_float_range_reads_as_inf(self, payload, argv, tmp_path,
                                                              capsys):
        # each used to end in an OverflowError traceback, exit 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        want = invoke(argv, capsys)
        assert want[:2] == (2, "") and "must be a finite real number, got " in want[2]
        assert invoke(["--config", str(cfg)], capsys) == want

    def test_tolerance_env_var(self, capsys, monkeypatch):
        # a loose tolerance reclassifies a small positive residual as equality
        argv = ["check", "--ineq", "diananda-base-lower", "--x", "1,1.2",
                "--q", "0.3,0.7"]
        code, out, _ = invoke(argv, capsys)
        assert json.loads(out)["status"] == "Holds"
        monkeypatch.setenv("MEANINEQ_TOL", "1e-2")
        code, out, _ = invoke(argv, capsys)
        assert json.loads(out)["status"] == "Equality"

    # each message names the flag or the variable the value came from
    @pytest.mark.parametrize("bad, message", [
        ("nan", "must be a finite real number, got nan"),
        ("-1", "must be >= 0, got -1.0"),
        ("inf", "must be a finite real number, got inf"),
    ], ids=["nan", "-1", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, bad, message, capsys, monkeypatch):
        argv = ["check", "--ineq", "diananda-base-lower", "--x", "1,1", "--q", "0.5,0.5"]
        code, out, err = invoke(argv + ["--tol", bad], capsys)
        assert (code, out) == (2, "")
        assert f"--tol {message}" in err
        monkeypatch.setenv("MEANINEQ_TOL", bad)
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (2, "")
        assert f"MEANINEQ_TOL {message}" in err

    def test_imports_without_docstrings(self):
        # under -OO every __doc__ is None; the catalog tables are rendered into
        # them, in modules whose bodies run on first use
        proc = run_fresh(["-OO", "-c", "import meanineq.cli\n"
                          "meanineq.check, meanineq.aux_sign_check, meanineq.SearchBudget"])
        assert proc.returncode == 0, proc.stderr

    def test_commands_run_only_the_submodules_they_use(self):
        # proof_aux and search stay registered but unexecuted (a module
        # subclass) until a command reads from them; a monkeypatched search
        # function set before the first read still reaches the hunt
        script = (
            "import contextlib, io, sys, types\n"
            "import pytest\n"
            "import meanineq.cli as cli\n"
            "from meanineq.inequalities import relative_residuals\n"
            "def loaded(name):\n"
            "    return type(sys.modules['meanineq.' + name]) is types.ModuleType\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.run(argv)\n"
            "    print(argv[0], code, loaded('proof_aux'), loaded('search'))\n"
            "run(['mean', '--x', '1,4', '--q', '0.5,0.5', '--r', '0.5'])\n"
            "run(['check', '--ineq', 'diananda-base-upper', '--x', '1,4', '--q', '0.5,0.5'])\n"
            "run(['threshold', '--which', 'r0'])\n"
            "run(['sweep', '--quantity', 'alpha-threshold', '--grid', '2.1,6,4'])\n"
            "calls = []\n"
            "def counting(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return relative_residuals(*args, **kwargs)\n"
            "with pytest.MonkeyPatch.context() as mp:\n"
            "    mp.setattr('meanineq.search.relative_residuals', counting)\n"
            "    run(['hunt', '--ineq', 'mg-sigma-upper', '--r', '6', '--budget', '50'])\n"
            "print('patched calls', len(calls) > 0)\n"
            "run(['sharpness', '--ineq', 'diananda-upper', '--triple', '1,0.5,0',\n"
            "     '--q-target', '0.3', '--budget', '50'])\n"
        )
        proc = run_fresh(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "mean 0 False False",
            "check 0 False False",
            "threshold 0 False False",
            "sweep 0 False False",
            "hunt 1 False True",
            "patched calls True",
            "sharpness 0 False True",
        ]

    def test_hunt_prints_no_warning(self):
        # every row's weight power overflows: inf - inf rows must not warn
        proc = run_fresh(["-m", "meanineq.cli", "hunt", "--ineq", "half-mean-upper",
                          "--r", "1e-9", "--budget", "300"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["verdict"] == "NoViolationFound"

    def test_sigma_past_the_float_range_prints_no_warning(self):
        proc = run_fresh(["-m", "meanineq.cli", "check", "--ineq", "mg-sigma-lower",
                          "--r", "1.5", "--x", "1,1e200", "--q", "0.5,0.5"])
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["id"] == "mg-sigma-lower"

    def test_entry_point_installed(self):
        proc = run_fresh(["-m", "meanineq.cli"], input="")
        # module is importable; no command -> usage error
        assert proc.returncode in (1, 2)


@pytest.mark.parametrize("argv, table", [
    (["threshold", "--which"], "_THRESHOLDS"),
    (["sweep", "--quantity"], "_SWEEPS"),
])
def test_choices_are_the_dispatch_table_keys(argv, table, capsys):
    with pytest.raises(SystemExit):
        run([*argv, "nope"])
    choices = ", ".join(repr(name) for name in getattr(cli, table))
    assert f"invalid choice: 'nope' (choose from {choices})" in capsys.readouterr().err


@pytest.mark.parametrize("command, options, message", [
    ("threshold", {"which": "r0", "r": 99}, "threshold r0 takes no option 'r'"),
    ("sweep", {"quantity": "alpha-threshold", "grid": "2.5,3,2", "ineq": "nope", "r": 9},
     "sweep alpha-threshold takes no option 'ineq'"),
    ("sweep", {"quantity": "a-r-profile", "grid": "0,1,3", "ineq": "diananda-upper", "r": 1.5},
     "sweep a-r-profile takes no option 'ineq'"),
])
def test_option_the_choice_does_not_read_exits_two(command, options, message, tmp_path,
                                                   capsys):
    # each used to exit 0, ignoring the option
    argv = [command]
    for key, value in options.items():
        argv += ["--" + key, str(value)]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": command, "options": options}))
    want = (2, "", f"meanineq: error: {message}\n")
    assert invoke(argv, capsys) == want
    assert invoke(["--config", str(cfg)], capsys) == want


def test_cli_module_main():
    # Run the `meanineq` console-script target declared in pyproject.toml the way
    # an installed launcher does: import it, call it, exit with its return value.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["meanineq"]
    launcher = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint('meanineq', {target!r}, 'console_scripts').load()())"
    )
    proc = run_fresh(["-c", launcher, "mean", "--x", "1,4", "--q", "0.5,0.5", "--r", "0.5"])
    assert proc.returncode == 0
    assert proc.stdout == "2.25\n"


# Runs that give every command each option it takes; the searches stay small.
TABLE_RUNS = {
    "mean": [["mean", "--x", "1,4,9", "--q", "0.2,0.5,0.3", "--r", "0.5"]],
    "check": [
        ["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--alpha", "2",
         "--x", "1,4,9", "--q", "0.2,0.5,0.3"],
        ["check", "--ineq", "cartwright-field-lower", "--r", "2", "--s", "0.5",
         "--x", "1,4", "--q", "0.5,0.5"],
        ["check", "--ineq", "diananda-base-lower", "--tol", "1e-2", "--x", "1,1.2",
         "--q", "0.3,0.7"],
        ["check", "--ineq", "mix-variance-upper", "--r", "0.5", "--force", "--x", "1,4",
         "--q", "0.5,0.5"],
    ],
    "threshold": [["threshold", "--which", "t1", "--r", "1.5"]],
    "sharpness": [["sharpness", "--ineq", "diananda-lower", "--triple", "1,0.5,0", "--alpha", "2",
                   "--q-target", "0.3", "--budget", "60", "--seed", "3", "--restarts", "2",
                   "--n-min", "3", "--n-max", "4"]],
    "hunt": [
        ["hunt", "--ineq", "mg-sigma-upper", "--r", "2.5", "--budget", "60", "--seed", "5",
         "--restarts", "2", "--n-min", "3", "--n-max", "4"],
        ["hunt", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--alpha", "2",
         "--budget", "60"],
        ["hunt", "--ineq", "cartwright-field-upper", "--r", "2", "--s", "1", "--budget", "60"],
    ],
    "sweep": [
        ["sweep", "--quantity", "a-r-profile", "--r", "1.5", "--grid", "0,1,5"],
        ["sweep", "--quantity", "residual-boundary", "--grid", "0.1,0.5,3",
         "--ineq", "diananda-base-lower"],
    ],
}


class TestCommandTable:
    @pytest.mark.parametrize("command, key", [
        (name, key) for name, command in cli._COMMANDS.items() for key in command.options])
    def test_config_file_value_equals_the_flag(self, command, key, tmp_path, capsys):
        flag = "--" + key.replace("_", "-")
        argv = next((argv for argv in TABLE_RUNS[command] if flag in argv), None)
        assert argv is not None, f"no run gives {command} {flag}"
        value = getattr(cli.build_parser().parse_args(argv), key)
        at = argv.index(flag)
        rest = argv[:at] + argv[at + (1 if value is True else 2):]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"options": {key: value}}))
        want = invoke(argv, capsys)
        assert invoke(["--config", str(cfg), *rest], capsys) == want

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        # the misspelled seed used to be ignored: a seed-0 hunt, exit 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "hunt", "options": {
            "ineq": "mg-sigma-upper", "r": 2.5, "seeed": 5, "budget": 300}}))
        assert invoke(["--config", str(cfg)], capsys) == (
            2, "", "meanineq: error: unknown option 'seeed'\n")

    def test_option_the_command_does_not_take_in_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "mean", "options": {
            "x": "1,4", "q": "0.5,0.5", "r": 0.5, "budget": 7}}))
        assert invoke(["--config", str(cfg)], capsys) == (
            2, "", "meanineq: error: mean takes no option 'budget'\n")

    @pytest.mark.parametrize("argv", [
        ["mean", "--x", "1,4", "--q", "0.5,0.5", "--r", "1", "--tol", "1e-3"],
        ["threshold", "--which", "r0", "--tol", "1"],
        # neither is read as a prefix of --restarts or --seed
        ["sharpness", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--q-target", "0.3",
         "--budget", "50", "--r", "2"],
        ["sharpness", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--q-target", "0.3",
         "--budget", "50", "--s", "2"],
    ])
    def test_flag_the_command_does_not_take(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sharpness_without_triple_gives_the_library_message(self, capsys):
        from meanineq.errors import DomainError
        from meanineq.inequalities import InequalityId, resolve_params

        with pytest.raises(DomainError) as info:
            resolve_params(InequalityId.DIANANDA_UPPER)
        assert invoke(["sharpness", "--ineq", "diananda-upper", "--q-target", "0.25"],
                      capsys) == (2, "", f"meanineq: error: {info.value}\n")

    def test_help_defaults_are_the_search_budgets(self):
        from meanineq.search import SearchBudget

        budget = SearchBudget()
        defaults = {}
        for key, (_, flag) in cli._OPTIONS.items():
            match = re.search(r"\(default (\d+)\)", flag.get("help", ""))
            if match:
                defaults[key] = int(match.group(1))
        assert defaults == {"budget": budget.max_evals, "seed": budget.seed,
                            "restarts": budget.restarts, "n_min": budget.n_range[0],
                            "n_max": budget.n_range[1]}

    @pytest.mark.parametrize("count", [10**6 + 1, 10**15])
    def test_grid_count_cap_checked_before_rows_are_built(self, count, capsys):
        # a count of 10^15 used to reach np.linspace: a MemoryError, exit 1
        argv = ["sweep", "--quantity", "a-r-profile", "--r", "1.5", "--grid", f"0,1,{count}"]
        tracemalloc.start()
        try:
            result = invoke(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2, "", "meanineq: error: grid count must lie between 1 and 1000000\n")
        assert peak < 2**20

    def test_readme_table(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert rows == [
            f"| `{key}` | `--{key.replace('_', '-')}` | {kind.what} | "
            + ", ".join(f"`{name}`" for name, command in cli._COMMANDS.items()
                        if key in command.options) + " |"
            for key, (kind, _) in cli._OPTIONS.items()]


def execute(argv):
    """Run one command as ``run`` does, but let its error through."""
    run_config = cli._run_config_from_args(cli.build_parser().parse_args(argv))
    return cli._COMMANDS[run_config.command].execute(run_config.options)


@pytest.mark.parametrize("argv, message, env", [
    (["mean", "--x", "1,a", "--q", "0.5,0.5", "--r", "1"], "could not parse number list '1,a'",
     {}),
    (["sweep", "--quantity", "alpha-threshold", "--grid", "1,2"], "--grid expects lo,hi,count",
     {}),
    (["mean", "--r", "1"], "both --x and --q are required", {}),
    (["check", "--ineq", "diananda-upper", "--triple", "1,2", "--x", "1,4", "--q", "0.5,0.5"],
     "--triple expects three comma-separated orders", {}),
    (["sweep", "--quantity", "a-r-profile", "--r", "1.5", "--grid", "0,2,3"],
     "the profile sweep needs a t-grid inside [0, 1]", {}),
    (["sweep", "--quantity", "residual-boundary", "--ineq", "diananda-upper",
      "--grid", "0.1,0.5,3"], "the boundary sweep applies to the parameter-free base inequalities",
     {}),
    (["sweep", "--quantity", "residual-boundary", "--grid", "0,0.5,3"],
     "the boundary sweep needs a q-grid inside (0, 1/2]", {}),
    # these three used to print only Python's own ValueError, naming no option
    (["sweep", "--quantity", "alpha-threshold", "--grid", "1.5,1.6,1e3"],
     "--grid expects numbers lo,hi and an integer count, got '1.5,1.6,1e3'", {}),
    (["sweep", "--quantity", "alpha-threshold", "--grid", "a,1,3"],
     "--grid expects numbers lo,hi and an integer count, got 'a,1,3'", {}),
    (["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--x", "1,4", "--q", "0.5,0.5"],
     "MEANINEQ_TOL must be a number, got 'abc'", {"MEANINEQ_TOL": "abc"}),
    # these two used to name the library's rel_tol, not the variable
    (["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--x", "1,4", "--q", "0.5,0.5"],
     "MEANINEQ_TOL must be a finite real number, got inf", {"MEANINEQ_TOL": "inf"}),
    (["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--x", "1,4", "--q", "0.5,0.5"],
     "MEANINEQ_TOL must be >= 0, got -1.0", {"MEANINEQ_TOL": "-1"}),
], ids=["number-list", "grid-pair", "no-configuration", "triple-pair", "profile-grid",
        "boundary-tag", "boundary-grid", "grid-count", "grid-end", "tolerance-env",
        "tolerance-env-inf", "tolerance-env-negative"])
def test_malformed_options_are_named(argv, message, env, capsys, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with pytest.raises(MeanIneqError) as info:
        execute(argv)
    assert (type(info.value), str(info.value)) == (MeanIneqError, message)
    assert invoke(argv, capsys) == (2, "", f"meanineq: error: {message}\n")


@pytest.mark.parametrize("options, listed", [
    ({"command": "mean", "options": {"x": [1, True], "q": [0.5, 0.5], "r": 1}}, "[1, True]"),
    ({"command": "check", "options": {"ineq": "diananda-upper", "x": [1, 4], "q": [0.5, 0.5],
                                      "triple": [1, 0.5, False]}}, "[1, 0.5, False]"),
], ids=["samples", "triple"])
def test_config_number_list_refuses_booleans(options, listed, tmp_path, capsys):
    # true and false used to be read as 1.0 and 0.0: mean printed 1.0, check ran at t = 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(options))
    assert invoke(["--config", str(cfg)], capsys) == (
        2, "", f"meanineq: error: could not parse number list {listed}\n")


def test_unknown_command_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "frobnicate"}))
    assert invoke(["--config", str(cfg)], capsys) == (
        2, "", "meanineq: error: unknown command 'frobnicate'\n")


def test_csv_leaves_a_missing_value_empty(capsys):
    # a Degenerate check reports its NaN sides and residuals as JSON null
    argv = ["check", "--ineq", "diananda-upper", "--triple", "1,0.5,0", "--x", "1,1",
            "--q", "0.5,0.5"]
    code, out, _ = invoke([*argv, "--format", "csv"], capsys)
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    cells = dict(zip(header, row))
    assert [cells[key] for key in ("lhs", "rhs", "residual", "residual_rel", "status")] == [
        "", "", "", "", "Degenerate"]
    assert json.loads(invoke(argv, capsys)[1])["lhs"] is None


# Which of numpy and the lazily registered submodules a group of commands,
# run in one fresh interpreter, executes.
THRESHOLD_RUNS = [["threshold", "--which", "r0"], ["threshold", "--which", "t1", "--r", "1.5"],
                  ["threshold", "--which", "t2", "--r", "2.5"],
                  ["threshold", "--which", "alpha-upper", "--r", "1.5"],
                  ["threshold", "--which", "alpha-lower", "--r", "3.5"],
                  ["threshold", "--which", "min-a", "--r", "1.5"],
                  ["sweep", "--quantity", "alpha-threshold", "--grid", "1.5,6,12"]]
IMPORT_GRAPH = {
    "threshold-and-alpha-sweep": (THRESHOLD_RUNS, []),
    "mean": ([["mean", "--x", "1,4", "--q", "0.5,0.5", "--r", "0.5"]],
             ["numpy", "meanineq.means"]),
    "check": ([["check", "--ineq", "diananda-base-upper", "--x", "1,4", "--q", "0.5,0.5"]],
              ["numpy", "meanineq.means", "meanineq.inequalities"]),
    "hunt": ([["hunt", "--ineq", "mg-sigma-upper", "--r", "6", "--budget", "50"]],
             ["numpy", "meanineq.means", "meanineq.inequalities", "meanineq.search"]),
}


@pytest.mark.parametrize("runs, executed", IMPORT_GRAPH.values(), ids=IMPORT_GRAPH)
def test_import_graph(runs, executed):
    # no command runs proof_aux, only hunt and sharpness run search, and the
    # threshold solvers and the alpha-threshold sweep run without numpy
    script = (
        "import contextlib, io, sys, types\n"
        "import meanineq.cli as cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(argv) in (0, 1), argv\n"
        "watched = ('numpy', 'meanineq.means', 'meanineq.inequalities', 'meanineq.proof_aux',\n"
        "           'meanineq.search')\n"
        "print([name for name in watched if type(sys.modules.get(name)) is types.ModuleType])\n"
    )
    proc = run_fresh(["-c", script], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{executed}\n"


class TestSweepAxis:
    """The sweep's axis, computed without numpy, is ``np.linspace`` bit for bit."""

    @staticmethod
    def assert_linspace(lo, hi, count):
        got = cli._linspace(lo, hi, count)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in np.linspace(lo, hi, count).tolist()]

    @pytest.mark.parametrize("lo, hi, count", [
        (0.0, 1.0, 1), (2.5, -7.0, 1), (-0.0, 0.0, 1), (0.0, -0.0, 3),
        (1.5, 1.5, 1), (1.5, 1.5, 7), (-2.0, -2.0, 4),
        (-3.0, -1.0, 9), (-1.0, 2.0, 10), (1.0, -2.0, 11), (6.0, 2.05, 24), (-1.0, -3.0, 4),
        (0.0, 1e-320, 9), (5e-324, 1e-323, 7), (0.0, 5e-324, 1000), (-5e-324, 5e-324, 3),
        (1e-300, 2e-300, 1000), (2.2250738585072014e-308, 2.225073858507203e-308, 50),
        (1.2, 1.2000000000000002, 5), (0.3, 0.30000000000000004, 17), (0.1, 0.5, 13),
        (2.1, 6.0, 100_001),
    ])
    def test_cases(self, lo, hi, count):
        self.assert_linspace(lo, hi, count)

    def test_seeded(self):
        rng = np.random.default_rng(20241019)
        for _ in range(2000):
            scale = 10.0 ** rng.integers(-323, 308)
            lo, hi = (float(v) for v in rng.uniform(-1.0, 1.0, 2) * scale)
            if rng.random() < 0.2:
                hi = lo + float(rng.integers(-3, 4)) * 5e-324
            self.assert_linspace(lo, hi, int(rng.integers(1, 300)))

    @pytest.mark.parametrize("argv", [
        ["--quantity", "alpha-threshold", "--grid", "2.1,6,24"],
        ["--quantity", "alpha-threshold", "--grid", "1.01,1.99,7"],
        ["--quantity", "alpha-threshold", "--grid", "5.5,2.5,1"],
        ["--quantity", "a-r-profile", "--r", "1.5", "--grid", "0,1,101"],
        ["--quantity", "a-r-profile", "--r", "3.25", "--grid", "0,1e-320,9"],
        ["--quantity", "a-r-profile", "--r", "1.05", "--grid", "0.3,0.30000000000000004,17"],
        ["--quantity", "residual-boundary", "--grid", "0.1,0.5,13"],
        ["--quantity", "residual-boundary", "--ineq", "diananda-base-lower",
         "--grid", "0.2,0.2,3"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reports_equal_those_on_the_numpy_axis(self, argv, fmt, capsys):
        # the sweep functions on np.linspace's axis, as the reports were made before
        code, out, err = invoke(["sweep", *argv, "--format", fmt], capsys)
        assert (code, err) == (0, "")
        args = cli.build_parser().parse_args(["sweep", *argv])
        options = cli._run_config_from_args(args).options
        lo, hi, count = cli._grid_triplet(options["grid"])
        sweep = cli._SWEEPS[options["quantity"]][0]
        payload = sweep(options, lo, hi, np.linspace(lo, hi, count).tolist())
        text = cli._to_csv(payload) if fmt == "csv" else json.dumps(payload, indent=2) + "\n"
        assert out == text
