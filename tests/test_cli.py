"""End-to-end command line coverage: payloads, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpfacility.cli import main
from lpfacility.verification.reports import render_csv, render_json

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEval:
    def test_lrm_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--spec", "lrm", "--profile", "0,1", "--p", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"] == "lrm"
        assert payload["profile"] == [0.0, 1.0]
        assert payload["opt_location"] == 0.5
        assert [a["location"] for a in payload["distribution"]] == [0.0, 0.5, 1.0]
        assert [a["probability"] for a in payload["distribution"]] == [0.25, 0.5, 0.25]
        assert payload["mechanism_cost"] == pytest.approx(0.8535533905932737, abs=1e-15)
        assert payload["ratio"] == pytest.approx(1.2071067811865475, abs=1e-12)

    def test_degenerate_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--spec", "median", "--profile", "0,0", "--p", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["opt_cost"] == 0.0
        assert payload["ratio"] == 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--spec", "median", "--profile", "0,1", "--p", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert fields["spec"] == "median"
        assert fields["profile"] == "0.0;1.0"
        assert fields["distribution"] == "0.0:1.0"

    def test_profile_from_file(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0.0, 1.0\n2.5\n")
        code, out, _ = run_cli(
            capsys, ["eval", "--spec", "median", "--profile", str(path), "--p", "2"]
        )
        assert code == 0
        assert json.loads(out)["profile"] == [0.0, 1.0, 2.5]

    def test_out_file_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            ["eval", "--spec", "lrm", "--profile", "0,1", "--p", "2", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["spec"] == "lrm"

    def test_optimum_on_a_huge_span(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--spec", "opt", "--profile", "0,1e300", "--p", "3"]
        )
        assert code == 0
        assert json.loads(out)["opt_location"] == pytest.approx(5e299, rel=1e-12)

    def test_overflowing_cost_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, ["eval", "--spec", "median", "--profile=-1e308,1e308", "--p", "3"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_tied_subnormal_profile(self, capsys):
        # a midpoint taken as 0.5 * r + 0.5 * o rounds this tie to 0, and
        # pricing the ratio at unit span would divide by the zero span
        code, out, _ = run_cli(capsys, ["eval", "--spec", "lrm", "--profile=5e-324,5e-324", "--p", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == 1.0 and [a["location"] for a in payload["distribution"]] == [5e-324]


class TestSpcheck:
    def test_median_is_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spcheck", "--spec", "median", "--n", "3", "--trials", "30"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violation"] is False
        assert payload["gain"] <= payload["threshold"]

    def test_optimum_chasing_rule_is_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spcheck", "--spec", "opt", "--n", "2", "--p", "2", "--trials", "20"]
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["violation"] is True
        assert payload["gain"] >= 0.5 - 1e-6

    def test_boundary_lottery_is_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spcheck", "--spec", "threepoint:0.25", "--n", "2", "--trials", "40"]
        )
        assert code == 0

    def test_tol_override_suppresses_the_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spcheck", "--spec", "threepoint:0.2", "--n", "2", "--trials", "20", "--tol", "1"],
        )
        assert code == 0
        assert json.loads(out)["violation"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["spcheck", "--spec", "median", "--n", "3", "--trials", "5", "--format", "csv"],
        )
        assert code == 0
        fields = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert fields["violation"] == "false"
        assert ";" in fields["true_profile"]


class TestRatioCmd:
    def test_median_approaches_the_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--spec", "median", "--p", "2", "--n", "10", "--trials", "50"]
        )
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_median_is_optimal_at_p_one(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--spec", "median", "--p", "1", "--n", "9", "--trials", "30"]
        )
        assert code == 0
        assert json.loads(out)["ratio"] == 1.0

    def test_lrm_max_norm(self, capsys):
        code, out, _ = run_cli(
            capsys, ["ratio", "--spec", "lrm", "--p", "inf", "--n", "2", "--trials", "30"]
        )
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(1.5, abs=1e-12)


class TestThm3:
    def test_summary_csv(self, capsys):
        code, out, _ = run_cli(capsys, ["thm3", "--p", "3", "--k", "2"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["k"] == "2"
        assert abs(float(rows[0]["p_opt_bound"]) - 0.4823626) <= 1e-6

    def test_sweep_is_monotonic(self, capsys):
        code, out, _ = run_cli(capsys, ["thm3", "--p", "3", "--k", "2,5,10"])
        assert code == 0
        rows = parse_csv(out)
        p_opts = [float(r["p_opt_bound"]) for r in rows]
        bounds = [float(r["ratio_lower_bound"]) for r in rows]
        assert p_opts == sorted(p_opts, reverse=True)
        assert bounds == sorted(bounds)

    def test_root_table(self, capsys, tmp_path):
        roots_path = tmp_path / "roots.csv"
        code, _, _ = run_cli(
            capsys, ["thm3", "--p", "4", "--k", "2", "--roots", str(roots_path)]
        )
        assert code == 0
        rows = parse_csv(roots_path.read_text())
        assert [r["j"] for r in rows] == ["1", "2"]
        assert float(rows[0]["a_j"]) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-9)
        assert float(rows[0]["inv_a_j"]) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["thm3", "--p", "3", "--k", "2,3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [c["k"] for c in payload] == [2, 3]
        assert all(c["bound_checks_ok"] for c in payload)


class TestFrontier:
    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["frontier"])
        assert code == 0
        rows = {float(r["q_end"]): r for r in parse_csv(out)}
        assert len(rows) == 51
        boundary = rows[0.25]
        assert boundary["sp_verdict"] == "true"
        assert float(boundary["sp_margin"]) == 0.0
        assert float(boundary["ratio"]) == pytest.approx(1.2071067811865475, abs=1e-9)
        below = rows[0.2]
        assert below["sp_verdict"] == "false"
        assert float(below["sp_margin"]) == pytest.approx(-0.1, abs=1e-12)
        top = rows[0.5]
        assert top["sp_verdict"] == "true"
        assert float(top["ratio"]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_explicit_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["frontier", "--q-grid", "0.1,0.3"])
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["q_end"]) for r in rows] == [0.1, 0.3]
        assert [r["sp_verdict"] for r in rows] == ["false", "true"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--spec", "lrm", "--profile", "0,1", "--p", "2"],
            ["spcheck", "--spec", "median", "--n", "3", "--trials", "20"],
            ["ratio", "--spec", "median", "--p", "2", "--n", "4", "--trials", "25"],
            ["thm3", "--p", "3", "--k", "2,4"],
            ["frontier", "--q-grid", "0:0.5:11"],
        ],
    )
    def test_reruns_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == (0 if argv[0] != "spcheck" else code1)
        assert out1 == out2
        assert out1


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--spec", "bogus", "--profile", "0,1", "--p", "2"],
            ["eval", "--spec", "median", "--profile", "0,1", "--p", "0.5"],
            ["eval", "--spec", "median", "--profile", "3", "--p", "2"],
            ["eval", "--spec", "median", "--profile", "a,b", "--p", "2"],
            ["spcheck", "--spec", "median", "--n", "1"],
            ["spcheck", "--spec", "median", "--n", "3", "--trials", "0"],
            ["ratio", "--spec", "median", "--p", "2", "--n", "1"],
            ["thm3", "--p", "3.5", "--k", "2"],
            ["thm3", "--p", "2", "--k", "2"],
            ["thm3", "--p", "3", "--k", "0,2"],
            ["frontier", "--q-grid", "0:0.5:1"],
            ["frontier", "--q-grid", "0.6"],
            ["frontier", "--q-grid", "nope"],
            ["eval", "--spec", "lrm", "--profile", "0,1,2", "--p", "2"],
            ["spcheck", "--spec", "order:5", "--n", "3", "--trials", "2"],
            ["spcheck", "--spec", "median", "--n", "4", "--p", "150", "--trials", "2"],
            ["spcheck", "--spec", "opt", "--n", "2", "--p", "2", "--trials", "5", "--tol", "nan"],
            ["spcheck", "--spec", "median", "--n", "3", "--trials", "2", "--tol", "-1"],
            ["spcheck", "--spec", "opt", "--n", "2", "--p", "2", "--trials", "5", "--tol", "inf"],
            ["frontier", "--q-grid", "0.3,0.5", "--tol", "nan"],
            ["spcheck", "--spec", "median", "--n", "3", "--trials", "2", "--seed", "-1"],
            ["ratio", "--spec", "median", "--p", "2", "--n", "3", "--seed", "-1"],
            ["ratio", "--spec", "median", "--p", "2", "--n", "3", "--trials", "-3"],
            ["ratio", "--spec", "median", "--p", "2", "--n", "3", "--hill-iters", "-2"],
        ],
    )
    def test_exit_code_two(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["frontier", "--p", "2", "--q-grid", "0.1"], ["spcheck", "--spec", "median", "--n", "3", "--trials", "2"]],
        ids=["frontier", "spcheck"],
    )
    def test_an_overflowing_violation_threshold_exits_two(self, capsys, argv):
        # an infinite threshold passes every gain: frontier would call ThreePoint(0.1) strategyproof
        code, out, err = run_cli(capsys, argv + ["--tol", "1.7e308"])
        assert (code, out) == (2, "")
        assert err == "error: the violation threshold of LocationProfile([0.0, 1.0]) overflows\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--spec", "median", "--profile", "0,1", "--p", "2", "--out", "{missing}"],
            ["thm3", "--p", "3", "--k", "2", "--roots", "{missing}"],
            ["thm3", "--p", "3", "--k", "2", "--format", "json", "--out", "{missing}"],
        ],
        ids=["eval-out", "thm3-roots", "thm3-out"],
    )
    def test_a_file_that_cannot_be_opened_exits_two(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, [arg.format(missing=missing) for arg in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(missing) in err
        assert not missing.parent.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["spcheck", "--spec", "median", "--n", "2", "--p", "1e19", "--trials", "1"], 0),
            (["ratio", "--spec", "median", "--n", "2", "--p", "1e300", "--trials", "1", "--hill-iters", "1"], 0),
            (["spcheck", "--spec", "median", "--n", "4", "--p", "1e19", "--trials", "1"], 2),
            (["ratio", "--spec", "median", "--n", "4", "--p", "1e300", "--trials", "1", "--hill-iters", "1"], 2),
        ],
        ids=["spcheck-n2", "ratio-n2", "spcheck-n4", "ratio-n4"],
    )
    def test_an_integer_p_past_a_c_long_is_priced_or_refused_by_name(self, capsys, argv, code):
        # the rank roots' exponent p - 1 does not fit a C long
        got, out, err = run_cli(capsys, argv)
        assert got == code
        if code == 0:
            assert err == "" and json.loads(out)
        else:
            assert out == "" and err.startswith("error: rank root")

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestOutputBytes:
    """Exit code and stdout sha256 of the formats the golden set leaves out:
    CSV for the one-record commands (list fields joined by ';', the
    distribution as loc:prob atoms) and JSON for thm3 and frontier."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ["eval", "--spec", "lrm", "--profile", "0.1,0.7", "--p", "3", "--format", "csv"],
                0,
                "afcdfeaaf3d2c38e81bb6aafe13a252790b518a66e8f4bc12730fd353d0d2557",
            ),
            (
                ["spcheck", "--spec", "threepoint:0.2", "--n", "2", "--trials", "50", "--format", "csv"],
                3,
                "d1afc92a87ad8791622a7ebec5587a642d0e503faf763675e0a5dc42780dca71",
            ),
            (
                ["spcheck", "--spec", "median", "--n", "5", "--p", "1.5", "--trials", "10", "--format", "csv"],
                0,
                "6a40479aa7c5eef43c5da25b75a82d78b46f796ebdf2b9308d5c81c6d23d23a4",
            ),
            # the optimum's best response by the inverse map at a non-closed p:
            # report 10 on [0, 0, 0, 1, 1], past the scan's window
            (
                ["spcheck", "--spec", "opt", "--n", "5", "--p", "1.5", "--trials", "3", "--format", "csv"],
                3,
                "44bf5e2efa97488a9d171aa52271dc6f5b802de38e1bfe00235f1d8520ac6aa1",
            ),
            (
                ["spcheck", "--spec", "opt", "--n", "9", "--p", "5", "--trials", "2", "--format", "csv"],
                3,
                "a3572b8a5bfac12b238998a971588c1e4a9db1622dd1987599ac2ba6f4e48544",
            ),
            (
                ["ratio", "--spec", "median", "--p", "3", "--n", "6", "--trials", "20", "--hill-iters", "20",
                 "--format", "csv"],
                0,
                "08d952290c6df8f94ff7a9c65aeda33a5931db504f0b3085d79d8df32606ce0e",
            ),
            (
                ["thm3", "--p", "4", "--k", "3,10", "--format", "json"],
                0,
                "5a48bf3291e1ee61a58b2b836baea55ef91ea94442855f30815e66b77d0745f5",
            ),
            (
                ["frontier", "--q-grid", "0,0.1,0.25,0.5", "--p", "3", "--format", "json"],
                0,
                "7670a8b3746c490e5ade8832969759df1efcc20ef75f1e01df1b8b7c1745509b",
            ),
        ],
    )
    def test_stdout_is_pinned(self, capsys, argv, code, digest):
        got, out, err = run_cli(capsys, argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestConsoleEntry:
    def test_module_invocation(self):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lpfacility.cli", "eval", "--spec", "median",
             "--profile", "0,1", "--p", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["opt_location"] == 0.5


class TestRenderers:
    def test_json_is_deterministic_and_parseable(self):
        payload = {"b": 1.5, "a": [1.0, 2.0], "flag": True, "edge": math.inf}
        text = render_json(payload)
        assert text.index('"b"') < text.index('"a"')
        assert '"inf"' in text
        again = json.loads(text.replace('"inf"', "1e999"))
        assert again["b"] == 1.5

    def test_json_float_rendering_round_trips(self):
        value = 0.8535533905932737
        assert json.loads(render_json({"v": value}))["v"] == value

    def test_csv_booleans_and_floats(self):
        text = render_csv(["x", "ok"], [[0.25, True], [1.0 / 3.0, False]])
        lines = text.splitlines()
        assert lines[0] == "x,ok"
        assert lines[1] == "0.25,true"
        assert lines[2].endswith(",false")
        assert float(lines[2].split(",")[0]) == 1.0 / 3.0
