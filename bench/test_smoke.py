"""Self-test of the benchmark at tiny sizes (kept out of the Tier-1 suite).

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from lpfacility import (  # noqa: E402
    LRM, DeviationReport, LocationProfile, Median, RatioReport, ThreePoint, mixture_bound_certificate,
)
from workloads import WORKLOADS, CheckState, Verdict, build_cycle, check  # noqa: E402
from worker import _attempt  # noqa: E402

import numpy as np  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_every_workload(trace, kind):
    done = _run("--workload", "all", "--smoke", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}/{m}" for w in WORKLOADS for m in _declared(kind)}
    assert set(result["metrics"]) == expected


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "sp-closed", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _sp_report(gain):
    profile = LocationProfile([0.0, 1.0])
    return DeviationReport(agent=1, true_profile=profile, best_misreport=0.0,
                           truthful_cost=1.0, deviated_cost=1.0 - gain, gain=gain)


def test_checks_flag_wrong_outputs():
    state = CheckState()
    sp = Verdict("sp", Median(), 2.0, 2, expect="sp")
    manipulable = Verdict("sp", ThreePoint(0.1), 2.0, 2, expect="manipulable")
    assert check(sp, _sp_report(0.0), state) == []
    assert check(sp, _sp_report(1e-6), state)
    assert check(manipulable, _sp_report(0.0), state)
    assert check(manipulable, _sp_report(-1e-3), state)

    ratio = Verdict("ratio", LRM(), 3.0, 2)
    profile = LocationProfile([0.0, 1.0])
    bound = 0.5 * (1.0 + 2.0 ** (2.0 / 3.0))
    assert check(ratio, RatioReport(LRM(), profile, 3.0, bound, 1.0, bound), state) == []
    assert check(ratio, RatioReport(LRM(), profile, 3.0, 1.6, 1.0, 1.6), state)
    assert check(ratio, RatioReport(LRM(), profile, 3.0, 0.9, 1.0, 0.9), state)


def test_certificate_checks():
    small, large = Verdict("cert", None, 3.0, 10), Verdict("cert", None, 3.0, 100)
    cert10, cert100 = mixture_bound_certificate(3, 10), mixture_bound_certificate(3, 100)
    state = CheckState()
    assert check(large, cert100, state) == []
    assert check(small, cert10, state) == []
    assert check(small, cert10, state) == []
    # p_opt_bound must fall as k grows, whatever order the verdicts come in
    state = CheckState()
    check(small, cert10, state)
    assert check(large, replace(cert100, p_opt_bound=cert10.p_opt_bound + 0.1), state)
    assert check(small, replace(cert10, roots=cert10.roots * (1.0 + 1e-6)), CheckState())
    assert check(small, replace(cert10, opt_residuals=cert10.opt_residuals + 1.0), CheckState())
    assert check(small, replace(cert10, bound_checks=((5, False),)), CheckState())


def test_raising_verdict_counts_as_failed():
    result, _, problems = _attempt(Verdict("sp", LRM(), 2.0, 3, trials=1, seed=1), CheckState())
    assert result is None and problems and problems[0].startswith("raised")


def test_cycles_repeat_for_a_seed_and_keep_their_shape():
    for workload in WORKLOADS:
        first = build_cycle(workload, np.random.default_rng(5))
        again = build_cycle(workload, np.random.default_rng(5))
        other = build_cycle(workload, np.random.default_rng(6))
        assert first == again
        assert [v.units() for v in first] == [v.units() for v in other]
        assert [(v.kind, v.n, v.p, v.trials) for v in first] == [(v.kind, v.n, v.p, v.trials) for v in other]


def test_fastest_repeats_scale_each_cycle_by_its_calibration():
    from run import fastest_repeats

    # the same verdict shape, once on a host at half speed and once at full
    cycles = [
        {"times": [0.2, None], "units": [3, 5], "ref_s": 2e-3},
        {"times": [0.15, 0.4], "units": [3, 5], "ref_s": 1e-3},
    ]
    assert fastest_repeats(cycles, 1e-3) == ([0.1, 0.4], [3, 5])
    assert fastest_repeats(cycles) == ([0.15, 0.4], [3, 5])
