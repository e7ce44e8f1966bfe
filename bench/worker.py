"""Benchmark worker: one fresh process per measurement.

    python3 bench/worker.py setup WORKLOAD SEED [--smoke]
    python3 bench/worker.py loop  WORKLOAD SEED SECONDS [--smoke]
    python3 bench/worker.py trace WORKLOAD SEED OUT_PATH [--smoke]

`run.py` starts it with `src/` on PYTHONPATH and numeric thread pools pinned
to one thread, and reads the JSON object it prints last. Every mode is one
client issuing verdicts one after another (a closed loop).
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

from lpfacility import Median, Optimal, mixture_bound_certificate, sp_scan, worst_ratio_search
from calibration import time_kernel
from workloads import CheckState, build_cycle, check

SETUP_LAUNCHES = 7
REFERENCE_GAP_S = 0.02

# The ROADMAP's re-anchor timings for the library calls, one per workload.
BASELINE = {
    "sp-closed": ("sp_scan(Median(), 3, n=8, trials=100)", 0.31,
                  lambda: sp_scan(Median(), 3, n=8, trials=100, seed=42)),
    "sp-opt": ("sp_scan(Optimal(), 3, n=8, trials=20)", 4.9,
               lambda: sp_scan(Optimal(), 3, n=8, trials=20, seed=42)),
    "ratio-search": ("worst_ratio_search(Median(), 3, n=10)", 0.40,
                     lambda: worst_ratio_search(Median(), 3, n=10)),
    "certificate": ("mixture_bound_certificate(3, 10_000)", 0.09,
                    lambda: mixture_bound_certificate(3, 10_000)),
}


def _attempt(verdict, state: CheckState):
    """(result or None, seconds, problems) for one untraced verdict."""
    start = time.perf_counter()
    try:
        result = verdict.call()
    except Exception as exc:  # a raising verdict is a failed one; the run goes on
        where = traceback.format_exc().strip().splitlines()[-3:-1]
        return None, time.perf_counter() - start, [f"raised {exc!r}", *where]
    seconds = time.perf_counter() - start
    return result, seconds, check(verdict, result, state)


def setup(workload: str, seed: int, smoke: bool) -> dict:
    verdict = build_cycle(workload, np.random.default_rng(seed), smoke)[0]
    result, _, problems = _attempt(verdict, CheckState())
    return {"ok": result is not None and not problems, "problems": problems}


def loop(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Whole cycles until another one would overrun `seconds` (at least one).

    Each cycle draws fresh inputs for the same verdict shapes. Within a
    cycle the workload's calibration kernel is timed at its start and end
    and after any verdict that ends REFERENCE_GAP_S or more after the last
    timing; the cycle's `ref_s` is the kernel's fastest time among them. Between
    cycles a fresh interpreter runs the set-up measurement, about
    SETUP_LAUNCHES times spread evenly over the run.
    """
    rng = np.random.default_rng(seed)
    state = CheckState()
    setup_argv = [sys.executable, __file__, "setup", workload, str(seed)] + (["--smoke"] if smoke else [])
    _attempt(build_cycle(workload, np.random.default_rng(seed), smoke)[0], CheckState())
    time_kernel(workload)
    gc.collect()
    cycles, failures, setup_s = [], [], []
    start = time.perf_counter()
    while True:
        cycle = build_cycle(workload, rng, smoke)
        times, refs = [], [time_kernel(workload)]
        last_ref = time.perf_counter()
        for verdict in cycle:
            _, spent, problems = _attempt(verdict, state)
            if problems:
                failures.append({"cycle": len(cycles), "verdict": verdict.label(),
                                 "seed": verdict.seed, "problems": problems})
            times.append(None if problems else spent)
            if time.perf_counter() - last_ref >= REFERENCE_GAP_S:
                refs.append(time_kernel(workload))
                last_ref = time.perf_counter()
        refs.append(time_kernel(workload))
        cycles.append({"times": times, "units": [v.units() for v in cycle], "ref_s": min(refs)})
        if len(setup_s) < SETUP_LAUNCHES * (time.perf_counter() - start) / seconds:
            launched = time.perf_counter()
            done = subprocess.run(setup_argv, capture_output=True, text=True, timeout=60)
            setup_s.append({"s": time.perf_counter() - launched, "cycle": len(cycles) - 1})
            if done.returncode != 0:
                failures.append({"cycle": len(cycles) - 1, "verdict": "setup",
                                 "problems": [(done.stdout.strip() or done.stderr)[-500:]]})
        elapsed = time.perf_counter() - start
        if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            break
    return {
        "cycles": cycles,
        "failures": failures,
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload: str, seed: int, out_path: str, smoke: bool) -> dict:
    """One cycle, untraced and then replayed under spans."""
    from tracing import Tracer, layer_metrics, render, replay

    rng = np.random.default_rng(seed)
    _attempt(build_cycle(workload, np.random.default_rng(seed), smoke)[0], CheckState())
    state = CheckState()
    tracer = Tracer()
    roots_memo: dict = {}
    failures = []
    units = 0
    untraced_s = traced_s = 0.0
    cycle = build_cycle(workload, rng, smoke)
    for vid, verdict in enumerate(cycle):
        result, spent, problems = _attempt(verdict, state)
        tracer.verdict = vid
        start = time.perf_counter()
        try:
            with tracer.span("verdict"):
                replayed = replay(tracer, verdict, roots_memo)
                render(tracer, replayed)
        except Exception as exc:
            problems.append(f"replay raised {exc!r}")
            replayed = None
        traced = time.perf_counter() - start
        if result is not None and replayed is not None and replayed.as_dict() != result.as_dict():
            problems.append("replay differs from the untraced verdict")
        if problems:
            failures.append({"verdict": verdict.label(), "seed": verdict.seed, "problems": problems})
            continue
        units += verdict.units()
        untraced_s += spent
        traced_s += traced
    rows, expected = tracer.counts["deviation.rows"], sum(v.units() for v in cycle)
    if not failures and workload.startswith("sp-") and rows != expected:
        failures.append({"verdict": "cycle", "problems": [f"replay scanned {rows} rows, expected {expected}"]})
    metrics = layer_metrics(tracer)
    untraced_rate = units / untraced_s if untraced_s else 0.0
    traced_rate = units / traced_s if traced_s else 0.0
    metrics["trace.units_per_s.untraced"] = untraced_rate
    metrics["trace.units_per_s.traced"] = traced_rate
    metrics["trace.overhead_units_per_s"] = untraced_rate - traced_rate

    label, roadmap_s, call = BASELINE[workload]
    start = time.perf_counter()
    call()
    baseline = {"call": label, "seconds": time.perf_counter() - start, "roadmap_seconds": roadmap_s}

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "span_fields": ["name", "start", "end", "parent", "verdict", "raised"],
            "verdicts": [v.label() + f" seed={v.seed}" for v in cycle],
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }, fh)
    return {
        "attempted": len(cycle),
        "failures": failures,
        "metrics": metrics,
        "spans": len(tracer.spans),
        "baseline": baseline,
    }


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    mode, workload, seed = args[0], args[1], int(args[2])
    try:
        if mode == "setup":
            out = setup(workload, seed, smoke)
        elif mode == "loop":
            out = loop(workload, seed, float(args[3]), smoke)
        elif mode == "trace":
            out = trace(workload, seed, args[3], smoke)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0 if mode != "setup" or out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
