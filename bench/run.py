"""Layered benchmark for lpfacility.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of sp-closed, sp-opt, ratio-search, certificate, or `all`.
Run it from anywhere inside a source checkout; it imports the library from
the checkout's `src/` and writes only under `bench/out/`.

--trace 0 measures the end-to-end metrics with tracing off. Every time is
wall seconds scaled to a fixed host speed (see calibration.py); the
unscaled figures are printed on a comment line before the result.

  verdict_s.p50, verdict_s.p90  seconds per verdict (one call to sp_scan,
                                worst_ratio_search or
                                mixture_bound_certificate), median and 90th
                                percentile over the workload's verdict
                                shapes, each timed by its fastest repeat
                                across the run's cycles (see
                                `fastest_repeats`)
  units_per_s                   work units of one cycle per second, at the
                                same per-shape times
  setup_s                       a fresh interpreter's `import lpfacility` plus
                                the workload's first verdict, the median of
                                launches spread over the run
  peak_rss_mb                   peak resident memory of the measuring process
  pass_rate                     verdicts that returned and passed their output
                                check, over verdicts attempted

--trace 1 replays one cycle through each layer's public calls under spans
and prints the per-layer metrics, times the CLI subcommands as
subprocesses, runs the workload's ROADMAP baseline call once, and writes
the spans and a report to `bench/out/`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
verdict passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import quiet_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sp-closed", "sp-opt", "ratio-search", "certificate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI_LAUNCHES = 3
TIMEOUT_S = 170

CLI = ["-m", "lpfacility.cli"]
CLI_COMMANDS = {
    "import": ["-c", "import lpfacility"],
    "eval": [*CLI, "eval", "--spec", "lrm", "--profile", "0,1", "--p", "2"],
    "spcheck": [*CLI, "spcheck", "--spec", "median", "--n", "4", "--p", "3", "--trials", "20"],
    "ratio": [*CLI, "ratio", "--spec", "median", "--p", "3", "--n", "6",
              "--trials", "20", "--hill-iters", "20"],
    "thm3": [*CLI, "thm3", "--p", "3", "--k", "10,100,1000"],
    "frontier": [*CLI, "frontier", "--q-grid", "0:0.5:11", "--p", "2"],
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env["PYTHONPATH"]]) if env.get("PYTHONPATH") else str(SRC)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def launch(args: list[str], timeout: float = TIMEOUT_S) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds and result of one fresh interpreter running args."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, done


def worker(*args: str, timeout: float = TIMEOUT_S) -> dict:
    """The JSON object a worker prints last."""
    _, done = launch([str(BENCH / "worker.py"), *args], timeout)
    if done.returncode != 0 and not done.stdout.strip():
        raise RuntimeError(f"worker {args[0]} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return f"unknown ({ref})"


def provenance(workload: str, args) -> dict:
    import numpy
    from workloads import sizes  # imported late: it imports the library

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": {key: [("inf" if x == math.inf else x) for x in value] if isinstance(value, tuple) else value
                  for key, value in sizes(workload, args.smoke).items()},
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pools": {name: "1" for name in THREAD_VARS},
        "client": "one closed-loop client, one process",
    }


def fastest_repeats(cycles: list[dict], quiet: float | None = None) -> tuple[list[float], list[int]]:
    """Each verdict shape's fastest repeat across the run's cycles, and its units.

    Other tenants of the host slow this machine by up to a factor of two,
    in bursts of milliseconds and in drifts over minutes. Every cycle repeats
    each verdict shape once with the same amount of work, so a shape's
    fastest repeat is its least disturbed time, and scaling each repeat by
    the calibration kernel's quiet time over its time in the same cycle
    (see calibration.py) takes out the drift; with `quiet` None the times
    are left unscaled. Failed verdicts are never counted.
    """
    times, units = [], []
    for shape in range(len(cycles[0]["times"])):
        repeats = [c["times"][shape] * (quiet / c["ref_s"] if quiet else 1.0)
                   for c in cycles if c["times"][shape] is not None]
        if repeats:
            times.append(min(repeats))
            units.append(cycles[0]["units"][shape])
    return times, units


def verdict_metrics(times: list[float], units: list[int]) -> dict:
    return {
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0],
        "units_per_s": sum(units) / sum(times),
    }


def end_to_end(workload: str, args) -> tuple[dict, int, list]:
    flag = ["--smoke"] if args.smoke else []
    worker("setup", workload, str(args.seed), *flag)  # warms the bytecode and file caches
    loop = worker("loop", workload, str(args.seed), str(args.seconds), *flag,
                     timeout=TIMEOUT_S + args.seconds)
    cycles = loop["cycles"]
    quiet = quiet_s(workload)
    metrics = verdict_metrics(*fastest_repeats(cycles, quiet))
    raw = verdict_metrics(*fastest_repeats(cycles))
    p90 = metrics["verdict_s.p90"]
    # each set-up launch runs and checks one verdict too
    attempted = sum(len(c["times"]) for c in cycles) + len(loop["setup_s"])
    failed = len(loop["failures"])
    setup = [s["s"] * quiet / cycles[s["cycle"]]["ref_s"] for s in loop["setup_s"]]
    metrics.update({
        "setup_s": statistics.median(setup),
        "peak_rss_mb": loop["peak_rss_mb"],
        "pass_rate": (attempted - failed) / attempted,
    })
    scaled = [t * quiet / c["ref_s"] for c in cycles for t in c["times"] if t is not None]
    refs = [c["ref_s"] for c in cycles]
    print(f"# {workload}: {len(cycles)} cycles of {len(cycles[0]['times'])} verdict shapes in "
          f"{loop['elapsed_s']:.1f} s; {len(scaled)} verdicts timed, {sum(t > p90 for t in scaled)} "
          f"beyond p90; calibration kernel {min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms "
          f"(quiet {quiet * 1e3:g} ms)")
    print(f"# {workload} unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f", setup_s {statistics.median(s['s'] for s in loop['setup_s']):.6g}")
    return metrics, attempted, loop["failures"]


def cli_timings(smoke: bool) -> tuple[dict, list]:
    metrics, runs = {}, []
    launches = 1 if smoke else CLI_LAUNCHES
    for name, argv in CLI_COMMANDS.items():
        launch(argv)  # warm
        samples = [launch(argv) for _ in range(launches)]
        metrics[f"cli.{name}.s"] = statistics.median(s for s, _ in samples)
        runs.append({
            "command": ["python3", *argv],
            "exit_codes": [done.returncode for _, done in samples],
            "stdout_sha256": sorted({hashlib.sha256(done.stdout.encode()).hexdigest() for _, done in samples}),
        })
    metrics["cli.errors"] = sum(code != 0 for run in runs for code in run["exit_codes"])
    return metrics, runs


def traced(workload: str, args, prov: dict) -> tuple[dict, int, list]:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{args.seed}"
    flag = ["--smoke"] if args.smoke else []
    result = worker("trace", workload, str(args.seed), str(stem) + ".spans.json", *flag)
    cli_metrics, cli_runs = cli_timings(args.smoke)
    layer = dict(result["metrics"], **cli_metrics)
    base = result["baseline"]
    print(f"# {workload}: {result['spans']} spans; baseline {base['call']} took "
          f"{base['seconds']:.3f} s (ROADMAP: {base['roadmap_seconds']} s)")
    report = {"provenance": prov, "metrics": layer, "baseline": base, "cli": cli_runs,
              "failures": result["failures"]}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    return layer, result["attempted"], result["failures"]


def measure(workload: str, args) -> tuple[dict, int, list]:
    prov = provenance(workload, args)
    print(json.dumps({"provenance": prov}))
    if args.trace:
        return traced(workload, args, prov)
    return end_to_end(workload, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "lpfacility" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failures = {}, 0, []
    for name in names:
        found, tried, failed = measure(name, args)
        if set(found) != set(units):
            raise RuntimeError(f"metrics {sorted(set(found) ^ set(units))} disagree with BENCHMARK.json")
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + key: (value, units[key]) for key, value in found.items()})
        attempted += tried
        failures += failed
        for key, value in found.items():
            print(f"{name:>13}  {key:<36} {value:>16.6g} {units[key]}")
    for failure in failures:
        print(f"FAILED {json.dumps(failure)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
