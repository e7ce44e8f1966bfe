"""Traced replay: spans around the benchmark's calls into each layer.

The replay recomputes every verdict from the layers' public functions, with
a span around each call, and must return a verdict equal to the untraced
one (equal `as_dict()`), so the per-layer figures are known to cover the
same work. Layers are named after the modules: core, mechanisms,
optimizer, deviation, ratio, certificates, reports, cli.

Two figures cannot be read off a single call and are differences instead:
the golden-section polish is `best_deviation` at the default config minus
`best_deviation` with `refine_iters=0`, and a certificate's verification is
its time minus the time of its root sweep.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from lpfacility import (
    LocationProfile,
    Mixture,
    Optimal,
    RatioReport,
    SearchConfig,
    adversarial_roots,
    best_deviation,
    deviation_cost_curve,
    expected_social_cost,
    misreport_candidates,
    mixture_bound_certificate,
    optimal_location,
    run,
)
from lpfacility.verification import render_json

from workloads import four_block_count

LAYERS = ("core", "mechanisms", "optimizer", "deviation", "ratio", "certificates", "reports", "cli")
GRID_ONLY = SearchConfig(refine_iters=0)


class Tracer:
    """In-memory spans: [name, start, end, parent index, verdict id, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.verdict = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                  self.verdict, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            seconds[span[0]] += own
        return {name: (calls[name], seconds[name]) for name in calls}

    def errors(self) -> Counter:
        return Counter(span[0].split(".")[0] for span in self.spans if span[5])


def replay(t: Tracer, verdict, roots_memo: dict):
    """The verdict recomputed through traced public calls."""
    if verdict.kind == "sp":
        return _replay_sp(t, verdict, roots_memo)
    if verdict.kind == "ratio":
        return _replay_ratio(t, verdict, roots_memo)
    return _replay_certificate(t, verdict)


def _roots(t: Tracer, memo: dict, k: int, p: int) -> list[float]:
    # the library keeps these in an LRU cache, so the replay computes each
    # (k, p) once per process too
    if (k, p) not in memo:
        with t.span("optimizer.adversarial_roots"):
            memo[k, p] = adversarial_roots(k, p).tolist()
        t.count("optimizer.roots", k)
    return memo[k, p]


def _profile(t: Tracer, values) -> LocationProfile:
    with t.span("core.profile"):
        return LocationProfile(values)


def _four_block_profiles(t: Tracer, memo: dict, n: int, p: float) -> list[LocationProfile]:
    if not four_block_count(n, p):
        return []
    k = n // 2
    return [
        _profile(t, np.repeat((-a, 0.0, 1.0, 1.0 + a), (j, k - j, k - j + 1, j - 1)))
        for j, a in enumerate(_roots(t, memo, k, int(p)), start=1)
    ]


def _batched_optimum(spec, p: float) -> bool:
    """Whether the deviation curve solves the optimum by row bisection."""
    if isinstance(spec, Optimal) or (isinstance(spec, Mixture) and spec.opt_weight > 0.0):
        q = p if spec.p is None else spec.p
        return q not in (1.0, 2.0) and not math.isinf(q)
    return False


def _replay_sp(t: Tracer, v, memo: dict):
    spec, p, n = v.spec, v.p, v.n
    profiles = []
    if v.structured:
        profiles.append(_profile(t, [0.0] * (n - n // 2) + [1.0] * (n // 2)))
        profiles += _four_block_profiles(t, memo, n, p)
    rng = np.random.default_rng(v.seed)
    profiles += [_profile(t, rng.uniform(0.0, 1.0, size=n)) for _ in range(v.trials)]
    batched = _batched_optimum(spec, p)
    worst, worst_key = None, None
    for prof in profiles:
        for agent in range(1, n + 1):
            with t.span("deviation.best_deviation"):
                report = best_deviation(spec, prof, p, agent)
            with t.span("deviation.best_deviation_grid"):
                grid = best_deviation(spec, prof, p, agent, GRID_ONLY)
            with t.span("mechanisms.run"):
                run(spec, prof, p)
            with t.span("deviation.misreport_candidates"):
                candidates = misreport_candidates(prof, agent)
            with t.span("deviation.cost_curve"):
                deviation_cost_curve(spec, prof, p, agent, candidates)
            t.count("deviation.rows")
            t.count("deviation.candidates", candidates.size)
            if batched:
                t.count("optimizer.rows_solved", candidates.size)
            if report.deviated_cost < grid.deviated_cost:
                t.count("deviation.polish.wins")
            key = (report.gain, tuple(prof.values.tolist()))
            if worst is None or key > worst_key:
                worst, worst_key = report, key
    return worst


def _traced_ratio(t: Tracer, spec, prof: LocationProfile, p: float) -> RatioReport:
    with t.span("ratio.ratio"):
        with t.span("mechanisms.run"):
            dist = run(spec, prof, p)
        with t.span("core.expected_social_cost"):
            mech = expected_social_cost(prof, dist, p)
        with t.span("optimizer.optimal_location"):
            opt = optimal_location(prof, p).cost
        if opt == 0.0:
            value = 1.0 if mech == 0.0 else math.inf
        else:
            value = mech / opt
        t.count("ratio.profiles_scored")
        return RatioReport(spec, prof, p, mech, opt, value)


def _replay_ratio(t: Tracer, v, memo: dict):
    spec, p, n = v.spec, v.p, v.n
    rng = np.random.default_rng(v.seed)
    families = [_profile(t, [0.0] * (n - m) + [1.0] * m) for m in range(1, n)]
    families += _four_block_profiles(t, memo, n, p)
    best = None
    for prof in families + [_profile(t, rng.uniform(0.0, 1.0, size=n)) for _ in range(v.trials)]:
        report = _traced_ratio(t, spec, prof, p)
        if report.opt_cost > 0.0 and (best is None or report.ratio > best.ratio):
            best = report
    current = best.profile.values.copy()
    span = max(best.profile.span, 1.0)
    for it in range(v.hill_iters):
        step = span * 0.5 ** (1.0 + 4.0 * it / max(v.hill_iters, 1))
        proposal = current.copy()
        proposal[it % n] += step * float(rng.uniform(-1.0, 1.0))
        report = _traced_ratio(t, spec, _profile(t, proposal), p)
        t.count("ratio.hill.steps")
        if report.opt_cost > 0.0 and report.ratio > best.ratio:
            best, current = report, proposal
            t.count("ratio.hill.accepted")
    return best


def _replay_certificate(t: Tracer, v):
    p, k = int(v.p), v.n
    with t.span("certificates.certificate"):
        cert = mixture_bound_certificate(p, k)
    with t.span("optimizer.adversarial_roots"):
        roots = adversarial_roots(k, p)
    t.count("optimizer.roots", k)
    if not np.array_equal(roots, cert.roots):
        raise AssertionError(f"adversarial_roots({k}, {p}) differs from the certificate's roots")
    return cert


def render(t: Tracer, result) -> str:
    with t.span("reports.render"):
        return render_json(result.as_dict())


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run (zero where a layer is idle)."""
    named = t.by_name()
    calls = lambda name: named.get(name, (0, 0.0))[0]
    secs = lambda name: named.get(name, (0, 0.0))[1]
    rows = t.counts["deviation.rows"]
    steps = t.counts["ratio.hill.steps"]
    out = {
        "deviation.rows": rows,
        "deviation.candidates": t.counts["deviation.candidates"],
        "deviation.best_deviation.calls": calls("deviation.best_deviation"),
        "deviation.best_deviation.s": secs("deviation.best_deviation"),
        "deviation.polish.s": secs("deviation.best_deviation") - secs("deviation.best_deviation_grid"),
        "deviation.polish.win_ratio": t.counts["deviation.polish.wins"] / rows if rows else 0.0,
        "deviation.misreport_candidates.s": secs("deviation.misreport_candidates"),
        "deviation.cost_curve.s": secs("deviation.cost_curve"),
        "mechanisms.run.calls": calls("mechanisms.run"),
        "mechanisms.run.s": secs("mechanisms.run"),
        "optimizer.optimal_location.calls": calls("optimizer.optimal_location"),
        "optimizer.optimal_location.s": secs("optimizer.optimal_location"),
        "optimizer.rows_solved": t.counts["optimizer.rows_solved"],
        "optimizer.adversarial_roots.calls": calls("optimizer.adversarial_roots"),
        "optimizer.adversarial_roots.s": secs("optimizer.adversarial_roots"),
        "optimizer.roots": t.counts["optimizer.roots"],
        "certificates.certificate.calls": calls("certificates.certificate"),
        "certificates.certificate.s": secs("certificates.certificate"),
        # in the certificate workload every root sweep is a certificate's own
        "certificates.verify.s": (
            secs("certificates.certificate") - secs("optimizer.adversarial_roots")
            if calls("certificates.certificate") else 0.0
        ),
        "ratio.ratio.calls": calls("ratio.ratio"),
        "ratio.ratio.s": secs("ratio.ratio"),
        "ratio.profiles_scored": t.counts["ratio.profiles_scored"],
        "ratio.hill.accept_ratio": t.counts["ratio.hill.accepted"] / steps if steps else 0.0,
        "core.profile.calls": calls("core.profile"),
        "core.profile.s": secs("core.profile"),
        "core.expected_social_cost.calls": calls("core.expected_social_cost"),
        "core.expected_social_cost.s": secs("core.expected_social_cost"),
        "reports.render.s": secs("reports.render"),
    }
    errors = t.errors()
    out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    return out
