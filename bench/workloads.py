"""Verdict schedules, work units and output checks for the benchmark.

A *verdict* is one call to `sp_scan`, `worst_ratio_search` or
`mixture_bound_certificate`. Each workload is a fixed cycle of verdict
shapes (rule, n, p, sizes); the run seed only draws what a shape leaves
open: the scan and search seeds, ThreePoint's q, the rank or dictator of a
rank rule and a mixture's optimum weight. None of those draws changes how
much work a verdict does, so every cycle costs the same at every seed and
whole cycles are comparable across runs.

The library receives only the generated specs and sizes; seeds reach it as
the scan and search seeds it already takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lpfacility import (
    LRM,
    Dictator,
    Median,
    Mirror,
    Mixture,
    Optimal,
    OrderStatistic,
    RatioSearchConfig,
    Symmetrized,
    ThreePoint,
    format_mechanism,
    mixture_bound_certificate,
    sp_scan,
    violation_threshold,
    worst_ratio_search,
)

WORKLOADS = ("sp-closed", "sp-opt", "ratio-search", "certificate")

# The exponents of the acceptance test's misreport scans, ordered so the
# first shape of sp-closed (also the shape the set-up measurement runs) is an
# even n at integer p >= 3 and so fills the rank-root cache.
P_GRID = (3.0, 1.0, 1.5, 2.0, 5.0, 8.0, math.inf)
SP_GAIN_TOL = 1e-9  # the acceptance test's bound on an SP rule's gain
RATIO_TOL = 1e-12
ROOT_REL_TOL = 1e-9

FULL = {
    "sp-closed": {"n": tuple(range(12, 1, -1)), "p": P_GRID, "trials": 1},
    "sp-opt": {"n": (3, 4, 5, 6), "p": (1.5, 3.0, 5.0), "trials": 1},
    "ratio-search": {
        "median_n": tuple(range(3, 11)),
        "mixture_n": (3, 4, 5, 6),
        "p": (1.5, 3.0, 5.0, math.inf),
        "trials": 10,
        "hill_iters": 10,
    },
    "certificate": {"p": (3, 4, 5, 6, 7, 8), "k": (10, 100, 1000, 10_000)},
}
SMOKE = {
    "sp-closed": {"n": (4, 2), "p": (3.0, math.inf), "trials": 1},
    "sp-opt": {"n": (3,), "p": (3.0,), "trials": 1},
    "ratio-search": {
        "median_n": (4,),
        "mixture_n": (3,),
        "p": (3.0, math.inf),
        "trials": 2,
        "hill_iters": 4,
    },
    "certificate": {"p": (3, 4), "k": (10, 100)},
}


def sizes(workload: str, smoke: bool) -> dict:
    return (SMOKE if smoke else FULL)[workload]


@dataclass(frozen=True)
class Verdict:
    """One library call with its inputs fixed.

    kind is "sp", "ratio" or "cert". For "cert", n holds k. expect is
    "sp" or "manipulable" when the rule's class is known, else None.
    """

    kind: str
    spec: object
    p: float
    n: int
    trials: int = 0
    hill_iters: int = 0
    seed: int = 0
    structured: bool = True
    expect: str | None = None

    def call(self):
        if self.kind == "sp":
            return sp_scan(
                self.spec, self.p, self.n, self.trials, self.seed,
                include_structured=self.structured,
            )
        if self.kind == "ratio":
            cfg = RatioSearchConfig(trials=self.trials, hill_iters=self.hill_iters, seed=self.seed)
            return worst_ratio_search(self.spec, self.p, self.n, cfg)
        return mixture_bound_certificate(int(self.p), self.n)

    def units(self) -> int:
        """Work units: (profile, agent) rows, profiles scored, or roots."""
        n, p = self.n, self.p
        if self.kind == "sp":
            structured = (1 + four_block_count(n, p)) if self.structured else 0
            return (structured + self.trials) * n
        if self.kind == "ratio":
            return (n - 1) + four_block_count(n, p) + self.trials + self.hill_iters
        return n

    def label(self) -> str:
        spec = "" if self.spec is None else format_mechanism(self.spec) + " "
        size = "k" if self.kind == "cert" else "n"
        return f"{self.kind} {spec}p={p_text(self.p)} {size}={self.n}"


def p_text(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def four_block_count(n: int, p: float) -> int:
    """Number of adversarial four-block profiles the searches add for (n, p)."""
    if n % 2 == 0 and not math.isinf(p) and float(p).is_integer() and p >= 3:
        return n // 2
    return 0


def build_cycle(workload: str, rng: np.random.Generator, smoke: bool = False) -> list[Verdict]:
    """One cycle of the workload's verdicts; draws from rng, never sizes."""
    cfg = sizes(workload, smoke)
    seed = lambda: int(rng.integers(0, 2**31))
    out = []
    if workload == "sp-closed":
        sp = lambda spec, n, p, expect: out.append(
            Verdict("sp", spec, p, n, cfg["trials"], seed=seed(), expect=expect)
        )
        for n in cfg["n"]:
            for p in cfg["p"]:
                sp(Median(), n, p, "sp")
                sp(OrderStatistic(int(rng.integers(1, n + 1))), n, p, "sp")
                sp(Dictator(int(rng.integers(1, n + 1))), n, p, "sp")
            for p in (1.0, 2.0, math.inf):
                sp(Optimal(), n, p, "sp" if p == 1.0 else "manipulable")
        for p in cfg["p"]:
            q = _three_point_q(rng)
            q_class = "sp" if q >= 0.25 else "manipulable"
            sp(LRM(), 2, p, "sp")
            sp(ThreePoint(q), 2, p, q_class)
            # on two agents mirroring dictator 1 gives dictator 2, and
            # ThreePoint is already symmetric, so both keep their class
            sp(Mirror(Dictator(1)), 2, p, "sp")
            sp(Symmetrized(ThreePoint(q)), 2, p, q_class)
    elif workload == "sp-opt":
        # random profiles only: on them the optimum at p in (1, inf) is
        # always manipulable by an extreme agent, and the four-block
        # profiles are left to sp-closed
        for n in cfg["n"]:
            for p in cfg["p"]:
                mixture = _median_opt_mixture(n, float(rng.uniform(0.25, 0.75)))
                for spec, expect in ((Optimal(), "manipulable"), (mixture, None)):
                    out.append(
                        Verdict("sp", spec, p, n, cfg["trials"], seed=seed(),
                                structured=False, expect=expect)
                    )
    elif workload == "ratio-search":
        trials, hill = cfg["trials"], cfg["hill_iters"]
        for p in cfg["p"]:
            rules = [(Median(), n) for n in cfg["median_n"]] + [(LRM(), 2)]
            rules += [(_median_opt_mixture(n, 0.5), n) for n in cfg["mixture_n"]]
            for spec, n in rules:
                out.append(Verdict("ratio", spec, p, n, trials, hill, seed=seed()))
    elif workload == "certificate":
        # deterministic inputs: the seed has nothing to draw here
        for p in cfg["p"]:
            for k in cfg["k"]:
                out.append(Verdict("cert", None, float(p), k))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _three_point_q(rng: np.random.Generator) -> float:
    # kept away from the 1/4 frontier, where a manipulable rule's best gain
    # shrinks toward the violation threshold
    if rng.random() < 0.5:
        return float(rng.uniform(0.25, 0.5))
    return float(rng.uniform(0.0, 0.2))


def _median_opt_mixture(n: int, opt_weight: float) -> Mixture:
    """Mixture of the lower median and the optimum."""
    order = [0.0] * n
    order[(n + 1) // 2 - 1] = 1.0 - opt_weight
    return Mixture(order_weights=tuple(order), opt_weight=opt_weight)


def ratio_bound(spec, p: float) -> float:
    """Catalog worst-case ratio: 2^(1-1/p) for the median, and the mean of
    that and 1 for LRM and for a half-median/half-optimum mixture."""
    median = 2.0 if math.isinf(p) else 2.0 ** (1.0 - 1.0 / p)
    return median if isinstance(spec, Median) else 0.5 * (1.0 + median)


class CheckState:
    """What the checks remember across verdicts: certificate bounds by p."""

    def __init__(self):
        self.p_opt_bounds: dict[int, dict[int, float]] = {}


def check(verdict: Verdict, result, state: CheckState) -> list[str]:
    """Problems with one verdict's output; an empty list means it passed."""
    if verdict.kind == "sp":
        return _check_sp(verdict, result)
    if verdict.kind == "ratio":
        return _check_ratio(verdict, result)
    return _check_certificate(verdict, result, state)


def _check_sp(v: Verdict, report) -> list[str]:
    problems = []
    threshold = violation_threshold(report.true_profile)
    gain = report.gain
    if not math.isfinite(gain) or gain < -threshold:
        problems.append(f"gain {gain!r} below -threshold {-threshold!r}")
    if v.expect == "sp" and not gain <= SP_GAIN_TOL:
        problems.append(f"strategyproof rule shows gain {gain!r} > {SP_GAIN_TOL}")
    if v.expect == "manipulable" and not gain > threshold:
        problems.append(f"manipulable rule shows gain {gain!r} <= threshold {threshold!r}")
    if report.true_profile.n != v.n or not 1 <= report.agent <= v.n:
        problems.append(f"report for agent {report.agent} of {report.true_profile.n} agents")
    return problems


def _check_ratio(v: Verdict, report) -> list[str]:
    bound = ratio_bound(v.spec, v.p)
    value = report.ratio
    if not (1.0 - RATIO_TOL <= value <= bound + RATIO_TOL):
        return [f"ratio {value!r} outside [1 - {RATIO_TOL}, {bound!r}]"]
    if not report.opt_cost > 0.0:
        return [f"worst profile has optimal cost {report.opt_cost!r}"]
    return []


def _check_certificate(v: Verdict, cert, state: CheckState) -> list[str]:
    problems = []
    p, k = int(v.p), v.n
    roots = np.asarray(cert.roots)
    if roots.shape != (k,):
        return [f"{roots.size} roots for k={k}"]
    if p == 3:
        j1 = np.arange(k, dtype=float)  # j - 1
        exact = j1 + np.sqrt(j1 * j1 + k)
        worst = float(np.max(np.abs(roots - exact) / exact))
        if not worst <= ROOT_REL_TOL:
            problems.append(f"p=3 roots off the closed form by {worst!r} relative")
    limits = cert.opt_tol * (1.0 + roots)
    if not np.all(np.asarray(cert.opt_residuals) <= limits):
        problems.append("an optimum residual exceeds opt_tol * (1 + a_j)")
    failed = [j for j, ok in cert.bound_checks if not ok]
    if failed:
        problems.append(f"growth check fails at ranks {failed[:5]}")
    seen = state.p_opt_bounds.setdefault(p, {})
    for other_k, other in seen.items():
        if (other_k < k and not cert.p_opt_bound < other) or (
            other_k > k and not cert.p_opt_bound > other
        ) or (other_k == k and cert.p_opt_bound != other):
            problems.append(
                f"p_opt_bound {cert.p_opt_bound!r} at k={k} against {other!r} at k={other_k}"
            )
    seen[k] = cert.p_opt_bound
    return problems
