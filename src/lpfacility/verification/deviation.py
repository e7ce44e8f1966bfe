"""Misreport search: per-agent best deviations, randomized scans, and the
symmetric two-agent strategyproofness margin.

The candidate misreports for one agent are the other agents' reports, the
profile extremes shifted by +-span, a uniform grid over the doubled-span
window, dyadic multiples of the agent's own report, and the truthful report
itself (the grid's arange and the scalings are cached per config); the best
one is polished by one golden-section pass unless that provably cannot win.
Both read the rule's outcome plan (`mechanisms._outcome_plan`): the
candidate curve evaluates it in numpy, one column per atom, and the polish
in pure Python, since numpy overhead dominates one-point evaluations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..core import LocationProfile, NonFiniteResult, _check_agent, _check_tol, validate_pnorm
from ..mechanisms import _outcome_plan, _plan_at, _plan_costs
from .ratio import four_block_profiles
from .reports import DeviationReport, SearchConfig

__all__ = [
    "DEFAULT_VIOLATION_TOL",
    "UnsupportedSupport",
    "violation_threshold",
    "misreport_candidates",
    "deviation_cost_curve",
    "best_deviation",
    "sp_scan",
    "symmetric_sp_margin",
]

# A gain must exceed tol * (1 + span) to count as a strategyproofness
# violation; anything smaller is treated as a tie or numerics.
DEFAULT_VIOLATION_TOL = 1e-7

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class UnsupportedSupport(ValueError):
    """Distribution has mass outside the interval the margin is defined on."""


def violation_threshold(profile: LocationProfile, tol: float = DEFAULT_VIOLATION_TOL) -> float:
    """Gain threshold above which a deviation counts as a violation.

    Raises ValueError unless tol is finite and >= 0: a NaN, infinite or
    negative tol would turn the verdicts silently wrong."""
    return _check_tol("violation tol", tol) * (1.0 + profile.span)


@lru_cache(maxsize=8)
def _unit_arrays(grid_points: int, scale_bound: float, steps_per_unit: float):
    # an integer count of 1/steps_per_unit steps keeps every scaling an exact dyadic
    count = 2 * int(round(scale_bound * steps_per_unit)) + 1
    unit, scales = np.arange(grid_points, dtype=float), np.linspace(-scale_bound, scale_bound, count)
    unit.flags.writeable = scales.flags.writeable = False
    return unit, scales


def misreport_candidates(
    profile: LocationProfile, agent: int, cfg: SearchConfig = SearchConfig()
) -> np.ndarray:
    """Candidate misreports for one agent, in a fixed deterministic order; the grid is
    linspace's arithmetic on a cached arange (linspace itself at a zero or non-finite step)."""
    xs, n = profile.values, profile.n
    x = float(xs[_check_agent(agent, n) - 1])
    lo, hi, span = profile.low, profile.high, profile.span
    unit, scales = _unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)
    start, stop = lo - cfg.grid_pad * span, hi + cfg.grid_pad * span
    step, end = (stop - start) / (unit.size - 1), n + 3 + unit.size
    candidates = np.empty(end + scales.size + 1)
    candidates[: agent - 1], candidates[agent - 1 : n - 1] = xs[: agent - 1], xs[agent:]
    candidates[n - 1 : n + 3] = lo - span, lo + span, hi - span, hi + span
    with np.errstate(over="ignore", invalid="ignore"):
        linear = step != 0.0 and math.isfinite(step)
        candidates[n + 3 : end] = unit * step + start if linear else np.linspace(start, stop, unit.size)
        np.multiply(scales, x, out=candidates[end:-1])
    candidates[end - 1], candidates[-1] = stop, x
    if not np.isfinite(candidates).all():
        raise NonFiniteResult(f"the misreport window of {profile!r} overflows")
    return candidates


def deviation_cost_curve(spec, profile, p, agent, reports) -> np.ndarray:
    """Expected distance from the agent's true location to the facility,
    one entry per candidate misreport (other agents truthful).

    Raises IndexError (TypeError) unless agent is an integer in 1..n, and
    NonFiniteResult for a NaN or infinite report."""
    p = validate_pnorm(p)
    x = float(profile.values[_check_agent(agent, profile.n) - 1])
    reports = np.asarray(reports, dtype=float)
    finite = np.isfinite(reports)
    if not finite.all():
        raise NonFiniteResult(f"misreports must be finite, got {float(reports[~finite][0])!r}")
    others, atoms = _outcome_plan(spec, profile, p, agent)
    return _plan_costs(others, atoms, x, reports)


def _golden_min(fn, a: float, b: float, iters: int) -> tuple[float, float]:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def _never_below_ends(others, atoms, x: float, a: float, b: float, best_c: float) -> bool:
    if not math.isfinite(b - a) or any(q is not None or m or s < 0.0 for _, s, _, _, _, q, m in atoms):
        return False
    below = _plan_at(others, atoms, a, x) >= best_c and all(x <= y for y in _plan_at(others, atoms, a))
    return below or (_plan_at(others, atoms, b, x) >= best_c and all(x >= y for y in _plan_at(others, atoms, b)))


def best_deviation(
    spec, profile: LocationProfile, p: float, agent: int, cfg: SearchConfig = SearchConfig()
) -> DeviationReport:
    """Highest-gain misreport for one agent.

    Scans the deterministic candidate set, then polishes the best candidate
    (r, c) with one golden-section pass over [a, b], one grid cell either
    side of r; the polished point is kept only if strictly cheaper. On exact
    ties the first (assembly-order) candidate wins, so reruns are identical.

    The polish is skipped where it provably cannot win, so the result keeps
    its bits: when c <= 0 (every cost is a sum of w * |x - y|, w >= 0), or
    when every atom has q None, slope >= 0 and is not mirrored, and either
    cost(a) >= c and x <= y_k(a) for every atom k, or cost(b) >= c and
    x >= y_k(b) for every k. Then fl(slope * r), + shift, the clip, x - y,
    |.|, w * (.) and the atom sum all round monotonically, so the float cost
    is monotone on [a, b] and never below the end value; with b - a finite
    every golden point lies in [a, b], so c2 < c cannot hold. Mirrored
    atoms, (r + o) - y, are not monotone and optimum atoms are not covered.
    """
    p = validate_pnorm(p)
    if not 1 <= agent <= profile.n:
        raise IndexError(f"agent {agent} out of range for {profile.n} agents")
    x = float(profile.values[agent - 1])
    others, atoms = _outcome_plan(spec, profile, p, agent)
    truthful = _plan_at(others, atoms, x, x)
    candidates = misreport_candidates(profile, agent, cfg)
    costs = _plan_costs(others, atoms, x, candidates)
    if not (math.isfinite(truthful) and np.isfinite(costs).all()):
        raise NonFiniteResult(f"misreport costs overflow on {profile!r}")
    i = int(np.argmin(costs))
    best_r, best_c = float(candidates[i]), float(costs[i])
    window = profile.span * (1.0 + 2.0 * cfg.grid_pad) / (cfg.grid_points - 1)
    a, b = best_r - window, best_r + window
    polish = window > 0.0 and cfg.refine_iters > 0 and best_c > 0.0
    if polish and not _never_below_ends(others, atoms, x, a, b, best_c):
        r2, c2 = _golden_min(lambda r: _plan_at(others, atoms, r, x), a, b, cfg.refine_iters)
        if c2 < best_c:
            best_r, best_c = float(r2), float(c2)
    return DeviationReport(
        agent=agent,
        true_profile=profile,
        best_misreport=best_r,
        truthful_cost=truthful,
        deviated_cost=best_c,
        gain=truthful - best_c,
    )


def _report_key(report: DeviationReport):
    return (report.gain, tuple(report.true_profile.values.tolist()))


def sp_scan(
    spec,
    p: float,
    n: int,
    trials: int,
    seed: int,
    cfg: SearchConfig = SearchConfig(),
    include_structured: bool = True,
) -> DeviationReport:
    """Worst deviation over structured families plus seeded random profiles.

    Structured families: the half-half 0/1 split and, for even n at integer
    p >= 3, the adversarial four-block profiles built from the rank roots.
    Random profiles are uniform on [0, 1]^n from one seeded generator. The
    reduction is deterministic: reports compare by gain, then by the profile
    values lexicographically (the first of equals wins), so reruns are identical.
    """
    p = validate_pnorm(p)
    if n < 2:
        raise ValueError(f"need at least two agents, got n={n}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    profiles = []
    if include_structured:
        profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))]
        profiles += four_block_profiles(n, p)
    rng = np.random.default_rng(seed)
    profiles += [LocationProfile(rng.uniform(0.0, 1.0, size=n)) for _ in range(trials)]
    if not profiles:
        raise ValueError("nothing to scan: zero trials and no structured profiles")
    reports = (best_deviation(spec, prof, p, agent, cfg) for prof in profiles for agent in range(1, n + 1))
    return max(reports, key=_report_key)


def symmetric_sp_margin(dist, x2: float) -> float:
    """Margin certifying no profitable stretch by the right agent of (0, x2).

    For rules whose output on (0, x2) is supported inside [0, x2], the value
    x2 * P(Y = x2) - sum over atoms below x2 of prob * location is
    nonnegative exactly when, within the shift and scale invariant symmetric
    family, exaggerating the right report cannot pay. Raises
    UnsupportedSupport when mass lies outside [0, x2].
    """
    x2 = float(x2)
    if not x2 > 0.0:
        raise ValueError(f"x2 must be positive, got {x2!r}")
    locs = dist.locations
    probs = dist.probabilities
    if locs[0] < 0.0 or locs[-1] > x2:
        raise UnsupportedSupport(
            f"support [{locs[0]!r}, {locs[-1]!r}] extends outside [0, {x2!r}]"
        )
    below = locs < x2
    mass_at_end = float(probs[locs == x2].sum())
    return x2 * mass_at_end - float((probs[below] * locs[below]).sum())
