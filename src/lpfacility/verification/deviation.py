"""Misreport search: per-agent best deviations, randomized scans, and the
symmetric two-agent strategyproofness margin.

The candidate misreports for one agent are the other agents' reports, the
profile extremes shifted by +-span, a uniform grid over the doubled-span
window, dyadic multiples of the agent's own report, and the truthful report
itself; the best grid candidate is then polished by one golden-section pass.
Both read the rule's outcome plan (`mechanisms._outcome_plan`): the
candidate curve evaluates it in numpy, one column per atom, and the polish
in pure Python, since numpy overhead dominates one-point evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import LocationProfile, NonFiniteResult, validate_pnorm
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
    """Gain threshold above which a deviation counts as a violation."""
    return tol * (1.0 + profile.span)


def misreport_candidates(
    profile: LocationProfile, agent: int, cfg: SearchConfig = SearchConfig()
) -> np.ndarray:
    """Candidate misreports for one agent, in a fixed deterministic order."""
    xs = profile.values
    x = float(xs[agent - 1])
    lo, hi, span = profile.low, profile.high, profile.span
    others = np.delete(xs, agent - 1)
    # linspace over an integer count of 1/scale_steps_per_unit steps keeps
    # every scaling factor an exact dyadic
    count = 2 * int(round(cfg.scale_bound * cfg.scale_steps_per_unit)) + 1
    scales = np.linspace(-cfg.scale_bound, cfg.scale_bound, count)
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = np.array([lo - span, lo + span, hi - span, hi + span])
        grid = np.linspace(lo - cfg.grid_pad * span, hi + cfg.grid_pad * span, cfg.grid_points)
        candidates = np.concatenate([others, extremes, grid, scales * x, [x]])
    if not np.isfinite(candidates).all():
        raise NonFiniteResult(f"the misreport window of {profile!r} overflows")
    return candidates


def deviation_cost_curve(spec, profile, p, agent, reports) -> np.ndarray:
    """Expected distance from the agent's true location to the facility,
    one entry per candidate misreport (other agents truthful)."""
    p = validate_pnorm(p)
    others, atoms = _outcome_plan(spec, profile, p, agent)
    x = float(profile.values[agent - 1])
    return _plan_costs(others, atoms, x, np.asarray(reports, dtype=float))


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


def best_deviation(
    spec, profile: LocationProfile, p: float, agent: int, cfg: SearchConfig = SearchConfig()
) -> DeviationReport:
    """Highest-gain misreport for one agent.

    Scans the deterministic candidate set, then polishes the best candidate
    with one golden-section pass over the surrounding grid cell; the
    polished point is kept only if strictly cheaper. On exact ties the
    first (assembly-order) candidate wins, so reruns are identical.
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
    if window > 0.0 and cfg.refine_iters > 0:
        cost_fn = lambda r: _plan_at(others, atoms, r, x)
        r2, c2 = _golden_min(cost_fn, best_r - window, best_r + window, cfg.refine_iters)
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
    values lexicographically, so a rerun with the same seed is identical.
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
    worst = None
    for prof in profiles:
        for agent in range(1, n + 1):
            report = best_deviation(spec, prof, p, agent, cfg)
            if worst is None or _report_key(report) > _report_key(worst):
                worst = report
    return worst


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
