"""Misreport search: per-agent best deviations, randomized scans, and the
symmetric two-agent strategyproofness margin.

The candidate misreports for one agent are the other agents' reports, the
profile extremes shifted by +-span, a uniform grid over the doubled-span
window, dyadic multiples of the agent's own report, and the truthful report
itself; the best grid candidate is then polished by one golden-section pass.
Candidate curves are evaluated in bulk (candidates x atoms tables) and the
polish uses scalar closures, since numpy overhead dominates one-point
evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import (
    LocationProfile,
    expected_agent_cost,
    validate_pnorm,
)
from ..mechanisms import (
    ArityMismatch,
    Dictator,
    LRM,
    Median,
    Mirror,
    Mixture,
    Optimal,
    OrderStatistic,
    Symmetrized,
    ThreePoint,
    run,
)
from ..optimizer import _bisect_rows, _cached_adversarial_roots, _solve_row
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
    extremes = np.array([lo - span, lo + span, hi - span, hi + span])
    grid = np.linspace(lo - cfg.grid_pad * span, hi + cfg.grid_pad * span, cfg.grid_points)
    # linspace over an integer count of 1/scale_steps_per_unit steps keeps
    # every scaling factor an exact dyadic
    count = 2 * int(round(cfg.scale_bound * cfg.scale_steps_per_unit)) + 1
    scales = np.linspace(-cfg.scale_bound, cfg.scale_bound, count)
    return np.concatenate([others, extremes, grid, scales * x, [x]])


def _rank_clip_bounds(others_sorted: np.ndarray, rank: int) -> tuple[float, float]:
    # With the others fixed, the rank-th smallest as a function of one free
    # report is that report clipped to [others[rank-2], others[rank-1]]
    # (+-inf past the ends).
    m = others_sorted.size
    lo = float(others_sorted[rank - 2]) if rank >= 2 else -math.inf
    hi = float(others_sorted[rank - 1]) if rank - 1 <= m - 1 else math.inf
    return lo, hi


def _atom_table(spec, profile, p, agent, reports):
    """Locations (C, A) and weights (A,) of the outcome atoms when `agent`
    reports each candidate and everyone else stays truthful."""
    n = profile.n
    others = np.delete(profile.values, agent - 1)
    if isinstance(spec, Median):
        spec = OrderStatistic((n + 1) // 2)
    if isinstance(spec, OrderStatistic):
        if spec.rank > n:
            raise ArityMismatch(f"order statistic {spec.rank} on {n} agents")
        lo, hi = _rank_clip_bounds(np.sort(others), spec.rank)
        return np.clip(reports, lo, hi)[:, None], np.ones(1)
    if isinstance(spec, Dictator):
        if spec.agent > n:
            raise ArityMismatch(f"dictator {spec.agent} on {n} agents")
        if spec.agent == agent:
            return reports[:, None], np.ones(1)
        const = float(profile.values[spec.agent - 1])
        return np.full((reports.size, 1), const), np.ones(1)
    if isinstance(spec, Optimal):
        locs = _batch_optimal(others, reports, p if spec.p is None else spec.p)
        return locs[:, None], np.ones(1)
    if isinstance(spec, (LRM, ThreePoint)):
        if n != 2:
            raise ArityMismatch(f"two-agent rule on {n} agents")
        q = 0.25 if isinstance(spec, LRM) else spec.q_end
        other = float(others[0])
        left = np.minimum(reports, other)
        right = np.maximum(reports, other)
        mid = 0.5 * (reports + other)
        return np.stack([left, mid, right], axis=1), np.array([q, 1.0 - 2.0 * q, q])
    if isinstance(spec, Mixture):
        return _mixture_atom_table(spec, profile, p, agent, reports, others)
    if isinstance(spec, Mirror):
        if n != 2:
            raise ArityMismatch(f"two-agent rule on {n} agents")
        locs, probs = _atom_table(spec.inner, profile, p, agent, reports)
        t = (reports + float(others[0]))[:, None]
        return t - locs, probs
    if isinstance(spec, Symmetrized):
        if n != 2:
            raise ArityMismatch(f"two-agent rule on {n} agents")
        locs, probs = _atom_table(spec.inner, profile, p, agent, reports)
        t = (reports + float(others[0]))[:, None]
        return np.concatenate([locs, t - locs], axis=1), np.concatenate([0.5 * probs, 0.5 * probs])
    raise TypeError(f"unknown mechanism spec {spec!r}")


def _mixture_atom_table(spec, profile, p, agent, reports, others):
    n = profile.n
    if spec.dictator_weights and len(spec.dictator_weights) != n:
        raise ArityMismatch(f"dictator weights sized {len(spec.dictator_weights)} for {n} agents")
    if spec.order_weights and len(spec.order_weights) != n:
        raise ArityMismatch(f"order weights sized {len(spec.order_weights)} for {n} agents")
    columns = []
    weights = []
    for i, w in enumerate(spec.dictator_weights, start=1):
        if i == agent:
            columns.append(reports)
        else:
            columns.append(np.full(reports.size, float(profile.values[i - 1])))
        weights.append(w)
    if spec.order_weights:
        others_sorted = np.sort(others)
        for rank, w in enumerate(spec.order_weights, start=1):
            lo, hi = _rank_clip_bounds(others_sorted, rank)
            columns.append(np.clip(reports, lo, hi))
            weights.append(w)
    if spec.opt_weight > 0.0:
        columns.append(_batch_optimal(others, reports, p if spec.p is None else spec.p))
        weights.append(spec.opt_weight)
    return np.stack(columns, axis=1), np.asarray(weights)


def _batch_optimal(others: np.ndarray, reports: np.ndarray, p: float) -> np.ndarray:
    n = others.size + 1
    if p == 1.0:
        rank = (n + 1) // 2
        lo, hi = _rank_clip_bounds(np.sort(others), rank)
        return np.clip(reports, lo, hi)
    if p == 2.0:
        return (float(others.sum()) + reports) / n
    if math.isinf(p):
        o_lo, o_hi = float(others.min()), float(others.max())
        return 0.5 * (np.minimum(reports, o_lo) + np.maximum(reports, o_hi))
    pts = np.empty((reports.size, n))
    pts[:, :-1] = others
    pts[:, -1] = reports
    return _bisect_rows(pts, None, p)


def deviation_cost_curve(spec, profile, p, agent, reports) -> np.ndarray:
    """Expected distance from the agent's true location to the facility,
    one entry per candidate misreport (other agents truthful)."""
    p = validate_pnorm(p)
    reports = np.asarray(reports, dtype=float)
    locs, probs = _atom_table(spec, profile, p, agent, reports)
    x = float(profile.values[agent - 1])
    return np.abs(locs - x) @ probs


def _point_atoms_fn(spec, profile, p, agent):
    """Scalar sibling of _atom_table: report -> [(location, weight)]."""
    n = profile.n
    others = np.delete(profile.values, agent - 1)
    if isinstance(spec, Median):
        spec = OrderStatistic((n + 1) // 2)
    if isinstance(spec, OrderStatistic):
        lo, hi = _rank_clip_bounds(np.sort(others), spec.rank)
        return lambda r: [(min(max(r, lo), hi), 1.0)]
    if isinstance(spec, Dictator):
        if spec.agent == agent:
            return lambda r: [(r, 1.0)]
        const = float(profile.values[spec.agent - 1])
        return lambda r: [(const, 1.0)]
    if isinstance(spec, Optimal):
        return _point_optimal_fn(others, p if spec.p is None else spec.p, as_atom=True)
    if isinstance(spec, (LRM, ThreePoint)):
        q = 0.25 if isinstance(spec, LRM) else spec.q_end
        o = float(others[0])
        return lambda r: [
            (min(r, o), q),
            (0.5 * (r + o), 1.0 - 2.0 * q),
            (max(r, o), q),
        ]
    if isinstance(spec, Mixture):
        return _point_mixture_fn(spec, profile, p, agent, others)
    if isinstance(spec, Mirror):
        inner = _point_atoms_fn(spec.inner, profile, p, agent)
        o = float(others[0])
        return lambda r: [(r + o - l, w) for l, w in inner(r)]
    if isinstance(spec, Symmetrized):
        inner = _point_atoms_fn(spec.inner, profile, p, agent)
        o = float(others[0])

        def atoms(r):
            base = inner(r)
            t = r + o
            return [(l, 0.5 * w) for l, w in base] + [(t - l, 0.5 * w) for l, w in base]

        return atoms
    raise TypeError(f"unknown mechanism spec {spec!r}")


def _point_optimal_fn(others: np.ndarray, p: float, as_atom: bool):
    n = others.size + 1
    if p == 1.0:
        lo, hi = _rank_clip_bounds(np.sort(others), (n + 1) // 2)
        f = lambda r: min(max(r, lo), hi)
    elif p == 2.0:
        total = float(others.sum())
        f = lambda r: (total + r) / n
    elif math.isinf(p):
        o_lo, o_hi = float(others.min()), float(others.max())
        f = lambda r: 0.5 * (min(r, o_lo) + max(r, o_hi))
    else:
        fixed = others.tolist()
        f = lambda r: _solve_row([*fixed, r], p)
    if as_atom:
        return lambda r: [(f(r), 1.0)]
    return f


def _point_mixture_fn(spec, profile, p, agent, others):
    dict_parts = []
    for i, w in enumerate(spec.dictator_weights, start=1):
        if w == 0.0:
            continue
        if i == agent:
            dict_parts.append((None, w))
        else:
            dict_parts.append((float(profile.values[i - 1]), w))
    rank_parts = []
    if spec.order_weights:
        others_sorted = np.sort(others)
        for rank, w in enumerate(spec.order_weights, start=1):
            if w == 0.0:
                continue
            rank_parts.append((*_rank_clip_bounds(others_sorted, rank), w))
    opt_fn = None
    if spec.opt_weight > 0.0:
        opt_fn = _point_optimal_fn(others, p if spec.p is None else spec.p, as_atom=False)
    opt_w = spec.opt_weight

    def atoms(r):
        out = [(r if loc is None else loc, w) for loc, w in dict_parts]
        out += [(min(max(r, lo), hi), w) for lo, hi, w in rank_parts]
        if opt_fn is not None:
            out.append((opt_fn(r), opt_w))
        return out

    return atoms


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
    truthful = expected_agent_cost(x, run(spec, profile, p))
    candidates = misreport_candidates(profile, agent, cfg)
    costs = deviation_cost_curve(spec, profile, p, agent, candidates)
    i = int(np.argmin(costs))
    best_r, best_c = float(candidates[i]), float(costs[i])
    window = profile.span * (1.0 + 2.0 * cfg.grid_pad) / (cfg.grid_points - 1)
    if window > 0.0 and cfg.refine_iters > 0:
        atoms_fn = _point_atoms_fn(spec, profile, p, agent)
        cost_fn = lambda r: sum(w * abs(x - l) for l, w in atoms_fn(r))
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


def _structured_profiles(n: int, p: float) -> list[LocationProfile]:
    profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))]
    if n % 2 == 0 and not math.isinf(p) and float(p).is_integer() and p >= 3:
        k = n // 2
        for j, a in enumerate(_cached_adversarial_roots(k, int(p)), start=1):
            counts = (j, k - j, k - j + 1, j - 1)
            points = (-a, 0.0, 1.0, 1.0 + a)
            values = np.repeat(points, counts)
            profiles.append(LocationProfile(values))
    return profiles


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
    profiles = _structured_profiles(n, p) if include_structured else []
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
