"""Approximation ratio measurement: single profiles and worst-case search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    _NORMAL_MIN,
    FacilityDistribution,
    LocationProfile,
    NonFiniteResult,
    _check_int,
    _lp_norms,
    _merged_atoms,
    expected_social_cost,
    validate_pnorm,
)
from ..mechanisms import _outcome_plan, _plan_at
from ..optimizer import _cached_adversarial_roots, _optimum, optimal_cost
from .reports import RatioReport, _check_fields

__all__ = ["RatioSearchConfig", "ratio", "worst_ratio_search", "four_block_profiles"]

# The hill climb's speculative batches: the first size, and the cap its
# doubling stops at.
_CLIMB_FIRST_BATCH, _CLIMB_MAX_BATCH = 16, 1024


@dataclass(frozen=True)
class RatioSearchConfig:
    """Knobs for the empirical worst-ratio search."""

    trials: int = 200
    hill_iters: int = 200
    seed: int = 42

    def __post_init__(self):
        _check_fields(self, (("trials", 0, True), ("hill_iters", 0, True), ("seed", 0, True)))


def _checked_ratio(mech: float, opt: float, row) -> float:
    # the ratio of one profile's costs, `row` its reports
    if not (math.isfinite(mech) and math.isfinite(opt)):
        raise NonFiniteResult(f"social cost overflows on {LocationProfile(row)!r}: {mech!r} against {opt!r}")
    if opt == 0.0:
        # all agents coincide: any mass off that point is infinitely bad
        return 1.0 if mech == 0.0 else math.inf
    return mech / opt


def _report_for_distribution(
    spec, profile: LocationProfile, p: float, dist: FacilityDistribution
) -> RatioReport:
    mech = expected_social_cost(profile, dist, p)
    opt = optimal_cost(profile, p)
    return RatioReport(spec, profile, p, mech, opt, _checked_ratio(mech, opt, profile.values))


def _ratios(spec, rows: np.ndarray, p: float) -> list:
    """(mechanism cost, optimal cost, ratio) of each row of a (B, n) array of
    finite profiles in agent order, as `ratio` reports them on
    LocationProfile(row). A validated p is assumed.

    Each row's outcome is the rule's plan (`mechanisms._outcome_plan`) at
    agent 1's report, validated and merged as FacilityDistribution does; its
    optimum is the scalar one-row kernel's on the sorted row, the solve of
    `optimal_location`. Then every row's distances to its atoms and to its
    optimum form one matrix, normed row by row in one `core._lp_norms` call,
    and each mechanism cost is summed in Python in ascending location order.
    So every cost equals `expected_social_cost(profile, run(spec, profile,
    p), p)` and `optimal_cost(profile, p)` bit for bit, except where a
    weighted cost term or the optimal cost falls below the smallest normal
    double and loses bits (0.5 * 5e-324 is 0). Ratios are scale-free, so
    such a row is priced again at unit span, on (x - low) / span, its ratio
    taken there and its costs scaled back by the span. Those are the
    unit-span lottery's costs; `run` rounds its atoms onto the subnormal
    grid, so its lottery can cost a few ulps more or less: 6.4e-323 against
    7e-323 for `Symmetrized(Optimal())` at p = 1.5 on [1.33e-322, 5e-323].
    Every catalog atom lies in [low, high], so each cost is at least
    span / 2: a row of span 1e-290 or more is priced again only for a weight
    below 4.5e-18.

    Errors are raised in row order: the first failing row raises what
    `ratio` raises on it. A row's results do not depend on the rest of its
    batch.
    """
    inf = math.inf
    values = rows.tolist()
    plans, ys, owners, masses, error = [], [], [], None, None
    for i, row in enumerate(values):
        try:
            others, atoms = _outcome_plan(spec, row, p, 1)
            srt = sorted(row)
            opt_y = _optimum(srt, p)
            # an optimum atom at q == p solves the same sorted list (up to the
            # order of equal zeros, which moves no distance): the row's
            # optimum, here a constant line
            atoms = [(a[0], 0.0, opt_y, -inf, inf, None, a[6]) if a[5] == p else a for a in atoms]
            # a rule's masses do not move with the reports: validated on the
            # first row, after its locations, and again only if they change
            weights = [a[0] for a in atoms]
            pairs = _merged_atoms(_plan_at(others, atoms, row[0]), weights, weights == masses)
            masses = weights
        except Exception as exc:  # raised once the rows before it are priced
            error = exc
            break
        plans.append((srt[0], srt[-1], pairs, opt_y))
        ys += [y for y, _ in pairs]
        ys.append(opt_y)
        owners += [i] * (len(pairs) + 1)
    # a row whose distances overflow is priced inf, as social_cost does
    with np.errstate(over="ignore"):
        costs = iter(_lp_norms(np.abs(rows[owners] - np.reshape(ys, (-1, 1))), p) if ys else [])
    out = []
    for row, (low, high, pairs, opt_y) in zip(values, plans):
        mech, tiny = 0.0, False
        # the sum expected_social_cost takes, in ascending location order
        for y, w in pairs:
            c = next(costs)
            term = w * c
            tiny = tiny or (c > 0.0 and term < _NORMAL_MIN)
            mech += term
        opt = next(costs)
        span = high - low
        if (tiny or 0.0 < opt < _NORMAL_MIN) and span != 1.0:
            ((unit_mech, unit_opt, value),) = _ratios(spec, np.array([[(x - low) / span for x in row]]), p)
            mech, opt = unit_mech * span, unit_opt * span
        else:
            value = _checked_ratio(mech, opt, row)
        out.append((mech, opt, value))
    if error is not None:
        raise error
    return out


def ratio(spec, profile: LocationProfile, p: float) -> RatioReport:
    """Mechanism cost over optimal cost on one profile: the one-row case of
    the batched pricer `_ratios`, whose docstring gives the arithmetic. The
    optimum is solved by the same scalar kernel as `optimal_location`.

    Convention for a degenerate profile (zero optimal cost): the ratio is 1
    when the mechanism also pays zero, +inf otherwise. A subnormal profile
    priced at unit span reports that lottery's costs scaled back, which can
    differ by subnormal ulps from those of the lottery `run` returns.
    """
    p = validate_pnorm(p)
    ((mech, opt, value),) = _ratios(spec, profile.values[None, :], p)
    return RatioReport(spec, profile, p, mech, opt, value)


def four_block_profiles(n: int, p: float) -> list[LocationProfile]:
    """The adversarial four-block profiles of the searches: for n = 2k at
    integer p >= 3, per rank j, j agents at -a_j, k - j at 0, k - j + 1 at 1
    and j - 1 at 1 + a_j, with a_j the rank root; none otherwise."""
    if n % 2 or math.isinf(p) or not float(p).is_integer() or p < 3:
        return []
    k = n // 2
    return [
        LocationProfile(np.repeat((-a, 0.0, 1.0, 1.0 + a), (j, k - j, k - j + 1, j - 1)))
        for j, a in enumerate(_cached_adversarial_roots(k, int(p)), start=1)
    ]


def worst_ratio_search(
    spec, p: float, n: int, cfg: RatioSearchConfig = RatioSearchConfig()
) -> RatioReport:
    """Empirically worst ratio over structured families, random profiles, and
    a coordinate-wise perturbation hill climb from the best profile found.

    Every profile known before the climb (the 0/1 splits, the four-block
    profiles and the `cfg.trials` random draws) is priced in one `_ratios`
    call. Step `it` of the climb proposes the current profile with agent
    `it % n` moved by a uniform draw in [-1, 1] times a step that shrinks
    from span / 2 toward span / 32, and keeps it if its ratio is larger. The
    climb rarely accepts, so its proposals are priced speculatively, a batch
    of consecutive steps from the current profile per `_ratios` call, and
    walked in step order: the first accepted row becomes the current
    profile, and the steps after it are proposed again from there. Batches
    start at 16 rows, double after a batch that accepts nothing, up to 1024,
    and restart at one row after an acceptance, so at most 2 * hill_iters +
    16 rows are priced. A batch that raises is priced again one row at a
    time, up to the first acceptance, so the search raises only what the
    one-step-at-a-time climb raises. Each profile's optimum is still solved
    by the scalar one-row kernel, and no row's report depends on its batch,
    so every report equals what `ratio` gives on its profile.

    Degenerate profiles (zero optimal cost) are skipped: the worst case of
    interest is the supremum over profiles the optimum can actually price.
    Deterministic for a fixed config.
    """
    p = validate_pnorm(p)
    n = _check_int(n, "n", 2)
    rng = np.random.default_rng(cfg.seed)
    # every two-point 0/1 split: covers half-half and all-but-one clusters;
    # one (trials, n) draw is the stream of `trials` draws of n
    splits = [[0.0] * (n - m) + [1.0] * m for m in range(1, n)]
    blocks = [prof.values for prof in four_block_profiles(n, p)]
    rows = np.vstack([splits, *blocks, rng.uniform(0.0, 1.0, size=(cfg.trials, n))])
    priced = _ratios(spec, rows, p)
    # the splits are never degenerate; max keeps the first of equal ratios, as sp_scan's does
    i = max((i for i, (_, o, _) in enumerate(priced) if o != 0.0), key=lambda i: priced[i][2])
    current, (mech, opt, best) = rows[i].tolist(), priced[i]
    span = max(max(current) - min(current), 1.0)
    hill = cfg.hill_iters
    # one draw of hill_iters is the stream of hill_iters scalar draws
    draws = rng.uniform(-1.0, 1.0, size=hill).tolist()
    moves = [span * 0.5 ** (1.0 + 4.0 * it / max(hill, 1)) * u for it, u in enumerate(draws)]
    it, size = 0, _CLIMB_FIRST_BATCH
    while it < hill:
        proposals = []
        for step in range(it, min(it + size, hill)):
            row = current.copy()
            row[step % n] += moves[step]
            proposals.append(row)
        try:
            priced = _ratios(spec, np.array(proposals), p)
        except Exception:
            # a row after an accepted one is not a step the climb takes:
            # price again one row at a time, up to the first acceptance
            priced = (_ratios(spec, np.array([row]), p)[0] for row in proposals)
        size = min(2 * size, _CLIMB_MAX_BATCH)
        for row, (m, o, value) in zip(proposals, priced):
            it += 1
            if o > 0.0 and value > best:
                current, mech, opt, best, size = row, m, o, value, 1
                break
    return RatioReport(spec, LocationProfile(current), p, mech, opt, best)
