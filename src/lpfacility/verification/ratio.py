"""Approximation ratio measurement: single profiles and worst-case search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    FacilityDistribution,
    LocationProfile,
    NonFiniteResult,
    _check_int,
    expected_social_cost,
    validate_pnorm,
)
from ..mechanisms import run
from ..optimizer import _cached_adversarial_roots, optimal_cost
from .reports import RatioReport, _check_fields

__all__ = ["RatioSearchConfig", "ratio", "worst_ratio_search", "four_block_profiles"]


@dataclass(frozen=True)
class RatioSearchConfig:
    """Knobs for the empirical worst-ratio search."""

    trials: int = 200
    hill_iters: int = 200
    seed: int = 42

    def __post_init__(self):
        _check_fields(self, (("trials", 0, True), ("hill_iters", 0, True), ("seed", 0, True)))


def _report_for_distribution(
    spec, profile: LocationProfile, p: float, dist: FacilityDistribution
) -> RatioReport:
    mech = expected_social_cost(profile, dist, p)
    opt = optimal_cost(profile, p)
    if not (math.isfinite(mech) and math.isfinite(opt)):
        raise NonFiniteResult(f"social cost overflows on {profile!r}: {mech!r} against {opt!r}")
    if opt == 0.0:
        # all agents coincide: any mass off that point is infinitely bad
        value = 1.0 if mech == 0.0 else math.inf
    else:
        value = mech / opt
    return RatioReport(spec, profile, p, mech, opt, value)


def ratio(spec, profile: LocationProfile, p: float) -> RatioReport:
    """Mechanism cost over optimal cost on one profile.

    Convention for a degenerate profile (zero optimal cost): the ratio is 1
    when the mechanism also pays zero, +inf otherwise.
    """
    p = validate_pnorm(p)
    return _report_for_distribution(spec, profile, p, run(spec, profile, p))


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

    Degenerate profiles (zero optimal cost) are skipped: the worst case of
    interest is the supremum over profiles the optimum can actually price.
    Deterministic for a fixed config.
    """
    p = validate_pnorm(p)
    n = _check_int(n, "n", 2)
    rng = np.random.default_rng(cfg.seed)
    # every two-point 0/1 split: covers half-half and all-but-one clusters
    profiles = [LocationProfile([0.0] * (n - m) + [1.0] * m) for m in range(1, n)]
    profiles += four_block_profiles(n, p)
    profiles += [LocationProfile(rng.uniform(0.0, 1.0, size=n)) for _ in range(cfg.trials)]
    reports = (ratio(spec, prof, p) for prof in profiles)
    # the splits are never degenerate; max keeps the first of equal ratios, as sp_scan's does
    best = max((report for report in reports if report.opt_cost != 0.0), key=lambda report: report.ratio)
    current = best.profile.values.copy()
    span = max(best.profile.span, 1.0)
    for it in range(cfg.hill_iters):
        idx = it % n
        step = span * 0.5 ** (1.0 + 4.0 * it / max(cfg.hill_iters, 1))
        proposal = current.copy()
        proposal[idx] += step * float(rng.uniform(-1.0, 1.0))
        prof = LocationProfile(proposal)
        report = ratio(spec, prof, p)
        if report.opt_cost > 0.0 and report.ratio > best.ratio:
            best = report
            current = proposal
    return best
