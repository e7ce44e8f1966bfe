"""Approximation ratios against the cost-minimizing location."""

import math

import numpy as np
import pytest

from lpfacility import (
    LRM,
    Dictator,
    LocationProfile,
    Median,
    Optimal,
    RatioSearchConfig,
    expected_social_cost,
    optimal_location,
    point_mass,
    ratio,
    run,
    social_cost,
    worst_ratio_search,
)
from lpfacility.core import NonFiniteResult
from lpfacility.verification.ratio import _report_for_distribution


def half_half(k: int) -> LocationProfile:
    return LocationProfile([0.0] * k + [1.0] * k)


class TestRatio:
    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_median_on_half_half_hits_the_bound(self, p, k):
        report = ratio(Median(), half_half(k), p)
        assert report.ratio == pytest.approx(2.0 ** (1.0 - 1.0 / p), abs=1e-12)

    def test_median_max_norm_ratio_is_two(self):
        report = ratio(Median(), half_half(4), math.inf)
        assert report.ratio == 2.0
        assert report.mechanism_cost == 1.0
        assert report.opt_cost == 0.5

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_lrm_two_agent_ratio_formula(self, p):
        report = ratio(LRM(), LocationProfile([0.0, 1.0]), p)
        assert report.ratio == pytest.approx(0.5 * (2.0 ** (1.0 - 1.0 / p) + 1.0), abs=1e-12)

    def test_optimal_rule_ratio_is_exactly_one(self):
        # run places the optimum through the same one-row kernel as
        # optimal_location, so the two agree to the last bit
        rng = np.random.default_rng(51)
        for _ in range(20):
            prof = LocationProfile(rng.uniform(-3, 3, size=int(rng.integers(2, 9))))
            for p in (1.0, 1.5, 2.0, 2.7, 3.0, math.inf):
                assert ratio(Optimal(), prof, p).ratio == 1.0
                assert run(Optimal(), prof, p).locations[0] == optimal_location(prof, p).location

    def test_degenerate_profile_convention(self):
        report = ratio(Median(), LocationProfile([4.0, 4.0, 4.0]), 2.0)
        assert report.ratio == 1.0
        assert report.opt_cost == 0.0

    def test_off_support_point_on_degenerate_profile_is_infinite(self):
        prof = LocationProfile([5.0, 5.0])
        report = _report_for_distribution(None, prof, 2.0, point_mass(6.0))
        assert math.isinf(report.ratio)
        assert report.opt_cost == 0.0

    def test_report_fields_are_consistent(self):
        prof = LocationProfile([0.0, 0.25, 1.0])
        report = ratio(Dictator(1), prof, 2.0)
        assert report.spec == Dictator(1)
        assert report.p == 2.0
        assert report.mechanism_cost == expected_social_cost(prof, run(Dictator(1), prof, 2.0), 2.0)
        assert report.ratio == report.mechanism_cost / report.opt_cost
        d = report.as_dict()
        assert d["ratio"] == report.ratio
        assert d["profile"] == [0.0, 0.25, 1.0]

    def test_ratio_never_below_one(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            prof = LocationProfile(rng.uniform(-2, 2, size=int(rng.integers(2, 7))))
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
            assert ratio(Median(), prof, p).ratio >= 1.0 - 1e-12

    def test_huge_span_median_ratio(self):
        value = ratio(Median(), LocationProfile([0.0, 1e300]), 3.0).ratio
        assert abs(value - 2.0 ** (2.0 / 3.0)) <= 1e-12

    def test_overflowing_cost_is_refused(self):
        # the median sits at -1e308, 2e308 from the other agent
        with pytest.raises(NonFiniteResult):
            ratio(Median(), LocationProfile([-1e308, 1e308]), 3.0)

    def test_tiny_span_ratio_is_scale_invariant(self):
        tiny = ratio(Median(), LocationProfile([0.0, 1e-13, 1e-12]), 3.0).ratio
        unit = ratio(Median(), LocationProfile([0.0, 0.1, 1.0]), 3.0).ratio
        assert abs(tiny - unit) <= 1e-12


class TestWorstRatioSearch:
    def test_median_search_approaches_the_supremum(self):
        report = worst_ratio_search(Median(), 2.0, n=10)
        assert report.ratio == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_median_at_p_one_is_optimal(self):
        report = worst_ratio_search(Median(), 1.0, n=9, cfg=RatioSearchConfig(trials=50))
        assert report.ratio == 1.0

    def test_lrm_max_norm_supremum(self):
        report = worst_ratio_search(LRM(), math.inf, n=2)
        assert report.ratio == pytest.approx(1.5, abs=1e-12)

    def test_rerun_is_identical(self):
        cfg = RatioSearchConfig(trials=40, hill_iters=60, seed=9)
        a = worst_ratio_search(Median(), 3.0, n=6, cfg=cfg)
        b = worst_ratio_search(Median(), 3.0, n=6, cfg=cfg)
        assert a == b

    def test_found_profile_reproduces_reported_ratio(self):
        report = worst_ratio_search(LRM(), 2.0, n=2, cfg=RatioSearchConfig(trials=30))
        again = ratio(LRM(), report.profile, 2.0)
        assert again.ratio == report.ratio


class TestSocialCostSanity:
    def test_interpolating_norms_are_ordered(self):
        prof = LocationProfile([0.0, 0.3, 0.9, 2.0])
        costs = [social_cost(prof, 0.5, p) for p in (1.0, 1.5, 2.0, 4.0, 16.0, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
