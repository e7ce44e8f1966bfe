"""Approximation ratios against the cost-minimizing location."""

import math
import re

import numpy as np
import pytest

from lpfacility import (
    LRM,
    ArityMismatch,
    Dictator,
    LocationProfile,
    Median,
    Mirror,
    Mixture,
    Optimal,
    OrderStatistic,
    RatioReport,
    RatioSearchConfig,
    Symmetrized,
    ThreePoint,
    expected_social_cost,
    optimal_cost,
    optimal_location,
    point_mass,
    ratio,
    run,
    social_cost,
    worst_ratio_search,
)
from lpfacility.core import NonFiniteResult
from lpfacility.mechanisms import parse_mechanism
from lpfacility.verification.ratio import _ratios, _report_for_distribution, four_block_profiles


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

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_equal_points_whose_mean_rounds_take_the_degenerate_convention(self, value):
        # the p = 2 optimum is the points themselves, not a rounded mean off them
        report = ratio(Median(), LocationProfile([value] * 3), 2.0)
        assert report.opt_cost == 0.0 and report.ratio == 1.0

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


def reference_ratio(spec, prof, p):
    # one profile priced through the public distribution path, not the batched pricer
    mech = expected_social_cost(prof, run(spec, prof, p), p)
    opt = optimal_cost(prof, p)
    if not (math.isfinite(mech) and math.isfinite(opt)):
        raise NonFiniteResult(f"social cost overflows on {prof!r}: {mech!r} against {opt!r}")
    value = (1.0 if mech == 0.0 else math.inf) if opt == 0.0 else mech / opt
    return RatioReport(spec, prof, p, mech, opt, value)


def reference_worst_ratio_search(spec, p, n, cfg):
    # a strict ">" loop over the same profiles in the same order, rng draws included
    rng = np.random.default_rng(cfg.seed)
    best = None
    splits = [LocationProfile([0.0] * (n - m) + [1.0] * m) for m in range(1, n)]
    for prof in splits + four_block_profiles(n, p):
        report = reference_ratio(spec, prof, p)
        if report.opt_cost != 0.0 and (best is None or report.ratio > best.ratio):
            best = report
    for _ in range(cfg.trials):
        report = reference_ratio(spec, LocationProfile(rng.uniform(0.0, 1.0, size=n)), p)
        if report.opt_cost != 0.0 and report.ratio > best.ratio:
            best = report
    current, span = best.profile.values.copy(), max(best.profile.span, 1.0)
    for it in range(cfg.hill_iters):
        proposal = current.copy()
        step = span * 0.5 ** (1.0 + 4.0 * it / max(cfg.hill_iters, 1))
        proposal[it % n] += step * float(rng.uniform(-1.0, 1.0))
        report = reference_ratio(spec, LocationProfile(proposal), p)
        if report.opt_cost > 0.0 and report.ratio > best.ratio:
            best, current = report, proposal
    return best


class TestWorstRatioSearch:
    @pytest.mark.parametrize(
        "spec, p, n",
        [
            (spec, p, n)
            for spec in ("median", "dictator:1", "opt", "order:2")
            for p, n in [(1.0, 2), (2.0, 3), (3.0, 4), (4.0, 6), (math.inf, 5)]
        ]
        + [(spec, p, 2) for spec in ("lrm", "threepoint:0.2", "mirror(median)") for p in (1.0, 3.0, math.inf)]
        # the ratio-search bench's shapes: the median and the half-median/half-optimum mixture
        + [("median", p, n) for p in (1.5, 5.0) for n in (7, 10)]
        + [("mixture:{dict:[],order:[0,0,0.5,0,0],opt:0.5}", p, 5) for p in (1.5, 5.0)],
    )
    def test_matches_the_loop_reference(self, spec, p, n):
        spec = parse_mechanism(spec)
        cfg = RatioSearchConfig(trials=15, hill_iters=15, seed=3)
        assert worst_ratio_search(spec, p, n, cfg) == reference_worst_ratio_search(spec, p, n, cfg)

    def test_ties_keep_the_first_split(self):
        # at p = 1 the median is optimal, so every ratio ties at 1
        report = worst_ratio_search(Median(), 1.0, 9)
        assert report.ratio == 1.0
        assert report.profile.values.tolist() == [0.0] * 8 + [1.0]

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

    @pytest.mark.parametrize("n", [3.0, True, np.float64(4.0)])
    def test_a_non_integer_n_is_refused_by_name(self, n):
        with pytest.raises(TypeError, match=re.escape(f"n must be an integer, got {n!r}")):
            worst_ratio_search(Median(), 2.0, n)

    def test_fewer_than_two_agents_are_refused_by_name(self):
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            worst_ratio_search(Median(), 2.0, np.int64(1))

    def test_found_profile_reproduces_reported_ratio(self):
        report = worst_ratio_search(LRM(), 2.0, n=2, cfg=RatioSearchConfig(trials=30))
        again = ratio(LRM(), report.profile, 2.0)
        assert again.ratio == report.ratio


def catalog(n):
    """Every catalog rule at n agents: the two-agent rules at n = 2 only."""
    median_rank = [0.0] * n
    median_rank[(n + 1) // 2 - 1] = 0.5
    specs = [Median(), OrderStatistic(1), OrderStatistic(n), Dictator(1), Dictator(n), Optimal(), Optimal(3.0)]
    # an optimum atom at the evaluation norm, and one at another norm
    specs += [Mixture(order_weights=tuple(median_rank), opt_weight=0.5)]
    specs += [Mixture(dictator_weights=(0.5,) + (0.0,) * (n - 1), opt_weight=0.5, p=1.5)]
    specs += [Mixture(dictator_weights=(1.0 / n,) * n)]
    if n == 2:
        specs += [LRM(), ThreePoint(0.1), Mirror(Median()), Mirror(Optimal()), Mirror(Dictator(1)), Mirror(LRM())]
        specs += [Symmetrized(Optimal()), Symmetrized(ThreePoint(0.1)), Symmetrized(Dictator(2))]
    return specs


def pricing_rows(n, p, rng):
    """Uniform rows, rows rounded to thirds (ties) and the four-block profiles."""
    rows = [rng.uniform(-1.0, 2.0, size=n) for _ in range(4)]
    rows += [np.round(rng.uniform(0.0, 2.0, size=n) * 3.0) / 3.0 for _ in range(4)]
    rows += [prof.values for prof in four_block_profiles(n, p)]
    return np.array(rows)


def hexed(*values):
    return tuple(float(v).hex() for v in values)


class TestBatchedPricer:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 5.0, 7.3, math.inf])
    def test_every_row_equals_the_distribution_path(self, p):
        # one batch per rule and shape, each row against run + expected_social_cost + optimal_cost
        rng = np.random.default_rng(int(7 * p) if math.isfinite(p) else 70)
        for n in range(2, 13):
            rows = pricing_rows(n, p, rng)
            for spec in catalog(n):
                priced = _ratios(spec, rows, p)
                assert len(priced) == len(rows)
                for row, got in zip(rows, priced):
                    want = reference_ratio(spec, LocationProfile(row), p)
                    assert hexed(*got) == hexed(want.mechanism_cost, want.opt_cost, want.ratio), (spec, row)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_rows_at_span_1e290_keep_their_bits(self, p):
        rows = np.random.default_rng(5).uniform(0.0, 1.0, size=(20, 4)) * 1e-290
        rows[:, 0], rows[:, 1] = 0.0, 1e-290
        for spec in (Median(), Optimal(), Mixture(order_weights=(0.0, 0.5, 0.0, 0.0), opt_weight=0.5)):
            for row, got in zip(rows, _ratios(spec, rows, p)):
                want = reference_ratio(spec, LocationProfile(row), p)
                assert hexed(*got) == hexed(want.mechanism_cost, want.opt_cost, want.ratio)

    def test_the_first_failing_row_raises_its_own_error(self):
        rows = np.array([[0.0, 1.0], [-1e308, 1e308], [-1.5e308, 1e308]])
        message = "social cost overflows on LocationProfile([-1e+308, 1e+308]): inf against 1.2599210498948732e+308"
        with pytest.raises(NonFiniteResult, match=f"^{re.escape(message)}$"):
            _ratios(Median(), rows, 3.0)
        with pytest.raises(ArityMismatch, match="^lrm is a two-agent rule, profile has 3$"):
            _ratios(LRM(), np.zeros((2, 3)), 2.0)

    def test_a_subnormal_profile_is_priced_at_unit_span(self):
        # 0.5 * 5e-324 rounds to 0: each weighted term used to vanish, and the ratio read 0
        report = ratio(Symmetrized(Optimal()), LocationProfile([5e-324, 1e-323]), 1.0)
        assert (report.mechanism_cost, report.opt_cost, report.ratio) == (5e-324, 5e-324, 1.0)
        # a subnormal optimal cost rounds off its bits; ratios are scale-free
        # (at p = 2 both costs rounded to 5e-324, and the ratio read 1, not sqrt(2))
        for p in (1.5, 2.0, 3.0, math.inf):
            tiny = ratio(Median(), LocationProfile([5e-324, 1e-323]), p)
            assert tiny.ratio == ratio(Median(), LocationProfile([0.0, 1.0]), p).ratio > 1.25

    def test_an_overflowing_p1_sum_is_refused_without_a_warning(self):
        # the suite turns RuntimeWarning into an error, so numpy's overflow warning would fail here
        with pytest.raises(NonFiniteResult):
            ratio(Optimal(3.0), LocationProfile([-1e308, 1e308]), 1.0)
        with pytest.raises(NonFiniteResult):
            ratio(Median(), LocationProfile([-1e308, -1e307, 1e307, 1e308]), 1.0)


class TestRatioSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("trials", -3), ("trials", 2.0), ("trials", True), ("hill_iters", -2), ("hill_iters", 1.5)]
        + [("seed", -1), ("seed", 1.5), ("seed", True)],
    )
    def test_invalid_counts_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"RatioSearchConfig.{field} must be an integer >= 0"):
            RatioSearchConfig(**{field: value})

    def test_zero_counts_scan_the_splits_only(self):
        cfg = RatioSearchConfig(trials=0, hill_iters=np.int64(0))
        report = worst_ratio_search(Median(), 2.0, 3, cfg)
        assert report.profile.values.tolist() in ([0.0, 0.0, 1.0], [0.0, 1.0, 1.0])


class TestSocialCostSanity:
    def test_interpolating_norms_are_ordered(self):
        prof = LocationProfile([0.0, 0.3, 0.9, 2.0])
        costs = [social_cost(prof, 0.5, p) for p in (1.0, 1.5, 2.0, 4.0, 16.0, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
