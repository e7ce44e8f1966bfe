"""Approximation ratios against the cost-minimizing location."""

import builtins
import importlib
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

# the module itself: the package's `ratio` attribute is the function
RATIO_MODULE = importlib.import_module("lpfacility.verification.ratio")


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
        # optimal_location, so the two agree to the last bit; on two agents
        # at p > 1 it places the midrange, which the solve may miss by an ulp
        rng = np.random.default_rng(51)
        for _ in range(20):
            prof = LocationProfile(rng.uniform(-3, 3, size=int(rng.integers(2, 9))))
            for p in (1.0, 1.5, 2.0, 2.7, 3.0, math.inf):
                assert ratio(Optimal(), prof, p).ratio == 1.0
                q = math.inf if prof.n == 2 and p > 1.0 else p
                assert run(Optimal(), prof, p).locations[0] == optimal_location(prof, q).location

    def test_two_agent_optima_and_their_mirrors_rate_exactly_one(self):
        # every two-agent optimum is the midrange, the exact mirror of itself;
        # a float reflection r + o - y misses the optimum's cost on some rows
        rng = np.random.default_rng(2)
        for spec in (Optimal(), Mirror(Optimal()), Symmetrized(Optimal())):
            for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                for _ in range(60):
                    assert ratio(spec, LocationProfile(rng.uniform(-1.0, 2.0, 2)), p).ratio == 1.0, (spec, p)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_tied_profile_rates_one_and_runs_to_the_tie(self, n):
        # a midpoint taken as 0.5 * r + 0.5 * o rounds 5e-324 to 0, off the
        # tie, and the unit-span pricing would then divide by the zero span
        rules = catalog(2) if n == 2 else [Median(), Dictator(n), Optimal(), catalog(n)[7]]
        for tie in (5e-324, 1.5e-323, -2.5e-323, 1e-310, 1.7976931348623157e308, -1e308):
            profile = LocationProfile([tie] * n)
            for spec in rules:
                for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                    assert ratio(spec, profile, p).ratio == 1.0, (spec, tie, p)
                    assert run(spec, profile, p).locations.tolist() == [tie], (spec, tie, p)

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


def reference_worst_ratio_search(spec, p, n, cfg, price=reference_ratio):
    # a strict ">" loop over the same profiles in the same order, rng draws
    # included, the climb one proposal per step
    rng = np.random.default_rng(cfg.seed)
    best = None
    splits = [LocationProfile([0.0] * (n - m) + [1.0] * m) for m in range(1, n)]
    for prof in splits + four_block_profiles(n, p):
        report = price(spec, prof, p)
        if report.opt_cost != 0.0 and (best is None or report.ratio > best.ratio):
            best = report
    for _ in range(cfg.trials):
        report = price(spec, LocationProfile(rng.uniform(0.0, 1.0, size=n)), p)
        if report.opt_cost != 0.0 and report.ratio > best.ratio:
            best = report
    current, span = best.profile.values.copy(), max(best.profile.span, 1.0)
    for it in range(cfg.hill_iters):
        proposal = current.copy()
        step = span * 0.5 ** (1.0 + 4.0 * it / max(cfg.hill_iters, 1))
        proposal[it % n] += step * float(rng.uniform(-1.0, 1.0))
        report = price(spec, LocationProfile(proposal), p)
        if report.opt_cost > 0.0 and report.ratio > best.ratio:
            best, current = report, proposal
    return best


# shapes whose climb accepts at the default config, with the steps of 200
# it accepts: dictator:1 at 0 and 6, LRM at 28, and the dictator/optimum
# mixture at 6, at 0 and 4, and at 12 and 136
ACCEPTING = [
    ("dictator:1", 2.0, 3),
    ("lrm", 1.5, 2),
    ("mixture:{dict:[0.5,0],order:[],opt:0.5,p:1.5}", 1.0, 2),
    ("mixture:{dict:[0.5,0,0,0],order:[],opt:0.5,p:1.5}", 2.0, 4),
    ("mixture:{dict:[0.5,0,0,0],order:[],opt:0.5,p:1.5}", 3.0, 4),
]


def search_shapes():
    """(spec, p, n, hill_iters) cases: hill_iters None runs a small config,
    15 trials and 15 hill steps at seed 3; a count runs the default trials
    and seed with that many steps."""
    small = [
        (spec, p, n)
        for spec in ("median", "dictator:1", "opt", "order:2")
        for p, n in [(1.0, 2), (2.0, 3), (3.0, 4), (4.0, 6), (math.inf, 5)]
    ]
    small += [(spec, p, 2) for spec in ("lrm", "threepoint:0.2", "mirror(median)") for p in (1.0, 3.0, math.inf)]
    # the ratio-search bench's shapes: the median and the half-median/half-optimum mixture
    small += [("median", p, n) for p in (1.5, 5.0) for n in (7, 10)]
    small += [("mixture:{dict:[],order:[0,0,0.5,0,0],opt:0.5}", p, 5) for p in (1.5, 5.0)]
    cases = [pytest.param(spec, p, n, None, id=f"{spec}-{p}-{n}") for spec, p, n in small]
    return cases + [
        pytest.param(spec, p, n, hill, id=f"{spec}-{p}-{n}-hill{hill}")
        for spec, p, n in ACCEPTING
        for hill in (0, 1, 17, 200)
    ]


class TestWorstRatioSearch:
    @pytest.mark.parametrize("spec, p, n, hill", search_shapes())
    def test_matches_the_loop_reference(self, spec, p, n, hill):
        cfg = RatioSearchConfig(trials=15, hill_iters=15, seed=3) if hill is None else RatioSearchConfig(hill_iters=hill)
        spec = parse_mechanism(spec)
        assert worst_ratio_search(spec, p, n, cfg) == reference_worst_ratio_search(spec, p, n, cfg)

    def test_climb_rows_priced_are_bounded(self, monkeypatch):
        calls = []

        def counted(spec, rows, p):
            calls.append(len(rows))
            return _ratios(spec, rows, p)

        monkeypatch.setattr(RATIO_MODULE, "_ratios", counted)
        for spec, p, n in ACCEPTING + [("median", 5.0, 10)]:
            for hill in (1, 17, 200, 1500):
                calls.clear()
                worst_ratio_search(parse_mechanism(spec), p, n, RatioSearchConfig(hill_iters=hill))
                # the first call prices the profiles known before the climb
                assert hill <= sum(calls[1:]) <= 2 * hill + 16, (spec, p, n, hill, calls)
        # the bench's 10-step climb is one call
        calls.clear()
        worst_ratio_search(Median(), 3.0, 6, RatioSearchConfig(trials=10, hill_iters=10))
        assert len(calls) == 2 and calls[1] == 10

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_rows_stay_bounded_however_often_the_climb_accepts(self, monkeypatch, n):
        # a pricer whose ratio is agent 1's report: the climb accepts each
        # step that moves agent 1 right, about one step in 2n
        def agent_one(spec, rows, p):
            calls.append(len(rows))
            return [(float(row[0]), 1.0, float(row[0])) for row in rows]

        def priced(spec, prof, p):
            value = float(prof.values[0])
            return RatioReport(spec, prof, p, value, 1.0, value)

        for hill in (1, 16, 17, 300):
            calls = []
            cfg = RatioSearchConfig(trials=5, hill_iters=hill, seed=n)
            monkeypatch.setattr(RATIO_MODULE, "_ratios", agent_one)
            got = worst_ratio_search(Median(), 2.0, n, cfg)
            monkeypatch.undo()
            assert got == reference_worst_ratio_search(Median(), 2.0, n, cfg, priced)
            assert sum(calls[1:]) <= 2 * hill + 16, (hill, calls)

    @pytest.mark.parametrize("spec, p, n", ACCEPTING[:2])
    def test_a_batch_that_raises_is_priced_again_step_by_step(self, monkeypatch, spec, p, n):
        spec, cfg = parse_mechanism(spec), RatioSearchConfig()
        seen = []

        def recorded(spec, prof, p):
            seen.append(prof.values.tolist())
            return reference_ratio(spec, prof, p)

        want = reference_worst_ratio_search(spec, p, n, cfg, recorded)
        raised = []

        def failing(spec, rows, p, poisoned):
            # raises on any row the one-step climb never prices: the rows of
            # a speculative batch after its accepted step
            for row in rows.tolist():
                if poisoned(row):
                    raised.append(row)
                    raise NonFiniteResult(f"poisoned row {row!r}")
            return _ratios(spec, rows, p)

        monkeypatch.setattr(RATIO_MODULE, "_ratios", lambda s, r, q: failing(s, r, q, lambda row: row not in seen))
        assert worst_ratio_search(spec, p, n, cfg) == want
        assert raised
        # a row the one-step climb reaches raises its own error
        climb = seen[-cfg.hill_iters :]
        poison = climb[len(climb) // 2]
        monkeypatch.setattr(RATIO_MODULE, "_ratios", lambda s, r, q: failing(s, r, q, lambda row: row == poison))
        with pytest.raises(NonFiniteResult, match=re.escape(f"poisoned row {poison!r}")):
            worst_ratio_search(spec, p, n, cfg)

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

    def test_a_subnormal_profile_reports_its_unit_span_costs_scaled_back(self):
        # at unit span the lottery's atoms sit between the subnormal grid
        # points that `run` rounds them onto, so the reported costs are the
        # unit-span ones times the span, not the returned lottery's cost
        profile = LocationProfile([1.33e-322, 5e-323])
        spec = Symmetrized(Optimal())
        report = ratio(spec, profile, 1.5)
        unit = ratio(spec, LocationProfile([1.0, 0.0]), 1.5)
        span = profile.high - profile.low
        scaled = (unit.mechanism_cost * span, unit.opt_cost * span, unit.ratio)
        assert (report.mechanism_cost, report.opt_cost, report.ratio) == scaled == (6.4e-323, 6.4e-323, 1.0)
        assert expected_social_cost(profile, run(spec, profile, 1.5), 1.5) == 7e-323

    def test_an_overflowing_p1_sum_is_refused_without_a_warning(self):
        # the suite turns RuntimeWarning into an error, so numpy's overflow warning would fail here
        with pytest.raises(NonFiniteResult):
            ratio(Optimal(3.0), LocationProfile([-1e308, 1e308]), 1.0)
        with pytest.raises(NonFiniteResult):
            ratio(Median(), LocationProfile([-1e308, -1e307, 1e307, 1e308]), 1.0)


REAL_SUM = builtins.sum


def compensated_sum(values, start=0):
    """builtin `sum` as Python 3.12 and later add floats: Neumaier's
    compensated sum; anything else goes to the real `sum`."""
    items = list(values)
    if type(start) is not int or not all(type(v) is float for v in items):
        return REAL_SUM(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestSumsDoNotDependOnTheInterpreter:
    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0, 7.3])
    def test_a_compensated_builtin_sum_moves_no_bit(self, monkeypatch, p):
        # rows where a compensated sum rounds differently: of the scaled
        # points _solve_row starts its Newton solve from, or of the weighted
        # costs expected_social_cost adds over a uniform dictatorship's n atoms
        rng = np.random.default_rng(int(10 * p))
        cases = []
        for n in range(2, 13):
            spec = Mixture(dictator_weights=(1.0 / n,) * n)
            for _ in range(60):
                prof = LocationProfile(rng.uniform(-1.0, 2.0, size=n))
                dist = run(spec, prof, p)
                lo, hi = prof.low, prof.high
                zs = [(x - (0.5 * lo + 0.5 * hi)) / (0.5 * hi - 0.5 * lo) for x in prof.sorted_values.tolist()]
                terms = [w * social_cost(prof, y, p) for y, w in dist.atoms()]
                if any(compensated_sum(v) != left_sum(v) for v in (zs, terms)):
                    cases.append((spec, prof, dist))

        def outcomes():
            out = []
            for spec, prof, dist in cases:
                opt = optimal_location(prof, p)
                report = ratio(spec, prof, p)
                out.append(hexed(opt.location, opt.cost, expected_social_cost(prof, dist, p)))
                out.append(hexed(report.mechanism_cost, report.opt_cost, report.ratio))
            return out

        assert len(cases) > 300
        want = outcomes()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert outcomes() == want


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


def two_agent_specs():
    """Fourteen catalog rules at n = 2: lines, optima, lotteries, mirrors and a mixture."""
    return [
        Median(),
        OrderStatistic(1),
        OrderStatistic(2),
        Dictator(1),
        Dictator(2),
        Optimal(),
        Optimal(3.0),
        LRM(),
        ThreePoint(0.2),
        Mirror(Median()),
        Mirror(Optimal()),
        Symmetrized(ThreePoint(0.2)),
        Symmetrized(Optimal()),
        Mixture(dictator_weights=(0.5, 0.0), order_weights=(0.0, 0.25), opt_weight=0.25),
    ]


class TestTwoAgentReduction:
    """Every catalog rule is shift and scale equivariant, so every
    nondegenerate two-agent profile prices as (0, 1) or as (1, 0): the
    search's worst ratio is the larger ratio of those two profiles (the
    reduction behind the paper's two-agent optimality claim for LRM)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 8.0, math.inf])
    def test_the_search_equals_the_two_canonical_profiles(self, p):
        for spec in two_agent_specs():
            found = worst_ratio_search(spec, p, 2).ratio
            canonical = max(ratio(spec, LocationProfile(v), p).ratio for v in ([0.0, 1.0], [1.0, 0.0]))
            # the search prices both splits, so it is never below them; above
            # them by rounding alone: its climb reaches profiles whose span is
            # 3e4 times smaller than their distance from 0, where an atom
            # rounds by an ulp of the reports, 1e-12 of the span
            # (symmetrize(threepoint:0.2) at p = 1 reads 1.0000000000010099)
            assert canonical <= found <= canonical * (1.0 + 2e-12), (spec, p)
