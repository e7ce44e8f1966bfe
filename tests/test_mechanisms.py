"""Mechanism catalog behavior and the mechanism text grammar."""

import math

import numpy as np
import pytest

from lpfacility import (
    LRM,
    ArityMismatch,
    Dictator,
    FacilityDistribution,
    InvalidWeight,
    LocationProfile,
    Median,
    Mirror,
    Mixture,
    Optimal,
    OrderStatistic,
    Symmetrized,
    ThreePoint,
    deviation_cost_curve,
    format_mechanism,
    lrm_distribution,
    median_location,
    parse_mechanism,
    point_mass,
    run,
    three_point_distribution,
)
from lpfacility import mechanisms


def dyadic_profiles():
    return [
        LocationProfile([0.0, 1.0]),
        LocationProfile([-1.0, 1.0]),
        LocationProfile([0.5, 3.5]),
        LocationProfile([-2.25, -0.75]),
    ]


class TestMedian:
    def test_lower_median_both_parities(self):
        assert median_location(LocationProfile([3.0, 1.0, 2.0])) == 2.0
        assert median_location(LocationProfile([0.0, 1.0])) == 0.0
        assert median_location(LocationProfile([4.0, 2.0, 3.0, 1.0])) == 2.0
        assert median_location(LocationProfile([5.0, 1.0, 4.0, 2.0, 3.0])) == 3.0

    def test_median_equals_middle_order_statistic(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            prof = LocationProfile(rng.uniform(-5, 5, size=n))
            rank = (n + 1) // 2
            assert run(Median(), prof, 2.0) == run(OrderStatistic(rank), prof, 2.0)

    def test_run_returns_point_mass(self):
        assert run(Median(), LocationProfile([3.0, 1.0, 4.0, 1.0, 5.0]), 2.0) == point_mass(3.0)


class TestOrderStatisticAndDictator:
    def test_order_statistic_run(self):
        prof = LocationProfile([3.0, 1.0, 2.0])
        assert run(OrderStatistic(1), prof, 2.0) == point_mass(1.0)
        assert run(OrderStatistic(3), prof, 2.0) == point_mass(3.0)

    def test_dictator_uses_reporting_position(self):
        prof = LocationProfile([3.0, 1.0, 2.0])
        assert run(Dictator(1), prof, 2.0) == point_mass(3.0)
        assert run(Dictator(2), prof, 2.0) == point_mass(1.0)

    def test_out_of_range_is_arity_mismatch(self):
        prof = LocationProfile([0.0, 1.0])
        with pytest.raises(ArityMismatch):
            run(OrderStatistic(3), prof, 2.0)
        with pytest.raises(ArityMismatch):
            run(Dictator(3), prof, 2.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OrderStatistic(0)
        with pytest.raises(TypeError):
            Dictator(1.5)


class TestOptimalSpec:
    def test_uses_evaluation_norm_when_untied(self):
        prof = LocationProfile([0.0, 1.0, 1.0, 1.0])
        assert run(Optimal(), prof, 2.0) == point_mass(0.75)
        assert run(Optimal(), prof, 1.0) == point_mass(1.0)

    def test_carries_its_own_norm(self):
        prof = LocationProfile([0.0, 1.0, 1.0, 1.0])
        assert run(Optimal(1.0), prof, 2.0) == point_mass(1.0)

    def test_validates_norm(self):
        with pytest.raises(ValueError):
            Optimal(0.5)

    def test_a_mean_whose_sum_overflows(self):
        assert run(Optimal(), LocationProfile([1e308, 1.5e308]), 2.0) == point_mass(1.25e308)

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_a_mean_of_equal_points_is_that_point(self, value):
        assert run(Optimal(), LocationProfile([value] * 3), 2.0) == point_mass(value)


class TestTwoAgentLotteries:
    def test_lrm_distribution(self):
        d = lrm_distribution(LocationProfile([0.0, 1.0]))
        assert d.atoms() == [(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]
        d = lrm_distribution(LocationProfile([1.0, -1.0]))
        assert d.atoms() == [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]

    def test_lrm_degenerate_profile_merges(self):
        assert lrm_distribution(LocationProfile([3.0, 3.0])) == point_mass(3.0)

    def test_three_point_examples(self):
        prof = LocationProfile([0.0, 1.0])
        assert three_point_distribution(prof, 0.25) == lrm_distribution(prof)
        assert three_point_distribution(prof, 0.5).atoms() == [(0.0, 0.5), (1.0, 0.5)]
        assert three_point_distribution(prof, 0.0) == point_mass(0.5)
        assert three_point_distribution(prof, 0.2).atoms() == [(0.0, 0.2), (0.5, 0.6), (1.0, 0.2)]

    def test_three_point_validates_q(self):
        prof = LocationProfile([0.0, 1.0])
        for bad in (-0.1, 0.6):
            with pytest.raises(InvalidWeight):
                three_point_distribution(prof, bad)
            with pytest.raises(InvalidWeight):
                ThreePoint(bad)

    def test_two_agent_rules_reject_other_sizes(self):
        prof = LocationProfile([0.0, 0.5, 1.0])
        for spec in (LRM(), ThreePoint(0.3), Mirror(Dictator(1)), Symmetrized(Dictator(1))):
            with pytest.raises(ArityMismatch):
                run(spec, prof, 2.0)

    def test_lrm_shift_scale_invariance_dyadic(self):
        base = lrm_distribution(LocationProfile([0.0, 1.0]))
        shifted = lrm_distribution(LocationProfile([2.0, 3.0]))
        assert shifted.locations.tolist() == [l + 2.0 for l in base.locations.tolist()]
        scaled = lrm_distribution(LocationProfile([0.0, 4.0]))
        assert scaled.locations.tolist() == [4.0 * l for l in base.locations.tolist()]
        assert scaled.probabilities.tolist() == base.probabilities.tolist()


class TestMixture:
    def test_matches_pure_components(self):
        prof = LocationProfile([3.0, 1.0, 2.0])
        assert run(Mixture(dictator_weights=(0.0, 1.0, 0.0)), prof, 2.0) == run(
            Dictator(2), prof, 2.0
        )
        assert run(Mixture(order_weights=(0.0, 1.0, 0.0)), prof, 2.0) == run(
            OrderStatistic(2), prof, 2.0
        )
        assert run(Mixture(opt_weight=1.0), prof, 2.0) == run(Optimal(), prof, 2.0)

    def test_blends_and_merges(self):
        prof = LocationProfile([0.0, 1.0])
        spec = Mixture(dictator_weights=(0.5, 0.25), order_weights=(), opt_weight=0.25, p=2.0)
        d = run(spec, prof, 2.0)
        assert d.atoms() == [(0.0, 0.5), (0.5, 0.25), (1.0, 0.25)]

    def test_weight_validation(self):
        with pytest.raises(InvalidWeight):
            Mixture(dictator_weights=(0.6, 0.6))
        with pytest.raises(InvalidWeight):
            Mixture(dictator_weights=(-0.5, 1.5))
        with pytest.raises(InvalidWeight):
            Mixture(opt_weight=0.9)

    def test_arity_checked_at_run_time(self):
        prof = LocationProfile([0.0, 1.0, 2.0])
        with pytest.raises(ArityMismatch):
            run(Mixture(dictator_weights=(0.5, 0.5)), prof, 2.0)

    def test_total_mass_one(self):
        rng = np.random.default_rng(32)
        prof = LocationProfile([0.0, 0.25, 1.0])
        for _ in range(20):
            raw = rng.uniform(0, 1, size=7)
            raw /= raw.sum()
            spec = Mixture(
                dictator_weights=tuple(raw[:3]),
                order_weights=tuple(raw[3:6]),
                opt_weight=float(raw[6]),
            )
            d = run(spec, prof, 2.0)
            assert float(d.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


class TestMirrorAndSymmetrize:
    def test_mirror_dictator_is_other_endpoint_reflection(self):
        prof = LocationProfile([0.0, 1.0])
        assert run(Mirror(Dictator(1)), prof, 2.0) == point_mass(1.0)
        assert run(Mirror(Dictator(2)), prof, 2.0) == point_mass(0.0)
        prof2 = LocationProfile([1.0, 3.0])
        assert run(Mirror(Dictator(1)), prof2, 2.0) == point_mass(3.0)

    def test_mirror_of_lrm_is_lrm(self):
        for prof in dyadic_profiles():
            assert run(Mirror(LRM()), prof, 2.0) == run(LRM(), prof, 2.0)

    def test_symmetrize_dictator_splits_mass(self):
        prof = LocationProfile([0.0, 1.0])
        d = run(Symmetrized(Dictator(1)), prof, 2.0)
        assert d.atoms() == [(0.0, 0.5), (1.0, 0.5)]

    def test_symmetrize_already_symmetric_is_identity_on_dyadics(self):
        for prof in dyadic_profiles():
            for spec in (LRM(), ThreePoint(0.2)):
                assert run(Symmetrized(spec), prof, 2.0) == run(spec, prof, 2.0)

    def test_symmetrized_output_pairs_exactly(self):
        # each atom pairs with its exact reflection: low with high, and the
        # midrange with itself
        rng = np.random.default_rng(33)
        for _ in range(200):
            prof = LocationProfile(rng.uniform(-7, 7, size=2))
            reflect = {prof.low: prof.high, prof.high: prof.low}
            for spec in (Dictator(1), Dictator(2), ThreePoint(0.3)):
                d = run(Symmetrized(spec), prof, 2.0)
                locs = d.locations
                probs = d.probabilities
                m = locs.size
                for i in range(m):
                    assert locs[m - 1 - i] == reflect.get(locs[i], locs[i])
                    assert probs[i] == probs[m - 1 - i]

    def test_the_mirror_of_dictator_one_is_agent_two_to_the_bit(self):
        # a float reflection r + o - y lands an ulp off the other report,
        # outside the profile, on 1,294 of these profiles
        for row in np.random.default_rng(1).uniform(0.0, 1.0, size=(10_000, 2)).tolist():
            assert run(Mirror(Dictator(1)), LocationProfile(row), 2.0).locations.tolist() == [row[1]]

    def test_no_mirrored_atom_leaves_the_profile(self):
        rows = np.random.default_rng(1).uniform(0.0, 1.0, size=(10_000, 2)).tolist()
        for inner in (Dictator(1), Median(), LRM(), ThreePoint(0.3)):
            for spec in (Mirror(inner), Symmetrized(inner)):
                for row in rows:
                    locations = mechanisms._plan_at(*mechanisms._outcome_plan(spec, row, 2.0, 1), row[0])
                    assert min(row) <= min(locations) and max(locations) <= max(row), (spec, row)

    @pytest.mark.parametrize(
        "inner",
        [Median(), OrderStatistic(1), OrderStatistic(2), Dictator(1), Dictator(2), Optimal(), Optimal(3.0), LRM()]
        + [ThreePoint(0.2), Mixture(dictator_weights=(0.5, 0.0), opt_weight=0.5), Mirror(LRM()), Symmetrized(Median())],
    )
    def test_a_double_mirror_has_the_inner_plan(self, inner):
        rng = np.random.default_rng(34)
        for row in [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [-0.0, 0.0]] + rng.uniform(-3.0, 3.0, size=(20, 2)).tolist():
            for p in (1.0, 1.5, 2.0, 3.0, math.inf):
                for agent in (1, 2):
                    plan = mechanisms._outcome_plan(inner, row, p, agent)
                    assert mechanisms._outcome_plan(Mirror(Mirror(inner)), row, p, agent) == plan

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("spec", [Mirror(Optimal()), Mirror(Dictator(1)), Symmetrized(Optimal())])
    def test_a_mirrored_atom_whose_sum_overflows_stays_finite(self, spec, p):
        # r + others[0] overflows above half the largest double; (r - y) + others[0] does not
        prof = LocationProfile([1e308, 1.5e308])
        d = run(spec, prof, p)
        assert np.all(np.isfinite(d.locations))
        assert np.all((prof.low <= d.locations) & (d.locations <= prof.high))

    def test_a_mirrored_cost_curve_whose_sum_overflows_stays_finite(self):
        # the mirror of agent 1's own report is agent 2's, whatever agent 1 reports
        prof = LocationProfile([1e308, 1.5e308])
        curve = deviation_cost_curve(Mirror(Dictator(1)), prof, 3.0, 1, [1e308, 1.2e308, 1.7e308])
        assert curve.tolist() == [0.5e308] * 3


class TestRunValidation:
    def test_run_validates_norm(self):
        with pytest.raises(ValueError):
            run(Median(), LocationProfile([0.0, 1.0]), 0.0)

    def test_unknown_spec_type(self):
        with pytest.raises(TypeError):
            run("median", LocationProfile([0.0, 1.0]), 2.0)


class TestGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            Median(),
            OrderStatistic(3),
            Dictator(1),
            Optimal(),
            Optimal(2.0),
            Optimal(math.inf),
            LRM(),
            ThreePoint(0.25),
            ThreePoint(0.125),
            Mixture(dictator_weights=(0.5, 0.5)),
            Mixture(order_weights=(0.25, 0.75)),
            Mixture(dictator_weights=(0.1, 0.2), order_weights=(0.3, 0.1), opt_weight=0.3),
            Mixture(opt_weight=1.0, p=3.0),
            Mirror(Dictator(2)),
            Symmetrized(ThreePoint(0.2)),
            Symmetrized(Mirror(Dictator(1))),
        ],
    )
    def test_round_trip(self, spec):
        assert parse_mechanism(format_mechanism(spec)) == spec

    def test_parse_examples(self):
        assert parse_mechanism("median") == Median()
        assert parse_mechanism("order:3") == OrderStatistic(3)
        assert parse_mechanism("dictator:1") == Dictator(1)
        assert parse_mechanism("opt") == Optimal()
        assert parse_mechanism("opt:inf") == Optimal(math.inf)
        assert parse_mechanism("lrm") == LRM()
        assert parse_mechanism("threepoint:0.25") == ThreePoint(0.25)
        assert parse_mechanism(
            "mixture:{dict:[0.25,0.25],order:[],opt:0.5}"
        ) == Mixture(dictator_weights=(0.25, 0.25), opt_weight=0.5)
        assert parse_mechanism("symmetrize(dictator:1)") == Symmetrized(Dictator(1))

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus",
            "order:x",
            "order:",
            "dictator:0",
            "opt:0.5",
            "threepoint:0.7",
            "mixture:{dict:[0.5,0.5]}",
            "mixture:{dict:[1.0],order:[],opt:0,zap:1}",
            "mixture:[0.5,0.5]",
            "mirror(median",
            "",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_mechanism(bad)

    def test_weights_survive_round_trip_exactly(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            raw = rng.uniform(0, 1, size=5)
            raw /= raw.sum()
            spec = Mixture(
                dictator_weights=tuple(raw[:2]),
                order_weights=tuple(raw[2:4]),
                opt_weight=float(raw[4]),
            )
            assert parse_mechanism(format_mechanism(spec)) == spec
