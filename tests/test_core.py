"""Profiles, distributions, and cost primitives."""

import math
import warnings

import numpy as np
import pytest

from lpfacility import (
    FacilityDistribution,
    LocationProfile,
    agent_cost,
    expected_agent_cost,
    expected_social_cost,
    format_pnorm,
    order_statistic,
    parse_pnorm,
    point_mass,
    reflect,
    social_cost,
    validate_pnorm,
)
from lpfacility.core import _lp_norms
from lpfacility.mechanisms import Optimal, Symmetrized, run


class TestPNorm:
    def test_accepts_one_and_above(self):
        assert validate_pnorm(1) == 1.0
        assert validate_pnorm(2.5) == 2.5
        assert validate_pnorm(math.inf) == math.inf

    @pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, math.nan])
    def test_rejects_below_one_and_nan(self, bad):
        with pytest.raises(ValueError):
            validate_pnorm(bad)

    def test_parse_and_format_round_trip(self):
        for text in ["1.0", "2.0", "3.5", "inf"]:
            assert format_pnorm(parse_pnorm(text)) == text
        assert parse_pnorm("2") == 2.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pnorm("two")
        with pytest.raises(ValueError):
            parse_pnorm("nan")


class TestLocationProfile:
    def test_keeps_reporting_order_and_sorted_view(self):
        prof = LocationProfile([3.0, 1.0, 2.0])
        assert prof.values.tolist() == [3.0, 1.0, 2.0]
        assert prof.sorted_values.tolist() == [1.0, 2.0, 3.0]
        assert prof.values[prof.order].tolist() == prof.sorted_values.tolist()
        assert (prof.n, prof.low, prof.high, prof.span) == (3, 1.0, 3.0, 2.0)

    def test_duplicates_keep_multiplicity(self):
        prof = LocationProfile([1.0, 1.0, 0.0])
        assert prof.sorted_values.tolist() == [0.0, 1.0, 1.0]

    def test_rejects_small_nonfinite_and_nested(self):
        with pytest.raises(ValueError):
            LocationProfile([1.0])
        with pytest.raises(ValueError):
            LocationProfile([0.0, math.inf])
        with pytest.raises(ValueError):
            LocationProfile([0.0, math.nan])
        with pytest.raises(ValueError):
            LocationProfile([[0.0, 1.0]])

    def test_immutable(self):
        prof = LocationProfile([0.0, 1.0])
        with pytest.raises(AttributeError):
            prof.values = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            prof.values[0] = 5.0

    def test_with_report(self):
        prof = LocationProfile([0.0, 1.0, 2.0])
        replaced = prof.with_report(2, 9.0)
        assert replaced.values.tolist() == [0.0, 9.0, 2.0]
        assert prof.values.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(IndexError):
            prof.with_report(4, 0.0)


class TestFacilityDistribution:
    def test_merges_equal_atoms_and_drops_zeros(self):
        d = FacilityDistribution([(1.0, 0.25), (0.0, 0.5), (1.0, 0.25), (2.0, 0.0)])
        assert d.locations.tolist() == [0.0, 1.0]
        assert d.probabilities.tolist() == [0.5, 0.5]

    def test_point_mass(self):
        d = point_mass(3.5)
        assert d.is_deterministic
        assert d.atoms() == [(3.5, 1.0)]

    def test_negative_zero_normalized(self):
        d = FacilityDistribution([(-0.0, 0.5), (0.0, 0.5)])
        assert d.atoms() == [(0.0, 1.0)]
        assert math.copysign(1.0, d.locations[0]) == 1.0

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            FacilityDistribution([(0.0, 0.5), (1.0, 0.6)])
        with pytest.raises(ValueError):
            FacilityDistribution([(0.0, 1.0 + 1e-9)])
        # within tolerance is accepted
        FacilityDistribution([(0.0, 1.0 + 1e-13)])

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            FacilityDistribution([])
        with pytest.raises(ValueError):
            FacilityDistribution([(math.inf, 1.0)])
        with pytest.raises(ValueError):
            FacilityDistribution([(0.0, -0.5), (1.0, 1.5)])

    def test_equality_is_structural(self):
        a = FacilityDistribution([(0.0, 0.5), (1.0, 0.5)])
        b = FacilityDistribution([(1.0, 0.5), (0.0, 0.5)])
        assert a == b and hash(a) == hash(b)


class TestCosts:
    def test_agent_cost(self):
        assert agent_cost(0.0, 0.75) == 0.75
        assert agent_cost(2.0, -1.0) == 3.0
        assert agent_cost(1.5, 1.5) == 0.0

    def test_expected_agent_cost_hand_sum(self):
        d = FacilityDistribution([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        # 0.25*1 + 0.5*0.5 + 0.25*0 = 0.5
        assert expected_agent_cost(1.0, d) == 0.5
        assert expected_agent_cost(0.5, d) == 0.25

    def test_social_cost_examples(self):
        prof = LocationProfile([0.0, 1.0])
        assert social_cost(prof, 0.5, 2.0) == pytest.approx(2.0**-0.5, abs=1e-15)
        assert social_cost(prof, 0.5, 1.0) == 1.0
        assert social_cost(prof, 0.5, math.inf) == 0.5
        assert social_cost(prof, 0.0, math.inf) == 1.0
        six = LocationProfile([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        # (6 * 0.5^3)^(1/3) = 6^(1/3)/2
        assert social_cost(six, 0.5, 3.0) == pytest.approx(6.0 ** (1 / 3) / 2, abs=1e-15)

    def test_social_cost_zero_at_common_point(self):
        prof = LocationProfile([2.0, 2.0, 2.0])
        for p in (1.0, 2.0, 3.5, math.inf):
            assert social_cost(prof, 2.0, p) == 0.0

    def test_overflow_safety_via_peak_factoring(self):
        prof = LocationProfile([0.0, 1e155])
        value = social_cost(prof, 0.0, 8.0)
        assert math.isfinite(value)
        assert value == pytest.approx(1e155, rel=1e-12)

    def test_distance_past_the_largest_double_costs_inf(self):
        prof = LocationProfile([-1e308, 1e308])
        assert social_cost(prof, -1e308, 3.0) == math.inf
        assert social_cost(prof, 0.0, 3.0) == 1.2599210498948732e308

    def test_an_overflowing_p1_sum_costs_inf_without_a_warning(self):
        prof = LocationProfile([-1e308, -1e307, 1e307, 1e308])
        assert social_cost(prof, 0.0, 1.0) == math.inf

    def test_a_facility_past_the_largest_double_from_an_agent_costs_inf(self):
        assert social_cost(LocationProfile([-1e308, 1e308]), 1e308, 3.0) == math.inf

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    def test_a_row_holding_inf_has_norm_inf_without_a_warning(self, p):
        rows = np.array([[np.inf, 1.0, 0.0], [2.0, np.inf, np.inf], [3.0, 0.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _lp_norms(rows, p)
        assert norms[:2] == [math.inf, math.inf]
        assert norms[2] == _lp_norms(rows[2:], p)[0] < math.inf

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 5.0, 7.3, math.inf])
    def test_row_norms_equal_the_one_dimensional_norm(self, p):
        # each row of a batch against the 1-D peak-factored norm, by float.hex
        rng = np.random.default_rng(14)
        for n in (2, 3, 7, 8, 9, 16, 129, 513):
            rows = rng.uniform(0.0, 1.0, size=(12, n)) * 10.0 ** rng.integers(-5, 6, size=(12, 1))
            rows[0] = 0.0
            rows[1, : n // 2] = rows[1, 0]
            for row, got in zip(rows, _lp_norms(rows, p)):
                peak = float(row.max())
                if math.isinf(p) or peak == 0.0:
                    want = peak
                elif p == 1.0:
                    want = float(np.sum(row))
                else:
                    want = peak * float(np.sum((row / peak) ** p)) ** (1.0 / p)
                assert got.hex() == want.hex()

    def test_expected_social_cost_hand_sum(self):
        prof = LocationProfile([0.0, 1.0])
        d = FacilityDistribution([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)])
        # 0.25*1 + 0.5*(1/sqrt2) + 0.25*1 = 0.5 + sqrt(2)/4
        assert expected_social_cost(prof, d, 2.0) == pytest.approx(
            0.5 + math.sqrt(2) / 4, abs=1e-15
        )

    def test_expectation_of_norm_not_norm_of_expectation(self):
        prof = LocationProfile([0.0, 1.0])
        d = FacilityDistribution([(0.0, 0.5), (1.0, 0.5)])
        value = expected_social_cost(prof, d, 2.0)
        # each atom costs 1, so the expectation is 1; the mean location 0.5
        # would cost only 1/sqrt(2)
        assert value == 1.0
        assert value > social_cost(prof, 0.5, 2.0)

    def test_a_subnormal_expected_cost_keeps_its_bits(self):
        # each atom costs 5e-324 with weight 0.5, and 0.5 * 5e-324 rounds to 0
        prof = LocationProfile([5e-324, 1e-323])
        lottery = run(Symmetrized(Optimal()), prof, 1.0)
        assert expected_social_cost(prof, lottery, 1.0) == 5e-324

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_a_subnormal_lottery_costs_its_power_of_two_image_rounded_once(self, p):
        # at p in {1, inf} every subnormal cost is exact, so only the weighted
        # sum rounds, and it rounds as the image's sum scaled back by 2^-1074
        atoms = [(0.0, 0.25), (3.0, 0.5), (7.0, 0.125), (2.0, 0.125)]
        for reports in ([1.0, 2.0, 5.0], [0.0, 7.0], [3.0, 3.0, 4.0, 9.0]):
            image = expected_social_cost(LocationProfile(reports), FacilityDistribution(atoms), p)
            tiny = FacilityDistribution([(math.ldexp(y, -1074), w) for y, w in atoms])
            got = expected_social_cost(LocationProfile([math.ldexp(x, -1074) for x in reports]), tiny, p)
            assert got.hex() == math.ldexp(image, -1074).hex()
            assert got > 0.0

    def test_one_atom_expectation_equals_social_cost_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            prof = LocationProfile(rng.uniform(-5, 5, size=rng.integers(2, 9)))
            y = float(rng.uniform(-6, 6))
            p = float(rng.choice([1.0, 1.7, 2.0, 3.0, math.inf]))
            assert expected_social_cost(prof, point_mass(y), p) == social_cost(prof, y, p)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            vals = rng.uniform(-3, 3, size=rng.integers(2, 8))
            y = float(rng.uniform(-4, 4))
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0, math.inf]))
            base = social_cost(LocationProfile(vals), y, p)
            c = float(rng.uniform(-2, 2))
            shifted = social_cost(LocationProfile(vals + c), y + c, p)
            assert shifted == pytest.approx(base, abs=1e-12 * (1 + abs(base)))
            s = float(rng.uniform(0.1, 3.0))
            scaled = social_cost(LocationProfile(vals * s), y * s, p)
            assert scaled == pytest.approx(s * base, abs=1e-12 * (1 + s * abs(base)))

    def test_triangleish_bound_between_norms(self):
        # for p >= 1 the L_p norm of n distances is between the max and the sum
        rng = np.random.default_rng(13)
        for _ in range(100):
            vals = rng.uniform(-3, 3, size=rng.integers(2, 10))
            prof = LocationProfile(vals)
            y = float(rng.uniform(-4, 4))
            p = float(rng.uniform(1.0, 9.0))
            value = social_cost(prof, y, p)
            assert social_cost(prof, y, math.inf) <= value * (1 + 1e-12)
            assert value <= social_cost(prof, y, 1.0) * (1 + 1e-12)


class TestOrderStatistic:
    def test_examples(self):
        prof = LocationProfile([3.0, 1.0, 2.0])
        assert order_statistic(prof, 1) == 1.0
        assert order_statistic(prof, 2) == 2.0
        assert order_statistic(prof, 3) == 3.0

    def test_out_of_range(self):
        prof = LocationProfile([0.0, 1.0])
        for j in (0, 3, -1):
            with pytest.raises(IndexError):
                order_statistic(prof, j)
        with pytest.raises(TypeError):
            order_statistic(prof, 1.5)


class TestReflect:
    def test_reflects_about_range_midpoint(self):
        prof = LocationProfile([0.0, 1.0, 4.0])
        mirrored = reflect(prof)
        assert mirrored.values.tolist() == [4.0, 3.0, 0.0]

    def test_involution_on_dyadic_profiles(self):
        prof = LocationProfile([-2.0, 0.5, 1.0, 3.0])
        assert reflect(reflect(prof)) == prof
