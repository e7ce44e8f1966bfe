"""Misreport search: candidate generation, best responses, scan reduction."""

import numpy as np
import pytest

from lpfacility import (
    LRM,
    Dictator,
    FacilityDistribution,
    LocationProfile,
    Median,
    Mirror,
    Mixture,
    Optimal,
    OrderStatistic,
    Symmetrized,
    ThreePoint,
    UnsupportedSupport,
    best_deviation,
    deviation_cost_curve,
    expected_agent_cost,
    lrm_distribution,
    misreport_candidates,
    point_mass,
    run,
    sp_scan,
    symmetric_sp_margin,
    violation_threshold,
)
from lpfacility.core import NonFiniteResult
from lpfacility.mechanisms import _outcome_plan, _plan_at


class TestCandidates:
    def test_contents_and_order(self):
        prof = LocationProfile([0.0, 1.0])
        cands = misreport_candidates(prof, 1)
        assert cands[0] == 1.0
        assert cands[1:5].tolist() == [-1.0, 1.0, 0.0, 2.0]
        assert cands[5] == -2.0 and cands[2005] == 3.0
        assert cands[-1] == 0.0
        assert cands.size == 1 + 4 + 2001 + 2049 + 1

    def test_scalings_are_exact_dyadics(self):
        prof = LocationProfile([0.0, 1.0])
        cands = misreport_candidates(prof, 2)
        scalings = set(cands[2006:-1].tolist())
        for expect in (-4.0, -1.0, -0.5, 0.5, 1.0, 2.0, 2.5, 4.0):
            assert expect in scalings


class TestViolationThreshold:
    def test_scales_with_span(self):
        assert violation_threshold(LocationProfile([0.0, 1.0])) == 2e-7
        assert violation_threshold(LocationProfile([5.0, 5.0])) == 1e-7
        assert violation_threshold(LocationProfile([0.0, 1.0]), tol=0.5) == 1.0


class TestDeviationCostCurve:
    SPECS = [
        (Median(), 5),
        (OrderStatistic(2), 4),
        (Dictator(3), 3),
        (Optimal(), 4),
        (Optimal(3.0), 3),
        (LRM(), 2),
        (ThreePoint(0.3), 2),
        (Mirror(Dictator(1)), 2),
        (Symmetrized(ThreePoint(0.2)), 2),
        (Mixture(dictator_weights=(0.2, 0.3, 0.1), order_weights=(0.1, 0.0, 0.1), opt_weight=0.2), 3),
    ]

    @pytest.mark.parametrize("spec,n", SPECS)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, float("inf")])
    def test_matches_rerunning_the_mechanism(self, spec, n, p):
        rng = np.random.default_rng(41)
        prof = LocationProfile(rng.uniform(-2, 2, size=n))
        agent = int(rng.integers(1, n + 1))
        x = float(prof.values[agent - 1])
        reports = rng.uniform(-3, 3, size=40)
        batch = deviation_cost_curve(spec, prof, p, agent, reports)
        for r, cost in zip(reports, batch):
            direct = expected_agent_cost(x, run(spec, prof.with_report(agent, float(r)), p))
            assert cost == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("spec,n", SPECS)
    def test_point_evaluator_agrees_with_batch(self, spec, n):
        rng = np.random.default_rng(43)
        prof = LocationProfile(rng.uniform(-2, 2, size=n))
        agent = 1
        x = float(prof.values[0])
        reports = rng.uniform(-3, 3, size=15)
        for p in (1.0, 1.5, 2.0, 3.0, float("inf")):
            others, atoms = _outcome_plan(spec, prof, p, agent)
            batch = deviation_cost_curve(spec, prof, p, agent, reports)
            for r, cost in zip(reports, batch):
                scalar = _plan_at(others, atoms, float(r), x)
                assert scalar == pytest.approx(cost, abs=1e-10)


class TestBestDeviation:
    def test_median_never_gains(self):
        report = best_deviation(Median(), LocationProfile([0.0, 1.0]), 2.0, agent=2)
        assert report.gain <= 0.0
        assert report.truthful_cost == 1.0

    def test_optimal_rule_is_manipulable(self):
        report = best_deviation(Optimal(), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        assert report.best_misreport == -1.0
        assert report.gain == 0.5
        assert report.deviated_cost == 0.0

    def test_optimal_rule_on_a_huge_span(self):
        # the polish solves optima in scaled coordinates, so 1e300 raises nothing
        report = best_deviation(Optimal(), LocationProfile([0.0, 1e300]), 3.0, agent=1)
        assert report.gain == pytest.approx(5e299, rel=1e-9)
        assert report.best_misreport == -1e300

    @pytest.mark.parametrize("spec", [Median(), Optimal()])
    @pytest.mark.parametrize("values", [[-1e308, 1e308], [0.0, 1e308]])
    def test_overflowing_misreport_window_is_refused(self, spec, values):
        # the window reaches 2 spans past the profile, beyond the largest double
        with pytest.raises(NonFiniteResult):
            best_deviation(spec, LocationProfile(values), 3.0, agent=1)

    def test_three_point_stretch_amount_verified_by_grid(self):
        spec = ThreePoint(0.2)
        prof = LocationProfile([0.0, 1.0])
        report = best_deviation(spec, prof, 2.0, agent=2)
        assert report.gain == pytest.approx(0.1, abs=1e-9)
        assert report.best_misreport == pytest.approx(2.0, abs=1e-6)
        # independent oracle: dense sweep of reports, costs recomputed from
        # scratch through run()
        grid_best = min(
            expected_agent_cost(1.0, run(spec, prof.with_report(2, r), 2.0))
            for r in np.linspace(-3.0, 4.0, 7001)
        )
        assert report.deviated_cost <= grid_best + 1e-9

    def test_lrm_gain_is_numerical_noise(self):
        report = best_deviation(LRM(), LocationProfile([0.25, 0.75]), 2.0, agent=1)
        assert abs(report.gain) <= 1e-12

    def test_agent_out_of_range(self):
        with pytest.raises(IndexError):
            best_deviation(Median(), LocationProfile([0.0, 1.0]), 2.0, agent=3)

    def test_report_fields_are_consistent(self):
        report = best_deviation(Dictator(2), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        assert report.gain == report.truthful_cost - report.deviated_cost
        assert report.agent == 1
        assert report.true_profile == LocationProfile([0.0, 1.0])


class TestSpScan:
    def test_rerun_is_identical(self):
        a = sp_scan(Median(), 2.0, n=4, trials=30, seed=11)
        b = sp_scan(Median(), 2.0, n=4, trials=30, seed=11)
        assert a == b

    def test_median_scan_finds_nothing(self):
        report = sp_scan(Median(), 2.0, n=5, trials=60, seed=3)
        assert report.gain <= violation_threshold(report.true_profile)

    def test_three_point_scan_finds_the_stretch(self):
        report = sp_scan(ThreePoint(0.2), 2.0, n=2, trials=100, seed=5)
        assert report.gain == pytest.approx(0.1, abs=1e-9)
        assert report.gain > violation_threshold(report.true_profile)
        assert report.true_profile == LocationProfile([0.0, 1.0])

    def test_random_only_scan_still_finds_it(self):
        report = sp_scan(ThreePoint(0.2), 2.0, n=2, trials=100, seed=5, include_structured=False)
        assert report.gain >= 0.05 * report.true_profile.span
        assert report.gain > violation_threshold(report.true_profile)

    def test_validation(self):
        with pytest.raises(ValueError):
            sp_scan(Median(), 2.0, n=1, trials=5, seed=0)
        with pytest.raises(ValueError):
            sp_scan(Median(), 2.0, n=3, trials=-1, seed=0)
        with pytest.raises(ValueError):
            sp_scan(Median(), 2.0, n=3, trials=0, seed=0, include_structured=False)


class TestSymmetricMargin:
    def test_lrm_sits_exactly_on_the_boundary(self):
        assert symmetric_sp_margin(lrm_distribution(LocationProfile([0.0, 1.0])), 1.0) == 0.0

    def test_low_endpoint_weight_is_negative(self):
        d = FacilityDistribution([(0.0, 0.2), (0.5, 0.6), (1.0, 0.2)])
        assert symmetric_sp_margin(d, 1.0) == pytest.approx(-0.1, abs=1e-12)

    def test_endpoint_only_lottery_is_safely_positive(self):
        d = FacilityDistribution([(0.0, 0.5), (1.0, 0.5)])
        assert symmetric_sp_margin(d, 1.0) == 0.5

    def test_scale(self):
        d = FacilityDistribution([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert symmetric_sp_margin(d, 2.0) == 0.0

    def test_support_outside_is_rejected(self):
        with pytest.raises(UnsupportedSupport):
            symmetric_sp_margin(point_mass(1.5), 1.0)
        with pytest.raises(UnsupportedSupport):
            symmetric_sp_margin(FacilityDistribution([(-0.1, 0.5), (1.0, 0.5)]), 1.0)
        with pytest.raises(ValueError):
            symmetric_sp_margin(point_mass(0.0), 0.0)
