"""Misreport search: candidate generation, best responses, scan reduction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    validate_pnorm,
    violation_threshold,
)
from lpfacility.core import NonFiniteResult
from lpfacility.mechanisms import _outcome_plan, _plan_at, _plan_costs
from lpfacility.verification import DeviationReport, SearchConfig, deviation
from lpfacility.verification.deviation import _golden_min

P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, math.inf)


def reference_candidates(profile, agent, cfg=SearchConfig()):
    """The candidate set built the direct way: np.delete and two linspaces."""
    xs = profile.values
    x = float(xs[agent - 1])
    lo, hi, span = profile.low, profile.high, profile.span
    count = 2 * int(round(cfg.scale_bound * cfg.scale_steps_per_unit)) + 1
    scales = np.linspace(-cfg.scale_bound, cfg.scale_bound, count)
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = np.array([lo - span, lo + span, hi - span, hi + span])
        grid = np.linspace(lo - cfg.grid_pad * span, hi + cfg.grid_pad * span, cfg.grid_points)
        candidates = np.concatenate([np.delete(xs, agent - 1), extremes, grid, scales * x, [x]])
    if not np.isfinite(candidates).all():
        raise NonFiniteResult(f"the misreport window of {profile!r} overflows")
    return candidates


def reference_best_deviation(spec, profile, p, agent, cfg=SearchConfig()):
    """best_deviation without the polish skip: the golden pass always runs."""
    p = validate_pnorm(p)
    if not 1 <= agent <= profile.n:
        raise IndexError(f"agent {agent} out of range for {profile.n} agents")
    x = float(profile.values[agent - 1])
    others, atoms = _outcome_plan(spec, profile, p, agent)
    truthful = _plan_at(others, atoms, x, x)
    candidates = reference_candidates(profile, agent, cfg)
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
    return DeviationReport(agent, profile, best_r, truthful, best_c, truthful - best_c)


def outcome(fn, *args):
    """fn's value, with a DeviationReport's floats as float.hex, or the
    type and message of the error it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if not isinstance(value, DeviationReport):
        return value
    floats = (value.best_misreport, value.truthful_cost, value.deviated_cost, value.gain)
    return (value.agent, value.true_profile, *(float(v).hex() for v in floats))


def catalog(n):
    """Every rule of the catalog, with and without optimum atoms; the rules
    that refuse n agents are kept, so refusals are compared too."""
    specs = [
        Median(),
        OrderStatistic(1),
        OrderStatistic(n),
        Dictator(1),
        Dictator(n),
        Optimal(),
        Optimal(3.0),
        Mixture(dictator_weights=(0.5,) + (0.0,) * (n - 1), order_weights=(0.0,) * (n - 1) + (0.5,)),
        Mixture(dictator_weights=(0.0,) * (n - 1) + (0.25,), order_weights=(0.5,) + (0.0,) * (n - 1), opt_weight=0.25),
        OrderStatistic(n + 1),
    ]
    if n > 2:
        specs.append(LRM())
    else:
        specs += [
            LRM(),
            ThreePoint(0.2),
            ThreePoint(0.5),
            Mirror(LRM()),
            Mirror(Dictator(1)),
            Mirror(Optimal()),
            Symmetrized(ThreePoint(0.1)),
            Symmetrized(Median()),
        ]
    return specs


# ties, signed zeros, zero spans, and spans from 1e-300 to past the largest double
UNIT_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 3.0]) | st.floats(-1.0, 1.0)
SCALES = st.sampled_from([1e-300, 1e-150, 1e-12, 1.0, 7.5, 1e12, 1e150, 1e300, 1e307, 5e307])


@st.composite
def edge_profiles(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    scale = draw(SCALES)
    return LocationProfile([v * scale for v in draw(st.lists(UNIT_VALUES, min_size=n, max_size=n))])


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


    @given(
        profile=st.lists(
            st.integers(-4, 4).map(lambda k: k * 5e-324) | st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
            min_size=2,
            max_size=5,
        ).map(LocationProfile),
        agent=st.integers(1, 5),
        grid_points=st.sampled_from([2, 3, 17, 2001]),
        grid_pad=st.sampled_from([0.0, 0.5, 2.0]),
        scale_bound=st.sampled_from([0.0, 1.0, 4.0]),
    )
    def test_bytes_equal_the_linspace_build(self, profile, agent, grid_points, grid_pad, scale_bound):
        agent = min(agent, profile.n)
        cfg = SearchConfig(grid_points=grid_points, grid_pad=grid_pad, scale_bound=scale_bound)
        expect = reference_candidates(profile, agent, cfg)
        assert misreport_candidates(profile, agent, cfg).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("agent, error", [(0, IndexError), (3, IndexError), (-1, IndexError), (1.0, TypeError)])
    def test_agent_out_of_range(self, agent, error):
        with pytest.raises(error):
            misreport_candidates(LocationProfile([0.0, 1.0]), agent)

    def test_subnormal_and_overflowing_windows(self):
        for values in ([0.0, 5e-324], [-5e-324, 5e-324], [1e-310, 3e-310], [2.0, 2.0], [0.0, 1e308]):
            for grid_points in (2, 5, 2001):
                cfg = SearchConfig(grid_points=grid_points)
                prof = LocationProfile(values)
                for agent in (1, 2):
                    built = outcome(lambda: misreport_candidates(prof, agent, cfg).tobytes())
                    assert built == outcome(lambda: reference_candidates(prof, agent, cfg).tobytes())


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_points", 1),
            ("grid_points", 0),
            ("grid_points", 2.0),
            ("grid_points", True),
            ("grid_pad", -2.0),
            ("grid_pad", math.nan),
            ("scale_bound", math.inf),
            ("scale_bound", -1.0),
            ("scale_steps_per_unit", 0.5),
            ("scale_steps_per_unit", math.inf),
            ("refine_iters", -3),
            ("refine_iters", 1.5),
        ],
    )
    def test_invalid_fields_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"SearchConfig.{field} must be"):
            SearchConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        cfg = SearchConfig(grid_points=np.int64(2), grid_pad=0, scale_bound=0.0, scale_steps_per_unit=1, refine_iters=0)
        report = best_deviation(Median(), LocationProfile([0.0, 1.0]), 2.0, 1, cfg)
        assert report.gain <= 0.0


class TestViolationThreshold:
    def test_scales_with_span(self):
        assert violation_threshold(LocationProfile([0.0, 1.0])) == 2e-7
        assert violation_threshold(LocationProfile([5.0, 5.0])) == 1e-7
        assert violation_threshold(LocationProfile([0.0, 1.0]), tol=0.5) == 1.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_non_finite_or_negative_tol_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            violation_threshold(LocationProfile([0.0, 1.0]), tol)

    def test_zero_tol_is_accepted(self):
        assert violation_threshold(LocationProfile([0.0, 3.0]), 0.0) == 0.0


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

    @pytest.mark.parametrize("spec", [Optimal(), Median()])
    @pytest.mark.parametrize("agent", [0, -1, 4])
    def test_an_agent_outside_the_profile_is_refused(self, spec, agent):
        # agent 0 read the last report as its own and planned over 2n - 1 others
        with pytest.raises(IndexError, match="out of range for 3 agents"):
            deviation_cost_curve(spec, LocationProfile([0.0, 1.0, 2.0]), 3.0, agent, [0.5])

    @pytest.mark.parametrize("spec", [Optimal(), Median()])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_report_is_refused(self, spec, bad):
        with pytest.raises(NonFiniteResult, match="misreports must be finite"):
            deviation_cost_curve(spec, LocationProfile([0.0, 1.0, 2.0]), 3.0, 1, [0.5, bad])


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


class TestPolishSkip:
    """The skipped polish changes no bit: every field matches a reference that
    always polishes, and every refusal matches by type and message."""

    @given(profile=edge_profiles(), pick=st.integers(0, 10**6), p=st.sampled_from(P_GRID), agent=st.integers(1, 5))
    def test_matches_the_always_polishing_reference(self, profile, pick, p, agent):
        specs = catalog(profile.n)
        spec = specs[pick % len(specs)]
        agent = min(agent, profile.n)
        expect = outcome(reference_best_deviation, spec, profile, p, agent)
        assert outcome(best_deviation, spec, profile, p, agent) == expect

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 1.0],
            [-0.0, 0.0],
            [3.0, 3.0],
            [0.0, 1e-300],
            [-1e307, 1e307],
            [0.0, 1e308],
            [0.2, 0.9, 0.4],
            [1.0, 1.0, 0.0],
        ],
    )
    def test_every_spec_p_and_agent(self, values):
        profile = LocationProfile(values)
        for spec in catalog(profile.n):
            for p in P_GRID:
                for agent in range(1, profile.n + 1):
                    expect = outcome(reference_best_deviation, spec, profile, p, agent)
                    assert outcome(best_deviation, spec, profile, p, agent) == expect, (spec, p, agent)

    def _count_polishes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        return calls

    def test_median_scan_never_polishes(self, monkeypatch):
        calls = self._count_polishes(monkeypatch)
        sp_scan(Median(), 3.0, n=8, trials=20, seed=42)
        assert calls == []

    def test_rules_the_proof_does_not_cover_still_polish(self, monkeypatch):
        calls = self._count_polishes(monkeypatch)
        best_deviation(Optimal(), LocationProfile([0.0, 0.3, 1.0]), 2.0, agent=1)
        best_deviation(Mirror(LRM()), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        # an optimum atom, although here its location never reaches x
        best_deviation(Optimal(), LocationProfile([0.0, 10.0, 11.0]), 1.0, agent=1)
        assert len(calls) == 3

    def test_an_end_cheaper_than_the_best_candidate_keeps_the_polish(self):
        # the facility at the report itself: cost |x - r| is monotone on either
        # side of x, yet a golden point near a cheaper end would beat best_c
        atoms = [(1.0, 1.0, 0.0, -math.inf, math.inf, None, False)]
        assert deviation._never_below_ends([], atoms, 0.0, 1.0, 2.0, 1.0)
        assert not deviation._never_below_ends([], atoms, 0.0, 1.0, 2.0, 1.5)
        assert deviation._never_below_ends([], atoms, 3.0, 1.0, 2.0, 1.0)
        assert not deviation._never_below_ends([], atoms, 3.0, 1.0, 2.0, 1.5)
        # past the largest double the golden points leave [a, b]: no claim
        constant = [(1.0, 0.0, 5.0, -math.inf, math.inf, None, False)]
        assert deviation._never_below_ends([], constant, 0.0, -1e307, 1e307, 5.0)
        assert not deviation._never_below_ends([], constant, 0.0, -1e308, 1.7e308, 5.0)


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
