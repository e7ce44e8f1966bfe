"""Misreport search: candidate generation, best responses, scan reduction."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
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
    ratio,
    run,
    sp_scan,
    symmetric_sp_margin,
    validate_pnorm,
    violation_threshold,
)
from lpfacility import mechanisms, optimizer
from lpfacility.core import NonFiniteResult
from lpfacility.mechanisms import _outcome_plan, _plan_at, _plan_costs
from lpfacility.optimizer import _means, _optimum, _optimum_rows
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
    others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
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


def inverse_map_row(spec, profile, p, agent):
    """The (report, cost) best_deviation takes in closed form for a row whose
    plan is lines and one optimum (`deviation._inverse_min`), or None where
    it scans."""
    cfg = SearchConfig()
    try:
        others, atoms = _outcome_plan(spec, profile.values.tolist(), validate_pnorm(p), agent)
    except Exception:
        return None
    hull, x = deviation._window_hull(profile, cfg), float(profile.values[agent - 1])
    if hull is None or deviation._one_line(atoms):
        return None
    scales = deviation._unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)[1]
    return deviation._inverse_min(others, atoms, x, _plan_at(others, atoms, x, x), profile.span, hull, scales)


def kink_row(spec, profile, p, agent):
    """The (report, cost) best_deviation takes at the kinks of a closed plan
    (`deviation._kink_min`), or None where it scans or takes another form."""
    cfg = SearchConfig()
    try:
        others, atoms = _outcome_plan(spec, profile.values.tolist(), validate_pnorm(p), agent)
    except Exception:
        return None
    hull, x = deviation._window_hull(profile, cfg), float(profile.values[agent - 1])
    if hull is None or deviation._one_line(atoms) or inverse_map_row(spec, profile, p, agent) is not None:
        return None
    scales = deviation._unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)[1]
    lo, hi, span, values = profile.low, profile.high, profile.span, profile.values.tolist()
    leading = values[: agent - 1] + values[agent:] + [lo - span, lo + span, hi - span, hi + span]
    return deviation._kink_min(others, atoms, x, leading, hull, scales)


def assert_kinked(got, expect, kinked, profile, label):
    """A row priced at its kinks reports the kink path's (report, cost), the
    reference's truthful cost and a gain of at least the reference's, less
    1e-15 * (1 + span)."""
    report, truthful, cost, gain = map(float.fromhex, got[2:])
    assert (report, cost) == kinked, label
    tol = 1e-15 * (1.0 + profile.span)
    assert truthful == float.fromhex(expect[3]) and gain >= float.fromhex(expect[5]) - tol, label


def assert_scan_or_certified(spec, profile, p, agent):
    """best_deviation equals `reference_best_deviation` by float.hex, errors
    included, on every row that scans. A row `_inverse_min` certifies
    reports its closed form instead: the reference's truthful cost and a gain
    of at least the reference's, less 1e-12 * (1 + span); where the plan's
    one atom is the optimum, a deviated cost of at most 1e-9 * (1 + span).
    A row priced at its kinks is checked by `assert_kinked`."""
    expect = outcome(reference_best_deviation, spec, profile, p, agent)
    got = outcome(best_deviation, spec, profile, p, agent)
    closed, kinked = inverse_map_row(spec, profile, p, agent), kink_row(spec, profile, p, agent)
    if (closed is None and kinked is None) or not isinstance(expect[0], int):
        assert got == expect, (spec, p, agent)
        return
    if kinked is not None:
        assert_kinked(got, expect, kinked, profile, (spec, p, agent))
        return
    report, truthful, cost, gain = map(float.fromhex, got[2:])
    tol = 1.0 + profile.span
    alone = len(_outcome_plan(spec, profile.values.tolist(), validate_pnorm(p), agent)[1]) == 1
    assert (report, cost) == closed and (cost <= 1e-9 * tol or not alone), (spec, p, agent)
    assert truthful == float.fromhex(expect[3]) and gain >= float.fromhex(expect[5]) - 1e-12 * tol, (spec, p, agent)


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
            st.integers(-4, 4).map(lambda k: k * 5e-324)
            | st.floats(-1e3, 1e3)
            | st.sampled_from([0.0, -0.0])
            # near overflow: some agents' scalings overflow while the grid does not
            | st.sampled_from([4.4e307, 4.6e307, 4.9e307, -5e307]),
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
        expect = outcome(lambda: reference_candidates(profile, agent, cfg).tobytes())
        assert outcome(lambda: misreport_candidates(profile, agent, cfg).tobytes()) == expect
        # the window's hull, read off its scalar ends, is the built slots' (a zero's sign aside)
        slots = deviation._window_candidates(profile, cfg)[profile.n - 1 : profile.n + 3 + grid_points]
        hull = deviation._window_hull(profile, cfg)
        finite = bool(np.isfinite(slots).all())
        assert (hull is not None) == finite and (not finite or hull == (slots.min(), slots.max()))

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

    @pytest.mark.parametrize("values, refused", [([5e307, 4.9e307], (1, 2)), ([4.4e307, 4.6e307], (2,))])
    def test_scalings_that_overflow_past_a_finite_grid_are_refused(self, values, refused, monkeypatch):
        # the grid and extremes are finite; scale_bound * x overflows exactly
        # for the refused agents, which the scalar check tests before the multiply
        profile = LocationProfile(values)
        expect = (NonFiniteResult, f"the misreport window of {profile!r} overflows")
        for agent in (1, 2):
            built = outcome(lambda: misreport_candidates(profile, agent).tobytes())
            assert built == outcome(lambda: reference_candidates(profile, agent).tobytes())
            assert (built == expect) == (agent in refused)
            for spec in (Median(), Optimal()):
                got = outcome(best_deviation, spec, profile, 3.0, agent)
                assert (got == expect) == (agent in refused), spec
        # the scan meets the per-agent loop's first error; at [4.4e307, 4.6e307]
        # that is agent 1's overflowing costs, before agent 2's window
        monkeypatch.setattr(deviation, "four_block_profiles", lambda n, p: [profile])
        first_error = per_agent_loop(Median(), profile, 3.0)
        assert first_error[0] is NonFiniteResult
        assert outcome(sp_scan, Median(), 3.0, 2, 0, 0) == first_error

    def test_a_plan_error_comes_before_the_window_error(self):
        # the window is built once per profile, before any plan, yet an agent's
        # plan error still comes before the window's
        profile = LocationProfile([-1e308, 1e308])
        assert outcome(best_deviation, OrderStatistic(3), profile, 3.0, 1)[0] is mechanisms.ArityMismatch
        assert outcome(best_deviation, Median(), profile, 3.0, 1)[0] is NonFiniteResult


def reference_plan_costs(others, atoms, x, reports):
    """_plan_costs in its first form: a zero seed, .clip and w * |x - y|."""
    total = np.zeros(reports.size)
    for w, slope, shift, lo, hi, q, mirrored in atoms:
        if q is None:
            y = (reports if slope == 1.0 and shift == 0.0 else slope * reports + shift).clip(lo, hi)
        else:
            y = _optimum_rows([(others, reports)], q)[0]
        if mirrored:
            # r + others[0] - y, or (r - y) + others[0] where that sum overflows
            summed = reports + others[0] - y
            y = np.where(np.isfinite(summed), summed, (reports - y) + others[0])
        total += w * np.abs(x - y)
    return total


class TestPlanCosts:
    """_plan_costs seeds its sum with the first term and skips the unit
    multiply and the unbounded clip; its bits are the first form's."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bits_equal_the_first_form(self, n):
        rng = np.random.default_rng(n)
        profiles = [
            rng.uniform(0.0, 1.0, n),
            np.round(rng.uniform(0.0, 1.0, n) * 2.0) / 2.0,
            np.resize([0.0, -0.0], n),
            5e-324 * rng.integers(-3, 4, n),
            1e-310 * rng.uniform(-1.0, 1.0, n),
            np.full(n, 0.1),
            rng.uniform(3.6e307, 4.6e307, n),
            np.resize([-1e308, 1e308], n),
        ]
        specs = catalog(n) + ([ThreePoint(0.0)] if n == 2 else [])
        for values in profiles:
            profile = LocationProfile(values)
            lo, hi = profile.low, profile.high
            with np.errstate(all="ignore"):
                raw = np.concatenate([values, [lo - hi, 2.0 * hi, -0.0, 0.0, 5e-324], np.linspace(lo, hi, 9), 4.0 * values])
            reports = raw[np.isfinite(raw)]
            for spec in specs:
                for p in (1.0, 1.5, 2.0, 3.0, 5.0, math.inf):
                    for agent in range(1, n + 1):
                        try:
                            others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
                        except mechanisms.ArityMismatch:
                            continue
                        x = float(values[agent - 1])
                        with np.errstate(all="ignore"):
                            got = _plan_costs(others, atoms, x, reports)
                            expect = reference_plan_costs(others, atoms, x, reports)
                        assert got.tobytes() == expect.tobytes(), (spec, values, p, agent)


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

    @pytest.mark.parametrize("values, tol", [([-1e308, 1e308], 1e-7), ([-1e308, 1e308], 0.0), ([0.0, 1.0], 1.7e308)])
    def test_a_threshold_that_is_not_finite_is_refused(self, values, tol):
        # an infinite threshold passes every gain; at tol 0 the infinite span makes it NaN
        profile = LocationProfile(values)
        with pytest.raises(NonFiniteResult, match=re.escape(f"the violation threshold of {profile!r} overflows")):
            violation_threshold(profile, tol)


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
            others, atoms = _outcome_plan(spec, prof.values.tolist(), p, agent)
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

    @pytest.mark.parametrize("spec", [Dictator(1), Median(), Optimal(1.0)])
    def test_an_overflowing_cost_is_refused(self, spec):
        # the facility follows agent 1's report to -1.7e308, past the largest
        # double's reach from its true 1e308: numpy warned and priced it inf
        profile = LocationProfile([1e308, 1.5e308])
        with pytest.raises(NonFiniteResult, match=re.escape(f"misreport costs overflow on {profile!r}")):
            deviation_cost_curve(spec, profile, 2.0, 1, [1.2e308, -1.7e308])


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

    @pytest.mark.parametrize("agent", [1, 2, 3])
    def test_means_whose_sums_overflow(self, agent):
        # misreports near 1.76e308 push the p = 2 sums past the largest
        # double; every step scales exactly, so the half-scale report doubles
        values = np.array([4e307, 4.4e307, 4.4e307])
        got = best_deviation(Optimal(), LocationProfile(values), 2.0, agent)
        half = best_deviation(Optimal(), LocationProfile(values / 2.0), 2.0, agent)
        fields = ("best_misreport", "truthful_cost", "deviated_cost", "gain")
        assert [getattr(got, f) for f in fields] == [2.0 * getattr(half, f) for f in fields]

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

    @pytest.mark.parametrize(
        "agent, error, message",
        [
            (1.0, TypeError, "agent index must be an integer"),
            (True, TypeError, "agent index must be an integer"),
            (0, IndexError, "out of range for 3 agents"),
            (4, IndexError, "out of range for 3 agents"),
        ],
    )
    def test_an_agent_that_is_not_an_index_is_refused_by_name(self, agent, error, message):
        with pytest.raises(error, match=message):
            best_deviation(Median(), LocationProfile([0.0, 1.0, 2.0]), 3.0, agent)

    def test_report_fields_are_consistent(self):
        report = best_deviation(Dictator(2), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        assert report.gain == report.truthful_cost - report.deviated_cost
        assert report.agent == 1
        assert report.true_profile == LocationProfile([0.0, 1.0])


class TestPolishSkip:
    """The skipped polish changes no bit: every field of a row that scans
    matches a reference that always polishes, and every refusal matches by
    type and message (rows the inverse map certifies are never polished)."""

    @given(profile=edge_profiles(), pick=st.integers(0, 10**6), p=st.sampled_from(P_GRID), agent=st.integers(1, 5))
    def test_matches_the_always_polishing_reference(self, profile, pick, p, agent):
        specs = catalog(profile.n)
        spec = specs[pick % len(specs)]
        assert_scan_or_certified(spec, profile, p, min(agent, profile.n))

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
                    assert_scan_or_certified(spec, profile, p, agent)

    def _count_polishes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        return calls

    def test_median_scan_never_polishes(self, monkeypatch):
        calls = self._count_polishes(monkeypatch)
        sp_scan(Median(), 3.0, n=8, trials=20, seed=42)
        assert calls == []

    def test_rules_the_proof_does_not_cover_still_polish(self, monkeypatch):
        # the mixtures' rows scan at NEAR_ONE, where the inverse map is not certified
        calls = self._count_polishes(monkeypatch)
        best_deviation(median_optimum(3, 0.5), LocationProfile([0.0, 0.3, 1.0]), NEAR_ONE, agent=1)
        # a mirrored optimum, beside a mirrored dictator that keeps the cost above 0
        best_deviation(Mirror(Mixture(dictator_weights=(0.5, 0.0), opt_weight=0.5)), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        # a solved optimum atom, although here its location never reaches x
        best_deviation(median_optimum(3, 0.9), LocationProfile([0.0, 10.0, 11.0]), NEAR_ONE, agent=1)
        assert len(calls) == 3


def one_line_specs(n):
    """Rules whose every agent row is a one-line plan: an order statistic
    or a dictator, alone or as a mixture's one nonzero weight."""
    zeros = (0.0,) * (n - 1)
    return [
        Median(),
        OrderStatistic(1),
        OrderStatistic(n),
        Dictator(1),
        Dictator(n),
        Mixture(order_weights=(1.0,) + zeros),
        Mixture(dictator_weights=zeros + (1.0,)),
    ]


ONE_LINE_CONFIGS = (
    SearchConfig(),
    SearchConfig(grid_points=2),
    SearchConfig(grid_pad=0),
    SearchConfig(scale_bound=0),
    SearchConfig(scale_bound=0.3, scale_steps_per_unit=7),
)


def reference_outcome(spec, profile, p, agent, cfg=SearchConfig()):
    # the reference prices overflowing costs in plain numpy, which warns
    with np.errstate(over="ignore"):
        return outcome(reference_best_deviation, spec, profile, p, agent, cfg)


class TestOneLinePlans:
    """Order statistics and dictators are priced in closed form, to the bit
    of the full candidate scan, and never polished."""

    @given(
        profile=edge_profiles(max_n=6),
        pick=st.integers(0, 10**6),
        rank=st.integers(1, 6),
        cfg=st.sampled_from(ONE_LINE_CONFIGS),
    )
    def test_matches_the_full_scan(self, profile, pick, rank, cfg):
        n = profile.n
        specs = one_line_specs(n) + [OrderStatistic(min(rank, n)), Dictator(min(rank, n))]
        spec = specs[pick % len(specs)]
        for agent in range(1, n + 1):
            assert deviation._one_line(_outcome_plan(spec, profile.values.tolist(), 2.0, agent)[1])
            expect = reference_outcome(spec, profile, 2.0, agent, cfg)
            assert outcome(best_deviation, spec, profile, 2.0, agent, cfg) == expect, (spec, agent)

    @pytest.mark.parametrize(
        "spec, values, agent, report",
        [
            # x is a zero inside its window: the report is the first zero in
            # assembly order, here the grid's +0.0 or else the scaling -4.0 * x
            (Median(), [-1.0, 0.0, 1.0], 2, 0.0),
            (Median(), [-1.0, -0.0, 1.0], 2, 0.0),
            (Median(), [-1.0, 0.0, 2.0], 2, -0.0),
            # the agent's own dictator: an other's -0.0 comes first
            (Dictator(1), [0.0, -0.0], 1, -0.0),
            # x right, then left of its window [0, 1]: the first other in agent
            # order priced at the truthful cost, which need not be the window end
            (Median(), [1e20, 0.0, 1.0], 1, 0.0),
            (Median(), [-1e20, 1.0, 0.0], 1, 1.0),
            # tied others at the window ends: the first in agent order
            (Median(), [-1.0, 0.0, -0.0, 0.0, 5.0], 1, 0.0),
            (Median(), [-1.0, -0.0, 0.0, 0.0, 5.0], 1, -0.0),
        ],
    )
    def test_pinned_reports(self, spec, values, agent, report):
        profile = LocationProfile(values)
        got = best_deviation(spec, profile, 2.0, agent)
        assert got.best_misreport.hex() == report.hex()
        assert got.gain.hex() == "0x0.0p+0" and got.deviated_cost == got.truthful_cost
        assert outcome(best_deviation, spec, profile, 2.0, agent) == reference_outcome(spec, profile, 2.0, agent)

    @pytest.mark.parametrize("spec", [Dictator(1), OrderStatistic(1)])
    def test_an_overflowing_curve_is_refused_as_the_scan_refuses_it(self, spec):
        # a finite window whose end scalings, -+5 x, cost more than the
        # largest double for the agent whose facility follows its report
        profile, cfg = LocationProfile([-3.4e307, 3.4e307]), SearchConfig(grid_pad=0.0, scale_bound=5.0)
        outcomes = [outcome(best_deviation, spec, profile, 2.0, agent, cfg) for agent in (1, 2)]
        assert outcomes == [reference_outcome(spec, profile, 2.0, agent, cfg) for agent in (1, 2)]
        assert (NonFiniteResult, f"misreport costs overflow on {profile!r}") in outcomes
        # the default window is refused before any cost is priced
        refused = (NonFiniteResult, f"the misreport window of {profile!r} overflows")
        assert outcome(best_deviation, spec, profile, 2.0, 1) == refused

    def test_a_one_line_scan_prices_no_candidate_and_never_polishes(self, monkeypatch):
        calls = []
        count = lambda name, fn: lambda *args: calls.append(name) or fn(*args)
        monkeypatch.setattr(mechanisms, "_plan_costs", count("costs", mechanisms._plan_costs))
        monkeypatch.setattr(deviation, "_golden_min", count("polish", deviation._golden_min))
        for spec in one_line_specs(6):
            assert sp_scan(spec, 3.0, n=6, trials=5, seed=42).gain == 0.0
        # the L_1 optimum is the median's line
        assert sp_scan(Optimal(), 1.0, n=6, trials=5, seed=42).gain == 0.0
        assert calls == []
        # a mirrored optimum still scans
        best_deviation(Mirror(Optimal()), LocationProfile([0.0, 1.0]), 2.0, agent=1)
        assert "costs" in calls


def l1_cases(n):
    """(spec, p, the indices of the plan's atoms that are its L_1 optimum)
    for rules with an L_1 optimum atom."""
    median = [0.0] * n
    median[(n - 1) // 2] = 0.5
    mixture = Mixture(order_weights=tuple(median), opt_weight=0.5)
    cases = [(Optimal(), 1.0, {0}), (Optimal(1.0), 2.0, {0}), (mixture, 1.0, {1})]
    if n == 2:
        cases += [(Mirror(Optimal()), 1.0, {0}), (Symmetrized(Optimal()), 1.0, {0, 1})]
    return cases


def l1_atom_reference(spec, optima, profile, p, agent, cfg=SearchConfig()):
    """best_deviation with the L_1 optimum priced as a solved atom, (w, 0.0,
    0.0, -inf, inf, 1.0, mirrored): `optimizer._optimum(sorted([*others, r]),
    1.0)` per candidate, the first least cost, then the golden polish, which
    always runs. `optima` are the indices of the L_1 optimum's atoms."""
    x = float(profile.values[agent - 1])
    others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
    atoms = [(a[0], 0.0, 0.0, -math.inf, math.inf, 1.0, a[6]) if k in optima else a for k, a in enumerate(atoms)]
    cost = lambda r: _plan_at(others, atoms, r, x)
    truthful = cost(x)
    candidates = reference_candidates(profile, agent, cfg).tolist()
    costs = [cost(r) for r in candidates]
    if not (math.isfinite(truthful) and all(map(math.isfinite, costs))):
        raise NonFiniteResult(f"misreport costs overflow on {profile!r}")
    best_c = min(costs)
    best_r = candidates[costs.index(best_c)]
    window = profile.span * (1.0 + 2.0 * cfg.grid_pad) / (cfg.grid_points - 1)
    if window > 0.0 and cfg.refine_iters > 0:
        r2, c2 = _golden_min(cost, best_r - window, best_r + window, cfg.refine_iters)
        if c2 < best_c:
            best_r, best_c = float(r2), float(c2)
    return DeviationReport(agent, profile, best_r, truthful, best_c, truthful - best_c)


class TestL1Optimum:
    """The L_1 optimum is written as the median's line and priced in closed
    form; every report matches the solved atom's scan and polish by float.hex."""

    @given(profile=edge_profiles(), pick=st.integers(0, 10**6))
    def test_matches_the_solved_atom(self, profile, pick):
        cases = l1_cases(profile.n)
        spec, p, optima = cases[pick % len(cases)]
        for agent in range(1, profile.n + 1):
            expect = outcome(l1_atom_reference, spec, optima, profile, p, agent)
            got, kinked = outcome(best_deviation, spec, profile, p, agent), kink_row(spec, profile, p, agent)
            if kinked is None or not isinstance(expect[0], int):
                assert got == expect, (spec, agent)
            else:
                # a plan of two or more lines (the median's and the optimum's) is priced at its kinks
                assert_kinked(got, expect, kinked, profile, (spec, agent))

    @pytest.mark.parametrize(
        "values, location, misreports",
        [
            ([0.0, -0.0], 0.0, [-0.0, 0.0]),
            ([-0.0, 0.0], 0.0, [0.0, -0.0]),
            ([-0.0, -0.0, 0.0], 0.0, [-0.0] * 3),
            ([0.0, 10.0, 11.0], 10.0, [10.0] * 3),
        ],
    )
    def test_pinned_rows(self, values, location, misreports):
        profile = LocationProfile(values)
        assert [(loc.hex(), w) for loc, w in run(Optimal(), profile, 1.0).atoms()] == [(location.hex(), 1.0)]
        assert ratio(Optimal(), profile, 1.0).ratio == 1.0
        reports = [best_deviation(Optimal(), profile, 1.0, agent) for agent in range(1, profile.n + 1)]
        assert [report.best_misreport.hex() for report in reports] == [r.hex() for r in misreports]
        assert all(report.gain.hex() == "0x0.0p+0" for report in reports)


# exponents where the inverse map certifies every row of the sweeps below
INVERSE_P = (1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 30.0, 1e6, math.inf)


def inverse_map_rows(ps, trials=1, seed=11):
    """(p, profile, agent) over n = 2..8: the half-half split and `trials`
    uniform profiles per shape, every agent."""
    rng = np.random.default_rng(seed)
    for p in ps:
        for n in range(2, 9):
            profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))]
            profiles += [LocationProfile(rng.uniform(0.0, 1.0, n)) for _ in range(trials)]
            for profile in profiles:
                for agent in range(1, n + 1):
                    yield p, profile, agent


class TestInverseMap:
    """A plan whose one atom is an unmirrored L_q optimum, q > 1, takes the
    report that puts the optimum on x, priced forward. Where that cost is
    finite and at most 1e-9 * (1 + span) the row reports it, unpolished;
    every other row keeps the scan's bits."""

    @given(
        profile=edge_profiles(max_n=8),
        spec=st.sampled_from([Optimal(), Optimal(1.5), Optimal(3.0), Mixture(opt_weight=1.0)]),
        p=st.sampled_from(INVERSE_P),
        agent=st.integers(1, 8),
    )
    def test_certified_rows_beat_the_scan(self, profile, spec, p, agent):
        assert_scan_or_certified(spec, profile, p, min(agent, profile.n))

    def test_every_row_of_the_sweep_is_certified(self):
        for p, profile, agent in inverse_map_rows(INVERSE_P):
            report, closed = best_deviation(Optimal(), profile, p, agent), inverse_map_row(Optimal(), profile, p, agent)
            assert closed == (report.best_misreport, report.deviated_cost), (p, profile, agent)
            assert report.deviated_cost <= 1e-9 * (1.0 + profile.span), (p, profile, agent)
        # the reference's full curve is slow at p = 1e6, so it prices the splits only
        for p, profile, agent in inverse_map_rows(INVERSE_P, trials=0):
            assert_scan_or_certified(Optimal(), profile, p, agent)

    @pytest.mark.parametrize("p", [1.0 + 1e-12, 1.01, 1.1])
    def test_near_one_the_uncertified_rows_keep_the_scan(self, p):
        # 1 / (q - 1) is huge, so |S|^(1 / (q - 1)) overflows (the row scans)
        # or underflows to a report next to x, certified only where the
        # optimum of the others and x lies on x
        certified = rows = 0
        for _, profile, agent in inverse_map_rows([p]):
            assert_scan_or_certified(Optimal(), profile, p, agent)
            certified += inverse_map_row(Optimal(), profile, p, agent) is not None
            rows += 1
        assert 0 < certified < rows

    def test_an_overflowing_power_is_caught(self):
        # S = 3 here, and 3 ** 1e12 overflows a double
        profile, p = LocationProfile([0.0, 0.0, 0.0, 1.0, 1.0]), 1.0 + 1e-12
        assert inverse_map_row(Optimal(), profile, p, 4) is None
        assert_scan_or_certified(Optimal(), profile, p, 4)

    @pytest.mark.parametrize(
        "values, p, agent, report, gain",
        [
            # D(1) = 3, so r = 1 + 3^2; the scan's window ends at 4.0025
            ([0.0, 0.0, 0.0, 1.0, 1.0], 1.5, 4, 10.0, 0.6923076923068414),
            # n x minus the others' sum, and 2 x minus the far end
            ([0.0, 1.0], 2.0, 1, -1.0, 0.5),
            ([0.0, 0.25, 1.0], math.inf, 2, -0.5, 0.25),
            # every other report is x: the truthful report, at gain 0
            ([0.25, 0.25, 0.25], 3.0, 2, 0.25, 0.0),
        ],
    )
    def test_pinned_rows(self, values, p, agent, report, gain):
        got = best_deviation(Optimal(), LocationProfile(values), p, agent)
        assert (got.best_misreport, got.gain) == (report, gain)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, math.inf])
    def test_an_optimum_scan_builds_no_candidate_and_never_polishes(self, p, monkeypatch):
        # counts calls, not seconds: a row sent back to the scan fails
        calls = []
        count = lambda name, fn: lambda *args: calls.append(name) or fn(*args)
        monkeypatch.setattr(deviation, "_plan_min", count("scan", deviation._plan_min))
        monkeypatch.setattr(deviation, "_window_candidates", count("window", deviation._window_candidates))
        monkeypatch.setattr(mechanisms, "_optimum_rows", count("kernel", mechanisms._optimum_rows))
        monkeypatch.setattr(deviation, "_golden_min", count("polish", deviation._golden_min))
        for n in range(2, 9):
            assert sp_scan(Optimal(), p, n, 3, 1).gain > 0.0
        assert calls == []
        # a mixture whose optimum the inverse map does not certify still scans
        sp_scan(median_optimum(5, 0.5, NEAR_ONE), p, 5, 3, 1)
        assert {"scan", "window", "kernel"} <= set(calls)


PRUNE_P = (1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0, 30.0)
# an exponent where |S|^(1 / (q - 1)) overflows, so most mixture rows are not
# certified and scan
NEAR_ONE = 1.0 + 1e-12


def median_optimum(n, opt_weight, q=None):
    """The lower median mixed with the L_q optimum (q None: the rule's p)."""
    order = [0.0] * n
    order[(n - 1) // 2] = 1.0 - opt_weight
    return Mixture(order_weights=tuple(order), opt_weight=opt_weight, p=q)


def optimum_specs(n, p):
    """Plans with a solved optimum atom: the optimum nearly alone, at its own
    exponent, and mixed with the lower median or a dictator. Their rows scan
    where the exact best response does not certify them."""
    dictator = [0.0] * n
    dictator[n - 1] = 0.3
    return [
        median_optimum(n, 0.9),
        median_optimum(n, 0.5, 3.0 if p != 3.0 else 1.5),
        median_optimum(n, 0.5),
        Mixture(dictator_weights=tuple(dictator), opt_weight=0.7),
    ]


# exponents of the mixture tests: q < 2, the closed-form mean and q > 2
MIXTURE_P = (1.2, 1.5, 2.0, 3.0, 5.0, 8.0)


def mixture_specs(n, p):
    """Plans of lines and one optimum that the inverse map prices: the lower
    median mixed with the optimum at five weights, agent 1's and agent n's
    dictator (one agent's own, every other agent's another's), two order
    statistics, and the optimum at its own exponent."""
    dictator = lambda i: tuple(0.3 if k == i else 0.0 for k in range(n))
    orders = [0.0] * n
    orders[0], orders[-1] = 0.2, 0.3
    return [median_optimum(n, w) for w in (0.05, 0.3, 0.5, 0.7, 0.95)] + [
        Mixture(dictator_weights=dictator(0), opt_weight=0.7),
        Mixture(dictator_weights=dictator(n - 1), opt_weight=0.7),
        Mixture(order_weights=tuple(orders), opt_weight=0.5),
        median_optimum(n, 0.5, 3.0 if p != 3.0 else 1.5),
    ]


def assert_no_cheaper_report(spec, profile, p, agent):
    """An independent dense oracle: no report among 20,001 across
    [min(x, r*) - span, max(x, r*) + span], priced by the batched curve,
    costs more than 1e-9 * (1 + span) less than best_deviation's; r* puts
    the optimum on x, by the inverse map written out in numpy."""
    got = best_deviation(spec, profile, p, agent)
    x, atoms = float(profile.values[agent - 1]), _outcome_plan(spec, profile.values.tolist(), p, agent)[1]
    q = atoms[-1][5]
    d = x - np.delete(profile.values, agent - 1)
    total = float(np.sum(np.sign(d) * np.abs(d) ** (q - 1.0)))
    r_star = x + math.copysign(abs(total) ** (1.0 / (q - 1.0)), total)
    span = profile.span
    reports = np.linspace(min(x, r_star) - span, max(x, r_star) + span, 20001)
    costs = deviation_cost_curve(spec, profile, p, agent, reports)
    assert float(costs.min()) >= got.deviated_cost - 1e-9 * (1.0 + span), (spec, p, agent)


class TestOptimumMixtures:
    """A plan of clipped lines of slope 0 or 1 and one unmirrored L_q
    optimum, 1 < q < inf, takes an exact best response where it certifies
    itself: its gain is at least the scan's, less 1e-12 * (1 + span), and no
    report of a dense oracle is more than 1e-9 * (1 + span) cheaper. Every
    other row keeps the scan's bits."""

    @given(
        profile=edge_profiles(max_n=7),
        pick=st.integers(0, 10**6),
        p=st.sampled_from(MIXTURE_P),
        agent=st.integers(1, 7),
    )
    def test_edge_rows_beat_the_scan(self, profile, pick, p, agent):
        specs = mixture_specs(profile.n, p)
        assert_scan_or_certified(specs[pick % len(specs)], profile, p, min(agent, profile.n))

    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
        pick=st.integers(0, 10**6),
        p=st.sampled_from(MIXTURE_P),
        agent=st.integers(1, 7),
    )
    def test_no_report_of_the_oracle_is_cheaper(self, values, pick, p, agent):
        profile = LocationProfile(values)
        specs, agent = mixture_specs(profile.n, p), min(agent, profile.n)
        assert_no_cheaper_report(specs[pick % len(specs)], profile, p, agent)

    def test_every_row_of_the_sweep_is_certified(self):
        # one uniform profile per shape, every agent, the specs in turn
        rng = np.random.default_rng(24)
        for p in MIXTURE_P:
            for n in range(2, 8):
                profile = LocationProfile(rng.uniform(0.0, 1.0, n))
                specs = mixture_specs(n, p)
                for agent in range(1, n + 1):
                    spec = specs[(n + agent) % len(specs)]
                    assert inverse_map_row(spec, profile, p, agent) is not None, (spec, p, agent)
                    assert_scan_or_certified(spec, profile, p, agent)
                    assert_no_cheaper_report(spec, profile, p, agent)

    @pytest.mark.parametrize("p", [1.01, 1.1])
    def test_near_one_the_uncertified_rows_keep_the_scan(self, p):
        # a far r* stretches the forward solve's row, and a report priced
        # there without the certificate costs more than the scan's best
        certified = rows = 0
        for _, profile, agent in inverse_map_rows([p]):
            specs = mixture_specs(profile.n, p)
            spec = specs[(profile.n + agent) % len(specs)]
            assert_scan_or_certified(spec, profile, p, agent)
            certified += inverse_map_row(spec, profile, p, agent) is not None
            rows += 1
        assert 0 < certified < rows

    @given(
        others=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        y=st.floats(-1.0, 1.0),
        q=st.sampled_from([1.1, 1.5, 1.9, 2.0, 2.5, 3.0, 5.0, 8.0]),
    )
    def test_r_prime_is_at_least_one_and_two_from_q_two(self, others, y, q):
        # r'(y) = 1 + |D|^((2 - q) / (q - 1)) * sum |y - o|^(q - 2): at least 2
        # for q >= 2, as the (q - 2)-norm is at least the (q - 1)-norm, and 1
        # below; checked on the formula and on the library's map, with its
        # error bounds, over a step of 1e-6
        a = np.abs(y - np.array(others))
        d = float(np.sum(np.sign(y - np.array(others)) * a ** (q - 1.0)))
        assume(d != 0.0 and a.min() > 1e-3)
        least = 2.0 if q >= 2.0 else 1.0
        slope = 1.0 + abs(d) ** ((2.0 - q) / (q - 1.0)) * float(np.sum(a ** (q - 2.0)))
        assert slope >= least * (1.0 - 1e-12)
        step, others = 1e-6, sorted(others)
        (r0, e0), (r1, e1) = (deviation._inverse_report(others, v, q) for v in (y, y + step))
        assert r1 - r0 + e0 + e1 >= least * step * (1.0 - 1e-9)

    @pytest.mark.parametrize(
        "agent, report, scanned",
        [
            # D(1) = 2 over the others 0, 0, 1, so r = 1 + 2^2; the order
            # statistic is stuck at 0, so the optimum alone moves
            (4, 5.0, (4.0025, 0.3191)),
            (1, -4.0, (-2.0025, 0.2477)),
        ],
    )
    def test_pinned_rows(self, agent, report, scanned):
        # `scanned` is the window scan's (report, gain), stopped at its window's end
        spec = Mixture(order_weights=(0.0, 0.3, 0.0, 0.0), opt_weight=0.7)
        got = best_deviation(spec, LocationProfile([0.0, 0.0, 1.0, 1.0]), 1.5, agent)
        assert got.best_misreport == report and got.gain == pytest.approx(0.35, abs=1e-9)
        assert got.gain > scanned[1] + 0.03

    def test_an_interior_least_where_r_prime_is_below_two(self):
        # at q = 1.5 the median's weight 0.4 is at least half the optimum's 0.6
        # but below it, so only the lemma's r' >= 1 (not 2) leaves the piece
        # open: the least lies inside it, where r'(y) = 0.6 / 0.4, and the
        # golden polish of the scan lands within 3e-15 of its cost
        got = best_deviation(median_optimum(3, 0.6), LocationProfile([0.0, 1.0, 0.4]), 1.5, 3)
        assert got.best_misreport == pytest.approx(0.3797958971132713, abs=1e-9)
        assert got.gain == pytest.approx(7.203689082493e-4, abs=1e-15)

    def test_the_optimum_alone_keeps_r_star_on_a_tie(self):
        # the no-line case: r* = 2 * (1/3) - 2/3 = 0 puts the midrange on x,
        # as x itself does; r* wins the tie, as it did before mixtures took
        # this path, so `Optimal` rows keep their bits
        got = best_deviation(Optimal(), LocationProfile([1.0 / 3.0, 0.0, 2.0 / 3.0]), math.inf, 1)
        assert (got.best_misreport, got.deviated_cost, got.gain) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    def test_a_mixture_scan_builds_no_candidate_and_never_polishes(self, p, monkeypatch):
        # counts calls, not seconds: a row sent back to the scan fails
        calls = []
        count = lambda name, fn: lambda *args: calls.append(name) or fn(*args)
        monkeypatch.setattr(deviation, "_plan_min", count("scan", deviation._plan_min))
        monkeypatch.setattr(deviation, "_window_candidates", count("window", deviation._window_candidates))
        monkeypatch.setattr(mechanisms, "_optimum_rows", count("kernel", mechanisms._optimum_rows))
        monkeypatch.setattr(deviation, "_golden_min", count("polish", deviation._golden_min))
        for n in range(2, 8):
            for spec in mixture_specs(n, p):
                sp_scan(spec, p, n, 3, 1)
        assert calls == []


def two_agent_closed_specs():
    """Two-agent rules whose plans are clipped lines, mirrored or not."""
    return [
        LRM(),
        ThreePoint(0.2),
        ThreePoint(0.5),
        Mirror(LRM()),
        Mirror(Median()),
        Mirror(Dictator(1)),
        Mirror(ThreePoint(0.3)),
        Symmetrized(LRM()),
        Symmetrized(ThreePoint(0.1)),
        Symmetrized(Median()),
    ]


def closed_mixture_specs(n):
    """Order and dictator mixtures with two or more nonzero weights, and the
    lower median mixed with the L_inf optimum."""
    zeros = [0.0] * n
    ends, spread = list(zeros), list(zeros)
    ends[0], ends[-1] = 0.4, 0.6
    spread[0] += 0.25
    spread[(n - 1) // 2] += 0.5
    spread[-1] += 0.25
    return [
        Mixture(dictator_weights=tuple(ends)),
        Mixture(order_weights=tuple(spread)),
        Mixture(dictator_weights=tuple(ends[:1] + zeros[1:]), order_weights=tuple(zeros[1:] + [0.6])),
        median_optimum(n, 0.5, math.inf),
        Mixture(dictator_weights=tuple(zeros[1:] + [0.3]), opt_weight=0.7, p=math.inf),
    ]


def closed_rows(specs_of, ns, trials, seed):
    """(spec, profile, agent) over n in ns: the half-half split and `trials`
    uniform profiles per n, a third of them rounded to thirds, every spec
    and every agent."""
    rng = np.random.default_rng(seed)
    for n in ns:
        profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))]
        for k in range(trials):
            values = rng.uniform(0.0, 1.0, n)
            profiles.append(LocationProfile(np.round(values * 3.0) / 3.0 if k % 3 == 0 else values))
        for profile in profiles:
            for spec in specs_of(n):
                for agent in range(1, n + 1):
                    yield spec, profile, agent


def breaks(others, atoms, x):
    """Every report where a location of the plan changes slope or meets x,
    from each location's pieces a * r + c: a line's s * r + b between its
    clip ends, a mirrored line's r + o - (s * r + b), r + o - lo and
    r + o - hi, and the midrange's 0.5 * r + 0.5 * others[-1] below
    others[0] and 0.5 * r + 0.5 * others[0] above others[-1]."""
    found, o = list(others), others[0]
    for _, s, b, lo, hi, q, mirrored in atoms:
        if q is not None:
            pieces = [(0.5, 0.5 * others[-1]), (0.5, 0.5 * others[0])]
        else:
            pieces = [(s, b)] + ([(1.0 - s, o - b)] + [(1.0, o - v) for v in (lo, hi)] if mirrored else [])
            found += [(v - b) / s for v in (lo, hi) if s and math.isfinite(v)]
        found += [(x - c) / a for a, c in pieces if a and math.isfinite(c)]
    return found


def random_closed_plan(rng):
    """(others, x, atoms): one to four clipped lines of slope 0, 1 or uniform
    in [0, 1], with uniform shifts, clip ends (a third of them infinite) and
    mirror flags, half the time followed by an unmirrored L_inf optimum, on
    n = 2..5 uniform reports in [-1, 1]."""
    n = int(rng.integers(2, 6))
    others, x, atoms = sorted(rng.uniform(-1.0, 1.0, n - 1).tolist()), float(rng.uniform(-1.0, 1.0)), []
    for _ in range(int(rng.integers(1, 5))):
        slope = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2).tolist())
        lo, hi = (-math.inf if rng.random() < 1 / 3 else lo), (math.inf if rng.random() < 1 / 3 else hi)
        atoms.append((float(rng.uniform(0.1, 1.0)), slope, float(rng.uniform(-1.0, 1.0)), lo, hi, None, bool(rng.random() < 0.5)))
    if rng.random() < 0.5:
        atoms.append((float(rng.uniform(0.1, 1.0)), 0.0, 0.0, -math.inf, math.inf, math.inf, False))
    return others, x, atoms


class TestClosedPlans:
    """A plan of clipped lines of slope in [0, 1], mirrored or not, and at
    most one unmirrored L_inf optimum is priced at its kinks: its gain is at
    least the scan's, less 1e-15 * (1 + span), and no report of a dense
    oracle is more than 1e-12 * (1 + span) cheaper. Such a row never builds
    candidates, scans or polishes; rows whose kinks or costs are not finite
    keep the scan's bits."""

    @given(profile=edge_profiles(max_n=7), pick=st.integers(0, 10**6), p=st.sampled_from(P_GRID), agent=st.integers(1, 7))
    def test_edge_rows_beat_the_scan(self, profile, pick, p, agent):
        # the mirrored optima close only at p = 1 and keep the scan's bits elsewhere
        two = two_agent_closed_specs() + [Mirror(Optimal()), Symmetrized(Optimal())]
        specs = closed_mixture_specs(profile.n) + (two if profile.n == 2 else [])
        assert_scan_or_certified(specs[pick % len(specs)], profile, p, min(agent, profile.n))

    def test_no_report_of_the_oracle_is_cheaper(self):
        # 20,001 reports over [lo - 3 span, hi + 3 span] and every break, priced by the batched curve
        rows = list(closed_rows(lambda n: two_agent_closed_specs(), [2], 5, 31))
        rows += list(closed_rows(closed_mixture_specs, range(2, 8), 1, 32))[::3]
        for k, (spec, profile, agent) in enumerate(rows):
            p = P_GRID[k % len(P_GRID)]
            got, kinked = best_deviation(spec, profile, p, agent), kink_row(spec, profile, p, agent)
            assert kinked == (got.best_misreport, got.deviated_cost), (spec, profile, agent)
            x, span = float(profile.values[agent - 1]), profile.span
            others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
            reports = np.linspace(profile.low - 3.0 * span, profile.high + 3.0 * span, 20001)
            reports = np.concatenate([reports, breaks(others, atoms, x)])
            costs = deviation_cost_curve(spec, profile, p, agent, reports)
            assert float(costs.min()) >= got.deviated_cost - 1e-12 * (1.0 + span), (spec, profile, p, agent)

    def test_random_plans_meet_their_least_at_a_kink(self):
        # at n = 2 every kink of a catalog rule is an other's report, an
        # extreme or x, so random slopes, shifts and clip ends are needed to
        # reach the kinks that are none of these
        rng, cfg = np.random.default_rng(35), SearchConfig()
        scales = deviation._unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)[1]
        for _ in range(300):
            others, x, atoms = random_closed_plan(rng)
            profile = LocationProfile(others + [x])
            lo, hi, span = profile.low, profile.high, profile.span
            leading = others + [lo - span, lo + span, hi - span, hi + span]
            best = deviation._kink_min(others, atoms, x, leading, deviation._window_hull(profile, cfg), scales)
            assert best is not None and best[1] == _plan_at(others, atoms, best[0], x), (others, x, atoms)
            reports = np.concatenate([np.linspace(-10.0, 10.0, 4001), breaks(others, atoms, x)])
            costs = _plan_costs(others, atoms, x, reports)
            assert float(costs.min()) >= best[1] - 1e-12 * (1.0 + span), (others, x, atoms)

    def test_every_row_of_the_sweep_is_kinked_and_beats_the_scan(self):
        rows = list(closed_rows(lambda n: two_agent_closed_specs(), [2], 2, 33))
        rows += list(closed_rows(closed_mixture_specs, range(2, 8), 0, 34))
        for k, (spec, profile, agent) in enumerate(rows):
            p = P_GRID[k % len(P_GRID)]
            assert kink_row(spec, profile, p, agent) is not None, (spec, profile, p, agent)
            assert_scan_or_certified(spec, profile, p, agent)

    @pytest.mark.parametrize(
        "spec, values, agent, report, gain",
        [
            # the stretch: 2 = hi + span puts the midpoint on x = 1, and the
            # gain is 1/2 - 2 q; agent 1 mirrors it at lo - span
            (ThreePoint(0.2), [0.0, 1.0], 2, 2.0, 0.5 - 0.4),
            (ThreePoint(0.2), [0.0, 1.0], 1, -1.0, 0.5 - 0.4),
            # strategyproof on the boundary: no report gains, and lo - span is
            # the first candidate at the truthful cost (the other's costs 1)
            (LRM(), [0.0, 1.0], 1, -1.0, 0.0),
            # the facility is always the other's report, whatever agent 1 says
            (Mirror(Dictator(1)), [0.25, 1.0], 1, 1.0, 0.0),
            # r = 2 x - others[0] = 2 puts the midrange on x; the median stays at 0.2
            (median_optimum(3, 0.5, math.inf), [0.0, 0.2, 1.0], 3, 2.0, 0.65 - 0.4),
        ],
    )
    def test_pinned_rows(self, spec, values, agent, report, gain):
        got = best_deviation(spec, LocationProfile(values), math.inf, agent)
        assert (got.best_misreport, got.gain) == (report, gain)

    def test_overflowing_costs_keep_the_scan_and_its_refusal(self):
        # the window is finite, but agent 2's scaling -4 x puts LRM's
        # clipped line past the largest double from x, so the scan refuses
        profile = LocationProfile([1e307, 4e307])
        assert kink_row(LRM(), profile, 2.0, 2) is None
        expect = (NonFiniteResult, f"misreport costs overflow on {profile!r}")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert outcome(reference_best_deviation, LRM(), profile, 2.0, 2) == expect
        assert outcome(best_deviation, LRM(), profile, 2.0, 2) == expect

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_a_closed_scan_builds_no_candidate_and_never_polishes(self, p, monkeypatch):
        # counts calls, not seconds: a row sent back to the scan fails
        calls = []
        count = lambda name, fn: lambda *args: calls.append(name) or fn(*args)
        monkeypatch.setattr(deviation, "_plan_min", count("scan", deviation._plan_min))
        monkeypatch.setattr(deviation, "_window_candidates", count("window", deviation._window_candidates))
        monkeypatch.setattr(deviation, "_golden_min", count("polish", deviation._golden_min))
        for spec in two_agent_closed_specs():
            sp_scan(spec, p, 2, 3, 1)
        for n in range(2, 8):
            for spec in closed_mixture_specs(n):
                sp_scan(spec, p, n, 3, 1)
        assert calls == []


def assert_plan_min_is_the_full_curve(spec, profile, p, agent):
    """`mechanisms._plan_min` on the row's plan and candidates returns the
    full curve's first least (index, cost), by float.hex."""
    others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
    x, reports = float(profile.values[agent - 1]), misreport_candidates(profile, agent)
    ((i, cost),) = mechanisms._plan_min([(others, atoms, x, reports)])
    costs = _plan_costs(others, atoms, x, reports)
    assert (i, cost.hex()) == (int(costs.argmin()), float(costs.min()).hex()), (spec, agent)


def per_agent_loop(spec, profile, p):
    """[best_deviation(spec, profile, p, a) for a in 1..n] as outcomes, or
    the outcome of the first error the loop raises."""
    reports = []
    for agent in range(1, profile.n + 1):
        got = outcome(best_deviation, spec, profile, p, agent)
        if not isinstance(got[0], int):
            return got
        reports.append(got)
    return reports


def first_largest(reports):
    """per_agent_loop's reports reduced to the first of the largest gain, in
    agent order; an error outcome is returned as it is."""
    if not isinstance(reports, list):
        return reports
    return max(reports, key=lambda got: float.fromhex(got[5]))


def profile_batch(spec, profile, p):
    """`deviation._deviations`' winning row over every agent, as an outcome
    of its report, to compare with first_largest(per_agent_loop(...))."""
    try:
        row = deviation._deviations(spec, profile, p, range(1, profile.n + 1), SearchConfig())
    except Exception as exc:
        return type(exc), str(exc)
    gain, agent, best_r, truthful, best_c = row
    return outcome(DeviationReport, agent, profile, best_r, truthful, best_c, gain)


class TestPrunedScan:
    """The candidate scan solves only the optimum rows that can win, and its
    report matches the full curve's (`reference_best_deviation`) by
    float.hex; plans outside its conditions take the full curve."""

    @pytest.fixture
    def pruned_calls(self, monkeypatch):
        calls = []
        pruned = mechanisms._pruned_min

        def spy(plans):
            found = pruned(plans)
            calls.extend(found)
            return found

        monkeypatch.setattr(mechanisms, "_pruned_min", spy)
        return calls

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("p", PRUNE_P)
    def test_reports_match_the_full_curve(self, n, p, pruned_calls):
        rng = np.random.default_rng(int(10 * p) + n)
        values = rng.uniform(0.0, 1.0, size=n)
        # thirds tie and duplicate reports; the second profile is far from 0
        profiles = [np.round(values * 3.0) / 3.0, 1e6 * values - 3e5]
        rows = [(v, s) for v in profiles for s in optimum_specs(n, p)]
        for k, (values, spec) in enumerate(rows):
            assert_scan_or_certified(spec, LocationProfile(values), p, 1 + k % n)
        # the rows scan only where the inverse map is not certified, so the
        # scan meets every plan directly, the optimum alone included
        pruned_calls.clear()
        alone = (Optimal(), Optimal(3.0 if p != 3.0 else 1.5))
        rows += [(v, s) for v in profiles for s in alone]
        for k, (values, spec) in enumerate(rows):
            assert_plan_min_is_the_full_curve(spec, LocationProfile(values), p, 1 + k % n)
        assert len(pruned_calls) == 12 and None not in pruned_calls

    @pytest.mark.parametrize("span", [1e300, 1e306, 1.5e307])
    def test_huge_spans_match_the_full_curve(self, span, pruned_calls):
        profile = LocationProfile([-span, 0.25 * span, span])
        for spec in optimum_specs(3, 3.0):
            for agent in (1, 3):
                assert_scan_or_certified(spec, profile, 3.0, agent)
        pruned_calls.clear()
        for spec in optimum_specs(3, 3.0) + [Optimal(), Optimal(1.5)]:
            for agent in (1, 3):
                assert_plan_min_is_the_full_curve(spec, profile, 3.0, agent)
        assert len(pruned_calls) == 12 and None not in pruned_calls

    def test_an_overflowing_cost_cap_takes_the_full_curve_and_its_refusal(self, pruned_calls):
        # every candidate is finite, but agent 3's own dictator atom puts the
        # cost at the report -4x past the largest double
        profile = LocationProfile([3.6e307, 3.8e307, 4e307])
        spec = optimum_specs(3, 3.0)[3]
        # the reference's full curve warns as it overflows, then its check
        # refuses the costs; the library refuses them without a warning
        with pytest.warns(RuntimeWarning, match="overflow"):
            expect = outcome(reference_best_deviation, spec, profile, 3.0, 3)
        got = outcome(best_deviation, spec, profile, 3.0, 3)
        assert got == expect == (NonFiniteResult, f"misreport costs overflow on {profile!r}")
        assert pruned_calls == [None]

    def test_a_batch_where_only_some_agents_prune(self, pruned_calls):
        # agent 3's misreports reach -1.6e308, so its cost cap overflows and it
        # takes the full curve, while agent 1 prunes in the same batch; at
        # NEAR_ONE the inverse map overflows for both, and agent 2, the median,
        # is certified, as its truthful cost is within 1e-9 * (1 + span) of 0
        profile = LocationProfile([1e307, 1.1e307, 4e307])
        for spec in (median_optimum(3, 0.9), median_optimum(3, 0.5)):
            expect = first_largest(per_agent_loop(spec, profile, NEAR_ONE))
            pruned_calls.clear()
            assert profile_batch(spec, profile, NEAR_ONE) == expect, spec
            assert [found is None for found in pruned_calls] == [False, True]

    def test_mirrored_plans_take_the_full_curve(self, pruned_calls):
        profile = LocationProfile([0.2, 0.9])
        mirrored_mixture = Mirror(Mixture(dictator_weights=(0.5, 0.0), opt_weight=0.5))
        for spec in (Mirror(Optimal()), Symmetrized(Optimal(3.0)), mirrored_mixture):
            for agent in (1, 2):
                expect = outcome(reference_best_deviation, spec, profile, 3.0, agent)
                assert outcome(best_deviation, spec, profile, 3.0, agent) == expect, (spec, agent)
        assert pruned_calls == [None] * 6

    def test_plans_of_another_shape_take_the_full_curve(self, pruned_calls):
        # hand-built plans the catalog never makes: the scan prices only clipped
        # lines of slope >= 0 followed by one solved optimum
        inf = math.inf
        profile = LocationProfile(np.random.default_rng(5).uniform(0.0, 1.0, size=5))
        others, _ = _outcome_plan(Median(), profile.values.tolist(), 3.0, 1)
        x, reports = float(profile.values[0]), misreport_candidates(profile, 1)
        optimum = lambda w, q: (w, 0.0, 0.0, -inf, inf, q, False)
        line = lambda w, slope, shift: (w, slope, shift, others[1], others[2], None, False)
        shapes = {
            "optimum before a line": [optimum(0.5, 3.0), line(0.25, 1.0, 0.0), line(0.25, 0.5, 0.1)],
            "two solved optima": [optimum(0.4, 3.0), optimum(0.6, 5.0)],
            "a closed-form optimum": [optimum(0.3, 2.0), line(0.2, 1.0, 0.0), optimum(0.5, 3.0)],
            "a line of negative slope": [line(0.5, -1.0, 1.0), optimum(0.5, 3.0)],
            "a mirrored line": [(*line(0.5, 1.0, 0.0)[:6], True), optimum(0.5, 3.0)],
        }
        for shape, atoms in shapes.items():
            pruned_calls.clear()
            ((i, cost),) = mechanisms._plan_min([(others, atoms, x, reports)])
            costs = _plan_costs(others, atoms, x, reports)
            assert (i, cost.hex()) == (int(costs.argmin()), float(costs.min()).hex()), shape
            assert pruned_calls == [None], shape

    @pytest.mark.parametrize("p", PRUNE_P)
    def test_computed_optima_are_monotone_in_the_report_within_delta(self, p):
        # the assumption behind the bracket: a solved optimum never drops by
        # more than delta as the report grows, over whole candidate batches
        rng = np.random.default_rng(int(100 * p))
        for trial in range(33):
            n = 2 + trial % 11
            scale, shift = 10.0 ** rng.integers(-6, 7), float(rng.choice([0.0, 1.0, -1e3, 1e6]))
            values = rng.uniform(0.0, 1.0, size=n)
            values = np.round(values * 3.0) / 3.0 if trial % 3 == 0 else values
            profile = LocationProfile((values + shift) * scale)
            agent = 1 + trial % n
            cfg = SearchConfig(scale_bound=0.0 if trial % 2 else 4.0)
            reports = np.sort(misreport_candidates(profile, agent, cfg))
            others, _ = _outcome_plan(Optimal(), profile.values.tolist(), p, agent)
            (y,) = _optimum_rows([(others, reports)], p)
            delta = 1e-9 * (1.0 + abs(min(reports[0], others[0])) + abs(max(reports[-1], others[-1])))
            assert float((np.maximum.accumulate(y) - y).max()) <= delta, (n, scale, shift)

    @pytest.mark.parametrize("spec", [median_optimum(5, 0.75), median_optimum(5, 0.5)])
    def test_the_sp_opt_shape_solves_few_rows(self, spec, monkeypatch):
        # counts rows, not seconds: a silent fall-back to the full curve fails
        rows = []
        solve = optimizer._bisect_columns

        def counting(cols, p):
            rows.append(cols.shape[1])
            return solve(cols, p)

        monkeypatch.setattr(optimizer, "_bisect_columns", counting)
        # the rows take the inverse map, so the scan is called on their plans
        profile = LocationProfile(np.random.default_rng(3).uniform(0.0, 1.0, size=5))
        candidates = 0
        for agent in range(1, 6):
            others, atoms = _outcome_plan(spec, profile.values.tolist(), 3.0, agent)
            reports = misreport_candidates(profile, agent)
            mechanisms._plan_min([(others, atoms, float(profile.values[agent - 1]), reports)])
            candidates += reports.size
        assert 0 < sum(rows) <= 0.15 * candidates


class TestProfileBatch:
    """Every agent of a profile is scanned in one batch, whose winning row is
    the per-agent loop's first largest gain by float.hex; an error is the one
    the loop raises first."""

    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in range(2, 8) for p in PRUNE_P] + [(8, 1.5), (9, 8.0), (10, 3.0), (11, 1.5), (12, 8.0)]
    )
    def test_reports_match_the_per_agent_loop(self, n, p):
        values = np.random.default_rng(int(10 * p) + n).uniform(0.0, 1.0, size=n)
        for values in (np.round(values * 3.0) / 3.0, 1e6 * values - 3e5):
            profile = LocationProfile(values)
            for spec in optimum_specs(n, p) + [Optimal()]:
                expect = per_agent_loop(spec, profile, p)
                assert isinstance(expect, list)
                assert profile_batch(spec, profile, p) == first_largest(expect), spec

    @pytest.mark.parametrize("span", [1e300, 1.5e307])
    def test_huge_spans_match_the_per_agent_loop(self, span):
        profile = LocationProfile([-span, 0.25 * span, span])
        for spec in optimum_specs(3, 3.0):
            assert profile_batch(spec, profile, 3.0) == first_largest(per_agent_loop(spec, profile, 3.0)), spec

    def test_the_first_agent_error_of_the_loop_is_raised(self):
        # agent 1's costs overflow at its misreport -4x; agent 3's window
        # overflows, which the batch meets first as it builds the scans
        profile = LocationProfile([3.6e307, 3.8e307, 4.6e307])
        spec = Mixture(dictator_weights=(0.3, 0.0, 0.0), opt_weight=0.7)
        assert outcome(best_deviation, spec, profile, 3.0, 3)[1].startswith("the misreport window")
        expect = (NonFiniteResult, f"misreport costs overflow on {profile!r}")
        assert per_agent_loop(spec, profile, 3.0) == profile_batch(spec, profile, 3.0) == expect

    @pytest.mark.parametrize("spec", [Optimal(), Median()])
    def test_a_later_agent_error_is_raised_after_the_earlier_agents_pass(self, spec):
        # agents 1 and 2 scan cleanly; agent 3's misreport window overflows
        profile = LocationProfile([3.6e307, 3.8e307, 4.6e307])
        expect = (NonFiniteResult, f"the misreport window of {profile!r} overflows")
        assert per_agent_loop(spec, profile, 3.0) == profile_batch(spec, profile, 3.0) == expect

    @pytest.mark.parametrize("spec", [median_optimum(5, 0.75), median_optimum(5, 0.5)])
    def test_a_profile_makes_at_most_two_kernel_calls(self, spec, monkeypatch):
        # counts kernel calls, not seconds: one per agent and row kind makes 10
        calls = []
        solve = optimizer._bisect_columns

        def counting(cols, p):
            calls.append(cols.shape[1])
            return solve(cols, p)

        monkeypatch.setattr(optimizer, "_bisect_columns", counting)
        # at NEAR_ONE every agent of the profile scans
        for seed in (1, 2, 3):
            calls.clear()
            sp_scan(spec, NEAR_ONE, n=5, trials=1, seed=seed, include_structured=False)
            assert 1 <= len(calls) <= 2, seed


def reference_scan(spec, p, n, trials, seed, include_structured=True, best=best_deviation):
    """sp_scan's result with no floor, as an outcome: the first of the
    largest (gain, profile values) over every agent's report from `best`,
    or the first error in profile and agent order."""
    profiles = []
    if include_structured:
        profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))] + deviation.four_block_profiles(n, p)
    rng = np.random.default_rng(seed)
    profiles += [LocationProfile(rng.uniform(0.0, 1.0, size=n)) for _ in range(trials)]
    reports = []
    for profile in profiles:
        for agent in range(1, n + 1):
            got = outcome(best, spec, profile, p, agent)
            if not isinstance(got[0], int):
                return got
            reports.append(best(spec, profile, p, agent))
    return outcome(lambda: max(reports, key=lambda r: (r.gain, tuple(r.true_profile.values.tolist()))))


def closed_or_polished(spec, profile, p, agent):
    """The closed form's report where `_inverse_min` certifies the row or
    `_kink_min` prices it, else `reference_best_deviation`'s, whose polish
    always runs."""
    closed = inverse_map_row(spec, profile, p, agent) or kink_row(spec, profile, p, agent)
    if closed is None:
        return reference_best_deviation(spec, profile, p, agent)
    x = float(profile.values[agent - 1])
    others, atoms = _outcome_plan(spec, profile.values.tolist(), validate_pnorm(p), agent)
    truthful = _plan_at(others, atoms, x, x)
    return DeviationReport(agent, profile, closed[0], truthful, closed[1], truthful - closed[1])


def scan_outcome(spec, p, n, trials, seed, include_structured=True):
    return outcome(lambda: sp_scan(spec, p, n, trials, seed, include_structured=include_structured))


def optimum_rules_at_two():
    return [Mirror(Optimal(3.0)), Mirror(Optimal(1.5)), Symmetrized(Optimal()), Symmetrized(Optimal(8.0))]


class TestScanFloor:
    """sp_scan polishes only the agents whose bounded gain can still reach the
    largest gain found so far; its report, and its first error, equal the
    reduction over every agent's report by float.hex."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_reduction_over_every_agent(self, n):
        specs = catalog(n) + (optimum_rules_at_two() if n == 2 else [])
        for k, (spec, p) in enumerate((spec, p) for spec in specs for p in P_GRID):
            args = (spec, p, n, 2, k % 3, k % 2 == 0)
            assert scan_outcome(*args) == reference_scan(*args), (spec, p)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equals_the_always_polishing_reduction(self, n):
        specs = [median_optimum(n, 0.5), Median(), catalog(n)[8]] + (optimum_rules_at_two() if n == 2 else [LRM()])
        for k, (spec, p) in enumerate((spec, p) for spec in specs for p in (1.5, 2.0, 3.0, math.inf)):
            args = (spec, p, n, 3, k, k % 2 == 1)
            assert scan_outcome(*args) == reference_scan(*args, best=closed_or_polished), (spec, p)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_tied_and_huge_profiles(self, n, monkeypatch):
        rng = np.random.default_rng(60 + n)
        injected = [
            LocationProfile(np.round(rng.uniform(0.0, 1.0, n) * 2.0) / 2.0),
            LocationProfile(1e300 * rng.uniform(-1.0, 1.0, n)),
            LocationProfile(np.full(n, 0.25)),
            LocationProfile(np.resize([-1e300, 1e300], n)),
            LocationProfile(1e-300 * rng.uniform(-1.0, 1.0, n)),
            LocationProfile(np.resize([0.0, 1.0, 1.0], n)),
            LocationProfile(np.resize([1e307, 3e307], n)),
        ]
        monkeypatch.setattr(deviation, "four_block_profiles", lambda n, p: injected)
        specs = catalog(n) + (optimum_rules_at_two() if n == 2 else [])
        # every other (spec, p) pair: as len(P_GRID) is odd, each spec and each p still comes up
        for k, (spec, p) in enumerate([(spec, p) for spec in specs for p in P_GRID][::2]):
            args = (spec, p, n, 1, k % 3)
            assert scan_outcome(*args) == reference_scan(*args), (spec, p)

    def test_p2_means_that_differ_from_the_scalar_mean(self, monkeypatch):
        # the batched p = 2 mean, (fsum(others) + r) / n, and the scalar one,
        # fsum(row) / n, differ in the last bits on these profiles: the scan
        # prices the best candidate with one and the polish with the other
        rng, differing = np.random.default_rng(8), []
        while len(differing) < 8:
            values = rng.uniform(0.0, 1.0, size=5)
            for agent in range(1, 6):
                others = sorted(np.delete(values, agent - 1).tolist())
                scalar = _optimum(sorted(values.tolist()), 2.0)
                if _means(others, values[agent - 1 : agent].copy(), 5)[0] != scalar:
                    differing.append(LocationProfile(values))
                    break
        monkeypatch.setattr(deviation, "four_block_profiles", lambda n, p: differing)
        # every row of these mixtures takes the exact best response, so they
        # are made to scan as they did before, to meet both means
        monkeypatch.setattr(deviation, "_inverse_min", lambda *args: None)
        for spec in (median_optimum(5, 0.5), median_optimum(5, 0.9, 2.0), catalog(5)[8]):
            for seed in (0, 1):
                args = (spec, 2.0, 5, 3, seed)
                assert scan_outcome(*args) == reference_scan(*args), spec
                assert scan_outcome(*args) == reference_scan(*args, best=reference_best_deviation), spec

    @pytest.mark.parametrize(
        "spec, n, bad, error",
        [
            (Median(), 3, [3.6e307, 3.8e307, 4.6e307], (NonFiniteResult, "the misreport window of {} overflows")),
            (Optimal(), 3, [3.6e307, 3.8e307, 4.6e307], (NonFiniteResult, "the misreport window of {} overflows")),
            (
                Mixture(dictator_weights=(0.3, 0.0, 0.0), opt_weight=0.7),
                3,
                [3.6e307, 3.8e307, 4.6e307],
                (NonFiniteResult, "misreport costs overflow on {}"),
            ),
            (LRM(), 2, [0.0, 0.5, 1.0], (mechanisms.ArityMismatch, "lrm is a two-agent rule, profile has 3")),
            (
                Mixture(dictator_weights=(0.5, 0.5)),
                2,
                [0.0, 0.5, 1.0],
                (mechanisms.ArityMismatch, "dictator weights sized 2 for 3 agents"),
            ),
        ],
    )
    def test_a_later_profile_error_is_raised_with_the_floor_set(self, spec, n, bad, error, monkeypatch):
        # the half-half profile sets the floor; the injected profile then fails
        # at one of its agents, with the error the per-agent loop raises first
        profile = LocationProfile(bad)
        expect = (error[0], error[1].format(repr(profile)))
        monkeypatch.setattr(deviation, "four_block_profiles", lambda n, p: [profile])
        floors, scan = [], deviation._deviations

        def spy(spec, profile, p, agents, cfg, floor=-math.inf):
            floors.append(floor)
            return scan(spec, profile, p, agents, cfg, floor)

        assert reference_scan(spec, 3.0, n, 0, 0) == expect
        monkeypatch.setattr(deviation, "_deviations", spy)
        assert outcome(sp_scan, spec, 3.0, n, 0, 0) == expect
        assert len(floors) == 2 and floors[1] > -math.inf

    def test_the_sp_opt_shape_polishes_few_agents(self, monkeypatch):
        # counts polishes, not seconds: 21 profiles of 5 agents are 105 rows,
        # made to scan as they did before the inverse map took them
        monkeypatch.setattr(deviation, "_inverse_min", lambda *args: None)
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        sp_scan(median_optimum(5, 0.5), 3.0, n=5, trials=20, seed=1)
        assert 0 < len(calls) <= 10
        calls.clear()
        sp_scan(Median(), 3.0, n=5, trials=20, seed=1)
        assert calls == []

    @pytest.mark.parametrize("spec", [median_optimum(5, 0.75), median_optimum(5, 0.5)])
    def test_a_lone_profile_polishes_only_its_top_agent(self, spec, monkeypatch):
        # the agent of largest scan gain is polished first and lifts the floor
        # past every other agent's bound; the rows are made to scan as they did
        # before the inverse map took them
        monkeypatch.setattr(deviation, "_inverse_min", lambda *args: None)
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        for seed in range(1, 6):
            calls.clear()
            sp_scan(spec, 3.0, n=5, trials=1, seed=seed, include_structured=False)
            assert len(calls) == 1, seed


class TestProfileRows:
    """A one-line row after a profile's first gains +0.0 and cannot be its
    first largest, so the scan only checks it for overflow: its report, and
    its first error, still equal the reduction over every agent's report."""

    @pytest.mark.parametrize("n", range(9, 13))
    def test_the_bench_shapes_equal_the_reduction_over_every_agent(self, n):
        # the benchmark's largest shapes, which skip the most rows
        rng = np.random.default_rng(90 + n)
        for k, p in enumerate(P_GRID):
            specs = [Median(), OrderStatistic(int(rng.integers(1, n + 1))), Dictator(int(rng.integers(1, n + 1)))]
            for spec in specs + ([Optimal()] if p == 1.0 else []):
                args = (spec, p, n, 1, k)
                assert scan_outcome(*args) == reference_scan(*args), (spec, p)

    @pytest.mark.parametrize(
        "spec, values, message",
        [
            # agent 1's line is finite; agent 2's, unbounded below, overflows at its misreport -4x
            (OrderStatistic(1), [1e307, 4e307, 4.4e307], "misreport costs overflow on {}"),
            # agent 1's line is constant; agent 2's own, unbounded, overflows
            (Dictator(2), [1e307, 4e307, 4.4e307], "misreport costs overflow on {}"),
            # as above, before agent 3's misreport window overflows
            (Dictator(2), [3.6e307, 3.8e307, 4.6e307], "misreport costs overflow on {}"),
            # agents 1 and 2 pass; agent 3's misreport window overflows
            (Median(), [3.6e307, 3.8e307, 4.6e307], "the misreport window of {} overflows"),
            (Dictator(3), [3.6e307, 3.8e307, 4.6e307], "the misreport window of {} overflows"),
        ],
    )
    def test_a_later_row_raises_the_first_error_of_the_loop(self, spec, values, message, monkeypatch):
        profile = LocationProfile(values)
        expect = (NonFiniteResult, message.format(repr(profile)))
        assert per_agent_loop(spec, profile, 3.0) == profile_batch(spec, profile, 3.0) == expect
        monkeypatch.setattr(deviation, "four_block_profiles", lambda n, p: [profile])
        assert scan_outcome(spec, 3.0, 3, 0, 0) == reference_scan(spec, 3.0, 3, 0, 0) == expect

    def test_a_profile_prices_one_line_row_and_builds_one_report(self, monkeypatch):
        lines, reports = [], []
        line_min, report = deviation._line_min, deviation.DeviationReport
        monkeypatch.setattr(deviation, "_line_min", lambda *args: lines.append(args) or line_min(*args))
        monkeypatch.setattr(deviation, "DeviationReport", lambda *args: reports.append(args) or report(*args))
        sp_scan(Median(), 3.0, 12, 5, 1)
        assert len(lines) == 1 + len(deviation.four_block_profiles(12, 3.0)) + 5
        assert len(reports) == 1


class TestPolishSlack:
    """Every point the golden polish prices costs at least best_c - slack, so
    the polished gain is at most truthful - best_c + slack."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e6, 1e150, 1e300, 1e306])
    def test_golden_points_cost_at_least_best_c_less_the_slack(self, n, scale):
        rng = np.random.default_rng(70 + n)
        specs = catalog(n) + (optimum_rules_at_two() if n == 2 else [])
        cfg = SearchConfig()
        checked = 0
        rows = [(spec, p, agent) for spec in specs for p in P_GRID for _ in range(2) for agent in range(1, n + 1)]
        for k, (spec, p, agent) in enumerate(rows):
            values = rng.uniform(-1.0, 1.0, n) * scale
            if k % 3 == 0:
                values = np.round(values / scale * 2.0) / 2.0 * scale
            profile = LocationProfile(values)
            try:
                others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
                candidates = misreport_candidates(profile, agent, cfg)
            except (mechanisms.ArityMismatch, NonFiniteResult):
                continue
            x = float(values[agent - 1])
            ((i, best_c),) = mechanisms._plan_min([(others, atoms, x, candidates)])
            truthful = _plan_at(others, atoms, x, x)
            best_r = float(candidates[i])
            window = profile.span * (1.0 + 2.0 * cfg.grid_pad) / (cfg.grid_points - 1)
            if not (math.isfinite(best_c) and math.isfinite(truthful) and math.isfinite(2.0 * window)):
                continue
            costs = []
            _golden_min(lambda r: costs.append(_plan_at(others, atoms, r, x)) or costs[-1],
                        best_r - window, best_r + window, cfg.refine_iters)
            reach = 1.0 + abs(profile.low) + abs(profile.high)
            slack = deviation._polish_slack(atoms, best_r, window, reach, truthful, best_c)
            assert min(costs) >= best_c - slack, (spec, p, values, agent)
            assert truthful - min(min(costs), best_c) <= truthful - best_c + slack, (spec, p, values, agent)
            checked += 1
        assert checked >= len(rows) // 2

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_the_polish_raises_nothing(self, n):
        # skipping a polish drops no error: the point cost raises nothing at
        # reports past the largest double, infinite or NaN, nor does the mean
        # of a row whose sum overflows
        big = 1.7976931348623157e308
        reports = (math.inf, -math.inf, math.nan, big, -big, 5e-324, 0.0)
        specs = catalog(n) + (optimum_rules_at_two() if n == 2 else [])
        for values in (np.linspace(0.0, 1.0, n), np.resize([-1e300, 1e300], n), np.resize([0.0, 4e307], n)):
            profile = LocationProfile(values)
            for spec in specs:
                for p in P_GRID + (1.1, 30.0):
                    try:
                        others, atoms = _outcome_plan(spec, profile.values.tolist(), p, 1)
                    except mechanisms.ArityMismatch:
                        continue
                    for r in reports:
                        _plan_at(others, atoms, r, float(values[0]))
                    _golden_min(lambda r: _plan_at(others, atoms, r, 0.0), -math.inf, math.inf, 3)
        for m in range(2, 13):
            for row in ([big] * m, [big * (1.0 - 2.0**-52)] * (m - 1) + [big], [-big] * m):
                assert abs(_optimum(row, 2.0)) <= big

    @pytest.mark.parametrize("slope, mirrored, lip", [(1.0, False, 1.0), (0.5, False, 0.5), (-1.0, True, 2.0)])
    def test_the_lipschitz_term_is_attained(self, slope, mirrored, lip):
        # the facility at slope * r, mirrored to r + 0 - y: from a best report one
        # window above the cheapest one, the polish takes off nearly lip * window
        atoms = [(1.0, slope, 0.0, -math.inf, math.inf, None, mirrored)]
        others, x, best_r, window = [0.0], 0.0, 0.25, 0.25
        best_c = _plan_at(others, atoms, best_r, x)
        _, c2 = _golden_min(lambda r: _plan_at(others, atoms, r, x), best_r - window, best_r + window, 48)
        slack = deviation._polish_slack(atoms, best_r, window, 1.0, 0.0, best_c)
        assert best_c - c2 > (lip - 1e-6) * window
        assert c2 >= best_c - slack


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

    @pytest.mark.parametrize("field, value", [("n", 3.0), ("n", True), ("trials", 2.0), ("trials", True), ("seed", 1.5)])
    def test_a_non_integer_count_or_seed_is_refused_by_name(self, field, value):
        args = {"n": 3, "trials": 2, "seed": 0, field: value}
        with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            sp_scan(Median(), 2.0, **args)

    @pytest.mark.parametrize("field, value, least", [("n", 1, 2), ("trials", -1, 0), ("seed", -1, 0)])
    def test_an_out_of_range_count_or_seed_is_refused_by_name(self, field, value, least):
        args = {"n": 3, "trials": 2, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
            sp_scan(Median(), 2.0, **args)


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

    @pytest.mark.parametrize("x2", [math.inf, math.nan])
    def test_a_non_finite_x2_is_refused(self, x2):
        # at x2 = inf the margin would be inf * 0 less the mass below, NaN
        with pytest.raises(ValueError, match="x2 must be positive and finite"):
            symmetric_sp_margin(lrm_distribution(LocationProfile([0.0, 1.0])), x2)
