"""Misreport search: candidate generation, best responses, scan reduction."""

import math
import re

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
        # a solved optimum atom, although here its location never reaches x
        best_deviation(Optimal(), LocationProfile([0.0, 10.0, 11.0]), 3.0, agent=1)
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
        best_deviation(LRM(), LocationProfile([0.0, 1.0]), 2.0, agent=1)
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
            assert outcome(best_deviation, spec, profile, p, agent) == expect, (spec, agent)

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


PRUNE_P = (1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0, 30.0)


def optimum_specs(n, p):
    """Plans with a solved optimum atom: alone, at its own exponent, and
    mixed with the lower median or a dictator."""
    median = [0.0] * n
    median[(n - 1) // 2] = 0.5
    dictator = [0.0] * n
    dictator[n - 1] = 0.3
    return [
        Optimal(),
        Optimal(3.0 if p != 3.0 else 1.5),
        Mixture(order_weights=tuple(median), opt_weight=0.5),
        Mixture(dictator_weights=tuple(dictator), opt_weight=0.7),
    ]


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


def profile_batch(spec, profile, p):
    """`deviation._deviations` over every agent, as per_agent_loop gives it."""
    try:
        reports = deviation._deviations(spec, profile, p, range(1, profile.n + 1), SearchConfig())
    except Exception as exc:
        return type(exc), str(exc)
    return [outcome(lambda report: report, report) for report in reports]


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
        for k, (values, spec) in enumerate((v, s) for v in profiles for s in optimum_specs(n, p)):
            profile, agent = LocationProfile(values), 1 + k % n
            expect = outcome(reference_best_deviation, spec, profile, p, agent)
            assert outcome(best_deviation, spec, profile, p, agent) == expect, (spec, agent)
        assert len(pruned_calls) == 8 and None not in pruned_calls

    @pytest.mark.parametrize("span", [1e300, 1e306, 1.5e307])
    def test_huge_spans_match_the_full_curve(self, span, pruned_calls):
        profile = LocationProfile([-span, 0.25 * span, span])
        for spec in optimum_specs(3, 3.0):
            for agent in (1, 3):
                expect = outcome(reference_best_deviation, spec, profile, 3.0, agent)
                assert outcome(best_deviation, spec, profile, 3.0, agent) == expect, (spec, agent)
        assert len(pruned_calls) == 8 and None not in pruned_calls

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
        # takes the full curve, while agents 1 and 2 prune in the same batch
        profile = LocationProfile([1e307, 1.1e307, 4e307])
        for spec in (Optimal(), Mixture(order_weights=(0.0, 0.5, 0.0), opt_weight=0.5)):
            expect = per_agent_loop(spec, profile, 3.0)
            pruned_calls.clear()
            assert profile_batch(spec, profile, 3.0) == expect, spec
            assert [found is None for found in pruned_calls] == [False, False, True]

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

    @pytest.mark.parametrize("spec", [Optimal(), Mixture(order_weights=(0.0, 0.0, 0.5, 0.0, 0.0), opt_weight=0.5)])
    def test_the_sp_opt_shape_solves_few_rows(self, spec, monkeypatch):
        # counts rows, not seconds: a silent fall-back to the full curve fails
        rows = []
        solve = optimizer._bisect_columns

        def counting(cols, p):
            rows.append(cols.shape[1])
            return solve(cols, p)

        monkeypatch.setattr(optimizer, "_bisect_columns", counting)
        profile = LocationProfile(np.random.default_rng(3).uniform(0.0, 1.0, size=5))
        candidates = 0
        for agent in range(1, 6):
            best_deviation(spec, profile, 3.0, agent, SearchConfig(refine_iters=0))
            candidates += misreport_candidates(profile, agent).size
        assert 0 < sum(rows) <= 0.15 * candidates


class TestProfileBatch:
    """Every agent of a profile is scanned in one batch, whose reports equal
    the per-agent loop's by float.hex; an error is the one the loop raises first."""

    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in range(2, 8) for p in PRUNE_P] + [(8, 1.5), (9, 8.0), (10, 3.0), (11, 1.5), (12, 8.0)]
    )
    def test_reports_match_the_per_agent_loop(self, n, p):
        values = np.random.default_rng(int(10 * p) + n).uniform(0.0, 1.0, size=n)
        for values in (np.round(values * 3.0) / 3.0, 1e6 * values - 3e5):
            profile = LocationProfile(values)
            for spec in optimum_specs(n, p):
                expect = per_agent_loop(spec, profile, p)
                assert isinstance(expect, list)
                assert profile_batch(spec, profile, p) == expect, spec

    @pytest.mark.parametrize("span", [1e300, 1.5e307])
    def test_huge_spans_match_the_per_agent_loop(self, span):
        profile = LocationProfile([-span, 0.25 * span, span])
        for spec in optimum_specs(3, 3.0):
            assert profile_batch(spec, profile, 3.0) == per_agent_loop(spec, profile, 3.0), spec

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

    @pytest.mark.parametrize("spec", [Optimal(), Mixture(order_weights=(0.0, 0.0, 0.5, 0.0, 0.0), opt_weight=0.5)])
    def test_a_profile_makes_at_most_two_kernel_calls(self, spec, monkeypatch):
        # counts kernel calls, not seconds: one per agent and row kind makes 10
        calls = []
        solve = optimizer._bisect_columns

        def counting(cols, p):
            calls.append(cols.shape[1])
            return solve(cols, p)

        monkeypatch.setattr(optimizer, "_bisect_columns", counting)
        for seed in (1, 2, 3):
            calls.clear()
            sp_scan(spec, 3.0, n=5, trials=1, seed=seed, include_structured=False)
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
        specs = [Optimal(), Median(), catalog(n)[8]] + (optimum_rules_at_two() if n == 2 else [LRM()])
        for k, (spec, p) in enumerate((spec, p) for spec in specs for p in (1.5, 2.0, 3.0, math.inf)):
            args = (spec, p, n, 3, k, k % 2 == 1)
            assert scan_outcome(*args) == reference_scan(*args, best=reference_best_deviation), (spec, p)

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
        for spec in (Optimal(), Optimal(2.0), catalog(5)[8]):
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
        # counts polishes, not seconds: 21 profiles of 5 agents are 105 rows
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        sp_scan(Optimal(), 3.0, n=5, trials=20, seed=1)
        assert 0 < len(calls) <= 10
        calls.clear()
        sp_scan(Median(), 3.0, n=5, trials=20, seed=1)
        assert calls == []

    @pytest.mark.parametrize("spec", [Optimal(), Mixture(order_weights=(0.0, 0.0, 0.5, 0.0, 0.0), opt_weight=0.5)])
    def test_a_lone_profile_polishes_only_its_top_agent(self, spec, monkeypatch):
        # the agent of largest scan gain is polished first and lifts the floor
        # past every other agent's bound
        calls = []
        monkeypatch.setattr(deviation, "_golden_min", lambda *args: calls.append(args) or _golden_min(*args))
        for seed in range(1, 6):
            calls.clear()
            sp_scan(spec, 3.0, n=5, trials=1, seed=seed, include_structured=False)
            assert len(calls) == 1, seed


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
