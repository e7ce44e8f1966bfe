"""Optimal locations and root finding."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lpfacility import (
    LocationProfile,
    Median,
    NonFiniteResult,
    NoRootFound,
    Optimal,
    adversarial_root,
    adversarial_roots,
    best_deviation,
    optimal_cost,
    optimal_location,
    point_mass,
    ratio,
    run,
    smallest_positive_root,
    social_cost,
)
from lpfacility.optimizer import (
    BRACKET_TOL,
    ROOT_TOL,
    _bisect_columns,
    _optimum,
    _optimum_rows,
    _powi,
    _solve_row,
)


def brute_force_cost_curve(values, grid, p):
    # independent oracle: raw numpy, no shared code with the library path
    diffs = np.abs(grid[:, None] - values[None, :])
    if math.isinf(p):
        return diffs.max(axis=1)
    return np.sum(diffs**p, axis=1) ** (1.0 / p)


class TestOptimalLocation:
    def test_p1_lower_median_both_parities(self):
        odd = LocationProfile([5.0, 1.0, 3.0])
        assert optimal_location(odd, 1.0).location == 3.0
        even = LocationProfile([4.0, 1.0, 3.0, 2.0])
        res = optimal_location(even, 1.0)
        assert res.location == 2.0
        assert res.method == "closed_form_median"

    def test_p2_mean(self):
        res = optimal_location(LocationProfile([0.0, 1.0]), 2.0)
        assert res.location == 0.5
        assert res.cost == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert res.method == "closed_form_mean"

    def test_pinf_midrange(self):
        res = optimal_location(LocationProfile([0.0, 0.2, 1.0]), math.inf)
        assert res.location == 0.5
        assert res.cost == 0.5
        assert res.method == "closed_form_midrange"

    def test_symmetric_profile_generic_p(self):
        res = optimal_location(LocationProfile([0.0, 0.0, 1.0, 1.0]), 3.0)
        assert res.method == "derivative_bisection"
        assert res.location == pytest.approx(0.5, abs=1e-9)

    def test_generic_p_against_grid(self):
        values = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        res = optimal_location(LocationProfile(values), 4.0)
        grid = np.linspace(0.0, 1.0, 2_000_001)
        costs = brute_force_cost_curve(values, grid, 4.0)
        best = int(np.argmin(costs))
        assert abs(res.location - grid[best]) <= grid[1] - grid[0]
        assert res.cost <= costs[best] + 1e-12

    def test_location_always_inside_range(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            prof = LocationProfile(rng.uniform(-10, 10, size=rng.integers(2, 9)))
            p = float(rng.choice([1.0, 1.3, 2.0, 2.7, 5.0, math.inf]))
            res = optimal_location(prof, p)
            assert prof.low <= res.location <= prof.high
            assert res.cost == social_cost(prof, res.location, p)

    def test_degenerate_profile(self):
        prof = LocationProfile([2.0, 2.0, 2.0])
        for p in (1.0, 2.0, 3.5, math.inf):
            res = optimal_location(prof, p)
            assert res.location == 2.0
            assert res.cost == 0.0

    def test_optimal_cost_examples(self):
        assert optimal_cost(LocationProfile([0.0, 1.0]), 2.0) == pytest.approx(
            math.sqrt(0.5), abs=1e-15
        )
        half = LocationProfile([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        # n^(1/p) / 2 at the midpoint
        assert optimal_cost(half, 3.0) == pytest.approx(6 ** (1 / 3) / 2, abs=1e-12)

    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            vals = rng.uniform(-2, 2, size=rng.integers(2, 7))
            p = float(rng.choice([1.5, 2.0, 3.3, math.inf]))
            base = optimal_location(LocationProfile(vals), p)
            c = float(rng.uniform(-3, 3))
            s = float(rng.uniform(0.2, 2.5))
            moved = optimal_location(LocationProfile(vals * s + c), p)
            assert moved.location == pytest.approx(base.location * s + c, abs=1e-9)
            assert moved.cost == pytest.approx(base.cost * s, abs=1e-9)

    def test_never_beaten_by_sampled_locations(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            prof = LocationProfile(rng.uniform(-5, 5, size=rng.integers(2, 8)))
            p = float(rng.choice([1.0, 1.8, 2.0, 4.1, math.inf]))
            best = optimal_cost(prof, p)
            ys = rng.uniform(prof.low - 1, prof.high + 1, size=1000)
            costs = brute_force_cost_curve(prof.values, ys, p)
            assert best <= costs.min() + 1e-10


class TestExtremeRows:
    """Spans near the float limits and huge p: right answers, not overflow."""

    def test_huge_span_p3_is_the_midpoint(self):
        prof = LocationProfile([0.0, 1e300])
        res = optimal_location(prof, 3.0)
        assert res.location == pytest.approx(5e299, rel=1e-12)
        assert res.cost <= social_cost(prof, 5e299, 3.0)

    def test_huge_p_lands_on_the_midrange(self):
        prof = LocationProfile([0.0, 0.1, 10.0])
        res = optimal_location(prof, 1e6)
        assert res.location == pytest.approx(5.0, rel=1e-9)
        assert res.cost <= social_cost(prof, 5.0, 1e6)

    @pytest.mark.parametrize("values", [[-1e308, 1e308], [-1e308, 0.0, 1e308]])
    def test_span_past_float_max_stays_finite(self, values):
        res = optimal_location(LocationProfile(values), 3.0)
        assert res.location == 0.0
        assert math.isfinite(res.cost)

    @pytest.mark.parametrize(
        "values, p", [([-1e308, 1e308], 1.0), ([-1e308, -1e307, 1e307, 1e308], 1.0), ([-1e308] * 2 + [1e308] * 2, 2.0)]
    )
    def test_an_overflowing_optimal_cost_is_refused_by_name(self, values, p):
        # the costs are 2e308, 2.2e308 and 2e308: optimal_location returned them as inf
        prof = LocationProfile(values)
        message = f"^{re.escape(f'optimal cost overflows on {prof!r}')}$"
        with pytest.raises(NonFiniteResult, match=message):
            optimal_location(prof, p)
        with pytest.raises(NonFiniteResult, match=message):
            optimal_cost(prof, p)

    @pytest.mark.parametrize("values", [[1e308, 1.5e308], [1.7e308] * 3, [-1.7e308, -1e308, 1e307]])
    def test_an_overflowing_p2_sum_still_gives_the_mean(self, values):
        # the sum passes the largest double, the mean does not: the result is
        # the one a quarter-scale profile gives, scaled back exactly
        res = optimal_location(LocationProfile(values), 2.0)
        assert res.location == 4.0 * optimal_location(LocationProfile(np.divide(values, 4.0)), 2.0).location
        assert res.method == "closed_form_mean" and math.isfinite(res.cost)

    @pytest.mark.parametrize("value", [0.1, 0.7, -0.3, 1e-310, 3e307])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_a_p2_mean_of_equal_points_is_that_point(self, value, n):
        # fsum(row) / n rounds twice; at [0.1] * 3 it gave 0.10000000000000002
        res = optimal_location(LocationProfile([value] * n), 2.0)
        assert res.location == value and res.cost == 0.0

    def test_p2_means_stay_in_the_hull_in_both_kernels(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            others = np.sort(rng.choice([0.1, 0.7, -0.3], n - 1) if rng.random() < 0.5 else rng.uniform(-1, 1, n - 1))
            reports = np.concatenate([others, rng.uniform(-2, 2, 8)])
            means = _optimum_rows([(others.tolist(), reports)], 2.0)[0]
            assert np.all(np.minimum(reports, others[0]) <= means)
            assert np.all(means <= np.maximum(reports, others[-1]))
            for r, mean in zip(reports.tolist(), means.tolist()):
                row = sorted([*others.tolist(), r])
                assert row[0] <= optimal_location(LocationProfile(row), 2.0).location <= row[-1]

    def test_an_overflowing_pinf_sum_still_gives_the_midrange(self):
        # 0.5 * (lo + hi) overflowed above half the largest double: the location
        # and cost were inf, run raised an unnamed ValueError, and best_deviation
        # refused the costs as overflowing
        prof = LocationProfile([1e308, 1.5e308])
        res = optimal_location(prof, math.inf)
        assert (res.location, res.cost) == (1.25e308, 2.5e307)
        assert run(Optimal(), prof, math.inf) == point_mass(1.25e308)
        assert ratio(Median(), prof, math.inf).ratio == 2.0
        report = best_deviation(Optimal(), LocationProfile([3e307, 4e307]), math.inf, 2)
        assert (report.best_misreport, report.deviated_cost) == (5e307, 0.0)
        assert report.gain == report.truthful_cost == 4e307 - 0.5 * (3e307 + 4e307)
        # warnings are errors in this suite: the batched kernel warns of nothing
        (y,) = _optimum_rows([([1e308], np.array([1.5e308, 1.7e308]))], math.inf)
        assert y.tolist() == [1.25e308, 1.35e308]

    def test_pinf_midranges_keep_their_bits_where_the_sum_is_finite(self):
        rng = np.random.default_rng(29)
        for trial in range(200):
            n = 2 + trial % 7
            # every fourth row lies in +-[5e307, 1.7e308], where sums overflow
            low, scale = (0.5, 1e308) if trial % 4 == 0 else (-1.7, 10.0 ** float(rng.integers(-300, 308)))
            scale = -scale if trial % 8 == 0 else scale
            others = np.sort(rng.uniform(low, 1.7, n - 1) * scale)
            reports = rng.uniform(low, 1.7, 16) * scale
            lo, hi = np.minimum(reports, others[0]), np.maximum(reports, others[-1])
            with np.errstate(over="ignore"):
                expect = 0.5 * (lo + hi)
            finite = np.isfinite(expect)
            (y,) = _optimum_rows([(others.tolist(), reports)], math.inf)
            assert np.all((lo <= y) & (y <= hi))
            assert [v.hex() for v in y[finite].tolist()] == [v.hex() for v in expect[finite].tolist()]
            # the scalar kernel agrees with the batched one, overflowing rows included
            for r, mid in zip(reports.tolist(), y.tolist()):
                assert _optimum(sorted([*others.tolist(), r]), math.inf).hex() == mid.hex()

    def test_tolerance_scales_with_the_span(self):
        tiny = optimal_location(LocationProfile([0.0, 1e-13, 1e-12]), 3.0).location
        unit = optimal_location(LocationProfile([0.0, 0.1, 1.0]), 3.0).location
        assert tiny == pytest.approx(1e-12 * unit, rel=1e-9, abs=0.0)

    def test_three_point_closed_form(self):
        # on (0.3, 1) the derivative y^2 + (y - 0.3)^2 - (1 - y)^2 is y^2 + 1.4y - 0.91
        res = optimal_location(LocationProfile([0.0, 0.3, 1.0]), 3.0)
        assert abs(res.location - (-1.4 + math.sqrt(5.6)) / 2.0) <= 1e-15


SOLVER_P = (1.01, 1.1, 1.5, 2.5, 3.0, 3.3, 5.0, 8.0, 20.0, 1e6)


@st.composite
def solver_rows(draw):
    """Rows of 2 to 12 points on a 1e-3 grid, so ties and duplicates are
    common, scaled to spans from about 1e-12 to 1e300."""
    n = draw(st.integers(2, 12))
    pool = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=n))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-12, 300))
    return [k / 1000.0 * scale for k in picks]


def peak_factored_derivative(values, y, p):
    # independent oracle: sum sign(y - x) |y - x|^(p-1), divided by the peak's power
    d = y - np.asarray(values, dtype=float)
    peak = np.abs(d).max()
    if peak == 0.0:
        return 0.0
    return float(np.sum(np.sign(d) * (np.abs(d) / peak) ** (p - 1.0)))


class TestSolverCertificate:
    @given(values=solver_rows(), p=st.sampled_from(SOLVER_P))
    def test_both_kernels_return_certified_points(self, values, p):
        lo, hi = min(values), max(values)
        tol = BRACKET_TOL * (0.5 * hi - 0.5 * lo)
        scalar = _solve_row(values, p)
        batched = float(_bisect_columns(np.array(values, dtype=float).reshape(-1, 1), p)[0])
        for y in (scalar, batched):
            assert lo <= y <= hi
            if tol > 0.0:
                assert peak_factored_derivative(values, y - tol, p) <= 0.0
                assert peak_factored_derivative(values, y + tol, p) >= 0.0
        assert abs(scalar - batched) <= tol

    @pytest.mark.parametrize("p", SOLVER_P)
    def test_batched_rows_match_the_scalar_kernel(self, p):
        rng = np.random.default_rng(24)
        rows = rng.uniform(-1.0, 1.0, size=(300, 6)) * 10.0 ** rng.integers(-12, 300, size=(300, 1))
        rows[::7, 1] = rows[::7, 0]
        batched = _bisect_columns(np.array(rows.T, order="C"), p)
        for row, y in zip(rows, batched):
            tol = BRACKET_TOL * (0.5 * row.max() - 0.5 * row.min())
            assert abs(_solve_row(row.tolist(), p) - y) <= tol


def reference_solve_row(points, p):
    """_solve_row in its first form: the slopes from a separate helper,
    `abs(d) ** (e - 1.0)` at every p, and one evaluation after the loop."""

    def slopes(zs, t, e, m):
        s0 = s1 = 0.0
        try:
            for z in zs:
                d = (t - z) / m
                g = abs(d) ** (e - 1.0)
                s0 += g
                s1 += g * d
        except (OverflowError, ZeroDivisionError):
            return sum(math.copysign(abs((t - z) / m) ** e, t - z) for z in zs), math.inf
        return s1, e * s0 / m

    lo, hi = min(points), max(points)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    if not half > 0.0:
        return lo
    zs = [(x - center) / half for x in points]
    zlo, zhi = min(zs), max(zs)
    e, tol = p - 1.0, BRACKET_TOL
    a, b = zlo, zhi
    t = est = sum(zs) / len(zs)
    dx_old = b - a
    f, df = slopes(zs, t, e, max(t - zlo, zhi - t))
    for _ in range(200):
        if f <= 0.0:
            a = t
        if f >= 0.0:
            b = t
        if est - a <= tol and b - est <= tol:
            break
        dx = 0.5 * (b - a)
        est = a + dx
        if 0.0 < df < math.inf:
            step = f / df
            if a <= t - step <= b and abs(2.0 * f) <= abs(dx_old * df):
                dx, est = step, t - step
        dx_old = dx
        t = est
        if abs(dx) < tol:
            t = est + 0.5 * tol if b - est > tol else est - 0.5 * tol
        f, df = slopes(zs, t, e, max(t - zlo, zhi - t))
    return min(max(center + half * est, lo), hi)


class TestSolveRowFirstForm:
    """_solve_row computes its slopes inline and takes |d| for |d| ** 1.0 at
    p = 3; every result keeps the first form's bits."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bits_equal_the_first_form(self, n):
        rng = np.random.default_rng(100 + n)
        rows = []
        for scale in (1e-300, 1e-12, 1.0, 1e6, 1e150, 1e300):
            values = rng.uniform(-1.0, 1.0, size=(6, n))
            values[:2] = np.round(values[:2] * 2.0) / 2.0  # ties
            values[2, 1:] = values[2, 0]  # all but one point tied
            rows += (np.sort(values, axis=1) * scale).tolist()
        rows.append([0.0] * (n - 1) + [5e-324])
        for p in (1.01, 1.1, 1.5, 1.9, 2.5, 3.0, 4.0, 5.0, 8.0, 30.0, 1e3, 1e6):
            for row in rows:
                assert _solve_row(row, p).hex() == reference_solve_row(row, p).hex(), (p, row)


def reference_smallest_positive_root(f, scan_step, max_bound, tol=ROOT_TOL):
    # the scan and a scalar bracket bisection in Python floats, no numpy
    if not (max_bound > 0.0 and math.isfinite(max_bound)):
        raise ValueError("max_bound must be positive and finite")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be finite and >= 0")
    left, i = 0.0, 1
    while left < max_bound:
        t = min(i * scan_step, max_bound)
        if float(f(t)) >= 0.0:
            lo, hi = left, t
            while hi - lo > tol * (1.0 + hi):
                mid = 0.5 * lo + 0.5 * hi
                if mid <= lo or mid >= hi:
                    break
                if float(f(mid)) < 0.0:
                    lo = mid
                else:
                    hi = mid
            mid = 0.5 * lo + 0.5 * hi
            return mid if mid > 0.0 else hi
        left = t
        i += 1
    raise NoRootFound


SCALAR_ROOT_CASES = [
    (lambda a: a * a - 2.0, 0.1, 10.0),
    (lambda a: a - 1.0, 0.3, 10.0),
    (lambda a: -(a - 1.0) * (a - 3.0) * (a + 1.0), 0.05, 10.0),
    (lambda a: a - 1e-5, 1e300, 1e300),
    (lambda a: a - 5e-324, 1.0, 4.0),
    (lambda a: a - 1e-310, 0.25, 1.0),
    (lambda a: a - 1e307, 1e307, 1e308),
    (lambda a: a**3 - 7.0, 1e-3, 3.0),
    (lambda a: a - 0.1 if a > 0.05 else -1.0, 1.0, 1.0),
    (lambda a: a - 1.5e308, 1e308, 1.7e308),
]
ROOT_TOLS = [ROOT_TOL, 0.0, 1e-3, 0.5]
# a NaN tol returned the scan cell's midpoint; an inf bound returned inf for a root at 1.5e308
REFUSED_TOLS = [-1.0, math.nan]
REFUSED_ROOT_CASES = [(lambda a: a - 1.5e308, 1e308, math.inf)]


class TestSmallestPositiveRoot:
    @pytest.mark.parametrize("tol", ROOT_TOLS)
    @pytest.mark.parametrize("f, step, bound", SCALAR_ROOT_CASES)
    def test_matches_the_scalar_bisection_bit_for_bit(self, f, step, bound, tol):
        got = smallest_positive_root(f, step, bound, tol)
        assert got.hex() == reference_smallest_positive_root(f, step, bound, tol).hex()

    @pytest.mark.parametrize("tol", REFUSED_TOLS)
    @pytest.mark.parametrize("f, step, bound", SCALAR_ROOT_CASES)
    def test_a_non_finite_or_negative_tol_is_refused(self, f, step, bound, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            smallest_positive_root(f, step, bound, tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            reference_smallest_positive_root(f, step, bound, tol)

    @pytest.mark.parametrize("tol", ROOT_TOLS + REFUSED_TOLS)
    @pytest.mark.parametrize("f, step, bound", REFUSED_ROOT_CASES)
    def test_a_non_finite_bound_is_refused(self, f, step, bound, tol):
        with pytest.raises(ValueError, match="max_bound must be positive and finite"):
            smallest_positive_root(f, step, bound, tol)
        with pytest.raises(ValueError, match="max_bound must be positive and finite"):
            reference_smallest_positive_root(f, step, bound, tol)

    @given(
        root=st.floats(min_value=5e-324, max_value=1e300),
        scale=st.floats(min_value=1e-3, max_value=1e6),
        tol=st.sampled_from([ROOT_TOL, 0.0, 1e-6, 1e-15]),
    )
    def test_fuzzed_roots_match_the_scalar_bisection(self, root, scale, tol):
        f, step = (lambda a: a - root), root * scale
        assume(step > 0.0)
        got = smallest_positive_root(f, step, 2.0 * max(step, root), tol)
        assert got.hex() == reference_smallest_positive_root(f, step, 2.0 * max(step, root), tol).hex()

    def test_a_huge_bracket_is_bisected_to_the_end(self):
        # about 1,000 halvings from (0, 1e300] down to 1e-12 * (1 + 1e-5)
        root = smallest_positive_root(lambda a: a - 1e-5, 1e300, 1e300)
        assert abs(root - 1e-5) <= ROOT_TOL * (1.0 + 1e-5)

    def test_quadratic(self):
        root = smallest_positive_root(lambda a: a * a - 2.0, 0.1, 10.0)
        assert root == pytest.approx(math.sqrt(2), abs=1e-11)

    def test_linear_with_coarse_scan(self):
        root = smallest_positive_root(lambda a: a - 1.0, 0.3, 10.0)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_picks_leftmost_root(self):
        # roots at 1 and 3; the scan must return the first
        f = lambda a: -(a - 1.0) * (a - 3.0) * (a + 1.0)
        root = smallest_positive_root(f, 0.05, 10.0)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_no_root_raises(self):
        with pytest.raises(NoRootFound):
            smallest_positive_root(lambda a: a - 10.0, 0.5, 5.0)

    def test_requires_negative_start(self):
        with pytest.raises(ValueError):
            smallest_positive_root(lambda a: a + 1.0, 0.1, 5.0)
        with pytest.raises(ValueError):
            smallest_positive_root(lambda a: a - 1.0, -0.1, 5.0)

    def test_a_bracket_near_the_largest_double_does_not_overflow(self):
        # the midpoint of [1e308, 1.7e308] taken as 0.5 * (lo + hi) was inf
        root = smallest_positive_root(lambda a: a - 1.5e308, 1e308, 1.7e308)
        assert abs(root - 1.5e308) <= ROOT_TOL * (1.0 + 1.5e308)

    def test_the_smallest_subnormal_root_is_positive(self):
        # the midpoint of [0, 5e-324] rounds to 0, which is not a positive root
        assert smallest_positive_root(lambda a: a - 5e-324, 1.0, 1.0, tol=0.0) == 5e-324


class TestAdversarialRoots:
    def test_k2_p3_closed_forms(self):
        assert adversarial_root(1, 2, 3) == pytest.approx(math.sqrt(2), abs=1e-10)
        assert adversarial_root(2, 2, 3) == pytest.approx(1 + math.sqrt(3), abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50])
    def test_p3_closed_form_all_ranks(self, k):
        for j in range(1, k + 1):
            expected = (j - 1) + math.sqrt((j - 1) ** 2 + k)
            assert adversarial_root(j, k, 3) == pytest.approx(expected, rel=1e-10)

    def test_rank_symmetry_fold(self):
        for j in range(1, 5):
            assert adversarial_root(4 + j, 4, 3) == adversarial_root(5 - j, 4, 3)

    def test_batch_matches_scalar(self):
        # one kernel serves both, so they agree bit for bit
        for p in range(3, 17):
            roots = adversarial_roots(12, p)
            for j in (1, 2, 7, 12):
                assert roots[j - 1] == adversarial_root(j, 12, p)

    def test_batch_p3_closed_form_large_k(self):
        k = 1000
        roots = adversarial_roots(k, 3)
        js = np.arange(1, k + 1, dtype=float)
        closed = (js - 1) + np.sqrt((js - 1) ** 2 + k)
        assert np.max(np.abs(roots - closed) / closed) <= 1e-9

    def test_roots_are_actual_sign_changes(self):
        for p in (3, 5):
            k = 7
            roots = adversarial_roots(k, p)
            for j, a in enumerate(roots, start=1):
                g = lambda t: j * t ** (p - 1) - (k - j + 1) - (j - 1) * (1 + t) ** (p - 1)
                assert g(a * (1 - 1e-6)) < 0 < g(a * (1 + 1e-6))

    def test_growth_check_inequality(self):
        # ranks past k^(1/(p-1)) + 1 stay below the 2^(p-1)*(j-1) envelope
        for p in (3, 4, 5):
            for k in (100, 1000):
                roots = adversarial_roots(k, p)
                start = math.ceil(k ** (1.0 / (p - 1)) + 1.0)
                js = np.arange(start, k + 1)
                assert np.all(roots[start - 1 :] < 2.0 ** (p - 1) * (js - 1))

    @pytest.mark.parametrize(
        "query",
        [lambda: adversarial_roots(2, 200), lambda: adversarial_roots(5, 120),
         lambda: adversarial_root(2, 2, 200), lambda: adversarial_roots(2, 2000)],
        ids=["roots-k2-p200", "roots-k5-p120", "root-j2-k2-p200", "roots-k2-p2000"],
    )
    def test_overflowing_root_is_refused(self, query):
        # the powers overflow near the true root (a_4 ~ 490 at k=5, p=120);
        # at p = 2000 the grid bound 2^(p-1) * k itself is past the largest double
        with pytest.raises(NoRootFound):
            query()

    @pytest.mark.parametrize("k, p", [(2, 2000), (2, 1500), (10, 1200)])
    def test_first_rank_root_past_the_power_overflow(self, k, p):
        # g_1 = a^e - k; its term 0 * (1 + a)^e used to be NaN once the power
        # overflowed, so these representable roots were refused
        a = adversarial_root(1, k, p)
        assert abs(a - k ** (1.0 / (p - 1))) <= ROOT_TOL * (1.0 + a)

    @pytest.mark.parametrize("k, p", [(2, 130), (5, 110)])
    def test_large_p_roots_are_sign_changes(self, k, p):
        # checked against g_j in 60-digit decimal arithmetic
        roots = adversarial_roots(k, p)
        e = p - 1
        with localcontext() as ctx:
            ctx.prec = 60
            for j, a in enumerate(roots.tolist(), start=1):
                g = lambda t: j * t**e - (k - j + 1) - (j - 1) * (1 + t) ** e
                a = Decimal(a)
                assert g(a * (1 - Decimal("1e-11"))) < 0 < g(a * (1 + Decimal("1e-11")))

    @pytest.mark.parametrize("p", range(3, 41))
    def test_the_grid_bound_lies_past_every_root(self, p):
        # g_j(2^(p-1) k) is never negative (NaN past overflow), so the grid
        # bound never needs widening
        e = p - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2, 3, 10, 100, 1000, 10**4):
                js = np.arange(1, k + 1, dtype=float)
                bound = np.full(k, np.ldexp(float(k), e))
                base = 1.0 + bound
                base[0] = 1.0  # rank 1's term is 0 * 1^e
                g = js * _powi(bound, e) - (k - js + 1.0) - (js - 1.0) * _powi(base, e)
                assert not (g < 0.0).any(), (k, np.flatnonzero(g < 0.0)[:5] + 1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_tol_is_refused(self, tol):
        # a NaN or infinite tol stopped the bisection at the grid cell
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            adversarial_root(2, 100, 3, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            adversarial_roots(100, 3, tol=tol)

    def test_zero_tol_is_accepted(self):
        root = adversarial_root(2, 100, 3, tol=0.0)
        assert root == pytest.approx(1.0 + math.sqrt(101.0), rel=1e-15)
        assert adversarial_roots(100, 3, tol=0.0)[1] == root

    @pytest.mark.parametrize("p", [10**19, 10**300, 1e300], ids=["1e19", "10^300", "float-1e300"])
    def test_an_exponent_past_a_c_long_is_solved_or_refused_by_name(self, p):
        # p - 1 >= 2^63 overflows a C long, but the grid bound 2^(p-1) * k is inf long before
        a = adversarial_root(1, 1, p)
        assert abs(a - 1.0) <= ROOT_TOL * (1.0 + a)
        with pytest.raises(NoRootFound):
            adversarial_roots(2, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            adversarial_root(0, 2, 3)
        with pytest.raises(ValueError):
            adversarial_root(5, 2, 3)
        with pytest.raises(ValueError):
            adversarial_root(1, 0, 3)
        with pytest.raises(ValueError):
            adversarial_root(1, 2, 2)
        with pytest.raises(TypeError):
            adversarial_root(1.5, 2, 3)
