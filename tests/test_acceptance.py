"""Acceptance checks: the externally pinned behavior of the whole package.

Each test is one numbered check; conftest prints an ACCEPTANCE PASS/FAIL
line per test. Tolerances are part of the pinned behavior and must not be
loosened.
"""

import math

import numpy as np
import pytest

from lpfacility import (
    LRM,
    Dictator,
    LocationProfile,
    Median,
    Optimal,
    RatioWitness,
    SPViolation,
    Symmetrized,
    ThreePoint,
    adversarial_deterministic_test,
    best_deviation,
    median_location,
    mixture_bound_certificate,
    optimal_location,
    ratio,
    reflect,
    run,
    sp_scan,
    symmetric_sp_margin,
    violation_threshold,
)
from lpfacility.optimizer import _bisect_columns

N_GRID = range(2, 13)
P_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, math.inf)


def median_bound(p: float) -> float:
    return 2.0 if math.isinf(p) else 2.0 ** (1.0 - 1.0 / p)


def _bulk_ratios(profiles: np.ndarray, p: float) -> np.ndarray:
    """Median-mechanism ratio for every row, via vectorized norms."""
    xs = np.sort(profiles, axis=1)
    n = xs.shape[1]
    med = xs[:, (n + 1) // 2 - 1]
    if math.isinf(p):
        opt_loc = 0.5 * (xs[:, 0] + xs[:, -1])
        mech = np.abs(xs - med[:, None]).max(axis=1)
        opt = np.abs(xs - opt_loc[:, None]).max(axis=1)
    else:
        if p == 1.0:
            opt_loc = med
        elif p == 2.0:
            opt_loc = xs.mean(axis=1)
        else:
            opt_loc = _bisect_columns(np.array(xs.T, order="C"), p)
        mech = (np.abs(xs - med[:, None]) ** p).sum(axis=1) ** (1.0 / p)
        opt = (np.abs(xs - opt_loc[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    return mech / opt


def test_criterion_01_median_upper_bound():
    rng = np.random.default_rng(101)
    for n in N_GRID:
        for p in P_GRID:
            profiles = rng.uniform(0.0, 1.0, size=(1000, n))
            ratios = _bulk_ratios(profiles, p)
            assert float(ratios.max()) <= median_bound(p) + 1e-9, (n, p)
            # tie the bulk computation to the public API on a few rows
            for row in profiles[:3]:
                direct = ratio(Median(), LocationProfile(row), p).ratio
                assert direct <= median_bound(p) + 1e-9


def test_criterion_02_median_tightness():
    for k in (1, 3, 5):
        profile = LocationProfile([0.0] * k + [1.0] * k)
        for p in (2.0, 3.0, 5.0):
            value = ratio(Median(), profile, p).ratio
            assert abs(value - median_bound(p)) <= 1e-12, (k, p)


def test_criterion_03_median_strategyproofness():
    for n in N_GRID:
        for p in P_GRID:
            report = sp_scan(Median(), p, n, trials=500, seed=300 + n)
            assert report.gain <= 1e-9, (n, p, report)


def test_criterion_04_optimal_rule_manipulable():
    report = best_deviation(Optimal(2.0), LocationProfile([0.0, 1.0]), 2.0, agent=1)
    assert report.gain >= 0.5 - 1e-6
    assert report.best_misreport <= -1.0 + 1e-3


def test_criterion_05_lrm():
    for p in (2.0, math.inf):
        report = sp_scan(LRM(), p, 2, trials=500, seed=500)
        assert report.gain <= 1e-9, (p, report)
    profile = LocationProfile([0.0, 1.0])
    for p in (1.5, 2.0, 3.0, 5.0):
        value = ratio(LRM(), profile, p).ratio
        assert abs(value - 0.5 * (2.0 ** (1.0 - 1.0 / p) + 1.0)) <= 1e-12, p
    assert abs(ratio(LRM(), profile, math.inf).ratio - 1.5) <= 1e-12
    assert abs(ratio(LRM(), profile, 2.0).ratio - 0.5 * (1.0 + math.sqrt(2.0))) <= 1e-12


def test_criterion_06_three_point_frontier():
    profile = LocationProfile([0.0, 1.0])
    threshold = violation_threshold(profile)
    rows = []
    for i in range(51):
        q = i / 100.0
        spec = ThreePoint(q)
        margin = symmetric_sp_margin(run(spec, profile, 2.0), 1.0)
        worst_gain = max(best_deviation(spec, profile, 2.0, agent).gain for agent in (1, 2))
        sp_ok = worst_gain <= threshold
        rows.append((q, margin, sp_ok, ratio(spec, profile, 2.0).ratio))
    for q, margin, sp_ok, _ in rows:
        assert sp_ok == (q >= 0.25), (q, sp_ok)
        assert (margin >= 0.0) == sp_ok, (q, margin, sp_ok)
    sp_rows = [(q, r) for q, _, sp_ok, r in rows if sp_ok]
    best_q, best_r = min(sp_rows, key=lambda row: row[1])
    assert best_q == 0.25
    assert best_r < dict(sp_rows)[0.26]


def test_criterion_07_three_point_violation():
    report = best_deviation(ThreePoint(0.2), LocationProfile([0.0, 1.0]), 2.0, agent=2)
    assert report.gain >= 0.05 - 1e-6


def test_criterion_08_certificate_cubic():
    certs = []
    for k in (2, 10, 100, 1000, 10000):
        cert = mixture_bound_certificate(3, k)
        js = np.arange(1, k + 1, dtype=float)
        closed = (js - 1.0) + np.sqrt((js - 1.0) ** 2 + k)
        assert float(np.max(np.abs(cert.roots - closed) / closed)) <= 1e-9, k
        assert np.all(cert.opt_residuals <= 1e-6 * (1.0 + cert.roots)), k
        first = int(math.ceil(math.sqrt(k) + 1.0))
        assert [j for j, _ in cert.bound_checks] == list(range(first, k + 1)), k
        assert all(ok for _, ok in cert.bound_checks), k
        certs.append(cert)
    assert abs(certs[0].p_opt_bound - 0.4823626) <= 1e-6
    for a, b in zip(certs, certs[1:]):
        assert b.p_opt_bound < a.p_opt_bound
        assert b.ratio_lower_bound > a.ratio_lower_bound


def test_criterion_09_certificate_higher_exponents():
    for p in (4, 5):
        certs = [mixture_bound_certificate(p, k) for k in (2, 10, 100)]
        for cert in certs:
            assert cert.roots.shape == (cert.k,)
            assert np.all(cert.opt_residuals <= cert.opt_tol * (1.0 + cert.roots))
            assert all(ok for _, ok in cert.bound_checks)
        for a, b in zip(certs, certs[1:]):
            assert b.p_opt_bound < a.p_opt_bound
            assert b.ratio_lower_bound > a.ratio_lower_bound


def test_mixture_bound_p4_k2_stated_first_root():
    # Pinned expected value for the first rank root at p=4, k=2. The rank-1
    # four-block profile puts one agent at -a, k-1 at 0 and k at 1 (here
    # -a, 0, 1, 1). The derivative of sum |y - x|^4 at y = 0 is 4(a^3 - k),
    # so the optimum sits at zero exactly when a^3 = k: the rank equation at
    # j = 1 gives a_1 = k^(1/(p-1)), which is 2^(1/3) at k = 2. The value
    # 3^(1/3) is the first root at k = 3, not k = 2.
    cert = mixture_bound_certificate(4, 2)
    assert abs(float(cert.roots[0]) - 2.0 ** (1.0 / 3.0)) <= 1e-9


def test_criterion_10_adversarial_trap():
    for p in (1.5, 2.0, 3.0):
        verdict = adversarial_deterministic_test(median_location, p)
        assert isinstance(verdict, RatioWitness), p
        assert verdict.ratio >= median_bound(p) - 1e-9, p
    verdict = adversarial_deterministic_test(lambda prof: float(prof.values.mean()), 2.0)
    assert isinstance(verdict, SPViolation)
    assert abs(verdict.report.gain - 0.25) <= 1e-9


def test_criterion_11_optimizer_grid_equivalence():
    grid_points = 10**6
    rng = np.random.default_rng(111)
    for p in (1.3, 2.7, 4.0):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            profile = LocationProfile(rng.uniform(-3.0, 3.0, size=n))
            result = optimal_location(profile, p)
            grid = np.linspace(profile.low, profile.high, grid_points)
            acc = np.zeros(grid_points)
            for x in profile.values.tolist():
                acc += np.abs(grid - x) ** p
            idx = int(np.argmin(acc))
            step = profile.span / (grid_points - 1)
            assert abs(result.location - float(grid[idx])) <= step, (p, n)
            assert result.cost <= float(acc[idx]) ** (1.0 / p) + 1e-9, (p, n)


def test_criterion_12_inequality_properties():
    rng = np.random.default_rng(112)
    m = 10**5
    # split-interval inequality: (c-a)^p <= 2^(p-1) [(c-b)^p + (b-a)^p]
    pts = np.sort(rng.uniform(-5.0, 5.0, size=(m, 3)), axis=1)
    ps = rng.uniform(1.0, 10.0, size=m)
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    lhs = (c - a) ** ps
    rhs = 2.0 ** (ps - 1.0) * ((c - b) ** ps + (b - a) ** ps)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))
    # superadditivity of powers: (a+b)^p >= a^p + b^p for a, b >= 0
    u = rng.uniform(0.0, 5.0, size=m)
    v = rng.uniform(0.0, 5.0, size=m)
    assert np.all((u + v) ** ps * (1.0 + 1e-12) >= u**ps + v**ps)
    # pairing inequality: median-to-pair powers against twice-boosted
    # optimum-to-pair powers, across random profiles and every inner pair
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(1.0, 8.0))
        profile = LocationProfile(rng.uniform(-2.0, 2.0, size=n))
        xs = profile.sorted_values
        med = median_location(profile)
        opt = optimal_location(profile, p).location
        for i in range(1, n // 2 + 1):
            xi, xj = float(xs[i - 1]), float(xs[n - i])
            lhs_i = abs(med - xi) ** p + abs(xj - med) ** p
            rhs_i = 2.0 ** (p - 1.0) * (abs(opt - xi) ** p + abs(xj - opt) ** p)
            assert lhs_i <= rhs_i * (1.0 + 1e-12) + 1e-15, (n, p, i)


def test_criterion_13_symmetrization():
    rng = np.random.default_rng(113)
    spec = Symmetrized(Dictator(1))
    inner = Dictator(1)
    for _ in range(100):
        profile = LocationProfile(rng.uniform(-4.0, 4.0, size=2))
        t = profile.low + profile.high
        dist = run(spec, profile, 2.0)
        locs = dist.locations
        probs = dist.probabilities
        assert locs.size == 2
        assert (locs[1] == t - locs[0]) or (locs[0] == t - locs[1])
        assert probs.tolist() == [0.5, 0.5]
        for p in (1.5, 2.0, 3.0, math.inf):
            r_sym = ratio(spec, profile, p).ratio
            r_in = ratio(inner, profile, p).ratio
            r_ref = ratio(inner, reflect(profile), p).ratio
            assert r_sym <= max(r_in, r_ref) + 1e-12, p
