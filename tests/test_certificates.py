"""Lower-bound certificates and the two-query deterministic trap."""

import math

import numpy as np
import pytest

from lpfacility import (
    LocationProfile,
    OptMismatch,
    RatioWitness,
    SPViolation,
    adversarial_deterministic_test,
    median_location,
    mixture_bound_certificate,
)
from lpfacility.optimizer import _solve_row
from lpfacility.verification.certificates import _certify_zero_optima


def cubic_roots(k: int) -> np.ndarray:
    # at exponent 3 the rank equation factors: a_j = (j-1) + sqrt((j-1)^2 + k)
    js = np.arange(1, k + 1, dtype=float)
    return (js - 1.0) + np.sqrt((js - 1.0) ** 2 + k)


class TestMixtureBoundCertificate:
    def test_cubic_k2_against_closed_form(self):
        cert = mixture_bound_certificate(3, 2)
        expect = cubic_roots(2)
        assert np.allclose(cert.roots, expect, rtol=0, atol=1e-9)
        inv = float((1.0 / expect).sum())
        assert cert.inverse_sum == pytest.approx(inv, abs=1e-9)
        assert cert.p_opt_bound == pytest.approx(1.0 / (1.0 + inv), abs=1e-9)
        assert abs(cert.p_opt_bound - 0.4823626) <= 1e-6
        half_half = 2.0 ** (2.0 / 3.0)
        assert cert.ratio_lower_bound == pytest.approx(
            half_half - (half_half - 1.0) * cert.p_opt_bound, abs=1e-12
        )
        assert cert.bound_checks == ()

    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_cubic_roots_all_ranks(self, k):
        cert = mixture_bound_certificate(3, k)
        expect = cubic_roots(k)
        assert np.max(np.abs(cert.roots - expect) / expect) <= 1e-9

    def test_growth_checks_cover_the_right_ranks(self):
        cert = mixture_bound_certificate(3, 10)
        first = int(math.ceil(10.0 ** 0.5 + 1.0))
        assert [j for j, _ in cert.bound_checks] == list(range(first, 11))
        assert all(ok for _, ok in cert.bound_checks)

    @pytest.mark.parametrize("p", [3, 4, 8, 16])
    def test_growth_checks_equal_the_rank_loop(self, p):
        for k in (1, 2, 10, 100, 1000):
            cert = mixture_bound_certificate(p, k)
            first = int(math.ceil(k ** (1.0 / (p - 1)) + 1.0))
            expect = tuple((j, bool(cert.roots[j - 1] < 2.0 ** (p - 1) * (j - 1))) for j in range(first, k + 1))
            assert cert.bound_checks == expect
            assert all(type(j) is int and type(ok) is bool for j, ok in cert.bound_checks)

    def test_bound_tightens_with_more_agents(self):
        certs = [mixture_bound_certificate(3, k) for k in (2, 5, 10, 50)]
        for a, b in zip(certs, certs[1:]):
            assert b.p_opt_bound < a.p_opt_bound
            assert b.ratio_lower_bound > a.ratio_lower_bound

    @pytest.mark.parametrize("p", [4, 5])
    def test_higher_exponents_complete(self, p):
        cert = mixture_bound_certificate(p, 10)
        assert cert.roots.shape == (10,)
        assert np.all(np.diff(cert.roots) > 0)
        assert 0.0 < cert.p_opt_bound < 1.0
        assert cert.ratio_lower_bound > 1.0
        assert float(cert.opt_residuals.max()) <= cert.opt_tol * (1.0 + float(cert.roots.max()))
        assert all(ok for _, ok in cert.bound_checks)

    @pytest.mark.parametrize("k", [3, 100])
    @pytest.mark.parametrize("p", range(3, 17))
    def test_residual_verification_catches_corrupted_roots(self, p, k):
        cert = mixture_bound_certificate(p, k)
        good = _certify_zero_optima(cert.roots, k, p, 1e-6)
        assert np.array_equal(good, cert.opt_residuals)
        # stretched roots pull the optimum below zero and fail F(-delta) < 0;
        # shrunk roots push it above and fail F(delta) > 0: each side is tested
        for scale in (1.5, 2.0 / 3.0):
            with pytest.raises(OptMismatch, match="^rank 1 profile optimum is not proved within "):
                _certify_zero_optima(cert.roots * scale, k, p, 1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100])
    @pytest.mark.parametrize("p", range(3, 17))
    def test_residuals_match_the_solved_expanded_rows(self, p, k):
        # integer weights act as repeated points: the solved optimum of the
        # expanded row, certified to 1e-12 half-spans, is the residual
        cert = mixture_bound_certificate(p, k)
        for j, (a, residual) in enumerate(zip(cert.roots.tolist(), cert.opt_residuals.tolist()), start=1):
            row = np.repeat([-a, 0.0, 1.0, 1.0 + a], [j, k - j, k - j + 1, j - 1]).tolist()
            assert abs(residual - abs(_solve_row(row, float(p)))) <= 1e-12 * (1.0 + a), j

    def test_a_huge_opt_tol_proves_at_the_hull_without_overflow(self):
        # delta is capped at the hull's 1 + a_j: an uncapped bracket's powers
        # overflow, and a zero weight times inf raises RuntimeWarning
        cert = mixture_bound_certificate(8, 10, opt_tol=1e300)
        assert np.array_equal(cert.opt_residuals, mixture_bound_certificate(8, 10).opt_residuals)

    def test_results_are_read_only(self):
        cert = mixture_bound_certificate(3, 4)
        with pytest.raises(ValueError):
            cert.roots[0] = 0.0
        with pytest.raises(ValueError):
            cert.opt_residuals[0] = 1.0

    def test_integer_valued_float_exponent_accepted(self):
        assert mixture_bound_certificate(3.0, 2).p == 3

    @pytest.mark.parametrize("bad_p", [2, 17, 0, -3])
    def test_exponent_range(self, bad_p):
        with pytest.raises(ValueError):
            mixture_bound_certificate(bad_p, 2)

    @pytest.mark.parametrize("bad_p", [3.5, "3", True])
    def test_exponent_type(self, bad_p):
        with pytest.raises(TypeError):
            mixture_bound_certificate(bad_p, 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            mixture_bound_certificate(3, 0)
        with pytest.raises(TypeError):
            mixture_bound_certificate(3, 2.5)

    @pytest.mark.parametrize("name", ["root_tol", "opt_tol"])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_tolerances_are_refused(self, name, tol):
        # a NaN or infinite opt_tol let any residual through
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            mixture_bound_certificate(3, 100, **{name: tol})

    def test_zero_tolerances_are_accepted(self):
        cert = mixture_bound_certificate(3, 100, root_tol=0.0)
        assert cert.root_tol == 0.0
        # opt_tol = 0 passes validation and asks for exact zero residuals
        with pytest.raises(OptMismatch):
            mixture_bound_certificate(3, 100, opt_tol=0.0)

    def test_serialization_views(self):
        cert = mixture_bound_certificate(3, 2)
        d = cert.as_dict()
        assert d["p"] == 3 and d["k"] == 2
        assert d["bound_checks_ok"] is True
        assert len(d["roots"]) == 2
        assert cert.summary_row() == [2, cert.inverse_sum, cert.p_opt_bound, cert.ratio_lower_bound]
        rows = cert.root_rows()
        assert rows[0][:3] == [2, 1, float(cert.roots[0])]
        assert rows[1][3] == 1.0 / float(cert.roots[1])


class TestAdversarialTrap:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_median_rule_is_a_ratio_witness(self, p):
        verdict = adversarial_deterministic_test(median_location, p)
        assert isinstance(verdict, RatioWitness)
        assert verdict.profile == LocationProfile([0.0, 1.0])
        assert verdict.ratio == pytest.approx(2.0 ** (1.0 - 1.0 / p), abs=1e-12)

    def test_right_endpoint_rule_is_a_ratio_witness(self):
        verdict = adversarial_deterministic_test(lambda prof: prof.high, 2.0)
        assert isinstance(verdict, RatioWitness)
        assert verdict.profile == LocationProfile([0.0, 1.0])
        assert verdict.ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_mean_rule_is_manipulable(self):
        verdict = adversarial_deterministic_test(lambda prof: float(prof.values.mean()), 2.0)
        assert isinstance(verdict, SPViolation)
        report = verdict.report
        assert report.true_profile == LocationProfile([0.0, 0.5])
        assert report.agent == 2
        assert report.best_misreport == 1.0
        assert report.gain == 0.25
        assert report.deviated_cost == 0.0

    def test_constant_rule_fails_on_the_second_query(self):
        verdict = adversarial_deterministic_test(lambda prof: 0.7, 2.0)
        assert isinstance(verdict, RatioWitness)
        assert verdict.profile == LocationProfile([0.0, 0.7])
        assert verdict.ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_interior_second_answer_is_always_a_violation(self):
        # geometric shrink: answers 0.8 then 0.64, both interior
        verdict = adversarial_deterministic_test(lambda prof: 0.8 * prof.high, 2.0)
        assert isinstance(verdict, SPViolation)
        assert verdict.report.gain == pytest.approx(0.8 - 0.64, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, math.inf, 0.5])
    def test_norm_validation(self, p):
        with pytest.raises(ValueError):
            adversarial_deterministic_test(median_location, p)
