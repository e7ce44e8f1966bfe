"""Numerical certificates: the mixture lower-bound construction and the
two-query adversarial trap for deterministic two-agent rules."""

from __future__ import annotations

import math

import numpy as np

from ..core import LocationProfile, _check_tol, point_mass, validate_pnorm
from ..optimizer import _powi, _rank_scan_step, _validate_rank_query, adversarial_roots
from .ratio import _report_for_distribution
from .reports import (
    AdversarialVerdict,
    DeviationReport,
    MixtureBoundCertificate,
    RatioWitness,
    SPViolation,
)

__all__ = [
    "OptMismatch",
    "DEFAULT_OPT_TOL",
    "MAX_CERTIFICATE_P",
    "mixture_bound_certificate",
    "adversarial_deterministic_test",
]

# The rank-root bisection refuses (NoRootFound) once the unscaled powers of
# g_j overflow near a root: from p = 60 at k = 10^4, p = 80 at k = 100. The
# certificate keeps to exponents well inside that range.
MAX_CERTIFICATE_P = 16
DEFAULT_OPT_TOL = 1e-6


class OptMismatch(RuntimeError):
    """A certificate profile failed to place its optimum at zero."""


def _certify_zero_optima(roots: np.ndarray, k: int, p: int, opt_tol: float) -> np.ndarray:
    """Prove each rank's four-block optimum within opt_tol * (1 + a_j) of
    zero, else raise OptMismatch; return the residuals |F(0) / F'(0)|, one
    Newton step from zero.

    Rank j's optimum is the zero of the increasing
    F(y) = sum_i w_i sign(y - x_i) |y - x_i|^e, e = p - 1, on the row
    x = (-a_j, 0, 1, 1 + a_j) with weights w = (j, k - j, k - j + 1, j - 1),
    so F(-delta) < 0 < F(delta) proves |y*| < delta. delta is capped at the
    hull's 1 + a_j, past which it proves nothing more and its powers overflow.
    Each sign is decided against a rounding bound, as in Shewchuk's error
    filters: a term carries 2e roundings (that of y - x_i to the e-th power,
    e - 1 in `_powi`, the weight's) and the sum three more, so
    |fl(F) - F| <= gamma(2e + 3) * S, S the sum of the terms' magnitudes,
    gamma(m) = m u / (1 - m u), u = 2^-53. E = (2e + 3) * 2^-52 * fl(S)
    covers that, the rounding of fl(S) and of E, and underflow:
    fl(S) >= 2^-e, as |y - 1| + |y + a_j| >= 1.
    """
    js = np.arange(1, k + 1, dtype=float)
    points = np.array([-roots, np.zeros(k), np.ones(k), 1.0 + roots])
    weights = np.array([js, k - js, k - js + 1.0, js - 1.0])
    e = p - 1

    def signed(y):
        # fl(F(y)) and its rounding bound E, per rank
        d = y - points
        terms = weights * np.copysign(_powi(np.abs(d), e), d)
        return terms.sum(axis=0), (2 * e + 3) * 2.0**-52 * np.abs(terms).sum(axis=0)

    delta = min(opt_tol, 1.0) * (1.0 + roots)
    (below, below_err), (above, above_err) = signed(-delta), signed(delta)
    residuals = np.abs(signed(0.0)[0]) / (e * (weights * _powi(np.abs(points), e - 1)).sum(axis=0))
    bad = np.flatnonzero(~((below < -below_err) & (above > above_err)))
    if bad.size:
        j = int(bad[0])
        raise OptMismatch(
            f"rank {j + 1} profile optimum is not proved within {float(delta[j])!r} of zero "
            f"(Newton estimate {float(residuals[j])!r})"
        )
    return residuals


def mixture_bound_certificate(
    p: int, k: int, root_tol: float = 1e-12, opt_tol: float = DEFAULT_OPT_TOL
) -> MixtureBoundCertificate:
    """Certificate that optimum-chasing mixtures cannot beat a ratio floor.

    For 2k agents at integer exponent p in [3, 16]: computes every rank root
    a_j, proves by two signs of the derivative that each rank's four-block
    profile has its optimum within opt_tol * (1 + a_j) of zero (else
    OptMismatch), with one Newton step from zero as its residual, forms
    the probability ceiling p_opt_bound = 1/(1 + sum_j 1/a_j), and converts
    it into ratio_lower_bound = 2^(1-1/p) - (2^(1-1/p) - 1) * p_opt_bound.
    Also records, for each rank j >= k^(1/(p-1)) + 1, the growth check
    a_j < 2^(p-1) * (j-1) that keeps the inverse sum bounded away from zero
    as k grows. Raises ValueError unless root_tol and opt_tol are finite
    and >= 0.
    """
    _, k, p = _validate_rank_query(1, k, p)
    if not 3 <= p <= MAX_CERTIFICATE_P:
        raise ValueError(f"certificate exponent must lie in [3, {MAX_CERTIFICATE_P}], got {p}")
    _check_tol("root_tol", root_tol)
    _check_tol("opt_tol", opt_tol)
    roots = adversarial_roots(k, p, tol=root_tol)
    residuals = _certify_zero_optima(roots, k, p, opt_tol)
    inverse_sum = float((1.0 / roots).sum())
    p_opt_bound = 1.0 / (1.0 + inverse_sum)
    half_half = 2.0 ** (1.0 - 1.0 / p)
    ratio_lower_bound = half_half - (half_half - 1.0) * p_opt_bound
    first_checked = int(math.ceil(k ** (1.0 / (p - 1)) + 1.0))
    js = np.arange(first_checked, k + 1)
    bound_checks = tuple(zip(js.tolist(), (roots[first_checked - 1 :] < 2.0 ** (p - 1) * (js - 1.0)).tolist()))
    residuals.flags.writeable = False
    return MixtureBoundCertificate(
        p=p,
        k=k,
        roots=roots,
        inverse_sum=inverse_sum,
        p_opt_bound=p_opt_bound,
        ratio_lower_bound=ratio_lower_bound,
        opt_residuals=residuals,
        bound_checks=bound_checks,
        scan_step=_rank_scan_step(k, p),
        root_tol=root_tol,
        opt_tol=opt_tol,
    )


def adversarial_deterministic_test(oracle, p: float) -> AdversarialVerdict:
    """Two-query trap: any deterministic two-agent rule either shows a large
    ratio or a profitable misreport.

    Query the rule on (0, 1); an answer y outside the open interval makes
    that profile a ratio witness of at least 2^(1-1/p). Otherwise query
    (0, y); an answer outside (0, y) again gives a witness, while an answer
    y' inside exhibits the misreport: the agent truly at y gains |y - y'| by
    reporting 1. Requires finite p > 1 (at p = 1 the median is exactly
    optimal and no trap exists).
    """
    p = validate_pnorm(p)
    if math.isinf(p) or p == 1.0:
        raise ValueError(f"the two-query trap needs finite p > 1, got {p!r}")
    first = LocationProfile([0.0, 1.0])
    y = float(oracle(first))
    if not 0.0 < y < 1.0:
        return _witness(first, y, p)
    second = LocationProfile([0.0, y])
    y2 = float(oracle(second))
    if not 0.0 < y2 < y:
        return _witness(second, y2, p)
    return SPViolation(
        DeviationReport(
            agent=2,
            true_profile=second,
            best_misreport=1.0,
            truthful_cost=abs(y - y2),
            deviated_cost=0.0,
            gain=abs(y - y2),
        )
    )


def _witness(profile: LocationProfile, y: float, p: float) -> RatioWitness:
    report = _report_for_distribution(None, profile, p, point_mass(y))
    return RatioWitness(profile=profile, ratio=report.ratio, report=report)
