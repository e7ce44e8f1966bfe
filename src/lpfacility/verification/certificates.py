"""Numerical certificates: the mixture lower-bound construction and the
two-query adversarial trap for deterministic two-agent rules."""

from __future__ import annotations

import math

import numpy as np

from ..core import LocationProfile, point_mass, validate_pnorm
from ..optimizer import _bisect_rows, _rank_scan_step, _validate_rank_query, adversarial_roots
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


def _opt_residuals(roots: np.ndarray, k: int, p: int) -> np.ndarray:
    js = np.arange(1, k + 1, dtype=float)
    points = np.column_stack(
        [-roots, np.zeros(k), np.ones(k), 1.0 + roots]
    )
    weights = np.column_stack([js, k - js, k - js + 1.0, js - 1.0])
    return np.abs(_bisect_rows(points, weights, float(p)))


def _verify_opt_residuals(residuals: np.ndarray, roots: np.ndarray, opt_tol: float) -> None:
    limits = opt_tol * (1.0 + roots)
    bad = np.nonzero(residuals > limits)[0]
    if bad.size:
        j = int(bad[0]) + 1
        raise OptMismatch(
            f"rank {j} profile optimum sits {residuals[bad[0]]!r} from zero "
            f"(tolerance {limits[bad[0]]!r})"
        )


def mixture_bound_certificate(
    p: int, k: int, root_tol: float = 1e-12, opt_tol: float = DEFAULT_OPT_TOL
) -> MixtureBoundCertificate:
    """Certificate that optimum-chasing mixtures cannot beat a ratio floor.

    For 2k agents at integer exponent p in [3, 16]: computes every rank root
    a_j, numerically re-verifies that each rank's four-block profile has its
    optimum at zero (within opt_tol * (1 + a_j), else OptMismatch), forms
    the probability ceiling p_opt_bound = 1/(1 + sum_j 1/a_j), and converts
    it into ratio_lower_bound = 2^(1-1/p) - (2^(1-1/p) - 1) * p_opt_bound.
    Also records, for each rank j >= k^(1/(p-1)) + 1, the growth check
    a_j < 2^(p-1) * (j-1) that keeps the inverse sum bounded away from zero
    as k grows.
    """
    _, k, p = _validate_rank_query(1, k, p)
    if not 3 <= p <= MAX_CERTIFICATE_P:
        raise ValueError(f"certificate exponent must lie in [3, {MAX_CERTIFICATE_P}], got {p}")
    roots = adversarial_roots(k, p, tol=root_tol)
    residuals = _opt_residuals(roots, k, p)
    _verify_opt_residuals(residuals, roots, opt_tol)
    inverse_sum = float((1.0 / roots).sum())
    p_opt_bound = 1.0 / (1.0 + inverse_sum)
    half_half = 2.0 ** (1.0 - 1.0 / p)
    ratio_lower_bound = half_half - (half_half - 1.0) * p_opt_bound
    first_checked = int(math.ceil(k ** (1.0 / (p - 1)) + 1.0))
    bound_checks = tuple(
        (j, bool(roots[j - 1] < 2.0 ** (p - 1) * (j - 1)))
        for j in range(first_checked, k + 1)
    )
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
