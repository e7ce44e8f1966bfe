"""Misreport search: per-agent best deviations, randomized scans, and the
symmetric two-agent strategyproofness margin.

The candidate misreports for one agent are the other agents' reports, the
profile extremes shifted by +-span, a uniform grid over the doubled-span
window, dyadic multiples of the agent's own report, and the truthful report
itself (the grid's arange and the scalings are cached per config). The
extremes and the grid are built once per profile, only if some agent's row
scans, and copied for each agent, who adds the others' reports and its own
scalings. The best candidate is
polished by one golden-section pass unless that provably cannot win.
Both read the rule's outcome plan (`mechanisms._outcome_plan`): the
candidate scan evaluates it in numpy, one column per atom, solving only the
optimum rows that can win, every agent of a profile in one batch, and the
polish in pure Python, since numpy overhead dominates one-point evaluations.
`sp_scan` keeps only its largest gain, so it polishes a profile's agents in
decreasing order of scan gain and skips every agent whose gain, bounded by
what the polish can add, stays below the largest found so far. For the same
reason it prices a profile's exact rows (below) in decreasing order of
truthful cost, which bounds a row's gain, and drops each row whose truthful
cost stays below the largest gain found, unless its costs may overflow; the
profile's own optimum, every agent's truthful row, is solved once.
A one-line plan (an order statistic or a dictator: Median, OrderStatistic,
Dictator, the L_1 optimum, mixtures with one nonzero weight and their
mirrors) is not scanned at all: its best response is the truthful cost,
proven over every real report, and the report the scan would pick is found
in closed form (see `best_deviation`). Nor is a plan of such lines and then
one L_q optimum, q > 1 (`Optimal` at p > 1, and the median/optimum,
order/optimum and dictator/optimum mixtures at finite q), wherever it
certifies itself. The report r* that puts the optimum on x (the inverse
map, a formula) and x bracket a least-cost report; the lines' ends cut the
bracket into pieces, on most of which the least cost sits at an end, and a
branch and bound over the optimum's location covers the rest. A handful of
reports are priced forward, and the cheapest is reported only if it is
within 1e-9 * (1 + span) of a lower bound proven over every real report.
Nor does a closed plan search a window: clipped lines and L_inf optima
(LRM, ThreePoint, Mirror, Symmetrized, order and dictator mixtures, and
every two-agent optimum). Its cost is piecewise linear in the report and
never below 0, so a least-cost report lies at a kink, and only the others'
reports, the extremes, the kinks and x are priced.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache

import numpy as np

from ..core import LocationProfile, NonFiniteResult, _check_agent, _check_int, _check_tol, validate_pnorm
from ..mechanisms import _outcome_plan, _plan_at, _plan_costs, _plan_min
from .ratio import four_block_profiles
from .reports import DeviationReport, SearchConfig

__all__ = [
    "DEFAULT_VIOLATION_TOL",
    "UnsupportedSupport",
    "violation_threshold",
    "misreport_candidates",
    "deviation_cost_curve",
    "best_deviation",
    "sp_scan",
    "symmetric_sp_margin",
]

# A gain must exceed tol * (1 + span) to count as a strategyproofness
# violation; anything smaller is treated as a tie or numerics.
DEFAULT_VIOLATION_TOL = 1e-7

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# machine epsilon, twice the unit roundoff
_EPS = 2.0**-52


class UnsupportedSupport(ValueError):
    """Distribution has mass outside the interval the margin is defined on."""


def violation_threshold(profile: LocationProfile, tol: float = DEFAULT_VIOLATION_TOL) -> float:
    """Gain threshold above which a deviation counts as a violation.

    Raises ValueError unless tol is finite and >= 0, and NonFiniteResult if
    the threshold is not finite: either would turn the verdicts silently
    wrong (an infinite threshold passes every gain)."""
    threshold = _check_tol("violation tol", tol) * (1.0 + profile.span)
    if not math.isfinite(threshold):
        raise NonFiniteResult(f"the violation threshold of {profile!r} overflows")
    return threshold


@lru_cache(maxsize=8)
def _unit_arrays(grid_points: int, scale_bound: float, steps_per_unit: float):
    # an integer count of 1/steps_per_unit steps keeps every scaling an exact dyadic
    count = 2 * int(round(scale_bound * steps_per_unit)) + 1
    unit, scales = np.arange(grid_points, dtype=float), np.linspace(-scale_bound, scale_bound, count)
    unit.flags.writeable = scales.flags.writeable = False
    return unit, scales


def misreport_candidates(
    profile: LocationProfile, agent: int, cfg: SearchConfig = SearchConfig()
) -> np.ndarray:
    """Candidate misreports for one agent, in a fixed deterministic order; the grid is
    linspace's arithmetic on a cached arange (linspace itself at a zero or non-finite step)."""
    x = float(profile.values[_check_agent(agent, profile.n) - 1])
    _check_window(_window_hull(profile, cfg), profile, x, cfg)
    return _agent_candidates(_window_candidates(profile, cfg), profile, agent, cfg)


def _window_hull(profile: LocationProfile, cfg: SearchConfig):
    # the least and greatest of _window_candidates' shared slots, from their
    # scalar ends, or None if a slot is not finite: the grid runs from start
    # to stop in nondecreasing steps, so it is finite exactly when its ends
    # and their difference are (linspace meets an infinite step with NaN),
    # and its least and greatest are start and stop, up to a zero's sign,
    # which no cost reads
    lo, hi, span = profile.low, profile.high, profile.span
    start, stop = lo - cfg.grid_pad * span, hi + cfg.grid_pad * span
    extremes = lo - span, lo + span, hi - span, hi + span
    if not all(math.isfinite(v) for v in (*extremes, start, stop, stop - start)):
        return None
    return min(*extremes, start), max(*extremes, stop)


def _window_candidates(profile: LocationProfile, cfg: SearchConfig) -> np.ndarray:
    # the candidate array with the slots every agent shares filled in: the
    # four extremes and the grid, its stop included
    n = profile.n
    lo, hi, span = profile.low, profile.high, profile.span
    unit, scales = _unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)
    start, stop = lo - cfg.grid_pad * span, hi + cfg.grid_pad * span
    step, end = (stop - start) / (unit.size - 1), n + 3 + unit.size
    shared = np.empty(end + scales.size + 1)
    shared[n - 1 : n + 3] = lo - span, lo + span, hi - span, hi + span
    with np.errstate(over="ignore", invalid="ignore"):
        linear = step != 0.0 and math.isfinite(step)
        shared[n + 3 : end] = unit * step + start if linear else np.linspace(start, stop, unit.size)
    shared[end - 1] = stop
    return shared


def _agent_candidates(shared, profile: LocationProfile, agent: int, cfg: SearchConfig) -> np.ndarray:
    # the shared slots plus the others' reports, the scalings of x and x, for
    # an agent `_check_window` passed
    xs, n = profile.values, profile.n
    x = float(xs[agent - 1])
    scales = _unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)[1]
    candidates = shared.copy()
    candidates[: agent - 1], candidates[agent - 1 : n - 1] = xs[: agent - 1], xs[agent:]
    np.multiply(scales, x, out=candidates[-1 - scales.size : -1])
    candidates[-1] = x
    return candidates


def _check_window(hull, profile: LocationProfile, x: float, cfg: SearchConfig) -> None:
    # refuse the agent at x whose candidates are not all finite: the others
    # and x are finite, and linspace's ends are exactly -+scale_bound, so the
    # scalings are finite exactly when scale_bound * x is
    if hull is None or not math.isfinite(cfg.scale_bound * x):
        raise NonFiniteResult(f"the misreport window of {profile!r} overflows")


def deviation_cost_curve(spec, profile, p, agent, reports) -> np.ndarray:
    """Expected distance from the agent's true location to the facility,
    one entry per candidate misreport (other agents truthful).

    Raises IndexError (TypeError) unless agent is an integer in 1..n, and
    NonFiniteResult for a NaN or infinite report or for a cost that
    overflows a double."""
    p = validate_pnorm(p)
    x = float(profile.values[_check_agent(agent, profile.n) - 1])
    reports = np.asarray(reports, dtype=float)
    finite = np.isfinite(reports)
    if not finite.all():
        raise NonFiniteResult(f"misreports must be finite, got {float(reports[~finite][0])!r}")
    others, atoms = _outcome_plan(spec, profile.values.tolist(), p, agent)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = _plan_costs(others, atoms, x, reports)
    if not np.isfinite(costs).all():
        raise NonFiniteResult(f"misreport costs overflow on {profile!r}")
    return costs


def _golden_min(fn, a: float, b: float, iters: int) -> tuple[float, float]:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def best_deviation(
    spec, profile: LocationProfile, p: float, agent: int, cfg: SearchConfig = SearchConfig()
) -> DeviationReport:
    """Highest-gain misreport for one agent.

    Scans the deterministic candidate set, then polishes the best candidate
    (r, c) with one golden-section pass over [a, b], one grid cell either
    side of r; the polished point is kept only if strictly cheaper. On exact
    ties the first (assembly-order) candidate wins, so reruns are identical.

    A plan of clipped lines and then one L_q optimum of weight w, q > 1 and
    finite when a line is present, takes an exact best response
    (`_inverse_min`): the rows of `Optimal` at p > 1 and, on three or more
    agents, of the median/optimum, order/optimum and dictator/optimum
    mixtures. u is the unit roundoff and eps = 2u.
    - Inverse map. The optimum y of others + [r] is the root of
      sign(r - y) |r - y|^(q-1) = D(y), D(y) = sum over the others of
      sign(y - o) |y - o|^(q-1), so the report that puts it on y is
      R(y) = y + sign(D) |D|^(1/(q-1)), computed as y + sign(S) M |S|^(1/(q-1)),
      M = max |y - o| and S the fsum of sign(y - o) (|y - o| / M)^(q-1)
      (factoring out the peak keeps large q from underflowing; at q = 2 this
      is n y minus the others' sum); at q = inf it is 2 y - max(others) when
      y is at most the others' midrange, else 2 y - min(others); R = y when
      M = 0. D increases, so R does, and r -> y(r) is its inverse. r* = R(x).
    - Rounding of R (`_inverse_report`). Each term of S carries a relative
      error of about 3 q u (|y - o| and the division round, then the power
      raises them to q - 1 and rounds), and fsum rounds once, so
      |S~ - S| <= e = 8 q eps A, A the fsum of the terms' magnitudes. Where
      4 k e < |S~|, k = max(1, 1/(q-1)), the power |S|^(1/(q-1)) is within a
      relative 2 k e / |S~| of the computed one, and with the roundings of
      M, the power, the product and the sum, |R~ - R| <= |R~ - y| (2 k e /
      |S~| + 8 eps) + 2 eps |R~|. Elsewhere R lies within
      M (|S~| + e)^(1/(q-1)) (1 + 8 eps) of y, which with |R~ - y| bounds it.
    - Bracket. Below min(x, r*) every line term w |x - l(r)| (l(r) is r
      clipped) and the optimum's w |x - y(r)| (y(r) <= x there) is
      nonincreasing in r, and above max(x, r*) nondecreasing, so a least-cost
      report lies between x and r*, and its optimum between the truthful
      optimum and x, inside the profile's hull, however far r* lies.
    - Pieces. The finite clip ends strictly between x and r* cut the
      bracket into pieces. On each, with sigma = sign(r* - x) and s the sum
      of the weights of the lines unclipped there, the cost
      as a function of the optimum's location is C(y) = K + sigma (s R(y) -
      w y), so C'(y) = sigma (s R'(y) - w), where
      R'(y) = 1 + |D|^((2-q)/(q-1)) * sum |y - o|^(q-2).
    - Lemma: R' >= 1, and R' >= 2 for q >= 2. R - y = sign(D) |D|^(1/(q-1))
      increases. For q >= 2, with a = |y - o|: |D| <= sum a^(q-1) and
      (2-q)/(q-1) <= 0, so R' - 1 >= sum a^(q-2) / (sum a^(q-1))^((q-2)/(q-1))
      = (||a||_(q-2) / ||a||_(q-1))^(q-2) >= 1, as the (q-2)-norm is at least
      the (q-1)-norm (at q = 2, R' - 1 counts the others).
    - Ends. On a piece with s = 0, C' = -sigma w, and the least is at the end
      toward r*; with s * least >= w, least the lemma's 1 or 2, C' has the
      sign of sigma, and the least is at the end toward x. That test is
      exact: fsum rounds correctly, so the fsum of the weights less
      w / least has the exact sum's sign. Only where 0 < s < w / least can
      C' change sign: for a median/optimum mixture, w > 1/2 (q < 2) or
      w > 2/3 (q >= 2).
    - Other pieces (`_inverse_cells`), by branch and bound over y (Piyavskii
      1972; Shubert 1972). The piece's y-range runs between its ends'
      optima, each widened by the forward solve's error, 1e-12 (hi - lo) +
      4e-15 (|lo| + |hi|) over the row's hull [lo, hi] (BRACKET_TOL
      half-spans, plus a few ulps of the row from its shift, scaling and
      back-transform), and is cut first at the others' reports. On a cell
      with no other report inside, D increases and each |y - o|^(q-2) is
      monotone, so the factors of R' are enclosed by their values at the
      cell's two ends: D with its rounding bound, 8 q eps times the sum of
      its terms' magnitudes at a common scale, and the enclosure of R'
      widened by a relative 4 (2 q + n + |2 - q| / (q - 1) + 8) eps for the
      powers and sums. So C' lies in [g1, g2] on the cell, and with Ca and
      Cb bounds of the cost at its ends a and b, the cost on it is at least
      max(Ca + g1 (y - a), Cb - g2 (b - y)), whose least is (g2 Ca - g1 Cb +
      g1 g2 (b - a)) / (g2 - g1) (Ca if g1 >= 0, Cb if g2 <= 0), less its
      rounding, 8 eps (Ca + Cb + min(-g1, g2) (b - a)). The cell of least
      bound is halved until no bound is below the least point cost found by
      more than 1e-13 (1 + span); past 256 points, or at a cell too narrow
      to halve, the row scans. The least point's report is a candidate.
    - Cost bounds. A report in [R~ - d, R~ + d] whose optimum lies in
      [ya, yb] costs at least the sum of w_k dist(x, l_k([R~ - d, R~ + d]))
      over the lines (each is monotone) and w dist(x, [ya, yb]), times
      1 - (K + 3) eps for the roundings of the sum of K atoms. At a piece's
      end the report is exact and its optimum is the forward solve's, within
      the error above, or y = x exactly at r*, whose report is R~(x) +- its
      bound.
    - Certify or scan. The candidates (x at its truthful cost, then the ends
      and points the pieces chose) are priced forward with `_plan_at`, as
      `run` prices the rule, and the first strictly cheapest is reported,
      only if its cost is at most LB + 1e-9 (1 + span), LB the least of the
      pieces' bounds, below which no report costs; r* is finite (the power's
      OverflowError as q nears 1 is caught); no line's end lies within r*'s
      rounding bound of r*, which would leave the pieces unknown; and, when a
      line is present, `_pruned_min`'s window cap is finite (bounded above
      from the window's ends, as each line is monotone), so a row whose scan
      would refuse overflowing costs still scans and refuses at the same
      agent. Where |r* - x| is within r*'s bound the bracket cannot be
      oriented: one bound covers it whole, and r* is a candidate. With no
      line, the one piece ends at r*, where the bound is 0, so the row is
      reported where the forward cost is at most 1e-9 (1 + span), and r*
      wins a tie with x, as it did before the mixtures took this path.
    Such a row builds no candidates and is not polished; it still passes
    `_check_window` first, so a window the scan refuses is refused at the
    same agent. Every other row is priced at its kinks where its plan is
    closed (below), and else scans, bit for bit as before. The scan searches
    a bounded window: on [0, 0, 0, 1, 1] at p = 1.5 the optimum's row stops
    at 4.0025, where r = 10 gains twice as much, and Mixture(order_weights=
    (0, 0.3, 0, 0), opt_weight=0.7) on [0, 0, 1, 1] at p = 1.5 stops at
    4.0025 with gain 0.319, where r = 5 gains 0.35.

    A closed plan, of clipped lines and L_inf optima, is priced at its
    kinks (`_kink_min`): the rows of LRM, ThreePoint, Mirror, Symmetrized,
    order and dictator mixtures with two or more weights, and the L_inf
    optimum (every two-agent optimum), mixed or (where `_inverse_min` does
    not certify it) alone. B = |low| + |high|.
    - Least cost at a kink. Each location is continuous, piecewise linear
      and nondecreasing in r: a line's pieces are its clip ends lo and hi and
      r between them; the midrange's are 0.5 (r + others[-1]) below
      others[0], a constant up to others[-1] and 0.5 (others[0] + r) above.
      So the cost C(r), a sum of w |x - y(r)|, is continuous and piecewise
      linear, and breaks only where a piece ends or meets x. Between two
      adjacent breaks C is linear, so its least there is at a break. The two
      outer pieces run to -inf and +inf, and C >= 0 on them, so C does not
      fall as r goes outward, or it would go below 0: their least is at the
      outermost breaks. With no break C is constant. So the least over every
      real report is at a break or, with none, at x.
    - Kinks. The candidates are the others' reports in agent order, lo -+
      span and hi -+ span, every break and x, priced by `_plan_at`, as `run`
      prices the rule; the first strict minimum wins, so the others and the
      extremes win ties, as in the scan. The breaks are the others' reports,
      the clip ends and x, all exact, and the midrange's 2 x - others[-1]
      and 2 x - others[0], each one rounding of a value of magnitude at most
      3 B, so within 3 u B of the exact break. Every candidate lies in
      [-3 B, 3 B].
    - Rounding. C is Lipschitz with L = sum of w_k L_k, L_k = 1 for a line
      and 1/2 for the midrange, so L <= sum w <= 1 + 1e-12, and the exact
      cost at the nearest computed kink exceeds the least by at most
      3.1 u B. `_plan_at` clips exactly and rounds the midrange within
      u (|r| + B) / 2, and then |x - y|, w * t and the sum of the K atoms'
      terms within (K + 2) u C(r), and C(r) <= sum w (|r| + 2 B). So each
      computed cost is within e(r) = (K + 4) u (|r| + 2 B) of the exact one,
      and for every real report r the reported cost is at most r's computed
      cost plus 3.1 u B + e(3 B) + e(r): below 1e-12 (1 + span) for
      profiles in [0, 1] at K <= 6 and |r| <= 4.
    - Fall back. `_pruned_min`'s window cap is bounded as in
      `_inverse_min`: each location is monotone in r, so each term's largest
      over the scan's candidates is at their least or greatest, and twice
      the sum of those largest leaves room for rounding. Where it overflows,
      or where a kink or a candidate's cost is not finite, the row scans bit
      for bit, and so refuses an overflowing cost at the same agent. A row
      priced at its kinks builds no candidate array, makes no `_plan_min`
      call and is never polished.

    A one-line plan is priced in closed form (`_line_min`): the (report,
    cost) the scan (`mechanisms._plan_min`) returns for the full candidate
    array, to the bit, with no candidate array, no cost curve and no polish.
    Its one atom is a line, y(r) = r clipped to [lo, hi]: an order
    statistic's rank window, or a dictator's (the whole line for the
    agent's own, [v, v] for another's). The rows of Median,
    OrderStatistic, Dictator, of the L_1 optimum (`_outcome_plan` writes it
    as the median's line), of a Mixture with one nonzero weight and, on two
    agents, of Mirror of these are such plans.
    - Least cost is truthful. y(r) lies in [lo, hi] and x's own clip is the
      point of [lo, hi] nearest x. x - y, |.| and w * (.) each round
      monotonically, so fl(w |x - y(r)|) >= cost(x) = truthful for every
      real r: the curve's least cost is exactly truthful, the gain is +0.0
      over every real report, not just the grid, and no polished point can
      be strictly cheaper, so skipping the polish keeps the bits.
    - The report is the first candidate in assembly order (the others in
      agent order, the extremes, the grid, the scalings, then x) priced at
      truthful, as argmin picks it. If x <= lo or x >= hi, a finite window
      end is an other's report (`core._rank_window`, a dictator's or, under
      Mirror, the other's) and costs truthful, so
      the report is the first other, in agent order, whose cost equals
      truthful, priced by `_plan_at`: it prices a line as `_plan_costs`
      does, to the bit (y may differ only in a zero's sign, which |x - y|
      drops; 0 + w * t and 1 * t are w * t and t). If lo < x < hi,
      truthful is 0, and a cost of 0 needs y(r) == x, so r == x: w is within
      1e-12 of 1 (a mixture's weights sum to 1), so w * t > 0 for t > 0.
      The report is then x, bit for bit, unless x is a zero; its sign is
      then the first zero's among the others (only the agent's own
      dictator, on the whole line, can have one), the extremes and the
      grid, else that of scales[0] * x.
    - Overflow. The scan reports cost inf if any candidate's cost
      overflows. With both window ends finite, x and y(r) lie in [low,
      high], so no cost exceeds w * span, which is finite: the extremes
      low - span and high + span are finite only if span is at most about
      2/3 of the largest double, and w <= 1 + 1e-12. With lo = -inf
      or hi = inf, the cost is unimodal in r (y(r) is monotone), so its
      largest is at the least or the greatest candidate: the least or
      greatest of the extremes and the grid (which `_window_hull` reads off
      their scalar ends; the others and x lie between low - span and high + span) and
      x's two end scalings. Priced there, an inf is returned as the cost,
      and `_deviations` raises the same NonFiniteResult. A window that is
      not finite is refused by the scan's own check (`_check_window`), at
      the same agent.

    The polish is skipped when c <= 0, where it provably cannot win (every
    cost is a sum of w * |x - y|, w >= 0), so the result keeps its bits.

    The candidate scan (`mechanisms._plan_min`) solves only the optimum rows
    that can win, and returns the same index and cost, bit for bit, as the
    full curve. It prunes plans of clipped lines and then one optimum that
    is not a closed form (`Optimal` and its mixtures with dictators and
    order statistics, on three or more agents), which cost
    rest + w * |x - y| at report r: rest, the lines' cost in the full curve's
    atom order, is evaluated at every candidate, and the optimum y of
    others + [r] is nondecreasing in r by strict convexity (the monotonicity
    behind the median's strategyproofness). The scan sorts the candidates,
    solves every 64th and the last, and takes the least of their costs, UB.
    Between two of these, y lies in [y0 - delta, y1 + delta], y0 and y1 its
    values at the two ends and delta = 1e-9 * (1 + |w0| + |w1|), [w0, w1]
    the window that holds every row's points: each solve is certified within
    BRACKET_TOL (1e-12) half-spans, at most (w1 - w0) / 2, and delta is 1000
    times that, with room for the back-transform's rounding, which scales
    with |w0| and |w1|. So a row costs at least LB = rest + w * dist(x,
    [y0 - delta, y1 + delta]); one with LB * (1 - 1e-12) - delta > UB cannot
    be the least and is not solved, and the rest are solved in one more
    batch, where a row's solve does not depend on the rest of the batch
    (`optimizer._bisect_columns`). Other plans take the full curve, as do
    plans whose cap,
    max(rest) + w * max |x - y| over the window, overflows: y lies in the
    window, so each cost rounds to at most the cap, below it no cost
    overflows, and the overflow check holds for the unsolved rows too.
    `sp_scan` scans a profile's agents at once (`_deviations`), which keeps
    the profile's winning row only; best_deviation is its one-agent case.
    There a row's gain is at most its truthful cost, so an exact row whose
    truthful cost is below the largest gain found is not priced where its
    cost cap is finite, below which no cost overflows (see `_deviations`).

    `sp_scan` keeps only the largest gain, so it skips the polish of an agent
    whose polished gain provably stays below the largest found so far. The
    polish prices reports r in [a, b], and with b - a finite every golden
    point lies there, within window + u * (|r*| + window) of r* = best_r, u
    the unit roundoff. Each atom's location is Lipschitz in r: 1 for a
    clipped line, 0 for a window [v, v]; 1 for an L_q optimum, which is
    nondecreasing and translation equivariant (adding h to every point adds
    h to it). Each computed location is within
    delta = 1e-9 * (1 + |w0| + |w1|) of the exact one, [w0, w1] the hull of
    the profile and [a, b]: a solved optimum by the certificate above; a
    line, the median, the midrange and both p = 2 means (the
    scalar fsum(row) / n and the batched (fsum(others) + r) / n, which can
    differ in the last bits) to within a few ulps of the row's largest |y|.
    So each atom moves by at most L_k * window + 2 * delta between the
    scan's r* and a golden point, the unit roundoff's share of the golden
    distance (at most u (|r*| + window), as L_k <= 1) lying
    deep inside delta's 1000-fold margin. The cost is a sum of K terms
    w * |x - y|, each rounded twice and summed K times, so the scan's c and a
    golden point's cost carry relative errors of at most (K + 2) u each,
    below 1e-12 / 2 for K < 4000 atoms. Every golden cost is therefore at
    least c - slack, slack = sum w_k L_k * window + 2 delta sum w_k +
    1e-12 (truthful + c); the last term also covers the rounding of
    truthful - c and of the bound's own sum. A polished point is kept only
    if cheaper than c, so the agent's gain is at most truthful - c + slack
    (`_polish_slack`, with delta widened to 1e-9 (1 + |low| + |high| +
    2 (|r*| + window))). An agent with that bound strictly below the largest
    gain found loses the reduction either way. The polish raises nothing,
    so skipping it drops no error: float arithmetic does not raise;
    `_solve_row` catches its powers' overflow, and its fallback's powers
    have bases <= 1 and divide by a peak distance of about 1 or more (its
    scaled row spans [-1, 1]); an overflowing fsum is caught and rescaled
    by 2^-k, 2^k > n, so the mean rounds to at most the largest double.
    Where b - a is not finite (nothing is skipped there) a report may be
    infinite or NaN; fsum of one infinity or a NaN returns it, and
    `_solve_row` then meets NaN peak distances, never a zero one.
    """
    p, agents = validate_pnorm(p), [_check_agent(agent, profile.n)]
    gain, agent, best_r, truthful, best_c = _deviations(spec, profile, p, agents, cfg, -math.inf)
    return DeviationReport(agent, profile, best_r, truthful, best_c, gain)


def _deviations(spec, profile: LocationProfile, p: float, agents, cfg: SearchConfig, floor: float = math.nan):
    """The row (gain, agent, best_r, truthful, best_c) of the first largest
    gain, in agent order, over best_deviation(spec, profile, p, a, cfg) for
    a in agents (checked indices), bit for bit, less the agents whose gain
    provably stays below `floor`: None if that drops them all. Every
    agent's candidate scan is in one `_plan_min` call, so the optimum rows
    of all agents share its two kernel calls. One-line plans, the certified plans of lines and one
    optimum and closed plans take their exact forms instead (see
    best_deviation), and are never polished. Each agent's others are the
    profile's stable sort less the agent's slot: `sorted`'s values and order.
    The candidates' extremes and grid are built once for the profile, only if
    some row scans, and each scanning agent's candidates copy them
    (`misreport_candidates` composes the same two parts); a window that is
    not finite (`_window_hull`) is refused at the first agent whose plan is
    built, as the per-agent loop refuses it. A one-line row after the
    profile's first one-line row is only checked: its window, its truthful
    cost and, on an unbounded line, its costs at the candidates' ends
    (`_line_overflows`). Where these are finite `_line_min` returns the
    truthful cost, so its gain is truthful - truthful = +0.0, as is the first
    one-line row's; an exact row is never dropped and the first of equal
    gains wins, so it can neither win nor, its gain tied with an earlier
    one, raise the floor. Plans are built up to the first agent that raises;
    the costs of the agents before it are checked in order, and only then is
    its error raised: as neither the closed forms, `_plan_min` nor the
    polish raises, it is the error the per-agent loop raises first.

    The exact rows (`_inverse_min`, then `_kink_min`) are priced once every
    plan is built, in decreasing order of truthful cost (ties in agent
    order), and the floor rises to each exact gain. A row whose truthful
    cost is strictly below the floor and whose cost cap (`_cost_cap`) is
    finite is neither priced nor kept: every cost is a sum of w * |x - y|
    >= +0 and fl(t - c) <= t for c >= 0, so its gain is at most its truthful
    cost; below a finite cap no cost overflows, and the exact forms and the
    polish raise nothing, so it hides no error. A row that would scan is
    dropped alike, as no batched solve depends on the rest of its batch.
    Every truthful row, sorted(others + [x]), is the profile's sorted
    reports, which `_inverse_search` prices again, so the call keeps its
    solved optima in one dict (see `_plan_at`): keying by values merges rows
    that differ only in a zero's sign, which |x - y| drops, so no cost moves.

    The agents are then polished in decreasing order of their scan gain, and
    the floor rises to each gain found. An agent whose polish would run but
    whose gain bound (`_polish_slack`) lies strictly below the floor is
    neither polished nor kept: its gain cannot reach the floor. `sp_scan`
    passes its largest gain so far, -inf before the first profile, and
    best_deviation -inf, which drops nothing from one agent; the default,
    NaN, never rises and drops nothing, since no comparison with NaN holds.
    """
    p, n = validate_pnorm(p), profile.n
    rows, error, line_seen, solved = [], None, False, {}
    hull, values, ranked = _window_hull(profile, cfg), profile.values.tolist(), profile.sorted_values.tolist()
    slot = profile.order.argsort().tolist()
    scales = _unit_arrays(cfg.grid_points, cfg.scale_bound, cfg.scale_steps_per_unit)[1]
    slots = lambda: _window_candidates(profile, cfg)[n - 1 : -scales.size - 1]
    lo, hi, span = profile.low, profile.high, profile.span
    extremes = [lo - span, lo + span, hi - span, hi + span]
    for agent in agents:
        x, j = values[agent - 1], slot[agent - 1]
        try:
            others, atoms = _outcome_plan(spec, values, p, agent, ranked[:j] + ranked[j + 1 :])
            _check_window(hull, profile, x, cfg)
        except Exception as exc:
            error = exc
            break
        truthful, line = _plan_at(others, atoms, x, x, solved), _one_line(atoms)
        if line and line_seen:
            if not math.isfinite(truthful) or _line_overflows(others, atoms, x, hull, scales):
                error = NonFiniteResult(f"misreport costs overflow on {profile!r}")
                break
            continue
        best = None
        if line:
            reports = values[: agent - 1] + values[agent:]
            line_seen, best = True, _line_min(others, atoms, x, truthful, reports, hull, slots, scales)
        rows.append((agent, others, atoms, x, truthful, best))
    # sorted is stable: ties in truthful cost keep agent order
    for k in sorted((k for k, row in enumerate(rows) if row[5] is None), key=lambda k: -rows[k][4]):
        agent, others, atoms, x, truthful, _ = rows[k]
        if truthful < floor and math.isfinite(_cost_cap(atoms, x, hull, scales)):
            rows[k] = None
            continue
        best = _inverse_min(others, atoms, x, truthful, span, hull, scales, solved)
        if best is None:
            best = _kink_min(others, atoms, x, values[: agent - 1] + values[agent:] + extremes, hull, scales)
        if best is not None:
            rows[k] = (agent, others, atoms, x, truthful, best)
            floor = max(floor, truthful - best[1])
    rows = [row for row in rows if row is not None]
    to_scan = [row for row in rows if row[5] is None]
    if to_scan:
        shared = _window_candidates(profile, cfg)
        candidates = [_agent_candidates(shared, profile, row[0], cfg) for row in to_scan]
        found = iter(zip(_plan_min([(*row[1:4], c) for row, c in zip(to_scan, candidates)]), candidates))
    scanned = []
    for agent, others, atoms, x, truthful, best in rows:
        if best is None:
            (i, best_c), c = next(found)
            best_r = float(c[i])
        else:
            best_r, best_c = best
        if not (math.isfinite(truthful) and math.isfinite(best_c)):
            raise NonFiniteResult(f"misreport costs overflow on {profile!r}")
        scanned.append((truthful - best_c, agent, others, atoms, x, best_r, truthful, best_c, best is not None))
    if error is not None:
        raise error
    window = profile.span * (1.0 + 2.0 * cfg.grid_pad) / (cfg.grid_points - 1)
    reach = 1.0 + abs(profile.low) + abs(profile.high)
    kept = [None] * len(scanned)
    for k in sorted(range(len(scanned)), key=lambda k: -scanned[k][0]):
        _, agent, others, atoms, x, best_r, truthful, best_c, exact = scanned[k]
        a, b = best_r - window, best_r + window
        if not exact and window > 0.0 and cfg.refine_iters > 0 and best_c > 0.0:
            if floor > -math.inf and math.isfinite(b - a):
                if truthful - best_c + _polish_slack(atoms, best_r, window, reach, truthful, best_c) < floor:
                    continue
            r2, c2 = _golden_min(lambda r: _plan_at(others, atoms, r, x), a, b, cfg.refine_iters)
            if c2 < best_c:
                best_r, best_c = float(r2), float(c2)
        floor = max(floor, truthful - best_c)
        kept[k] = (truthful - best_c, agent, best_r, truthful, best_c)
    # max keeps the first of equal gains
    return max((row for row in kept if row is not None), key=lambda row: row[0], default=None)


def _one_line(atoms) -> bool:
    # one clipped line: an order statistic or a dictator
    return len(atoms) == 1 and atoms[0][3] is None


def _line_min(others, atoms, x: float, truthful: float, reports: list, hull, slots, scales) -> tuple[float, float]:
    # _plan_min's (report, cost) for the one-line plan (others, atoms, x)
    # over the agent's candidates, without building them: `reports` the
    # others' reports in agent order, `hull` from _window_hull, `slots()` the
    # extremes and the grid, built only when read, x's scalings `scales` * x
    # (see best_deviation for the proof); _plan_at prices a line as
    # _plan_costs does, to the bit
    _, lo, hi, _ = atoms[0]
    if not lo < x < hi:
        report = next(r for r in reports if _plan_at(others, atoms, r, x) == truthful)
    elif x != 0.0:
        report = x
    else:
        # the first zero in assembly order: an other, an extreme, a grid point or a scaling
        grid = slots()
        report = ([r for r in reports if r == 0.0] + grid[grid == 0.0].tolist() + [float(scales[0]) * x])[0]
    return report, math.inf if _line_overflows(others, atoms, x, hull, scales) else truthful


def _line_overflows(others, atoms, x: float, hull, scales) -> bool:
    # whether a candidate's cost overflows on the one-line plan: none can in a
    # bounded window, and elsewhere the cost is unimodal in r, so its largest
    # is at the least or the greatest candidate
    _, lo, hi, _ = atoms[0]
    if lo != -math.inf and hi != math.inf:
        return False
    return not math.isfinite(max(_plan_at(others, atoms, r, x) for r in _candidate_ends(hull, scales, x)))


def _candidate_ends(hull, scales, x: float) -> tuple[float, float]:
    # the least and greatest of the candidates of the agent at x: the ends of
    # `hull` and of x's scalings `scales` * x, as the others and x lie in the hull
    scaled = float(scales[0]) * x, float(scales[-1]) * x
    return min(hull[0], *scaled), max(hull[1], *scaled)


def _cost_cap(atoms, x: float, hull, scales) -> float:
    # a bound on the cost of the agent at x at every candidate, all between
    # its _candidate_ends: a line's clip is monotone, an optimum lies in the
    # hull of r and the others, and rounding is monotone, so summed in atom
    # order, as the scan sums a cost, it bounds every term and partial sum
    cap, ends = 0.0, _candidate_ends(hull, scales, x)
    for w, lo, hi, q in atoms:
        ys = ends if q is not None else [min(max(e, lo), hi) for e in ends]
        cap += w * max(abs(x - y) for y in ys)
    return cap


def _inverse_report(others, y: float, q: float):
    # the report R(y) that puts the L_q optimum of others + [R] on y, by the
    # inverse map, and a bound on its rounding error (see best_deviation);
    # OverflowError where R is not finite (the power overflows as q nears 1)
    if q == math.inf:
        r, err = 2.0 * y - (others[-1] if y <= 0.5 * others[0] + 0.5 * others[-1] else others[0]), 0.0
    else:
        peak = max(y - others[0], others[-1] - y)
        if not peak > 0.0:
            return y, 0.0
        terms = [(abs(y - o) / peak) ** (q - 1.0) for o in others]
        total = math.fsum(math.copysign(t, y - o) for t, o in zip(terms, others))
        alpha = 1.0 / (q - 1.0)
        r = y + math.copysign(peak * abs(total) ** alpha, total)
        # |total - S| <= slack, S the exact sum
        slack, k = 8.0 * q * _EPS * math.fsum(terms), max(1.0, alpha)
        if 4.0 * k * slack < abs(total):
            err = abs(r - y) * (2.0 * k * slack / abs(total) + 8.0 * _EPS) + 2.0 * _EPS * abs(r)
        else:
            err = abs(r - y) + peak * (abs(total) + slack) ** alpha * (1.0 + 8.0 * _EPS) + 2.0 * _EPS * abs(r)
    if not math.isfinite(r):
        raise OverflowError("the report that puts the optimum on y overflows")
    return r, err


def _inverse_min(others, atoms, x: float, truthful: float, span: float, hull, scales, solved=None):
    # (report, cost) of a least-cost report, priced forward, for a plan of
    # clipped lines and then one L_q optimum, q > 1 and finite when a line is
    # present; None for any other plan and for a row that does not certify
    # itself (see best_deviation); `hull` and `scales` as in _line_min, and
    # `solved` as in _plan_at
    *lines, (w, _, _, q) = atoms
    if q is None:
        return None
    if not lines:
        # _inverse_search's one piece, which ends at r*, where its bound is 0;
        # on a tie r* wins, the report the inverse map alone always gave
        try:
            r = _inverse_report(others, x, q)[0]
        except OverflowError:
            return None
        c = _plan_at(others, atoms, r, x, solved)
        best_r, best_c = (r, c) if c <= truthful else (x, truthful)
        return (best_r, best_c) if best_c <= 1e-9 * (1.0 + span) else None
    if q == math.inf or any(a[3] is not None for a in lines):
        return None
    if not math.isfinite(_cost_cap(atoms, x, hull, scales)):
        return None
    try:
        return _inverse_search(others, lines, atoms, x, truthful, span, solved)
    except OverflowError:
        return None


def _inverse_search(others, lines, atoms, x, truthful, span, solved):
    # _inverse_min past its plan and cap checks
    w, q = atoms[-1][0], atoms[-1][3]
    clip = lambda a, r: min(max(r, a[1]), a[2])
    r_star, err_star = _inverse_report(others, x, q)
    kinks = {b for a in lines for b in a[1:3] if math.isfinite(b)}
    sigma, degenerate = (1.0 if r_star > x else -1.0), abs(r_star - x) <= err_star
    if not degenerate and any(abs(b - r_star) <= err_star for b in kinks):
        return None
    inside = [] if degenerate else [b for b in kinks if min(x, r_star) < b < max(x, r_star)]
    pts = [x] + sorted(inside, reverse=sigma < 0) + [r_star]
    memo, bounds, candidates = {}, [], []

    def price(r):
        # the forward cost at report r, summed as _plan_at sums it, and the optimum there
        if r not in memo:
            locs, c = _plan_at(others, atoms, r, None, solved), 0.0
            for atom, y in zip(atoms, locs):
                c += atom[0] * abs(x - y)
            memo[r] = c, locs[-1]
        return memo[r]

    def ylim(i):
        # the y-interval of point i: exactly x at r*, else the forward solve's
        if i == len(pts) - 1:
            return x, x
        r, y = pts[i], price(pts[i])[1]
        lo, hi = min(r, others[0]), max(r, others[-1])
        tol = 1e-12 * (hi - lo) + 4e-15 * (abs(lo) + abs(hi))
        return y - tol, y + tol

    def bound(ya, yb, ra, rb):
        # a lower bound on the cost of every report in [ra, rb] whose optimum lies in [ya, yb]
        total = 0.0
        for a in lines:
            total += a[0] * max(clip(a, ra) - x, x - clip(a, rb), 0.0)
        return (total + w * max(ya - x, x - yb, 0.0)) * (1.0 - (len(atoms) + 3) * _EPS)

    def end(i):
        # the cost bound at point i
        err = err_star if i == len(pts) - 1 else 0.0
        return bound(*ylim(i), pts[i] - err, pts[i] + err)

    least = 2.0 if q >= 2.0 else 1.0
    if degenerate:
        # r* too close to x to orient the bracket: one bound over all of it
        ya, yb = ylim(0)
        bounds.append(bound(min(ya, x), max(yb, x), min(x, r_star) - err_star, max(x, r_star) + err_star))
        candidates.append(r_star)
    for j in range(0 if degenerate else len(pts) - 1):
        a, b = pts[j], pts[j + 1]
        free = [line[0] for line in lines if line[1] <= min(a, b) and max(a, b) <= line[2]]
        s = math.fsum(free)
        i_lo, i_hi = (j, j + 1) if a < b else (j + 1, j)
        # fsum rounds correctly, so its sign is the exact sum's: s r' >= least s >= w
        if s == 0.0 or math.fsum(free + [-w / least]) >= 0.0:
            # one sign of C' on the whole piece: its least is at one end
            i = i_hi if sigma * (1.0 if s else -1.0) < 0.0 else i_lo
            bounds.append(end(i))
            candidates.append(pts[i])
        else:
            ends = [(ylim(i)[k], end(i), pts[i]) for i, k in ((i_lo, 0), (i_hi, 1))]
            found = _inverse_cells(others, q, w, s, sigma, least, *ends, span, bound)
            if found is None:
                return None
            bounds.append(found[0])
            candidates.append(found[1])
    best_r, best_c = x, truthful
    for r in candidates:
        c = price(r)[0]
        if c < best_c:
            best_r, best_c = r, c
    return (best_r, best_c) if best_c <= min(bounds) + 1e-9 * (1.0 + span) else None


def _inverse_cells(others, q, w, s, sigma, least, lower, upper, span, bound):
    # a piece of the bracket where C' may change sign, by branch and bound over
    # y-cells split first at the others' reports (see best_deviation); `lower`
    # and `upper` are the piece's ends as (y, cost bound, report), y widened to
    # hold the true end; (a lower bound on the piece's cost, the report of its
    # least bounded point), or None past the evaluation budget
    (ya, _, _), (yb, _, _) = lower, upper
    mu = max(abs(ya - others[0]), abs(ya - others[-1]), abs(yb - others[0]), abs(yb - others[-1]))
    if not (ya < yb and 0.0 < mu < math.inf):
        return None
    ex, tau = (2.0 - q) / (q - 1.0), 1e-13 * (1.0 + span)
    eta = 4.0 * (2.0 * q + len(others) + abs(ex) + 8.0) * _EPS
    terms, points = {}, {ya: lower[1:], yb: upper[1:]}

    def at(y):
        # D(y) / mu^(q-1) with its rounding bound, and each |y - o|^(q-2) / mu^(q-2)
        if y not in terms:
            t = [abs(y - o) / mu for o in others]
            powers = [v ** (q - 1.0) for v in t]
            d = math.fsum(math.copysign(v, y - o) for v, o in zip(powers, others))
            err = 8.0 * q * _EPS * math.fsum(powers) + 1e-300
            terms[y] = d, err, [v ** (q - 2.0) if v or q >= 2.0 else math.inf for v in t]
        return terms[y]

    def point(y):
        # the cost bound at y and the report that puts the optimum there
        if y not in points:
            r, err = _inverse_report(others, y, q)
            points[y] = bound(y, y, r - err, r + err), r
        return points[y][0]

    def floor(a, b):
        # a lower bound on the cost over [a, b] from its ends' bounds and the
        # endpoint enclosure of C' = sigma (s r'(y) - w) there (Piyavskii)
        (da, ea, ta), (db, eb, tb) = at(a), at(b)
        lo, hi = da - ea, db + eb
        small, big = (0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))), max(abs(lo), abs(hi))
        if ex > 0.0:
            pl, pu = small**ex, big**ex
        elif ex < 0.0:
            pl, pu = (big**ex if big else math.inf), (small**ex if small else math.inf)
        else:
            pl = pu = 1.0
        tl, tu = math.fsum(map(min, ta, tb)), math.fsum(map(max, ta, tb))
        low = max(least, (1.0 + (pl * tl if pl and tl else 0.0)) * (1.0 - eta))
        high = math.inf if math.inf in (pu, tu) else (1.0 + pu * tu) * (1.0 + eta)
        g1, g2 = sorted((sigma * (s * low - w), sigma * (s * high - w)))
        ca, cb = points[a][0], points[b][0]
        if g1 >= 0.0:
            return ca
        if g2 <= 0.0:
            return cb
        if g1 == -math.inf or g2 == math.inf:
            return ca + g1 * (b - a) if g2 == math.inf else cb - g2 * (b - a)
        slack = 8.0 * _EPS * (ca + cb + min(-g1, g2) * (b - a))
        return (g2 * ca - g1 * cb + g1 * g2 * (b - a)) / (g2 - g1) - slack

    cuts = sorted({ya, yb, *(o for o in others if ya < o < yb)})
    best = min(point(y) for y in cuts)
    heap = [(floor(a, b), a, b) for a, b in zip(cuts, cuts[1:])]
    heapq.heapify(heap)
    while heap[0][0] < best - tau:
        _, a, b = heapq.heappop(heap)
        m = 0.5 * a + 0.5 * b
        if not a < m < b or len(points) > 256:
            return None
        best = min(best, point(m))
        heapq.heappush(heap, (floor(a, m), a, m))
        heapq.heappush(heap, (floor(m, b), m, b))
    return heap[0][0], min(points.values())[1]


def _kink_min(others, atoms, x: float, leading: list, hull, scales):
    # (report, cost) of a least-cost report for a closed plan, clipped lines
    # and L_inf optima: the first strict minimum of `leading` (the others'
    # reports in agent order, then lo -+ span and hi -+ span), the kinks and
    # x, each priced by _plan_at; None for any other plan and where a kink or
    # a cost is not finite or the scan's cost cap overflows (see
    # best_deviation); `hull` and `scales` as in _line_min
    kinks = []
    for _, lo, hi, q in atoms:
        if q is None:
            # the line's clip ends, and where it meets x
            kinks += [v for v in (lo, hi) if math.isfinite(v)] + [x]
        elif q == math.inf:
            # the midrange leaves its flat middle at others[0] and others[-1],
            # and 0.5 * (r + others[-1]) and 0.5 * (others[0] + r) meet x at
            kinks += [2.0 * x - others[-1], 2.0 * x - others[0]]
        else:
            return None
    # each location is monotone in r, so each term's largest over the scan's
    # candidates is at their least or greatest, and twice the cap leaves room
    # for rounding
    cap = 0.0
    for atom, *ends in zip(atoms, *(_plan_at(others, atoms, r) for r in _candidate_ends(hull, scales, x))):
        cap += atom[0] * max(abs(x - y) for y in ends)
    if not math.isfinite(2.0 * cap):
        return None
    best_r = best_c = None
    # equal reports cost the same, so pricing each once keeps the first strict minimum
    for r in dict.fromkeys(leading + kinks + [x]):
        c = _plan_at(others, atoms, r, x)
        if not (math.isfinite(r) and math.isfinite(c)):
            return None
        if best_c is None or c < best_c:
            best_r, best_c = r, c
    return best_r, best_c


def _polish_slack(atoms, best_r: float, window: float, reach: float, truthful: float, best_c: float) -> float:
    # every point the polish prices costs at least best_c - slack, so the
    # polished gain is at most truthful - best_c + slack (see best_deviation);
    # reach is 1 + |low| + |high| of the profile
    lip = mass = 0.0
    for w, lo, hi, q in atoms:
        lip += w * (q is not None or lo < hi)
        mass += w
    delta = 1e-9 * (reach + 2.0 * (abs(best_r) + window))
    return lip * window + 2.0 * mass * delta + 1e-12 * (truthful + best_c)


def sp_scan(
    spec,
    p: float,
    n: int,
    trials: int,
    seed: int,
    cfg: SearchConfig = SearchConfig(),
    include_structured: bool = True,
) -> DeviationReport:
    """Worst deviation over structured families plus seeded random profiles.

    Structured families: the half-half 0/1 split and, for even n at integer
    p >= 3, the adversarial four-block profiles built from the rank roots.
    Random profiles are uniform on [0, 1]^n from one seeded generator. The
    reduction is deterministic: reports compare by gain, then by the profile
    values lexicographically (the first of equals wins), so reruns are identical.

    Each profile's agents are scanned together, their optimum rows in two
    batched kernel calls per profile rather than two per agent, and only the
    profile's winning row comes back; one report is built, for the overall
    winner. Each profile is scanned with the largest gain so far as its
    floor: an agent whose polished gain provably stays below it is not
    polished (see best_deviation), since it cannot be the worst deviation.
    Exact rows are priced in decreasing truthful cost, which bounds their
    gain, and not at all below the floor unless their costs may overflow
    (see `_deviations`); a profile's own optimum is solved once. So the
    report is the reduction of best_deviation over every agent of every
    profile, to the bit. Raises TypeError unless n, trials and seed
    are integers, and ValueError for n < 2, trials < 0 or seed < 0.
    """
    p = validate_pnorm(p)
    n, trials, seed = _check_int(n, "n", 2), _check_int(trials, "trials", 0), _check_int(seed, "seed", 0)
    profiles = []
    if include_structured:
        profiles = [LocationProfile([0.0] * (n - n // 2) + [1.0] * (n // 2))]
        profiles += four_block_profiles(n, p)
    rng = np.random.default_rng(seed)
    profiles += [LocationProfile(rng.uniform(0.0, 1.0, size=n)) for _ in range(trials)]
    if not profiles:
        raise ValueError("nothing to scan: zero trials and no structured profiles")
    agents, worst, worst_key = range(1, n + 1), None, None
    for prof in profiles:
        row = _deviations(spec, prof, p, agents, cfg, -math.inf if worst is None else worst_key[0])
        if row is None:
            continue
        key = (row[0], tuple(prof.values.tolist()))
        if worst is None or key > worst_key:
            worst, worst_key = (prof, row), key
    prof, (gain, agent, best_r, truthful, best_c) = worst
    return DeviationReport(agent, prof, best_r, truthful, best_c, gain)


def symmetric_sp_margin(dist, x2: float) -> float:
    """Margin certifying no profitable stretch by the right agent of (0, x2).

    For rules whose output on (0, x2) is supported inside [0, x2], the value
    x2 * P(Y = x2) - sum over atoms below x2 of prob * location is
    nonnegative exactly when, within the shift and scale invariant symmetric
    family, exaggerating the right report cannot pay. Raises
    UnsupportedSupport when mass lies outside [0, x2].
    """
    x2 = float(x2)
    if not 0.0 < x2 < math.inf:
        raise ValueError(f"x2 must be positive and finite, got {x2!r}")
    locs = dist.locations
    probs = dist.probabilities
    if locs[0] < 0.0 or locs[-1] > x2:
        raise UnsupportedSupport(
            f"support [{locs[0]!r}, {locs[-1]!r}] extends outside [0, {x2!r}]"
        )
    below = locs < x2
    mass_at_end = float(probs[locs == x2].sum())
    return x2 * mass_at_end - float((probs[below] * locs[below]).sum())
