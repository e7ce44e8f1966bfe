"""Optimal facility location and the root finding behind lower-bound
certificates.

The social cost y -> (sum_i |x_i - y|^p)^(1/p) is minimized in closed form
for p in {1, 2, inf} (lower median, mean, midrange; where a mean's or a
midrange's sum overflows, it is taken at a smaller scale). Otherwise the
minimizer is the root of the nondecreasing derivative

    D(y) = sum_i w_i sign(y - x_i) |y - x_i|^(p-1),

found by safeguarded Newton steps with D'(y) = (p-1) sum_i w_i |y - x_i|^(p-2).
Each row is first shifted to its midpoint and divided by its half-span, so
every point lies in [-1, 1]; at each iterate the peak distance m is factored
out of D and D' (the way core._lp_norms factors it out of the norm), so every
power in D lies in [0, 1] and the peak's is exactly 1: nothing overflows and
the sign of D survives underflow, for spans up to about 1e308 and p up to
1e6. A bracket [a, b] with D(a) <= 0 <= D(b) is kept throughout. The
Newton step is replaced by bisection when it would leave the bracket, when
D' is not finite (p < 2 on a data point), or when it is more than half the
previous step (the rtsafe rule). A point is returned only once it is
certified: D changes sign within BRACKET_TOL half-spans on either side.

The optimum has two kernels chosen by call shape, each holding its closed
forms once. `_optimum` is pure Python for one row (optimal_location, `run`,
the ratio pricer and the deviation polish, where numpy's per-call overhead
would dominate) and solves with `_solve_row`. `_optimum_rows` is numpy for
blocks of rows that differ in one report (deviation curves; the misreport
scan passes one block per agent of a profile, in one call per phase); it
reads the closed forms at p in {2, inf} (p = 1 never reaches it) off each
block's other reports in O(C), writes every other block as columns of one
(n, C) array and solves them with one `_bisect_columns` call, where no
column's result depends on the rest of its batch. `_bisect_rows` copies a
(B, n) batch, such as the weighted rows of certificate residuals, into such
an array and solves it the same way. Each call owns its buffers: the Newton
steps reuse two (n, B) temporaries allocated once per call, and the batch
is cut to the pending rows once they fill half of it or less.

Rank roots: for rank j among 2k agents and e = p - 1, the root a_j of

    g_j(a) = j * a^e - (k - j + 1) - (j - 1) * (1 + a)^e

prices the stretch at which pulling the facility toward a distant block
stops paying. Each g_j has exactly one positive root: g_1 = a^e - k is
increasing; for j >= 2, g_j(0) = -k < 0 and g_j' changes sign once, where
(a / (1 + a))^(e-1) = (j - 1) / j, so g_j falls, then rises to +inf. So one
numpy kernel, `_rank_roots`, bisects twice: over the index i of the grid
min(i * step, bound), step = max(1e-3, k^(1/e) / 1e3), to the first cell
with g_j(lo) < 0 <= g_j(hi); then inside that cell, below tol * (1 + root).
bound = A = 2^e * k lies past every root, so it is never widened: g_1(A) > 0,
and for 2 <= j <= k, (1 + 1/A)^e <= 1 + 1/k gives g_j(A) >= A^e / k - k > 0.
g_j is unscaled, its powers taken by repeated squaring; a cell whose ends are
not both finite (the powers overflowed) is refused with NoRootFound.
`adversarial_root` and `adversarial_roots` are its one-rank and all-rank cases.
`smallest_positive_root` scans a caller's scalar function for its first
bracket and shrinks it with the same bracket bisection,
`_refine_rank_brackets`, on one-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    LocationProfile,
    NonFiniteResult,
    _check_tol,
    _sum_in_order,
    social_cost,
    validate_pnorm,
)

__all__ = [
    "OptResult",
    "NoRootFound",
    "optimal_location",
    "optimal_cost",
    "smallest_positive_root",
    "adversarial_root",
    "adversarial_roots",
]

# An optimum is certified once the derivative changes sign within this many
# half-spans of its row on either side.
BRACKET_TOL = 1e-12
# Default width target for refined root brackets, relative to 1 + root.
ROOT_TOL = 1e-12
_MAX_NEWTON = 200


class NoRootFound(RuntimeError):
    """No sign change found on the scanned interval, or none with finite ends."""


@dataclass(frozen=True)
class OptResult:
    """Minimizer of the social cost, its cost, and the method used.

    method is one of "closed_form_median", "closed_form_mean",
    "closed_form_midrange", "derivative_bisection"; the last names the
    safeguarded Newton solve on the derivative, whose fallback steps bisect.
    """

    location: float
    cost: float
    method: str


_METHODS = {1.0: "closed_form_median", 2.0: "closed_form_mean", math.inf: "closed_form_midrange"}


def optimal_location(profile: LocationProfile, p: float) -> OptResult:
    """Facility location minimizing the L_p social cost.

    p = 1 returns the lower median (the left endpoint of the median
    interval, which is all optimal); p = 2 the mean; p = inf the midrange.
    Other finite p have a unique minimizer by strict convexity, found by the
    scaled, safeguarded Newton solve and certified to within
    1e-12 * span / 2 (a derivative sign change on either side). The result
    always lies in [low, high]. An optimal cost past the largest double
    (at p = 1, [-1e308, 1e308] costs 2e308) is refused with NonFiniteResult.
    """
    p = validate_pnorm(p)
    loc = _optimum(profile.sorted_values.tolist(), p)
    cost = social_cost(profile, loc, p)
    if cost == math.inf:
        raise NonFiniteResult(f"optimal cost overflows on {profile!r}")
    return OptResult(loc, cost, _METHODS.get(p, "derivative_bisection"))


def _optimum(row: list, p: float) -> float:
    """The one-row kernel: minimizer of the L_p cost of a sorted list of
    floats, by the closed forms at p in {1, 2, inf}, else `_solve_row`."""
    n = len(row)
    if p == 1.0:
        return row[(n + 1) // 2 - 1]
    if p == 2.0:
        total, k = _fsum(row), n.bit_length()
        mean = total / n if total < math.inf else math.ldexp(_fsum(row, k) / n, k)
        # the division rounds again, which can leave the hull of equal points
        return min(max(mean, row[0]), row[-1])
    if math.isinf(p):
        # the sum overflows for points above half the largest double
        mid = 0.5 * (row[0] + row[-1])
        return mid if math.isfinite(mid) else 0.5 * row[0] + 0.5 * row[-1]
    return _solve_row(row, p)


def _fsum(values: list, k: int = 0) -> float:
    # math.fsum of the values times 2^-k (exact); inf on overflow, which 2^k > len(values) prevents
    try:
        return math.fsum([math.ldexp(v, -k) for v in values] if k else values)
    except OverflowError:
        return math.inf


def _means(others: list, reports: np.ndarray, n: int) -> np.ndarray:
    # (fsum(others) + r) / n per report r, taken at scale 2^-k where it
    # overflows, and clamped to the row's hull, which rounding can leave
    with np.errstate(over="ignore"):
        y = (_fsum(others) + reports) / n
    wide, k = np.isinf(y), n.bit_length()
    if wide.any():
        y[wide] = np.ldexp((_fsum(others, k) + np.ldexp(reports[wide], -k)) / n, k)
    np.maximum(y, np.minimum(reports, others[0]), out=y)
    return np.minimum(y, np.maximum(reports, others[-1]), out=y)


def _midranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # 0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where the sum overflows
    with np.errstate(over="ignore"):
        y = 0.5 * (lo + hi)
    wide = np.isinf(y)
    if wide.any():
        y[wide] = 0.5 * lo[wide] + 0.5 * hi[wide]
    return y


def _optimum_rows(blocks: list, p: float) -> list:
    """The batched kernel: for each (others, reports) block, the minimizer
    of each row others + [r], r in reports, one array per block; every
    block's others are sorted ascending and equally long, and p > 1 (the
    outcome plan writes the L_1 optimum as the median's line). The closed
    forms at p in {2, inf} read each block's others' summary in O(C); other
    p write every block straight into one (n, C) column array, C the total
    count of reports, and solve them in one `_bisect_columns` call, where a
    column's solve does not depend on the rest of its batch."""
    n = len(blocks[0][0]) + 1
    if p == 2.0:
        return [_means(others, reports, n) for others, reports in blocks]
    if math.isinf(p):
        return [_midranges(np.minimum(r, others[0]), np.maximum(r, others[-1])) for others, r in blocks]
    ends = [0]
    for _, reports in blocks:
        ends.append(ends[-1] + reports.size)
    cols = np.empty((n, ends[-1]))
    for (others, reports), start, stop in zip(blocks, ends, ends[1:]):
        cols[:-1, start:stop] = np.reshape(others, (-1, 1))
        cols[-1, start:stop] = reports
    y = _bisect_columns(cols, None, p)
    return [y[start:stop] for start, stop in zip(ends, ends[1:])]


def optimal_cost(profile: LocationProfile, p: float) -> float:
    """Minimum achievable L_p social cost on the profile."""
    return optimal_location(profile, p).cost


def _solve_row(points: list, p: float) -> float:
    """Minimizer of sum_j |y - x_j|^p over one unweighted row, 1 < p < inf.

    The pure-Python kernel of the solve in the module docstring; same steps
    and certificate as `_bisect_rows`. At each iterate it takes D(t) / m^e
    and D'(t) / m^e, m the peak distance; at p = 3, |d| ** 1.0 is |d|.
    """
    lo, hi = min(points), max(points)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    if not half > 0.0:
        return lo
    zs = [(x - center) / half for x in points]
    zlo, zhi = min(zs), max(zs)
    e = p - 1.0
    g_exp = e - 1.0
    tol = BRACKET_TOL
    a, b = zlo, zhi
    t = est = _sum_in_order(zs) / len(zs)
    dx_old = b - a
    for _ in range(_MAX_NEWTON):
        m = max(t - zlo, zhi - t)
        s0 = s1 = 0.0
        try:
            if g_exp == 1.0:
                for z in zs:
                    d = (t - z) / m
                    g = abs(d)
                    s0 += g
                    s1 += g * d
            else:
                for z in zs:
                    d = (t - z) / m
                    g = abs(d) ** g_exp
                    s0 += g
                    s1 += g * d
            f, df = s1, e * s0 / m
        except (OverflowError, ZeroDivisionError):
            # p < 2 with t on, or a subnormal away from, a data point: D' = inf
            f, df = _sum_in_order(math.copysign(abs((t - z) / m) ** e, t - z) for z in zs), math.inf
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
            # converged: probe the still-open side of the bracket
            t = est + 0.5 * tol if b - est > tol else est - 0.5 * tol
    return min(max(center + half * est, lo), hi)


def _bisect_rows(points: np.ndarray, weights, p: float) -> np.ndarray:
    """Row-wise minimizer of sum_j w_j |y - x_j|^p for 1 < p < inf.

    The numpy kernel of the scaled, safeguarded Newton solve in the module
    docstring, for a (B, n) batch; weights is None or broadcasts against
    points. Each returned point is certified: the derivative changes sign
    within BRACKET_TOL half-spans of it, and it lies in [row min, row max].
    Rows still uncertified after _MAX_NEWTON steps keep their last estimate.
    The points are copied, transposed, into a C-ordered (n, B) array and
    solved by `_bisect_columns`.
    """
    # points run down the columns, so per-row reductions add contiguous vectors
    cols = np.array(np.asarray(points, dtype=float).T, order="C")
    return _bisect_columns(cols, weights, p)


def _bisect_columns(cols: np.ndarray, weights, p: float) -> np.ndarray:
    """`_bisect_rows` for the batch given as the columns of a C-ordered
    (n, B) array, which it overwrites; weights broadcasts against (B, n).

    Each call allocates its own arrays, so calls share no state. Every
    (n, B) array is C-ordered with B >= 2 (numpy sums a lone column
    pairwise from n = 8 on, so a batch of one is solved as two copies), so
    a column sum adds its n terms in order, and every other step is
    elementwise: no column's result depends on the rest of the batch.
    """
    if cols.shape[1] == 1:
        return _bisect_columns(np.repeat(cols, 2, axis=1), weights, p)[:1]
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    live = half > 0.0
    out = center.copy()
    w = None
    if weights is not None:
        w = np.array(np.broadcast_to(np.asarray(weights, dtype=float), cols.shape[::-1]).T, order="C")
    if not live.all():
        if live.any():
            out[live] = _bisect_rows(cols[:, live].T, None if w is None else w[:, live].T, p)
        return np.clip(out, lo, hi)
    cols -= center
    cols /= half
    t = _newton_rows(cols, w, p - 1.0)
    return np.clip(center + half * t, lo, hi)


def _rows_slopes(z, w, t, e, zlo, zhi, d, g):
    # (D(t) / m^e, D'(t) / m^e) per scaled row (a column of z), m the peak
    # distance; d and g are scratch arrays shaped like z
    m = np.maximum(t - zlo, zhi - t)
    np.subtract(t, z, out=d)
    d /= m
    np.abs(d, out=g)
    with np.errstate(divide="ignore", invalid="ignore"):
        g **= e - 1.0
        d *= g
    if e < 1.0:
        # p < 2 on a data point: D' is infinite and the term of D is zero
        np.copyto(d, 0.0, where=g == np.inf)
    if w is not None:
        g *= w
        d *= w
    return d.sum(axis=0), e * g.sum(axis=0) / m


def _newton_rows(z: np.ndarray, w, e: float) -> np.ndarray:
    # the scaled solve of `_bisect_columns` on the columns of z; the two
    # (n, B) temporaries of a step are views of buffers allocated once here
    flat_d, flat_g = np.empty(z.size), np.empty(z.size)
    d, g = flat_d.reshape(z.shape), flat_g.reshape(z.shape)
    if w is None:
        zlo, zhi, t = z.min(axis=0), z.max(axis=0), z.mean(axis=0)
    else:
        # the peak and the bracket come from the points that carry weight
        carried = w > 0.0
        d.fill(np.inf)
        np.copyto(d, z, where=carried)
        zlo = d.min(axis=0)
        d.fill(-np.inf)
        np.copyto(d, z, where=carried)
        zhi = d.max(axis=0)
        t = np.multiply(z, w, out=d).sum(axis=0)
        t /= w.sum(axis=0)
    tol = BRACKET_TOL
    out = np.empty(t.size)
    rows = np.arange(t.size)
    pending = np.ones(t.size, dtype=bool)
    a, b, est, dx_old = zlo, zhi, t, zhi - zlo
    f, df = _rows_slopes(z, w, t, e, zlo, zhi, d, g)
    for _ in range(_MAX_NEWTON):
        a = np.where(f <= 0.0, t, a)
        b = np.where(f >= 0.0, t, b)
        done = pending & (est - a <= tol) & (b - est <= tol)
        if done.any():
            out[rows[done]] = est[done]
            pending &= ~done
            left = np.count_nonzero(pending)
            if not left:
                return out
            if 2 * left <= pending.size and pending.size > 2:
                # Cut the batch to its pending rows, padded with one
                # certified row that iterates harmlessly when only one is
                # left, so it stays two columns wide (see `_bisect_columns`).
                # np.take keeps z and w C-ordered, where z[:, keep] is
                # F-ordered and every step would stride; d and g view the
                # heads of their buffers, C-ordered too.
                keep = np.flatnonzero(pending)
                if left == 1:
                    keep = np.append(keep, np.argmin(pending))
                rows, zlo, zhi, a, b, t, f, df, dx_old = (x[keep] for x in (rows, zlo, zhi, a, b, t, f, df, dx_old))
                z = np.take(z, keep, axis=1)
                w = None if w is None else np.take(w, keep, axis=1)
                pending = pending[keep]
                d, g = (x[: z.size].reshape(z.shape) for x in (flat_d, flat_g))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / df
            trial = t - step
            newton = np.isfinite(df) & (trial >= a) & (trial <= b) & (np.abs(2.0 * f) <= np.abs(dx_old * df))
        # dx, the step taken, becomes dx_old: the Newton step or half the bracket
        dx_old = np.where(newton, step, (b - a) * 0.5)
        est = np.where(newton, trial, a + dx_old)
        # converged rows probe the still-open side of their bracket
        probe = np.where(b - est > tol, est + 0.5 * tol, est - 0.5 * tol)
        t = np.where(np.abs(dx_old) < tol, probe, est)
        f, df = _rows_slopes(z, w, t, e, zlo, zhi, d, g)
    out[rows[pending]] = est[pending]
    return out


def smallest_positive_root(f, scan_step: float, max_bound: float, tol: float = ROOT_TOL) -> float:
    """Leftmost sign change of f on (0, max_bound], by scan plus bisection.

    Requires f(0) < 0 and f continuous. The scan visits t = step, 2*step,
    ... (the last point capped at max_bound exactly) and brackets the first
    t with f(t) >= 0; bisection then shrinks the bracket below
    tol * (1 + root). The result is positive: a bracket [0, 5e-324] returns
    5e-324. Sign changes finer than the scan resolution are invisible by
    design. Raises NoRootFound if f stays negative over the whole range so
    callers can enlarge max_bound and rescan, and ValueError unless
    max_bound is positive and finite and tol is finite and >= 0.
    """
    if not scan_step > 0.0:
        raise ValueError(f"scan_step must be positive, got {scan_step!r}")
    if not (max_bound > 0.0 and math.isfinite(max_bound)):
        raise ValueError(f"max_bound must be positive and finite, got {max_bound!r}")
    _check_tol("tol", tol)
    value0 = float(f(0.0))
    if not value0 < 0.0:
        raise ValueError(f"f(0) must be negative, got {value0!r}")
    left = 0.0
    i = 1
    while left < max_bound:
        t = min(i * scan_step, max_bound)
        if float(f(t)) >= 0.0:
            g = lambda mid: np.array([float(f(float(mid[0])))])
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, silently, as in Python floats
                return float(_refine_rank_brackets(g, np.array([left]), np.array([t]), tol)[0])
        left = t
        i += 1
    raise NoRootFound(
        f"no sign change in (0, {max_bound!r}] at scan step {scan_step!r}"
    )


def _validate_rank_query(j: int, k: int, p: int) -> tuple[int, int, int]:
    for name, value in (("j", j), ("k", k), ("p", p)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            if isinstance(value, float) and float(value).is_integer():
                continue
            raise TypeError(f"{name} must be an integer, got {value!r}")
    j, k, p = int(j), int(k), int(p)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= j <= 2 * k:
        raise ValueError(f"rank j must lie in [1, {2 * k}], got {j}")
    if p < 3:
        raise ValueError(f"rank roots need integer p >= 3, got {p}")
    return j, k, p


def _rank_scan_step(k: int, p: int) -> float:
    return max(1e-3, k ** (1.0 / (p - 1)) / 1e3)


def adversarial_root(j: int, k: int, p: int, tol: float = ROOT_TOL) -> float:
    """Smallest positive root a_j of the rank root function for 2k agents.

    Ranks above k fold symmetrically: a_j = a_(2k-j+1). The one-rank case of
    `adversarial_roots`, bit for bit: the same grid cell, the same bisection.
    Raises NoRootFound when the root cannot be bracketed in double precision,
    and ValueError unless tol is finite and >= 0.
    """
    j, k, p = _validate_rank_query(j, k, p)
    if j > k:
        j = 2 * k - j + 1
    return float(_rank_roots(np.array([float(j)]), k, p, tol)[0])


def _powi(x: np.ndarray, e: int) -> np.ndarray:
    """x**e for integer e >= 1 by repeated squaring."""
    result = None
    base = x
    while e:
        if e & 1:
            result = base.copy() if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def adversarial_roots(k: int, p: int, tol: float = ROOT_TOL) -> np.ndarray:
    """All rank roots a_1..a_k, each equal to adversarial_root(j, k, p, tol).

    Each rank's first grid cell with a sign change is found by bisection
    over the grid index, then shrunk below tol * (1 + root) by bisection;
    see the module docstring. The result is read-only. Raises NoRootFound
    when a rank's root cannot be bracketed in double precision, and
    ValueError unless tol is finite and >= 0.
    """
    _, k, p = _validate_rank_query(1, k, p)
    return _rank_roots(np.arange(1, k + 1, dtype=float), k, p, tol)


def _rank_roots(js: np.ndarray, k: int, p: int, tol: float) -> np.ndarray:
    """The rank-root kernel: the root a_j of g_j for each rank j in js."""
    _check_tol("tol", tol)
    e = p - 1
    blocks = k - js + 1.0
    shifted = js - 1.0
    first = np.flatnonzero(shifted == 0.0)

    def g(a):
        # rank 1's term is 0 * 1^e, not 0 * (1 + a)^e (NaN past overflow); x - 0.0 == x
        base = 1.0 + a
        base[first] = 1.0
        return js * _powi(a, e) - blocks - shifted * _powi(base, e)

    step = _rank_scan_step(k, p)
    with np.errstate(over="ignore", invalid="ignore"):
        # 2^e * k is inf long before e reaches 2048, and ldexp takes a C long
        bound = np.full(js.shape, np.ldexp(float(k), min(e, 2048)))
        # Bisect the grid index i, grid point min(i * step, bound), keeping
        # g(lo) < 0 and "g(hi) not negative". NaN (inf - inf past overflow)
        # counts as not negative, which keeps the predicate monotone; a cell
        # with a non-finite end is refused below. Indices stop at 2^62, so
        # lo + hi fits in int64.
        lo = np.zeros(js.shape, dtype=np.int64)
        hi = np.minimum(np.ceil(bound / step) + 1.0, 2.0**62).astype(np.int64)
        while True:
            live = hi - lo > 1
            if not live.any():
                break
            mid = (lo + hi) // 2
            up = ~(g(np.minimum(mid * step, bound)) < 0.0)
            hi = np.where(live & up, mid, hi)
            lo = np.where(live & ~up, mid, lo)
        a = np.minimum(lo * step, bound)
        b = np.minimum(hi * step, bound)
        ga, gb = g(a), g(b)
    bad = ~(np.isfinite(ga) & np.isfinite(gb) & (ga < 0.0) & (gb >= 0.0))
    if bad.any():
        j = int(js[bad][0])
        raise NoRootFound(
            f"rank root j={j}, k={k}, p={p} has no finite bracket near {float(b[bad][0])!r}: "
            "the powers overflow double precision"
        )
    return _refine_rank_brackets(g, a, b, tol)


def _refine_rank_brackets(g, lo, hi, tol: float) -> np.ndarray:
    # ends once no bracket has a double strictly inside it: at most about 2,100 halvings
    while True:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        active = ((hi - lo) > tol * (1.0 + hi)) & (mid > lo) & (mid < hi)
        if not active.any():
            break
        negative = g(mid) < 0.0
        lo = np.where(active & negative, mid, lo)
        hi = np.where(active & ~negative, mid, hi)
    mid = 0.5 * lo + 0.5 * hi
    # the midpoint of [0, 5e-324] rounds to 0, which is not a positive root
    roots = np.where(mid > 0.0, mid, hi)
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=64)
def _cached_adversarial_roots(k: int, p: int) -> tuple[float, ...]:
    return tuple(adversarial_roots(k, p).tolist())
