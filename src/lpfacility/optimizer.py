"""Optimal facility location and the root finding behind lower-bound
certificates.

The social cost y -> (sum_i |x_i - y|^p)^(1/p) is minimized in closed form
for p in {1, 2, inf} (lower median, mean, midrange). Otherwise the minimizer
is the root of the nondecreasing derivative

    D(y) = sum_i w_i sign(y - x_i) |y - x_i|^(p-1),

found by safeguarded Newton steps with D'(y) = (p-1) sum_i w_i |y - x_i|^(p-2).
Each row is first shifted to its midpoint and divided by its half-span, so
every point lies in [-1, 1]; at each iterate the peak distance m is factored
out of D and D' (the way core._lp_norm factors it out of the norm), so every
power in D lies in [0, 1] and the peak's is exactly 1: nothing overflows and
the sign of D survives underflow, for spans up to about 1e308 and p up to
1e6. A bracket [a, b] with D(a) <= 0 <= D(b) is kept throughout. The
Newton step is replaced by bisection when it would leave the bracket, when
D' is not finite (p < 2 on a data point), or when it is more than half the
previous step (the rtsafe rule). A point is returned only once it is
certified: D changes sign within BRACKET_TOL half-spans on either side.

The optimum has two kernels chosen by call shape, each holding the closed
forms once. `_optimum` is pure Python for one row (optimal_location, `run`
and the deviation polish, where numpy's per-call overhead would dominate)
and solves with `_solve_row`. `_optimum_rows` is numpy for a batch of rows
that differ in one report (deviation curves); it reads the closed forms off
the other reports in O(C) and solves with `_bisect_rows`, which also takes
the weighted rows of certificate residuals. `_bisect_rows` writes every
(n, B) array and every per-step B-length array into a per-thread
workspace, `_Workspace`, reused across calls and grown to the largest
batch seen; a thread keeps at most 4 MiB of it between calls. Its views
keep the memory order fresh arrays would have, C before the first
compaction and F after it (as z[:, keep] is), since a column sum adds
sequentially across rows but pairwise down a contiguous column from
n = 8 on: the outputs keep every bit.

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
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import LocationProfile, _check_tol, _rank_window, social_cost, validate_pnorm

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
    always lies in [low, high].
    """
    p = validate_pnorm(p)
    loc = _optimum(profile.sorted_values.tolist(), p)
    return OptResult(loc, social_cost(profile, loc, p), _METHODS.get(p, "derivative_bisection"))


def _optimum(row: list, p: float) -> float:
    """The one-row kernel: minimizer of the L_p cost of a sorted list of
    floats, by the closed forms at p in {1, 2, inf}, else `_solve_row`."""
    n = len(row)
    if p == 1.0:
        return row[(n + 1) // 2 - 1]
    if p == 2.0:
        return math.fsum(row) / n
    if math.isinf(p):
        return 0.5 * (row[0] + row[-1])
    return _solve_row(row, p)


def _optimum_rows(others: list, reports: np.ndarray, p: float) -> np.ndarray:
    """The batched kernel: minimizer of each row others + [r], r in reports,
    for the others sorted ascending. The closed forms read the others'
    summary in O(C); other p solve the (C, n) batch with `_bisect_rows`."""
    n = len(others) + 1
    if p == 1.0:
        return np.clip(reports, *_rank_window(others, (n + 1) // 2))
    if p == 2.0:
        return (math.fsum(others) + reports) / n
    if math.isinf(p):
        return 0.5 * (np.minimum(reports, others[0]) + np.maximum(reports, others[-1]))
    rows = np.empty((reports.size, n))
    rows[:, :-1] = others
    rows[:, -1] = reports
    return _bisect_rows(rows, None, p)


def optimal_cost(profile: LocationProfile, p: float) -> float:
    """Minimum achievable L_p social cost on the profile."""
    return optimal_location(profile, p).cost


def _row_slopes(zs: list, t: float, e: float, m: float) -> tuple[float, float]:
    # D(t) / m^e and D'(t) / m^e for one scaled row, m the peak distance
    s0 = s1 = 0.0
    try:
        for z in zs:
            d = (t - z) / m
            g = abs(d) ** (e - 1.0)
            s0 += g
            s1 += g * d
    except (OverflowError, ZeroDivisionError):
        # p < 2 with t on, or a subnormal away from, a data point: D' = inf
        return sum(math.copysign(abs((t - z) / m) ** e, t - z) for z in zs), math.inf
    return s1, e * s0 / m


def _solve_row(points: list, p: float) -> float:
    """Minimizer of sum_j |y - x_j|^p over one unweighted row, 1 < p < inf.

    The pure-Python kernel of the solve in the module docstring; same steps
    and certificate as `_bisect_rows`.
    """
    lo, hi = min(points), max(points)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    if not half > 0.0:
        return lo
    zs = [(x - center) / half for x in points]
    zlo, zhi = min(zs), max(zs)
    e = p - 1.0
    tol = BRACKET_TOL
    a, b = zlo, zhi
    t = est = sum(zs) / len(zs)
    dx_old = b - a
    f, df = _row_slopes(zs, t, e, max(t - zlo, zhi - t))
    for _ in range(_MAX_NEWTON):
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
        f, df = _row_slopes(zs, t, e, max(t - zlo, zhi - t))
    return min(max(center + half * est, lo), hi)


# A thread keeps at most this many bytes of workspace between calls.
_WORKSPACE_BYTES = 1 << 22


class _Workspace(threading.local):
    """Named flat scratch buffers of `_bisect_rows`, one set per thread.

    Each buffer grows to the largest request seen; `trim` frees the set
    once it holds more than _WORKSPACE_BYTES. Reuse matters because an
    (n, B) temporary of a Newton step can exceed the allocator's mmap
    threshold, and allocated afresh it faults its pages in again.
    """

    def __init__(self):
        self.buffers = {}

    def flat(self, name: str, count: int, dtype=float) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < count:
            buf = self.buffers[name] = np.empty(count, dtype)
        return buf[:count]

    def trim(self) -> None:
        if sum(buf.nbytes for buf in self.buffers.values()) > _WORKSPACE_BYTES:
            self.buffers.clear()


_WORKSPACE = _Workspace()


def _like(z: np.ndarray, name: str, dtype=float) -> np.ndarray:
    # workspace buffer `name` shaped and laid out (C or F order) like z
    n, size = z.shape
    flat = _WORKSPACE.flat(name, n * size, dtype)
    return flat.reshape(n, size) if z.flags.c_contiguous else flat.reshape(size, n).T


def _pack(x: np.ndarray, keep: np.ndarray, own: str, temp: str) -> np.ndarray:
    # x[:, keep], gathered through workspace buffer `temp` into `own` (x's
    # buffer) and F-ordered, as fancy indexing lays it out; np.take fills a
    # C-contiguous out without buffering under mode="clip"
    n, size = x.shape[0], keep.size
    gathered = _WORKSPACE.flat(temp, n * size)
    packed = _WORKSPACE.flat(own, n * size).reshape(size, n)
    if x.flags.c_contiguous:
        np.take(x, keep, axis=1, out=gathered.reshape(n, size), mode="clip")
        np.copyto(packed.T, gathered.reshape(n, size))
    else:
        np.take(x.T, keep, axis=0, out=gathered.reshape(size, n), mode="clip")
        np.copyto(packed, gathered.reshape(size, n))
    return packed.T


def _bisect_rows(points: np.ndarray, weights, p: float) -> np.ndarray:
    """Row-wise minimizer of sum_j w_j |y - x_j|^p for 1 < p < inf.

    The numpy kernel of the scaled, safeguarded Newton solve in the module
    docstring, for a (B, n) batch; weights is None or broadcasts against
    points. Each returned point is certified: the derivative changes sign
    within BRACKET_TOL half-spans of it, and it lies in [row min, row max].
    Rows still uncertified after _MAX_NEWTON steps keep their last estimate.

    Every (n, B) array and every per-step B-length array is a view of the
    calling thread's `_Workspace`, so a call allocates only a few B-length
    arrays and index lists. The views keep the layouts fresh numpy arrays
    would have, which the column sums depend on: the points are C-ordered
    (n, B) until the first compaction and F-ordered after it, like
    z[:, keep], and d and g follow z. Between calls a thread keeps at most
    _WORKSPACE_BYTES (4 MiB) of workspace.
    """
    try:
        # points run down the columns, so per-row reductions add contiguous vectors
        points = np.asarray(points, dtype=float)
        cols = _WORKSPACE.flat("z", points.size).reshape(points.shape[::-1])
        np.copyto(cols, points.T)
        lo = cols.min(axis=0)
        hi = cols.max(axis=0)
        center = 0.5 * lo + 0.5 * hi
        half = 0.5 * hi - 0.5 * lo
        live = half > 0.0
        out = center.copy()
        w = None
        if weights is not None:
            w = _WORKSPACE.flat("w", cols.size).reshape(cols.shape)
            np.copyto(w, np.broadcast_to(np.asarray(weights, dtype=float), points.shape).T)
        if not live.all():
            if live.any():
                cols, w = cols[:, live], (None if w is None else w[:, live])
                out[live] = _bisect_rows(cols.T, None if w is None else w.T, p)
            return np.clip(out, lo, hi)
        cols -= center
        cols /= half
        t = _newton_rows(cols, w, p - 1.0)
        return np.clip(center + half * t, lo, hi)
    finally:
        _WORKSPACE.trim()


def _rows_slopes(z, w, t, e, zlo, zhi, f, df):
    # D(t) / m^e into f and D'(t) / m^e into df per scaled row (a column of
    # z), m the peak distance
    m = np.subtract(t, zlo, out=_WORKSPACE.flat("peak", t.size))
    np.maximum(m, np.subtract(zhi, t, out=_WORKSPACE.flat("peak2", t.size)), out=m)
    d = np.subtract(t, z, out=_like(z, "d"))
    d /= m
    g = np.abs(d, out=_like(z, "g"))
    with np.errstate(divide="ignore", invalid="ignore"):
        g **= e - 1.0
        d *= g
    if e < 1.0:
        # p < 2 on a data point: D' is infinite and the term of D is zero
        np.copyto(d, 0.0, where=np.equal(g, np.inf, out=_like(z, "mask", bool)))
    if w is not None:
        g *= w
        d *= w
    d.sum(axis=0, out=f)
    g.sum(axis=0, out=df)
    df *= e
    df /= m


def _newton_rows(z: np.ndarray, w, e: float) -> np.ndarray:
    # one block of B-length rows: the eight carried through compaction, then
    # five per-step scratch rows, which also hold the compaction's gather
    size = z.shape[1]
    block = _WORKSPACE.flat("rows", 13 * size)
    flags = _WORKSPACE.flat("flags", 4 * size, bool)
    zlo, zhi, a, b, t, f, df, dx_old, est, step, trial, gap, probe = block.reshape(13, size)
    pending, done, newton, test = flags.reshape(4, size)
    if w is None:
        z.min(axis=0, out=zlo)
        z.max(axis=0, out=zhi)
        z.mean(axis=0, out=t)
    else:
        # the peak and the bracket come from the points that carry weight
        carried = np.greater(w, 0.0, out=_like(z, "mask", bool))
        spread = _like(z, "d")
        spread.fill(np.inf)
        np.copyto(spread, z, where=carried)
        spread.min(axis=0, out=zlo)
        spread.fill(-np.inf)
        np.copyto(spread, z, where=carried)
        spread.max(axis=0, out=zhi)
        np.multiply(z, w, out=spread).sum(axis=0, out=t)
        t /= w.sum(axis=0, out=a)
    tol = BRACKET_TOL
    out = np.empty(size)
    rows = np.arange(size)
    pending.fill(True)
    np.copyto(a, zlo)
    np.copyto(b, zhi)
    np.copyto(est, t)
    np.subtract(b, a, out=dx_old)
    _rows_slopes(z, w, t, e, zlo, zhi, f, df)
    for _ in range(_MAX_NEWTON):
        np.copyto(a, t, where=np.less_equal(f, 0.0, out=test))
        np.copyto(b, t, where=np.greater_equal(f, 0.0, out=test))
        np.less_equal(np.subtract(est, a, out=gap), tol, out=done)
        done &= pending
        done &= np.less_equal(np.subtract(b, est, out=gap), tol, out=test)
        if done.any():
            out[rows[done]] = est[done]
            pending ^= done  # done lies inside pending
            left = np.count_nonzero(pending)
            if not left:
                return out
            if 2 * left <= size:
                # Shrink to the batch size halved until pending rows fill
                # half of it, pending rows first; certified filler rows
                # iterate harmlessly and are never written again. Halving
                # keeps the gathers to about log2(B) per call.
                new = size // 2
                while 2 * left <= new:
                    new //= 2
                keep = np.concatenate([np.flatnonzero(pending), np.flatnonzero(~pending)[: new - left]])
                rows = rows[keep]
                z = _pack(z, keep, "z", "d")
                w = None if w is None else _pack(w, keep, "w", "g")
                # 8 * new <= 4 * size: the gather fits in the scratch rows
                gathered = block[8 * size : 8 * (size + new)].reshape(8, new)
                np.take(block[: 8 * size].reshape(8, size), keep, axis=1, out=gathered, mode="clip")
                np.copyto(block[: 8 * new], gathered.reshape(-1))
                size = new
                zlo, zhi, a, b, t, f, df, dx_old, est, step, trial, gap, probe = block[: 13 * size].reshape(13, size)
                pending, done, newton, test = flags[: 4 * size].reshape(4, size)
                pending[:left] = True
                pending[left:] = False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(f, df, out=step)
            np.subtract(t, step, out=trial)
            np.isfinite(df, out=newton)
            newton &= np.greater_equal(trial, a, out=test)
            newton &= np.less_equal(trial, b, out=test)
            np.abs(np.multiply(2.0, f, out=gap), out=gap)
            np.abs(np.multiply(dx_old, df, out=probe), out=probe)
            newton &= np.less_equal(gap, probe, out=test)
        # dx, the step taken, becomes dx_old: the Newton step or half the bracket
        np.multiply(np.subtract(b, a, out=dx_old), 0.5, out=dx_old)
        np.add(a, dx_old, out=est)
        np.copyto(est, trial, where=newton)
        np.copyto(dx_old, step, where=newton)
        # converged rows probe the still-open side of their bracket
        np.subtract(est, 0.5 * tol, out=probe)
        np.add(est, 0.5 * tol, out=probe, where=np.greater(np.subtract(b, est, out=gap), tol, out=test))
        np.copyto(t, est)
        np.copyto(t, probe, where=np.less(np.abs(dx_old, out=gap), tol, out=test))
        _rows_slopes(z, w, t, e, zlo, zhi, f, df)
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
        bound = np.full(js.shape, np.ldexp(float(k), e))
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
