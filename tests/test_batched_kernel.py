"""The batched optimum kernel against its allocating reference.

`_bisect_columns` writes every Newton step into two scratch arrays that
each call allocates once, and cuts its batch to the pending rows. The reference
below is the same solve written with fresh numpy temporaries at every step
and a batch cut of its own; every arithmetic step is the same, so the two
must agree bit for bit. The reference adds each column's terms in row order,
the order the kernel keeps in a batch of any size, so no column's result
depends on the rest of its batch.
"""

import sys
import threading

import numpy as np
import pytest

from lpfacility.optimizer import _MAX_NEWTON, BRACKET_TOL, _bisect_columns


def solve(points, p):
    # the kernel on a (B, n) batch: its rows become the columns it solves
    return _bisect_columns(np.array(np.asarray(points, dtype=float).T, order="C"), p)


def reference_bisect_rows(points, p):
    cols = np.array(np.asarray(points, dtype=float).T, order="C")
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    live = half > 0.0
    out = center.copy()
    if not live.all():
        if live.any():
            out[live] = reference_bisect_rows(cols[:, live].T, p)
        return np.clip(out, lo, hi)
    cols -= center
    cols /= half
    t = reference_newton_rows(cols, p - 1.0)
    return np.clip(center + half * t, lo, hi)


def column_sums(x):
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def reference_rows_slopes(z, t, e, zlo, zhi):
    m = np.maximum(t - zlo, zhi - t)
    d = t - z
    d /= m
    g = np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        g **= e - 1.0
        d *= g
    if e < 1.0:
        d[g == np.inf] = 0.0
    return column_sums(d), e * column_sums(g) / m


def reference_newton_rows(z, e):
    zlo, zhi = z.min(axis=0), z.max(axis=0)
    t = column_sums(z) / z.shape[0]
    tol = BRACKET_TOL
    out = np.empty(z.shape[1])
    rows = np.arange(z.shape[1])
    pending = np.ones(z.shape[1], dtype=bool)
    a, b, est = zlo, zhi, t
    dx_old = b - a
    f, df = reference_rows_slopes(z, t, e, zlo, zhi)
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
            if 2 * left <= pending.size:
                size = pending.size // 2
                while 2 * left <= size:
                    size //= 2
                keep = np.concatenate([np.flatnonzero(pending), np.flatnonzero(~pending)[: size - left]])
                rows, z, zlo, zhi = rows[keep], z[:, keep], zlo[keep], zhi[keep]
                a, b, t, f, df, dx_old = a[keep], b[keep], t[keep], f[keep], df[keep], dx_old[keep]
                pending = pending[keep]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / df
            newton_t = t - step
            newton = (
                np.isfinite(df)
                & (newton_t >= a)
                & (newton_t <= b)
                & (np.abs(2.0 * f) <= np.abs(dx_old * df))
            )
        dx = np.where(newton, step, 0.5 * (b - a))
        est = np.where(newton, newton_t, a + 0.5 * (b - a))
        dx_old = dx
        probe = np.where(b - est > tol, est + 0.5 * tol, est - 0.5 * tol)
        t = np.where(np.abs(dx) < tol, probe, est)
        f, df = reference_rows_slopes(z, t, e, zlo, zhi)
    out[rows[pending]] = est[pending]
    return out


KERNEL_P = [1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0, 30.0]
BATCHES = [1, 2, 3, 4060]


def batch(rng, size, n):
    """Rows over many scales, every fifth with zero span (the dead rows the
    kernel sets aside), some with tied points."""
    points = rng.uniform(-1.0, 1.0, size=(size, n)) * 10.0 ** rng.integers(-6, 6, size=(size, 1))
    points[4::5] = points[4::5, :1]
    points[1::7, 1] = points[1::7, 0]
    return points


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("p", KERNEL_P)
def test_the_workspace_kernel_matches_the_allocating_reference_bit_for_bit(p):
    rng = np.random.default_rng(int(p * 10))
    for n in range(2, 13):
        for size in BATCHES:
            points = batch(rng, size, n)
            got = solve(points, p)
            want = reference_bisect_rows(points, p)
            assert np.array_equal(bits(got), bits(want)), (n, size, np.flatnonzero(got != want)[:5])


@pytest.mark.parametrize("p", KERNEL_P)
def test_a_column_of_a_batch_solves_as_it_does_alone(p):
    # every row of a 4,060-row batch keeps its bits in a batch of one or in
    # a smaller batch of other rows; all 4,060 alone would take minutes
    rng = np.random.default_rng(int(p * 10) + 100)
    for n in range(2, 13):
        points = batch(rng, 4060, n)
        whole = bits(solve(points, p))
        order = rng.permutation(4060)
        cuts = np.cumsum(np.concatenate([np.ones(8, dtype=int), rng.integers(2, 1200, size=8)]))
        for rows in np.split(order, cuts[cuts < 4060]):
            got = bits(solve(points[rows], p))
            assert np.array_equal(got, whole[rows]), (n, rows[got != whole[rows]][:5])


def test_back_to_back_calls_of_other_shapes_do_not_leak_into_each_other():
    rng = np.random.default_rng(11)
    small = batch(rng, 3, 9)
    large = batch(rng, 4060, 5)
    wide = batch(rng, 700, 12)
    first = solve(small, 3.0)
    kept = first.copy()
    sequence = [(large, 1.5), (small, 3.0), (wide, 5.0), (large, 1.5)]
    results = [solve(points, p) for points, p in sequence]
    # a returned array is the caller's: later calls do not write into it
    assert np.array_equal(bits(first), bits(kept))
    for (points, p), got in zip(sequence, results):
        assert np.array_equal(bits(got), bits(reference_bisect_rows(points, p)))


def test_threads_keep_their_own_workspace():
    rng = np.random.default_rng(13)
    jobs = [(batch(rng, size, n), p) for size, n, p in [(2000, 5, 1.5), (900, 9, 3.0), (3000, 3, 5.0), (50, 12, 8.0)]]
    wanted = [bits(reference_bisect_rows(points, p)) for points, p in jobs]
    mismatches = []

    def work(job, want):
        # a shared workspace shows as wrong bits or as a shape error mid-solve
        try:
            for _ in range(5):
                if not np.array_equal(bits(solve(*job)), want):
                    mismatches.append(job[0].shape)
        except Exception as exc:
            mismatches.append(repr(exc))

    threads = [threading.Thread(target=work, args=(job, want)) for job, want in zip(jobs * 2, wanted * 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
