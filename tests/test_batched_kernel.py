"""The batched optimum kernel against its allocating reference.

`_bisect_rows` solves in a reused per-thread workspace. The reference
below is the same solve written with fresh numpy temporaries, as the kernel
was before the workspace; every arithmetic step is the same, so the two must
agree bit for bit, column-sum order included.
"""

import sys
import threading

import numpy as np
import pytest

from lpfacility.optimizer import _MAX_NEWTON, BRACKET_TOL, _bisect_rows


def reference_bisect_rows(points, weights, p):
    cols = np.array(np.asarray(points, dtype=float).T, order="C")
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * hi - 0.5 * lo
    live = half > 0.0
    out = center.copy()
    w = None
    if weights is not None:
        w = np.ascontiguousarray(np.broadcast_to(np.asarray(weights, dtype=float), cols.T.shape).T)
    if not live.all():
        if live.any():
            cols, w = cols[:, live], (None if w is None else w[:, live])
            out[live] = reference_bisect_rows(cols.T, None if w is None else w.T, p)
        return np.clip(out, lo, hi)
    cols -= center
    cols /= half
    t = reference_newton_rows(cols, w, p - 1.0)
    return np.clip(center + half * t, lo, hi)


def reference_rows_slopes(z, w, t, e, zlo, zhi):
    m = np.maximum(t - zlo, zhi - t)
    d = t - z
    d /= m
    g = np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        g **= e - 1.0
        d *= g
    if e < 1.0:
        d[g == np.inf] = 0.0
    if w is not None:
        g *= w
        d *= w
    return d.sum(axis=0), e * g.sum(axis=0) / m


def reference_newton_rows(z, w, e):
    if w is None:
        zlo, zhi = z.min(axis=0), z.max(axis=0)
        t = z.mean(axis=0)
    else:
        carried = w > 0.0
        zlo = np.where(carried, z, np.inf).min(axis=0)
        zhi = np.where(carried, z, -np.inf).max(axis=0)
        t = (z * w).sum(axis=0) / w.sum(axis=0)
    tol = BRACKET_TOL
    out = np.empty(z.shape[1])
    rows = np.arange(z.shape[1])
    pending = np.ones(z.shape[1], dtype=bool)
    a, b, est = zlo, zhi, t
    dx_old = b - a
    f, df = reference_rows_slopes(z, w, t, e, zlo, zhi)
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
                # z[:, keep] is F-ordered: from here on the column sums run pairwise
                rows, z, zlo, zhi = rows[keep], z[:, keep], zlo[keep], zhi[keep]
                w = None if w is None else w[:, keep]
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
        f, df = reference_rows_slopes(z, w, t, e, zlo, zhi)
    out[rows[pending]] = est[pending]
    return out


KERNEL_P = [1.1, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0, 30.0]
BATCHES = [1, 2, 3, 4060]


def batch(rng, size, n, weighted):
    """Rows over many scales, every fifth with zero span (the dead rows the
    kernel sets aside), some with tied points; weights, when asked for, are
    small integers with zeros, the first and last point always carried."""
    points = rng.uniform(-1.0, 1.0, size=(size, n)) * 10.0 ** rng.integers(-6, 6, size=(size, 1))
    points[4::5] = points[4::5, :1]
    points[1::7, 1] = points[1::7, 0]
    if not weighted:
        return points, None
    weights = rng.integers(0, 4, size=(size, n)).astype(float)
    weights[:, [0, -1]] += 1.0
    return points, weights


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("p", KERNEL_P)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_the_workspace_kernel_matches_the_allocating_reference_bit_for_bit(p, weighted):
    rng = np.random.default_rng(int(p * 10) + weighted)
    for n in range(2, 13):
        for size in BATCHES:
            points, weights = batch(rng, size, n, weighted)
            got = _bisect_rows(points, weights, p)
            want = reference_bisect_rows(points, weights, p)
            assert np.array_equal(bits(got), bits(want)), (n, size, np.flatnonzero(got != want)[:5])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_broadcast_row_weights_match_the_reference(p):
    # the certificate's shape: one weight row broadcast down the batch
    rng = np.random.default_rng(7)
    points, _ = batch(rng, 4060, 4, False)
    weights = np.array([1.0, 0.0, 3.0, 2.0])
    assert np.array_equal(bits(_bisect_rows(points, weights, p)), bits(reference_bisect_rows(points, weights, p)))


def test_back_to_back_calls_of_other_shapes_do_not_leak_into_each_other():
    rng = np.random.default_rng(11)
    small, _ = batch(rng, 3, 9, False)
    large, large_w = batch(rng, 4060, 5, True)
    wide, _ = batch(rng, 700, 12, False)
    first = _bisect_rows(small, None, 3.0)
    kept = first.copy()
    sequence = [(large, large_w, 1.5), (small, None, 3.0), (wide, None, 5.0), (large, large_w, 1.5)]
    results = [_bisect_rows(points, weights, p) for points, weights, p in sequence]
    # a returned array is the caller's: later calls do not write into it
    assert np.array_equal(bits(first), bits(kept))
    for (points, weights, p), got in zip(sequence, results):
        assert np.array_equal(bits(got), bits(reference_bisect_rows(points, weights, p)))


def test_threads_keep_their_own_workspace():
    rng = np.random.default_rng(13)
    jobs = [batch(rng, size, n, n % 2 == 0) + (p,) for size, n, p in [(2000, 5, 1.5), (900, 9, 3.0), (3000, 3, 5.0), (50, 12, 8.0)]]
    wanted = [bits(reference_bisect_rows(points, weights, p)) for points, weights, p in jobs]
    mismatches = []

    def work(job, want):
        # a shared workspace shows as wrong bits or as a shape error mid-solve
        try:
            for _ in range(5):
                if not np.array_equal(bits(_bisect_rows(*job)), want):
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
