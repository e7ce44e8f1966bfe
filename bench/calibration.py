"""Host-speed calibration for the benchmark's timings.

The host this benchmark runs on is shared: its speed drifts by up to half
over a few minutes, and a verdict's fastest repeat drifts with it. Library
calls of one kind, timed side by side, keep their ratio to within a few
percent through such drifts. So each cycle of a workload also times a fixed
kernel that does not use the library, and every verdict time is scaled by
the kernel's quiet-host time over its fastest time in the same cycle. The
scaled figures are seconds on a host where the kernel runs at its quiet
speed; a change to the library moves them, a change in the host's load
mostly does not.

Load on the host slows numpy's batched arithmetic and the interpreter's
per-call overhead by different factors, so there are two kernels, and each
workload is scaled by the one that resembles its hot path: `batched` for the
optimum's row bisection (sp-opt) and the rank-root sweep (certificate),
`dispatch` for many small-array calls and scalar Python (sp-closed,
ratio-search).
"""

from __future__ import annotations

import time

import numpy as np

_TABLE = np.linspace(-0.5, 1.5, 512)[:, None] + np.linspace(0.0, 1.0, 7)
_SMALL = np.linspace(0.0, 1.0, 9)


def batched() -> float:
    """Bisection on the slope of every row of a (512, 7) table at once."""
    lo = np.full(_TABLE.shape[0], -1.0)
    hi = np.full(_TABLE.shape[0], 3.0)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        d = mid[:, None] - _TABLE
        slope = (np.sign(d) * np.abs(d) ** 2.5).sum(axis=1)
        below = slope < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return float(lo.sum())


def dispatch() -> float:
    """Small-array numpy calls, each followed by a scalar bisection."""
    total = 0.0
    x = _SMALL.copy()
    for i in range(120):
        s = np.sort(x)
        m = float(s[4])
        c = float((np.abs(s - m) ** 3.0).sum())
        x = np.clip(x + 0.001 * (i % 7 - 3), -1.0, 2.0)
        a, b = 0.0, 1.0 + c
        for _ in range(6):
            mid = 0.5 * (a + b)
            if mid * mid < c:
                a = mid
            else:
                b = mid
        total += a + m
    return total


# About each kernel's fastest time on a quiet 2-vCPU x86-64 host, numpy pinned
# to one thread. These only set the scale of the reported seconds; they are
# constants so that runs on different days compare.
QUIET_S = {batched: 1.0e-3, dispatch: 0.9e-3}
KERNEL = {"sp-closed": dispatch, "sp-opt": batched, "ratio-search": dispatch, "certificate": batched}


def quiet_s(workload: str) -> float:
    return QUIET_S[KERNEL[workload]]


def time_kernel(workload: str) -> float:
    """Wall seconds of one call of the workload's kernel."""
    kernel = KERNEL[workload]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
