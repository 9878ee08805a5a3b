"""Machine-speed calibration for timings on a host whose speed drifts.

On a shared host the same single-threaded code can run at half speed for
seconds at a time (the CPU is not stolen: process time keeps pace with wall
time, the core simply runs slower).  Raw wall-clock timings then spread far
wider between runs than any change worth detecting.  :class:`Clock` samples
the host's current speed while the workload runs: a ``SIGALRM`` timer fires
every ``PERIOD_S`` and the handler times a fixed kernel of the same kind of
work the library does (Python loops driving ``scipy.special`` over small
and mid-sized numpy arrays).  A measured interval is then reported as

    normalized = (raw - time spent in the handler) * REF_KERNEL_S / kernel time nearby

i.e. in seconds of a host running the kernel in ``REF_KERNEL_S``.  The
kernel never calls needle_iso, so a change to the library cannot move it.
Python runs signal handlers between bytecodes of the main thread, so the
kernel never interleaves with a numpy or scipy call in progress.
"""

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.special import betainc

PERIOD_S = 0.02
WINDOW_S = 0.05  # samples this close to an interval also describe its speed
REF_KERNEL_S = 300e-6  # kernel time of the host the normalized figures refer to

_SMALL = np.linspace(0.05, 0.95, 8)
_LARGE = np.linspace(0.01, 0.99, 128)


def _bisect(targets, steps):
    lo, hi = np.zeros(targets.size), np.ones(targets.size)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = betainc(2.5, 1.5, mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


def kernel():
    """Fixed work: incomplete-beta bisection on 8 points (call-bound) and on 128 (compute-bound)."""
    return _bisect(_SMALL, 8), _bisect(_LARGE, 2)


def typical(kernel_s):
    """Typical kernel time of a window: the median of a few samples, else the
    mean of the middle 80%, which weighs slow and fast stretches of a long
    interval by their duration yet ignores a sample an interrupt inflated."""
    k = sorted(kernel_s)
    cut = len(k) // 10
    return statistics.mean(k[cut:len(k) - cut]) if cut else statistics.median(k)


class Clock:
    """Samples kernel time every ``PERIOD_S`` while started; normalizes intervals."""

    def __init__(self):
        self.stamps = []  # handler start times, increasing
        self.kernel_s = []  # kernel time of each sample
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._spent += t1 - t0
        self.stamps.append(t0)
        self.kernel_s.append(t1 - t0)

    def __enter__(self):
        kernel()  # first-call set-up stays out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def spent(self):
        """Seconds spent in the sampler so far; subtract differences from intervals."""
        return self._spent

    def scale(self, t0, t1):
        """Factor turning raw seconds spent in [t0, t1] into normalized seconds."""
        if not self.stamps:
            raise RuntimeError("the clock took no samples")
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if lo == hi:  # no sample near: use the closest one
            i = min(max(lo, 1), len(self.stamps)) - 1
            lo, hi = i, i + 1
        return REF_KERNEL_S / typical(self.kernel_s[lo:hi])

    def normalize(self, t0, t1, spent0, spent1):
        """Normalized length of [t0, t1], given ``spent()`` read at both ends."""
        return ((t1 - t0) - (spent1 - spent0)) * self.scale(t0, t1)

    def speed(self):
        """Host speed over all samples, relative to the reference host."""
        return REF_KERNEL_S / typical(self.kernel_s)
