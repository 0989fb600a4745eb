"""Machine-speed probe that makes timings comparable on a shared, noisy host.

On a host whose other tenants come and go, the same pass of the same code
can take twice as long from one minute to the next, while the process is
never descheduled: the CPU itself runs slower.  A timer signal therefore
runs a fixed reference loop every ``INTERVAL`` seconds, in the benchmark
process, between the program's own bytecodes.  An interval of
program time is reported in reference seconds::

    (wall time - time spent in the probe) * REFERENCE_LOOP_S / mean loop time

where the mean is over the probe samples taken inside the interval (the
last few samples when the interval is too short to hold one).  The loop
belongs to the benchmark, so a change to the program cannot move it.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.01
# the loop's time on an idle shared 2-core x86-64 VM; sets the scale of a reference second
REFERENCE_LOOP_S = 2.2e-4
_RECENT = 5


class _Mask:
    __slots__ = ("n", "bits")

    def __init__(self, n, bits):
        self.n = n
        self.bits = bits

    def subset_of(self, other):
        return (self.bits & ~other.bits) == 0


_TABLE = {i: float(i) for i in range(64)}


def _step(a, b, k):
    return abs(a - b) / (1.0 + (k & 15))


def reference_loop(n=400):
    """Dict lookups, float arithmetic, calls and small objects, like the checkers."""
    acc = 0.0
    hits = 0
    prev = _Mask(16, 5)
    for k in range(n):
        a = _TABLE[k & 63]
        b = _TABLE[(k * 7) & 63]
        if isinstance(a, float) and a != b:
            acc += _step(a, b, k)
        m = _Mask(16, k & 0xFFFF)
        if m.subset_of(prev):
            hits += 1
        prev = m
    return acc + hits


class SpeedProbe:
    """Context manager sampling the reference loop from SIGALRM."""

    def __init__(self):
        self.samples = []   # loop seconds, in order
        self.spent = 0.0    # total seconds inside the handler
        self._old = None

    def _sample(self, *_):
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        for _ in range(_RECENT):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        """``(perf_counter, probe seconds so far, samples so far)``, for ``reference_seconds``."""
        return time.perf_counter(), self.spent, len(self.samples)

    def reference_seconds(self, begin, end):
        (t0, spent0, i0), (t1, spent1, i1) = begin, end
        inside = self.samples[i0:i1] or self.samples[max(i0 - _RECENT, 0):i0]
        own = (t1 - t0) - (spent1 - spent0)
        return own * REFERENCE_LOOP_S / statistics.mean(inside)
