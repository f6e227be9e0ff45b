"""The machine's current speed, read from a fixed standard-library workload.

The benchmark's host is shared.  The reference below took either 1.6 to
2 ms or about 3.3 ms, switching between the two every second or so, and
qscheme calls slowed down with it.  The fastest of several repeats cannot
remove a slow stretch inside a call that takes seconds.  So while the
benchmark runs, `Sampler` times the reference from a timer signal every
PERIOD_S of wall time, and a timed call is scaled by how slow the reference
ran during it.
The reference uses no qscheme code, so a change to qscheme cannot move it.
It does what qscheme does most: products and sums of `Fraction`s with
growing numerators and denominators.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# The fastest time of `reference()` seen on the machine the benchmark was
# defined on (Xeon at 2.1 GHz, Python 3.11).  Scaled times read as the time
# the call would take there when that machine is at its fastest.
REFERENCE_S = 0.0016

# The reference costs about 4% of the wall time at this period; a part of
# 20 ms, the shortest the workloads time, is never further than half a
# period from a sample.
PERIOD_S = 0.05

_FACTORS = [Fraction(3 * i + 1, 2 * i + 5) for i in range(24)]


def reference() -> list[Fraction]:
    """Square a fixed polynomial of degree 23 with `Fraction` coefficients."""
    out = [Fraction(0)] * (2 * len(_FACTORS) - 1)
    for i, a in enumerate(_FACTORS):
        for j, b in enumerate(_FACTORS):
            out[i + j] += a * b
    return out


def reference_s(samples: int = 1) -> float:
    """The fastest of `samples` timed calls of `reference()`, in seconds."""
    best = float("inf")
    for _ in range(samples):
        start = perf_counter()
        reference()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, reference_seconds: float) -> float:
    """`seconds` measured while `reference()` took `reference_seconds`,
    scaled to the speed at which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_seconds


class Sampler:
    """Times `reference()` every PERIOD_S of wall time while running.

    The samples are taken in a SIGALRM handler, between two bytecodes of
    whatever the main thread is running; `spent_s` is their total time, for
    callers to take out of their own timings.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.reference_s: list[float] = []
        self.spent_s = 0.0

    def _sample(self, *_) -> None:
        start = perf_counter()
        reference()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.reference_s.append(end - start)
        self.spent_s += end - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float, seconds: float) -> float:
        """`seconds` of work done between the perf_counter readings `start`
        and `end`, scaled by the samples taken in between, or by the ones
        just before and just after when none was."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        during = self.reference_s[lo:hi] or self.reference_s[max(0, lo - 1) : lo + 1]
        return seconds * statistics.fmean(REFERENCE_S / r for r in during)
