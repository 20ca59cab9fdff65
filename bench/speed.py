"""Samples the machine's speed while a run measures, to scale op times to it.

The shared machines the benchmark runs on change speed by tens of percent
over seconds to minutes, and all code in the process slows together.  A
timer interrupts the run every ``PERIOD_S`` and times a short fixed kernel
of interpreted and numpy work that does not touch isolab.  An op's time is
then scaled by ``REFERENCE_S`` over the kernel's median time during the op
(or, for a short op, around it): the result is the op's time on a machine
where the kernel takes ``REFERENCE_S``.  A change to isolab moves the scaled
times as it moves the wall times, while the machine's drift mostly cancels.
The kernel's own time is taken out of the op times.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import List

import numpy as np

PERIOD_S = 0.1
# A fixed constant near the kernel's time on the 2-core VM the reference
# figures in README.md come from (1.0 to 1.3 ms), so that scaled times read
# as seconds there.
REFERENCE_S = 1.2e-3
# A span with fewer samples inside it is scaled by this many samples nearest
# to its middle (about a second of the run).
NEAREST = 9

_XS = np.linspace(-3.0, 3.0, 256)


def kernel() -> float:
    """Fixed work: an interpreted loop of float math and small numpy calls."""
    s = 0.0
    for i in range(3000):
        s += math.exp(-1e-3 * i) * math.sin(i)
    for k in range(20):
        s += float(np.sum(np.exp(-0.5 * (_XS - 1e-3 * k) ** 2)))
    return s


class SpeedSampler:
    """Times ``kernel`` every ``PERIOD_S`` of wall time, from a SIGALRM timer."""

    def __init__(self) -> None:
        self.mids: List[float] = []  # perf_counter at the middle of each sample
        self.times: List[float] = []  # kernel time of each sample
        self.spent = 0.0  # total time spent sampling

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time within [t0, t1], or over the NEAREST samples
        around its middle when fewer fall inside."""
        lo = bisect.bisect_left(self.mids, t0)
        hi = bisect.bisect_right(self.mids, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.mids, 0.5 * (t0 + t1))
            lo = max(0, min(mid - NEAREST // 2, len(self.mids) - NEAREST))
            hi = min(len(self.mids), lo + NEAREST)
        return statistics.median(self.times[lo:hi])

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds``, measured over [t0, t1], at the reference speed."""
        return seconds * REFERENCE_S / self.kernel_s(t0, t1)
