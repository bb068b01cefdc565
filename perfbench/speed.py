"""Pass times corrected for the speed of a shared CPU core.

On a virtual machine whose cores are shared with other machines, a core
can run at half speed for seconds at a time while a neighbour is busy.
On a 2-vCPU machine of that kind (Python 3.11), raw pass times of one
workload differed by up to 40% between runs.  So a fixed probe, a slice
of the same Fraction arithmetic the workloads do, is timed every
PERIOD_S seconds during a pass from a SIGALRM handler.  Each stretch of
the pass between two probes is scaled by REFERENCE_S over the mean probe
time at its ends, and the probes' own time is left out.  The sum is the
pass time on a core that runs the probe in REFERENCE_S, about an
uncontended core of that machine.

The probe runs with the garbage collector off, so a collection of the
program's heap that its allocations would set off happens later, in the
program's own time.  A probe more than OUTLIER times the pass median is
taken as disturbed (a page fault, a descheduled slice) and its stretches
are scaled by the median instead, so one slow probe cannot shrink the
real work around it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0035
PERIOD_S = 0.2
OUTLIER = 3.0


def probe() -> float:
    """Seconds the fixed probe takes on this core now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 1500):
            s += Fraction(i % 97 + 1, i % 89 + 2)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scaled_time(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Raw and reference-speed seconds between the (start, probe time) samples."""
    median = statistics.median(d for _, d in samples)
    speed = [d if d <= OUTLIER * median else median for _, d in samples]
    raw = scaled = 0.0
    for (ta, da), (tb, _), sa, sb in zip(samples, samples[1:], speed, speed[1:]):
        work = tb - ta - da
        raw += work
        scaled += work * REFERENCE_S * 2 / (sa + sb)
    return raw, scaled


class SpeedClock:
    """Times a `with` block in raw seconds and in reference-speed seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (probe start, probe time)
        self.raw = 0.0
        self.scaled = 0.0

    def _sample(self, *_):
        t = time.perf_counter()
        self.samples.append((t, probe()))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.raw, self.scaled = scaled_time(self.samples)
        return False
