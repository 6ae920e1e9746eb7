"""Correction for the speed of a shared machine.

On a shared host the same interpreter runs the same code up to twice as
fast at one moment as at another, in phases that last seconds.  So each
process of the benchmark samples its own speed while it works: a timer
signal runs a fixed stdlib-only calibration loop every SAMPLE_INTERVAL
seconds on the main thread and records its thread CPU time.  A time is then
reported in reference seconds: the raw time, less the time the samples
took, times REFERENCE_S over the calibration time measured around it.
The calibration code is part of the benchmark, so a change to the
package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

# Calibration time of one sample at reference speed (about its time on a
# 2-vCPU Xeon at 2.1 GHz with Python 3.11.7, in a quiet phase).
REFERENCE_S = 0.0005
SAMPLE_INTERVAL = 0.1


def calibrate():
    """A fixed integer workload of the kind the package runs: repeated
    convolutions of two ten-term vectors of 40-bit integers, reduced mod
    a prime.  Returns its thread CPU seconds."""
    start = thread_time()
    a = [123456789012 + i for i in range(10)]
    b = [987654321098 - 7 * i for i in range(10)]
    for _ in range(36):
        conv = [0] * 19
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        a = [c % 1000000007 for c in conv[:10]]
    return thread_time() - start


class Sampler:
    """Calibration samples taken on a timer while the process works:
    `samples` holds (perf_counter at the sample, calibration seconds) and
    `spent` the wall time the samples took."""

    def __init__(self, interval=SAMPLE_INTERVAL):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def sample(self):
        """Take one sample now; returns its calibration seconds."""
        start = perf_counter()
        c = calibrate()
        self.samples.append((start, c))
        self.spent += perf_counter() - start
        return c

    def _tick(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()
        return False


def factor(samples):
    """Reference seconds per raw second of work over the samples: the
    reference calibration time over the mean measured one.  (A mean of
    the per-sample ratios would let the few fastest samples dominate.)"""
    return REFERENCE_S / statistics.fmean(c for _, c in samples)


def local_factor(samples, start, end, half_width=0.5):
    """Slowness around one interval, from the samples within half_width
    seconds of it (at least the three nearest)."""
    mid = (start + end) / 2
    near = [s for s in samples if start - half_width <= s[0] <= end + half_width]
    if len(near) < 3:
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:3]
    return factor(near)
