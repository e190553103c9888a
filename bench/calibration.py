"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core reference box the speed of one core drifts by up to
1.7x within seconds (a fixed pure-Python loop, timed back to back, reads
anywhere from 0.20 to 0.32 s), and wall-clock medians of two runs of the
same code and seed differ by up to 35 %.  So every timed span is bracketed
by a fixed calibration loop that uses no fwlab code, and the benchmark
reports the span rescaled to the loop's nominal time: seconds at the
reference speed.
A change to fwlab leaves the loop alone, so gains and losses still show.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a round figure near the median time of calibrate() on the reference box
# (2 cores, Python 3.11.7, numpy 2.4.6: 0.046 s interleaved with doubling
# units over 110 s, 0.053 s over 60 back-to-back calls), so rescaled times
# read close to wall seconds; it sets only the scale, and results stay
# comparable only while it is unchanged
NOMINAL_S = 0.050


def _loop() -> float:
    # the mix fwlab's hot paths make: small-array numpy calls, float
    # conversions, scalar math and short-lived containers
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    rows = []
    for i in range(6000):
        y = np.exp(-x * (i % 5)) + x
        acc += float(np.interp(0.3, x, y)) + float(y @ x)
        rows.append((i, acc))
        if len(rows) > 64:
            rows.clear()
    counts: dict = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0.0) + math.sqrt(i)
    return acc


def calibrate() -> float:
    """Wall seconds one calibration loop takes right now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float) -> float:
    """A span timed between two calibrations, in seconds at the reference speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
