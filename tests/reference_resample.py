"""Reference 1 Hz resampler: `cycleio.resample_to_1hz` written out in plain
Python, as the oracle for `tests/test_cycleio.py`.

Second k of the output is the mean of the speeds (converted to m/s) whose
timestamps fall in window k, [k, k+1) s after floor(first timestamp): a
sample at t is in window floor(t) - floor(first timestamp), counted in
integers, so the first sample is always in window 0. Each window's sum is
taken in trace order from 0.0 and divided by its count. A run of empty
windows is filled linearly between the windows around it, as `numpy.interp`
evaluates the line, unless it is longer than MAX_GAP_S windows: then the
first such run is a `GapTooLarge` error. The input is taken as `RawTrace`
accepts it: one or more samples, non-decreasing finite timestamps and
speeds in range.
"""

from __future__ import annotations

import math

from movestar.errors import GapTooLarge

from reference_trace import to_mps

MAX_GAP_S = 5


def reference_resample(times, speeds, unit: str = "m/s") -> list[float]:
    """1 Hz window means in m/s of a raw trace in `unit`, or GapTooLarge."""
    t0 = math.floor(times[0])
    windows = [math.floor(t) - t0 for t in times]
    for prev, k in zip(windows, windows[1:]):
        if k - prev - 1 > MAX_GAP_S:
            raise GapTooLarge(start_window=prev + 1, length=k - prev - 1, limit=MAX_GAP_S)

    n = windows[-1] + 1
    sums = [0.0] * n
    counts = [0] * n
    for k, v in zip(windows, speeds):
        sums[k] += to_mps(v, unit)
        counts[k] += 1
    means = [s / c if c else None for s, c in zip(sums, counts)]

    # Between filled windows a and b, window x gets slope * (x - a) + means[a]
    # with slope = (means[b] - means[a]) / (b - a): numpy.interp's order.
    filled = [k for k, c in enumerate(counts) if c]
    for a, b in zip(filled, filled[1:]):
        slope = (means[b] - means[a]) / (b - a)
        for x in range(a + 1, b):
            means[x] = slope * (x - a) + means[a]
    return means
