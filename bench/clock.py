"""Machine-speed calibration for the benchmark's time metrics.

On the 2-vCPU shared Linux host the bounds were set on (Python 3.11), CPU
speed swings by up to 2x from one second to the next as other tenants come
and go: over five minutes the same 10 Hz `convert` took 0.49-0.96 s and a
fixed loop 21-47 ms, and the median of 10-20 repeats still moved by about
20 % between runs. So each timed piece of work is bracketed by a fixed
pure-Python loop in the same process, and its time is reported scaled to a
reference speed:

    scaled = measured * REF_S / (mean of the loop times just before and after)

i.e. seconds on a machine where the loop takes REF_S. On that host this cut
the spread of 20 s medians of `convert` from 0.19-0.24 to 0.03-0.05 of the
median. The loop must run in the process doing the work: loops timed in the
parent of a CLI child barely correlate with the child's speed (r = 0.21,
against 0.91 in the child). Long passes are bracketed in blocks, since the
speed changes within them. Raw times are printed alongside.

This module imports nothing but `time`, so a set-up child can load it
without adding to the import time it measures.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 150_000
REF_S = 0.030       # typical loop time on the machine the bounds were set on


def loop_s() -> float:
    """Wall time of a fixed interpreter-bound loop: dict stores, tuples, float adds.

    Allocating a tuple per iteration makes it track slowdowns of
    allocation-heavy code; without it the loop followed the package's
    slowdowns markedly worse.
    """
    t0 = time.perf_counter()
    d = {}
    s = 0.0
    for i in range(LOOP_ITERATIONS):
        d[i & 1023] = (i, s)
        s += i * 0.5
    return time.perf_counter() - t0


def budget(seconds: float, min_passes: int):
    """Yield pass numbers until `seconds` have passed and `min_passes` ran."""
    start = time.perf_counter()
    n = 0
    while n < min_passes or time.perf_counter() - start < seconds:
        yield n
        n += 1


def factor(before: float, after: float) -> float:
    """Scale factor for work timed between two loops of the given durations."""
    return REF_S / ((before + after) / 2.0)


def timed(fn, *args):
    """Call fn between two loops: (fn's result, its wall time in s, scale factor)."""
    before = loop_s()
    t0 = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - t0
    return out, elapsed, factor(before, loop_s())
