"""Machine-speed probe, so that timings taken minutes apart on a drifting host compare.

On a shared virtual machine the same code runs 20% faster or slower from one
minute to the next. Each timed interval is bracketed by two probes, each
timing a fixed pure-Python loop, and its wall time is rescaled by how long
that loop took against `REFERENCE_LOOP_S`: the result is in *reference seconds*, which the
host's drift moves far less than wall seconds. The program's own cost is not
rescaled away: the loop shares nothing with it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

#: Median of `reference_loop()` on the machine perfbench/README.md describes.
REFERENCE_LOOP_S = 0.0056


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop, the median of three runs.

    A probe of the machine's current speed; the median drops a run that an
    interrupt happened to hit.
    """
    runs = []
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(60_000):
            total += (i * i) % 7
        runs.append(perf_counter() - t0)
    return statistics.median(runs)


def speed_scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two probes into reference seconds."""
    return REFERENCE_LOOP_S / ((before + after) / 2)
