"""Order statistics used by the benchmark: percentiles, tails, spreads.

Percentiles are nearest-rank, so every reported value is one that was
actually measured.  The tail percentile is the highest rung of a fixed
ladder that still leaves at least ``MIN_BEYOND`` samples above it; a
fixed ladder keeps the chosen percentile the same across runs of the same
size, so two runs report comparable tails.  The ladder stops at p99:
beyond it, on a shared two-core machine, the slowest ops measure other
tenants' scheduling more than the program.
"""
from __future__ import annotations

import math
import statistics
from typing import Sequence

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    if n <= 0:
        raise ValueError("need at least one sample")
    return min(n, max(1, math.ceil(p / 100.0 * n)))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    return sorted_values[rank(p, len(sorted_values)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank position of ``p``."""
    return n - rank(p, n)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no rung qualifies; the median is
    returned and the caller records how few samples lie beyond it.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def latency_summary(latencies_s: Sequence[float]) -> dict:
    """Median and tail of op latencies, in milliseconds, with the tail's basis."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    p = tail_percentile(n)
    return {
        "samples": n,
        "p50_ms": percentile(ordered, 50.0) * 1e3,
        "tail_percentile": p,
        "tail_ms": percentile(ordered, p) * 1e3,
        "tail_beyond": beyond(p, n),
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total
