"""Arithmetic of the benchmark: percentiles, self time, spreads, host probe.

Nothing here imports the program under test, so these numbers mean the
same thing whatever the program does.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, its value is set by a handful of outliers.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when too few samples.

    The nearest-rank value at ``q`` is the ``ceil(q/100 * n)``-th smallest
    sample; the ``n - rank`` samples after it lie beyond it.  The value is
    returned only when that count is at least ``min_beyond``.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return float(sorted(samples)[rank - 1])


def covered(start: float, end: float,
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in children
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(start, end, children)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def slice_rates(event_times: Sequence[float], start: float, end: float,
                slice_s: float = 1.0) -> List[float]:
    """Event rate in each whole ``slice_s`` slice of ``[start, end)``.

    A slice's rate is its event count less one over the time from its first
    to its last event.  The median over slices is insensitive to a slow
    phase of the host that covers fewer than half the slices, where a
    whole-window mean is not.
    """
    count = int((end - start) // slice_s)
    slices: List[List[float]] = [[] for _ in range(count)]
    for t in event_times:
        index = int((t - start) // slice_s)
        if 0 <= index < len(slices):
            slices[index].append(t)
    return [(len(times) - 1) / (max(times) - min(times))
            for times in slices if len(times) >= 2 and max(times) > min(times)]


def host_probe_ms(rounds: int = 15) -> float:
    """Median time of a fixed NumPy GEMM plus a pure-Python loop.

    Run before and after a measurement, it separates a slow host from slow
    code: it executes no code of the program under test.
    """
    import numpy as np

    a = (np.arange(128 * 128, dtype=np.float32).reshape(128, 128) % 7) / 7.0
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(10):
            a @ a
        total = 0
        for i in range(20000):
            total += i
        times.append(1000.0 * (time.perf_counter() - started))
    return median(times)
