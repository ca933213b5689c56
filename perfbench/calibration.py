"""Machine-speed calibration for the benchmark's host times.

On a shared virtual machine the same interpreter work can run up to twice as
slow for tens of seconds at a time, so raw wall times of one workload spread
by a third between runs. The benchmark times a fixed unit of interpreter and
small-array work, which shares no code with wafermesh, next to every timed
iteration, and scales the iteration's wall time by ``NOMINAL_S / unit time``:
the seconds it would have taken had the unit run at its nominal speed. A
change to wafermesh moves the iteration time, never the unit time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Time of one unit on a quiet 2-vCPU Xeon VM with Python 3.11 and numpy 2.4;
# host times are reported at that speed.
NOMINAL_S = 0.05
REPS = 3


def _unit() -> float:
    table: dict[int, int] = {}
    acc = 0
    for i in range(120_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    a = np.arange(64, dtype=np.float32).reshape(8, 8)
    for _ in range(3_000):
        b = np.zeros((8, 8), dtype=np.float32)
        b += a
        acc += float((a @ b).sum()) + float(np.roll(b, 1, axis=0)[0, 0])
    return acc


def unit_seconds(reps: int = REPS) -> float:
    """Seconds one unit takes now: the median of ``reps`` timings."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalized(seconds: float, unit_before: float, unit_after: float) -> float:
    """Wall seconds rescaled to the nominal machine speed."""
    return seconds * NOMINAL_S / ((unit_before + unit_after) / 2)
