"""Machine-speed calibration.

Other work on a shared machine slows this process by up to 1.7x, in phases
that last from milliseconds to minutes, so raw seconds do not repeat from
run to run. The benchmark interleaves short calibration slices with its
items and divides every time it reports by the slowdown they show: the
times it reports are seconds at the speed where `calibration_work()` takes
NOMINAL_SLICE_S. Raw times are kept in the report.
"""

import gc
import time
from fractions import Fraction

NOMINAL_SLICE_S = 0.0003  # calibration_work() on the reference machine at full speed


def calibration_work():
    """Fixed interpreter work of the kinds soldens does: fractions, tuples,
    sets and dicts. Never changes with the program."""
    acc, seen, table = Fraction(0), set(), {}
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i)
        key = (i, i * 3 % 11)
        table[key] = acc
        seen.add(frozenset(key))
    return acc, len(seen), len(table)


def calibration_slice():
    """Seconds one calibration_work() takes right now, without GC pauses."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    calibration_work()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt
