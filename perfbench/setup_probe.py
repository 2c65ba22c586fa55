"""Set-up time of a fresh process: import soldens and build the workload's
groups. Prints the seconds taken, then the median calibration slice taken
right after. Run by run.py, once per sample:

    python3 perfbench/setup_probe.py SRC_DIR MODULE [GROUP_SPEC ...]
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
groups = importlib.import_module("soldens.groups")
built = [groups.build_group(spec) for spec in sys.argv[3:]]
elapsed = time.perf_counter() - t0

import statistics  # noqa: E402

from calibrate import calibration_slice  # noqa: E402

print(repr(elapsed), repr(statistics.median(calibration_slice() for _ in range(40))))
