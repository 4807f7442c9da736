"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is ``import tofclock`` (with numpy and scipy) through building the
workload's configs and initial states and one warm-up call per array
shape.  ``run.py`` runs this several times and reports the median.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports tofclock)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
