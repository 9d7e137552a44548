"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py <workload> <files as JSON>

The clock starts before ``import gridfactor`` (which imports numpy and
scipy) and stops when the first op could be issued.  Prints the raw
seconds and the median of a few calibration samples taken right after.
"""

import sys
import time

start = time.perf_counter()
import os  # noqa: E402

bench = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(bench), "src"), bench]

import gridfactor  # noqa: E402
import gridfactor.cli  # noqa: E402,F401

import json  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(gridfactor, json.loads(sys.argv[2]))
elapsed = time.perf_counter() - start

import statistics  # noqa: E402

from calibrate import Calibrator  # noqa: E402

calibrator = Calibrator()
print(elapsed, statistics.median(calibrator.sample() for _ in range(7)))
