"""Benchmark set-up, timed as ``setup_s``: import numpy and sparsecut, then
generate the workload's instances and write them as .mc/.bq files.

Usage: python3 perfbench/prepare.py WORKLOAD SEED OUTDIR
Prints one JSON line {"setup_s": seconds, "calibration_s": seconds}, the
second being the median of five clock.calibrate() calls right after set-up.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checkout import import_sparsecut  # noqa: E402

import_sparsecut()

from clock import calibrate  # noqa: E402
from workloads import instances, write_instances  # noqa: E402


def main(argv):
    workload, seed, outdir = argv
    write_instances(instances(workload, int(seed)), Path(outdir))
    setup_s = time.perf_counter() - _START
    calibration_s = statistics.median(calibrate() for _ in range(5))
    print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
