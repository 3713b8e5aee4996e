"""Machine-speed calibration for the benchmark's times.

On a shared VM the same work can take 1.5x longer for minutes at a time, so
raw wall times of identical runs spread by 20-30 %. The benchmark runs a
fixed calibration workload between instance solves and reports each time
scaled by ``CALIBRATION_REF_S / calibration time``: an estimate of the time on
a machine where the calibration takes CALIBRATION_REF_S. The calibration uses
no sparsecut code, so a change to sparsecut cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Duration of one calibrate() call on the reference machine (a 2-vCPU x86 VM).
CALIBRATION_REF_S = 0.004

_M = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small numpy calls,
    the same mix the solver spends its time in."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(6000):
        acc += (i * i) % 7
        table[i & 63] = acc
    v = _M[0]
    for _ in range(300):
        v = np.clip(_M @ v, 0.0, 1.0) + 0.01
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    reference seconds."""
    return CALIBRATION_REF_S / (0.5 * (before + after))
