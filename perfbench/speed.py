"""Machine-speed reference for scaling op latencies to one nominal speed.

On a VM that shares its host, the same pure-Python loop runs up to 2x
slower for spells that last from seconds to minutes, and a whole run can
fall inside one slow spell; no statistic taken within the run undoes that.
The runner therefore times a fixed kernel, which uses nothing from nonfree,
before the first op of a pass and after every op, and divides each op's
latency by the machine's slowdown around it: the median kernel time over
the WINDOW timings on each side of the op, over REFERENCE_S.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

# Kernel time at nominal speed: the 10th percentile of 5000 timings on the
# 2-core Intel Xeon VM the benchmark was defined on (median there: 1.6x this).
REFERENCE_S = 0.0024
WINDOW = 3

_EYE = np.eye(4)
_TENSOR = np.ones((4, 4, 4), dtype=np.complex128)


def kernel_seconds() -> float:
    """Wall time of one run of a fixed mix of Fraction and small numpy work.

    The cyclic collector is off meanwhile, so the kernel's time does not
    depend on how many objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 800):
            total += Fraction(i % 7 + 1, i % 97 + 1)
        for _ in range(40):
            np.linalg.norm(np.einsum("ia,ajk->ijk", _EYE, _TENSOR))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(latencies: list[float], kernel_times: list[float]) -> list[float]:
    """Latencies at nominal speed; kernel_times[i] is taken just before op i
    and kernel_times[-1] after the last op."""
    out = []
    for i, latency in enumerate(latencies):
        around = kernel_times[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
        out.append(latency * REFERENCE_S / statistics.median(around))
    return out
