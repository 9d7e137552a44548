"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On the small shared machines this benchmark targets, the speed of one core
drifts by 20% or more over tens of seconds, in wall time and CPU time
alike, so raw timings from two runs of the same code can differ by more
than the regressions the benchmark must catch.  The loop therefore times
one fixed unit of work (a dictionary build and walk, and a small dense
solve: the same kinds of interpreter and BLAS work the program does)
after every op, and every reported time is rescaled by

    REFERENCE_S / median(calibration samples taken around that time)

that is, reported at the speed of a machine on which the unit takes
exactly REFERENCE_S.  The unit never touches gridfactor, so a change to
the program moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: Seconds the calibration unit is taken to last on the reference machine.
REFERENCE_S = 1e-3


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((120, 120)) + 120.0 * np.eye(120)
        self.rhs = self.matrix[:, :10].copy()

    def sample(self) -> float:
        """Seconds taken by one calibration unit now."""
        start = perf_counter()
        table = {}
        for k in range(3000):
            table[k] = (k, k * 2.0)
        total = 0.0
        for _, pair in table.items():
            total += pair[1]
        np.linalg.solve(self.matrix, self.rhs)
        return perf_counter() - start


#: Half-width in seconds of the window of calibration samples that rescales
#: one op; the drift is slow enough that samples this close share its speed.
WINDOW_S = 0.5


def local_units(sample_times, samples, spans) -> list[float]:
    """For each (start, end) span, the median sample taken within its window.

    ``sample_times`` is ascending.  The window reaches WINDOW_S beyond
    either end of the span, so a long op still sees the samples taken just
    before and just after it.
    """
    units = []
    for start, end in spans:
        lo = bisect.bisect_left(sample_times, start - WINDOW_S)
        hi = bisect.bisect_right(sample_times, end + WINDOW_S)
        units.append(statistics.median(samples[lo:hi]))
    return units
