"""A fixed machine-speed reference for the end-to-end times.

On a shared 2-vCPU machine the speed of pure-Python code drifts by up to
1.8x, in spells that last from seconds to minutes, with no change to the
program.  Between jobs, off the clock, the benchmark times a fixed
kernel that uses only the standard library: exact Fraction elimination
and dict accumulation, the operations the library spends its time in.
The end-to-end times are then scaled by REFERENCE_MS / (median kernel
time in this run), i.e. reported at the speed the machine had when the
kernel took REFERENCE_MS.  The kernel never touches ``prelie_calculus``,
so a change to the program cannot move it; the unscaled values are
printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# median kernel time on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7)
REFERENCE_MS = 5.0
# busy time between two samples during the measured loop
INTERVAL_NS = 500_000_000


def kernel():
    n = 8
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    acc = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc[(i + j, k)] = acc.get((i + j, k), 0) + m[i][j] * m[j][k]
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._last = time.perf_counter_ns()

    def sample(self):
        """Time the kernel once; returns the ns spent."""
        start = time.perf_counter_ns()
        kernel()
        self._last = time.perf_counter_ns()
        self.samples.append(self._last - start)
        return self._last - start

    def due(self):
        """Sample if INTERVAL_NS have passed since the last sample;
        returns the ns spent."""
        if time.perf_counter_ns() - self._last < INTERVAL_NS:
            return 0
        return self.sample()

    def kernel_ms(self):
        return statistics.median(self.samples) / 1e6

    def scale(self):
        """Factor that turns a time measured in this run into one at
        the reference speed."""
        return REFERENCE_MS / self.kernel_ms()
