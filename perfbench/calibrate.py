"""Host-speed gauge: a fixed numpy kernel timed between units of work.

On a shared host the speed of the same code drifts by up to half over
minutes, in CPU time as much as in wall time, so medians within one run
cannot remove it.  The benchmark times this kernel between its units and
reports every end-to-end time scaled by ``REFERENCE_S / median(kernel)``:
seconds at the speed the host had when the baseline was recorded.  The
kernel does the kind of work the Monte-Carlo chunks do (Philox draws and
transcendental numpy ops on 65,536-element arrays) but calls nothing in
pinchpass, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A typical kernel time on the baseline host (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6).  It only sets the scale of the reported times.
REFERENCE_S = 0.045
REPEATS = 3                   # kernel runs per gauge reading
_N = 65_536


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=12345))
    for _ in range(6):
        u, v = rng.random(_N), rng.random(_N)
        x = np.sqrt(u) * np.cos(2.0 * np.pi * v)
        y = np.sqrt(u) * np.sin(2.0 * np.pi * v)
        d = x * x + y * y + 0.1
        np.sum(np.log2(1.0 + np.exp(-d) / d))
    return time.perf_counter() - t0


class Gauge:
    """Kernel samples taken through a run; ``factor`` scales its times."""

    def __init__(self):
        self.samples: list[float] = []

    def read(self) -> None:
        self.samples += [kernel() for _ in range(REPEATS)]

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
