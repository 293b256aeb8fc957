"""Machine-speed probes that put times from different runs on one scale.

On a shared host (measured on x86_64 with 2 vCPUs) the same code runs up to
2x slower while another tenant loads the same core, in wall and CPU time
alike, switching within a second and differently on each core.  How much of
a run falls in slow phases changes its raw times by more than any bound
worth gating.  So the benchmark pins itself (and the processes it
starts) to one core, times a fixed reference kernel between items, and
scales every time of the run by ``REFERENCE_S`` over the run's mean probe.
Scaled times are seconds on a machine whose kernel takes ``REFERENCE_S``;
raw wall times stay in the result file.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np
from scipy.integrate import quad

# The kernel's time in the fast state on x86_64 with 2 vCPUs, Python 3.11 and
# scipy 1.17.  Only a unit: it sets the scale of every reported time and is
# the same for every run compared.
REFERENCE_S = 0.0022


def kernel() -> float:
    """Fixed work in the package's style, that does not touch the package:
    scipy quad over Python integrands evaluating small numpy arrays."""
    y0, xi = np.array([0.3, 1.2, 0.5]), np.array([0.0, 0.6, 0.8])
    total = 0.0
    for j in range(4):
        def f(t, j=j):
            y = y0 + t * xi
            return (1.0 + float(np.dot(y, y))) ** (-0.75 - 0.01 * j) * math.cos(t)
        total += quad(f, 0.0, 40.0 + j, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    return total


def probe() -> float:
    """Mean wall time of three kernel runs."""
    start = time.perf_counter()
    for _ in range(3):
        kernel()
    return (time.perf_counter() - start) / 3.0


@contextmanager
def one_core() -> Iterator[None]:
    """Run this process, and those it starts, on one of its allowed cores."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def factor(probes: list[float]) -> float:
    """Scale factor from raw to reference seconds for a run's probes."""
    return REFERENCE_S / statistics.fmean(probes)
