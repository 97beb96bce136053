"""Machine-speed calibration: a fixed computation timed all through a run.

The machine is shared, and its speed moves by up to a factor of two for
seconds or minutes at a time as other tenants come and go.  The same
fixed computation, timed between every few operations, reads that speed:
a time divided by the calibration time around it is its cost in
machine-independent units.  Multiplied by REF_S, it is reported in
seconds at the reference speed, at which the kernel takes REF_S.
Nothing here calls fwstates, so no change to the package moves the
calibration.

The kernel mixes what the package's hot paths do: a Python loop over
complex terms with a relative stopping rule, and small numpy ufunc
calls on blocks of a few dozen values.
"""

from __future__ import annotations

import cmath
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.003  # defines the reference speed; the kernel took 1.5-3 ms here


def kernel() -> complex:
    acc = 0j
    ks = np.arange(48.0)
    log_fact = np.cumsum(np.log(ks + 1.0))
    for j in range(200):
        z = complex(0.5 + 0.01 * (j % 150), 0.3)
        terms = np.exp(ks * cmath.log(z) - log_fact)
        s = 0j
        for t in terms.tolist():
            s += t
            if abs(t) < 1e-17 * abs(s):
                break
        acc += s
    return acc


def measure(repeats: int = 1) -> float:
    """Median time of `repeats` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
