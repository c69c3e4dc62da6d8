"""The reference kernel that synthesis times are measured against.

It mixes interpreted Python arithmetic, a NumPy sort and one HiGHS LP
solve through SciPy, the three kinds of work the pipeline does, and takes
about 40 ms.  It is not part of the program under test, so a change to the
program moves the ratio of its operations to this kernel, while a slower
or busier machine moves both.  The LP part makes the ratio follow the
LP-file solver's time as well as the bundled solver's.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# About the kernel's median time on the 2-vCPU machine the baseline in
# baseline.json was measured on; set-up times are scaled to it.
NOMINAL_S = 0.040

_rng = np.random.default_rng(0)
_A = (_rng.random((300, 200)) < 0.05) * _rng.random((300, 200))
_B = _A.sum(axis=1) / 2 + 1
_C = -_rng.random(200)


def reference_time() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    values = np.arange(20_000.0)
    for _ in range(20):
        values = np.sort(values[::-1])
    if not linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs").success:
        raise RuntimeError("the reference LP did not solve")
    return time.perf_counter() - start
