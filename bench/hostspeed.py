"""Times scaled to a reference host speed.

The benchmark's host is a shared virtual machine whose speed swings by up to
a factor of two for a minute or more at a time: the same CLI command on the
same inputs takes 0.07 s in one run and 0.16 s in the next, and its CPU time
tracks its wall time, so the swing is not scheduling but a slower CPU. A run
lasts less than such a swing, so medians inside a run cannot remove it.

`HostSpeed` therefore runs a fixed kernel before the first timed call and
after each one, and scales each call's measured time by REFERENCE_S over the
mean kernel time just before and just after it. The kernel mixes the two
kinds of work the CLI does: Python text formatting and parsing (the file
formats) and sparse matrix-vector products (the solvers). A scaled time is
what the call would have taken on a host on which the kernel takes
REFERENCE_S; a change to the program moves it as it moves the measured time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse

# the kernel's median time on a 2-vCPU Xeon virtual machine (Python 3.11,
# numpy 2.4, scipy 1.17), so scaled times stay close to measured ones there
REFERENCE_S = 0.06
_N = 20000
_PRODUCTS = 70


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = sparse.random_array((_N, _N), density=3e-4,
                                      random_state=rng, format="csr")
        self._values = rng.random(_N).tolist()
        self.kernel_s = [self._kernel()]

    def _kernel(self):
        start = time.perf_counter()
        text = "\n".join(map(repr, self._values))
        parsed = list(map(float, text.split()))
        y = np.asarray(parsed)
        for _ in range(_PRODUCTS):
            y = self._a @ y
            y /= y.sum()
        return time.perf_counter() - start

    def scale(self, elapsed):
        """Scaled seconds of a call that took `elapsed` since the last scale."""
        self.kernel_s.append(self._kernel())
        return elapsed * REFERENCE_S / (0.5 * sum(self.kernel_s[-2:]))

    def median_kernel_s(self):
        return statistics.median(self.kernel_s)
