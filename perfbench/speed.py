"""Machine-speed reference for the end-to-end timings.

The machine the benchmark was defined on (two vCPUs of a shared x86-64
host) changes speed by up to 2x for seconds to minutes at a time, as other
tenants load the same physical cores: the kernel below takes about 0.43 ms
or 0.70 ms depending on the moment, and raw wall-clock metrics of the same
code spread 15-45 % (IQR/median over ten runs), more than any regression
bound.  So the benchmark times fixed reference kernels alongside the
workload, and scales each wall-clock duration by the kernel's fast-state
duration over its duration measured around it: the result is the duration
at the reference machine speed.  Two kernels: small tensor contractions
(``_kernel``), sampled around every full-order solve, and in a short form
just before and just after every online query, which alone scales the
queries; and a SuperLU factorization of a fixed Laplacian
(``_sparse_kernel``), sampled at both ends of each set-up, cold solve and
offline build, because full-order work is mostly sparse factorization.  A
full-order duration is scaled by the geometric mean of the two kernels'
ratios.  The kernels are benchmark code, independent of ``ocrom``, so no
change to the program moves them.
Raw wall-clock figures go into the run record next to the scaled ones.
"""

import math
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Durations of the two reference kernels in the machine's fast state on the
# 2-vCPU x86-64 host the benchmark was defined on.  Scaled timings are
# wall-clock seconds at that speed.
REFERENCE_S = 0.43e-3
SPARSE_REFERENCE_S = 21e-3

# The short kernel timed next to each online query: a quarter of
# ``_kernel``, about 0.1 ms.  The machine's fast and slow states alternate
# every few milliseconds, so only a sample this close to a query tells
# which state the query ran in.
QUERY_KERNEL_CALLS = 16
QUERY_REFERENCE_S = REFERENCE_S * QUERY_KERNEL_CALLS / 64

_TENSOR = np.random.default_rng(0).random((24, 24, 24))
_VECTOR = np.linspace(0.0, 1.0, 24)
_N = 90
_LAPLACIAN = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_N, -1, 0, 1, _N],
                      shape=(_N * _N, _N * _N), format="csc")


def _kernel(calls=64):
    # small contractions and interpreter work, the mix of a reduced query
    s = 0.0
    for _ in range(calls):
        s += float(np.einsum("gab,g->ab", _TENSOR, _VECTOR).sum())
    return s


def _sparse_kernel():
    # a SuperLU factorization, the bulk of a full-order solve
    return spla.splu(_LAPLACIAN)


def _median_duration(kernel, reps):
    runs = []
    for _ in range(reps):
        k0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - k0)
    return sorted(runs)[reps // 2]


def query_kernel_seconds():
    """One duration of the short kernel, to take next to an online query."""
    t0 = time.perf_counter()
    _kernel(QUERY_KERNEL_CALLS)
    return time.perf_counter() - t0


def _around(times, durations, t0, t1):
    """Median of the samples inside ``[t0, t1]``, the last one before it and
    the first one after it."""
    times = np.asarray(times)
    lo = max(int(np.searchsorted(times, t0)) - 1, 0)
    hi = int(np.searchsorted(times, t1)) + 1
    return float(np.median(durations[lo:hi]))


class SpeedReference:
    """Reference-kernel samples taken while a run goes on."""

    def __init__(self):
        self.times = []  # midpoint of each sample
        self.durations = []  # median of five kernel durations per sample
        self.sparse_times = []  # the same for the sparse kernel, sampled
        self.sparse_durations = []  # only where asked for
        self.spent = 0.0  # wall time spent sampling, to leave out of timings

    def sample(self, sparse=False):
        """Time the kernel; with ``sparse`` the sparse kernel as well."""
        t0 = time.perf_counter()
        self.durations.append(_median_duration(_kernel, 5))
        self.times.append(0.5 * (t0 + time.perf_counter()))
        if sparse:
            s0 = time.perf_counter()
            self.sparse_durations.append(_median_duration(_sparse_kernel, 3))
            self.sparse_times.append(0.5 * (s0 + time.perf_counter()))
        self.spent += time.perf_counter() - t0

    def factor(self, t0, t1):
        """Scale for a full-order duration spanning ``[t0, t1]``: the geometric
        mean of each kernel's reference duration over its duration around
        the interval."""
        f = REFERENCE_S / _around(self.times, self.durations, t0, t1)
        g = SPARSE_REFERENCE_S / _around(self.sparse_times, self.sparse_durations, t0, t1)
        return math.sqrt(f * g)
