"""Run record: software, machine and workload sizes carried with each result,
so a later comparison can tell configuration drift from a speed change."""

import ctypes
import os
import platform

import numpy as np
import scipy

from ocrom import numerics

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Thread counts reported by every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    counts = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(path)] = fn()
                break
    return counts


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
    }


def sizes(model, ops, kkt, artifact_bytes):
    """Problem sizes of the served model; ``kkt`` is its assembled KKT matrix."""
    threshold = getattr(numerics, "_RCM_THRESHOLD", None)
    n_ext = ops.n_extended
    return {
        "total_dofs": int(model.spaces.total_dofs()),
        "kkt_rows": int(kkt.shape[0]),
        "kkt_nnz": int(kkt.nnz),
        "reordering_threshold": threshold,
        "kkt_ordering": None if threshold is None else
        ("rcm+natural" if kkt.shape[0] >= threshold else "colamd"),
        "n_max": int(ops.y_u.shape[1]),
        "reduced_dim": int(ops.dimension()),
        "n_ext": int(n_ext),
        "tensor_bytes_computed": 8 * n_ext**3 if ops.tensor is not None else 0,
        "artifact_bytes": int(artifact_bytes),
    }
