"""Correctness gate: each check is one attempted operation.

A failed check is counted in ``failed`` and the first ``KEEP_REASONS`` are
kept with their reason; nothing is dropped from the count.  The check functions return ``(ok, reason)`` so the self-test
can feed them deliberately wrong inputs.
"""

import dataclasses

import numpy as np

# Relative KKT residual every full-order solve must reach.  The solvers
# stop at 1e-9 of the initial Newton residual; converged solves read
# 1e-11 or less on the benchmark meshes.
KKT_TOL = 1e-8

# Failure reasons kept for the run record; every failure is still counted.
KEEP_REASONS = 20


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (what, reason) of the first KEEP_REASONS failures

    def check(self, what, result):
        ok, reason = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < KEEP_REASONS:
                self.failures.append((what, reason))
        return ok

    def fail(self, what, exc):
        return self.check(what, (False, f"{type(exc).__name__}: {exc}"))


def full_order_ok(sol, tol=KKT_TOL):
    if not np.isfinite(sol.objective):
        return False, f"objective {sol.objective}"
    if not sol.kkt_residual <= tol:
        return False, f"KKT residual {sol.kkt_residual:.3e} > {tol:.0e}"
    return True, ""


def query_ok(sol):
    if not np.isfinite(sol.objective):
        return False, f"objective {sol.objective}"
    return True, ""


def heldout_ok(err, tol):
    """Relative total error ``E_T_rel`` of a reduced solution within ``tol``."""
    if not err <= tol:
        return False, f"E_T_rel {err:.3e} > {tol:.0e}"
    return True, ""


def artifact_identical(ops, loaded):
    """Every field of the reloaded reduced model equals the saved one bit for bit."""
    for f in dataclasses.fields(ops):
        a, b = getattr(ops, f.name), getattr(loaded, f.name)
        pairs = [(f.name, a, b)]
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            pairs = [(f"{f.name}[{k}]", a[k], b[k]) for k in a]
        for name, x, y in pairs:
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                same = (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                        and x.dtype == y.dtype and x.shape == y.shape
                        and x.tobytes() == y.tobytes())
            else:
                same = x == y
            if not same:
                return False, f"field {name} differs after reload"
    return True, ""
