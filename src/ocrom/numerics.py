"""Sparse and dense direct solves, dense symmetric eigendecomposition and
the Newton driver.

Sparse systems are factored by SuperLU (``scipy.sparse.linalg.splu``),
an exactly symmetric matrix in SuperLU's symmetric mode (minimum degree on
A + A^T, diagonal pivots preferred) and any other with its default COLAMD
ordering (``LuFactor``).  Every solve is refined and residual-checked by
``refine``, which also serves solves assembled from a factorization's raw
passes, plain or transposed (block elimination on a sub-block).  Small
dense systems that one factorization serves several times (a reduced
Jacobian) go to LAPACK ``getrf``/``getrs`` directly (``dense_lu``),
without the per-call checks of the ``scipy.linalg`` wrappers.  A Newton
solve's successive Jacobians, or a path of such solves', share a raw
solve that the caller prepares (``NewtonStepSolver``): later steps run
GMRES preconditioned with it (``solve_near``).  The next Jacobian gets a
fresh one after a GMRES call that needed more than ``_GMRES_STALL``
inner iterations, a lagged preconditioner refreshed when the Krylov
solve stalls (Knoll & Keyes, JCP 193, 2004), and at once when GMRES
misses the LU bound.
Symmetric eigenproblems go to LAPACK ``syevd`` (``numpy.linalg.eigh``):
``symmetric_eig`` returns (eigenvalues, eigenvectors), eigenvalues descending
and eigenvector signs fixed, so repeated runs reproduce identical bases.

``newton`` is the one Newton loop of the package: the full-order, state and
reduced optimality solves supply a residual and a step solver, and the
driver owns the stop test and the divergence rule.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NewtonDiverged,
    NotSymmetric,
    SingularMatrix,
)

_LU_RTOL = 1e-10
_SYM_RTOL = 1e-12  # largest relative asymmetry symmetric_eig accepts
# GMRES on a nearby matrix: restart length, restart cycles, inner tolerance
_GMRES_RESTART = 40
_GMRES_CYCLES = 3
_GMRES_RTOL = 1e-11
# inner iterations above which a GMRES call's preconditioner counts as
# stale (NewtonStepSolver); picked from a sweep of 16, 20, 24 and 30 over
# three Navier-Stokes graft builds
_GMRES_STALL = 20

# SuperLU's symmetric mode, for exactly symmetric matrices (see LuFactor)
_SYMMETRIC_MODE = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                       options=dict(SymmetricMode=True))

_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


class LuFactor:
    """Reusable LU factorization exposing a residual-checked solve.

    The ordering follows from one property of the matrix, exact symmetry.
    A symmetric matrix, such as the Stokes state block
    S = [[A, B^T], [B, pin]], is factorized in SuperLU's symmetric mode:
    minimum degree on A + A^T, pivots taken on the diagonal unless one is
    below 0.01 of its column's largest entry.  Any other matrix, such as a
    Navier-Stokes Jacobian's state block, gets SuperLU's default COLAMD.
    On ``stokes-tube``'s 12 069-row S the symmetric mode leaves 3.63 M L+U
    entries against COLAMD's 4.60 M, on ``ns-graft-offline``'s 2 458-row S
    0.34 M against 0.69 M; on that graft's unsymmetric Navier-Stokes state
    block COLAMD leaves 0.68 M against 0.90 M.  A diagonal threshold of 0
    left a relative residual of 1e-2 on the graft's S.

    The symmetric mode suits S because few of its diagonal entries are
    zero: its pressure rows, 8 % of them on ``stokes-tube``, 13-15 % on the
    grafts.  A whole optimality matrix has zeros on about half its diagonal
    (the w, p and q rows) and fills catastrophically under it: on
    ``stokes-tube``'s 24 321-row K it took 475 s and 190 M L+U entries,
    against 7-8 s and 38 M under COLAMD.  No solve of the package
    factorizes such a matrix.
    """

    def __init__(self, A):
        self._A = A
        mode = _SYMMETRIC_MODE if (A != A.T).nnz == 0 else {}
        try:
            with np.errstate(all="ignore"):
                self._lu = spla.splu(A, **mode)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularMatrix(str(exc)) from exc

    def raw_solve(self, b, trans="N"):
        """One pass of the factorization on ``b``, a vector or a matrix of
        right-hand side columns (Fortran order avoids a copy), of ``A`` or,
        with ``trans="T"``, of its transpose: no refinement and no residual
        check."""
        if b.shape[0] != self._A.shape[0]:
            raise DimensionMismatch(f"rhs length {b.shape[0]} != {self._A.shape[0]}")
        return self._lu.solve(b, trans)

    def solve(self, b):
        return refine(self._A, np.asarray(b, dtype=float), self.raw_solve)


def solve_near(A, b, raw_solve):
    """Solve ``A x = b`` by GMRES preconditioned with ``raw_solve``, the
    raw solve of a matrix of ``A``'s size that is close to it; returns
    ``(x, inner)``, ``inner`` the call's inner iterations (its applications
    of ``raw_solve``).

    The result is returned only if its relative residual is at most 1e-10,
    the bound ``refine`` enforces; otherwise :class:`ConvergenceFailure` is
    raised and the caller should prepare a raw solve of ``A`` itself.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"system {A.shape} / rhs {b.shape[0]}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    inner = 0

    def precondition(r):
        nonlocal inner
        inner += 1
        return raw_solve(r)

    with np.errstate(all="ignore"):
        M = spla.LinearOperator(A.shape, matvec=precondition, dtype=float)
        x, _ = spla.gmres(A, b, rtol=_GMRES_RTOL, atol=0.0,
                          restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES, M=M)
        rel = np.linalg.norm(b - A @ x) / bnorm
    if not rel <= _LU_RTOL:  # NaN included
        raise ConvergenceFailure(
            "preconditioned GMRES reached relative residual %.3e, above %.0e"
            % (rel, _LU_RTOL))
    return x, inner


def refine(A, b, raw_solve):
    """Solution of ``A x = b`` from ``raw_solve``, which applies an
    approximate inverse of ``A`` (a factorization of it, or a solve by
    parts on one): up to three sweeps of iterative refinement recover the
    last digits on stiff systems.

    Raises :class:`SingularMatrix` for a non-finite solution, or when the
    relative residual is still above 1e-10 after the sweeps.
    """
    x = raw_solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite solution")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    for _ in range(3):
        r = b - A @ x
        if np.linalg.norm(r) <= _LU_RTOL * bnorm:
            return x
        x = x + raw_solve(r)
    rel = np.linalg.norm(b - A @ x) / bnorm
    if not rel <= _LU_RTOL:  # NaN included
        raise SingularMatrix(
            "relative residual %.3e exceeds %.0e; matrix is singular or "
            "severely ill-conditioned" % (rel, _LU_RTOL))
    return x


def factorize(A):
    """LU-factor a square sparse matrix for repeated solves."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix is {A.shape[0]}x{A.shape[1]}, not square")
    return LuFactor(A)


def dense_lu(a, name):
    """Solve function of one LU factorization with partial pivoting of the
    square dense matrix ``a``, for one right-hand side or a matrix of them.

    Raises :class:`SingularMatrix`, its message starting with ``name``, for
    an exactly zero pivot or a non-finite factor, and at a solve for a
    non-finite solution.  An empty ``a``, which LAPACK rejects, solves to
    the empty right-hand side.
    """
    if not a.size:
        return lambda b: b
    lu, piv, info = _GETRF(a)
    if info > 0:
        raise SingularMatrix(f"{name}: exactly zero pivot U[{info - 1}, {info - 1}]")
    if not np.isfinite(lu).all():
        raise SingularMatrix(f"{name}: non-finite LU factor")

    def solve(b):
        x = _GETRS(lu, piv, b)[0]
        if not np.isfinite(x).all():
            raise SingularMatrix(f"{name}: non-finite solution")
        return x

    return solve


class NewtonStepSolver:
    """``solve(A, b)`` for the successive Jacobians of one Newton solve, or
    of a path of nearby solves.

    ``prepare(A)`` returns a raw solve of ``A`` (a factorization, or a
    block elimination on one of its blocks).  The first Jacobian gets one;
    later ones go to ``solve_near`` on the last one.  A Jacobian gets its
    own raw solve instead, prepared and refined like the first, when
    ``solve_near`` misses its bound on it, or when the previous
    ``solve_near`` call needed more than ``_GMRES_STALL`` inner iterations.
    Every solve by a prepared raw solve is refined against ``A``.

    The tallies count the raw solves ``prepared``, their ``applications``
    (in GMRES and in refinement alike) and the GMRES ``inner`` iterations,
    those of calls that missed included.
    """

    def __init__(self, prepare):
        self._prepare = prepare
        self._raw = None
        self.prepared = self.applications = self.inner = 0

    def _apply(self, b):
        self.applications += 1
        return self._raw(b)

    def __call__(self, A, b):
        if self._raw is not None:
            start = self.applications
            try:
                x, inner = solve_near(A, b, self._apply)
            except ConvergenceFailure:
                self._raw = None  # released before its successor is built
            else:
                if inner > _GMRES_STALL:  # stale: the next Jacobian gets its own
                    self._raw = None
                return x
            finally:
                self.inner += self.applications - start
        self._raw = self._prepare(A)
        self.prepared += 1
        return refine(A, b, self._apply)


def symmetric_eig(C):
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, eigenvalues
    descending; ``eigenvectors[:, k]`` pairs with ``eigenvalues[k]``.

    Eigenvector signs are fixed so the first entry of largest magnitude is
    positive, which stabilizes bases across runs when eigenvalues repeat.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionMismatch("matrix must be square")
    scale = np.max(np.abs(C)) or 1.0
    if np.max(np.abs(C - C.T)) > _SYM_RTOL * scale:
        raise NotSymmetric(
            "relative asymmetry %.3e exceeds %.0e"
            % (np.max(np.abs(C - C.T)) / scale, _SYM_RTOL)
        )
    try:
        w, V = np.linalg.eigh(0.5 * (C + C.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    # deterministic sign: dominant component of each eigenvector positive
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs
    return w, V


def newton(system, x, tol_rel, tol_abs, max_iter):
    """Newton iteration from ``x``; returns (x, residual, iterations).

    ``system(x)`` returns the residual at ``x`` and a function that solves
    the Jacobian system at ``x`` for a given right-hand side.  The loop
    stops when ||r|| <= ``tol_abs``, or after a step when
    ||r|| <= ``tol_rel`` ||r_0||.  It raises :class:`NewtonDiverged`, with
    the residual norms at the start and after every step, when the residual
    grows three steps in a row or ``max_iter`` steps do not converge.
    """
    res, solve = system(x)
    norms = [np.linalg.norm(res)]
    if norms[0] <= tol_abs:
        return x, res, 0
    growth = 0
    for it in range(1, max_iter + 1):
        x = x + solve(-res)
        res, solve = system(x)
        norm = np.linalg.norm(res)
        norms.append(norm)
        if norm <= tol_rel * norms[0] or norm <= tol_abs:
            return x, res, it
        growth = growth + 1 if norm > norms[-2] else 0
        if growth >= 3:
            raise NewtonDiverged(
                f"residual grew for 3 consecutive iterations (now {norm:.3e})", norms)
    raise NewtonDiverged(f"no convergence in {max_iter} iterations", norms)
