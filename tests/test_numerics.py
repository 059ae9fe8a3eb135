import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ocrom import numerics
from ocrom.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NewtonDiverged,
    NotSymmetric,
    SingularMatrix,
)
from ocrom.numerics import dense_lu, factorize, newton, refine, symmetric_eig

from oracles import gauss_solve


class TestSparseLuSolve:
    def test_identity(self):
        assert np.allclose(factorize(sp.identity(2, format="csc"))
                           .solve(np.array([3.0, 5.0])), [3.0, 5.0])

    def test_diagonal(self):
        a = sp.diags([2.0, 4.0]).tocsc()
        assert np.allclose(factorize(a).solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_spd_against_elimination_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((50, 50))
        a = m @ m.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x = factorize(sp.csc_matrix(a)).solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10
        assert np.allclose(x, gauss_solve(a, b), rtol=1e-9, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = sp.random(120, 120, density=0.05, random_state=7,
                      format="csc") + 5 * sp.identity(120, format="csc")
        b = rng.standard_normal(120)
        x = factorize(a).solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_singular(self):
        a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            factorize(a).solve(np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            factorize(sp.identity(3, format="csc")).solve(np.zeros(4))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = sp.csc_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
        b = rng.standard_normal(30)
        x1 = factorize(a).solve(b)
        x2 = factorize(a.copy()).solve(b.copy())
        assert np.array_equal(x1, x2)

    def test_factorize_reuse(self):
        rng = np.random.default_rng(8)
        a = sp.csc_matrix(rng.standard_normal((25, 25)) + 25 * np.eye(25))
        lu = factorize(a)
        for _ in range(3):
            b = rng.standard_normal(25)
            x = lu.solve(b)
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    @staticmethod
    def _unsymmetric():
        rng = np.random.default_rng(12)
        return sp.csc_matrix(rng.standard_normal((20, 20)) + 20 * np.eye(20))

    @staticmethod
    def _saddle_point():
        """Symmetric [[A, B^T], [B, pin]] with a zero pressure block but
        for one pinned row, the shape of the Stokes state block."""
        rng = np.random.default_rng(13)
        m = rng.standard_normal((14, 14))
        a = m @ m.T + 14 * np.eye(14)
        b = rng.standard_normal((6, 14))
        b[0] = 0.0  # a pressure row with no velocity coupling, pinned
        pin = np.zeros((6, 6))
        pin[0, 0] = 1.0
        return sp.csc_matrix(np.block([[a, b.T], [b, pin]]))

    @pytest.mark.parametrize("matrix", ["_unsymmetric", "_saddle_point"],
                             ids=["colamd", "symmetric"])
    def test_transposed_raw_solve(self, matrix):
        """``raw_solve(b, "T")`` solves with the transpose, on both
        orderings and for a block of right-hand sides."""
        a = getattr(self, matrix)()
        assert ((a != a.T).nnz == 0) == (matrix == "_saddle_point")
        rng = np.random.default_rng(12)
        b = rng.standard_normal((20, 3))
        lu = factorize(a)
        for trans, op in (("N", a), ("T", a.T)):
            x = lu.raw_solve(np.asfortranarray(b), trans)
            assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)
        with pytest.raises(DimensionMismatch):
            lu.raw_solve(np.ones(21), "T")


class TestRefine:
    """Refinement sweeps over an approximate solve, then the 1e-10
    relative residual bound."""

    def _system(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        return a, rng.standard_normal(30), rng

    def test_inexact_solve_converges(self):
        """An LU of a perturbed matrix misses the bound in one pass and
        meets it after the refinement sweeps."""
        a, b, rng = self._system()
        near = a * (1.0 + 1e-4 * rng.standard_normal(a.shape))
        calls = []

        def raw(r):
            calls.append(r)
            return np.linalg.solve(near, r)

        one_pass = np.linalg.norm(a @ raw(b) - b) / np.linalg.norm(b)
        assert one_pass > 1e-10
        calls.clear()
        x = refine(sp.csc_matrix(a), b, raw)
        assert 2 <= len(calls) <= 4
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.abs(x - np.linalg.solve(a, b)).max() <= 1e-9 * np.abs(x).max()

    def test_unreachable_bound_raises(self):
        """A raw solve that only halves the residual cannot reach the
        bound in three sweeps."""
        a, b, _ = self._system()
        inv = np.linalg.inv(a)
        with pytest.raises(SingularMatrix, match=r"^relative residual 6\.2\d*e-02 exceeds 1e-10"):
            refine(a, b, lambda r: 0.5 * (inv @ r))

    def test_non_finite_correction_raises(self):
        """A correction sweep that turns non-finite fails the bound rather
        than passing a NaN solution."""
        a, b, _ = self._system()
        inv = np.linalg.inv(a * 1.01)
        calls = []

        def raw(r):
            calls.append(r)
            return inv @ r if len(calls) == 1 else np.full_like(r, np.nan)

        with pytest.raises(SingularMatrix, match=r"^relative residual nan"):
            refine(a, b, raw)

    def test_non_finite_solution_raises(self):
        a, b, _ = self._system()
        with pytest.raises(SingularMatrix, match="non-finite solution"):
            refine(a, b, lambda r: np.full_like(r, np.inf))

    def test_zero_rhs(self):
        a, b, _ = self._system()
        assert np.array_equal(refine(a, np.zeros_like(b), lambda r: r), np.zeros_like(b))


class TestDenseLu:
    """One LAPACK getrf of a dense matrix, getrs for each right-hand side."""

    @pytest.mark.parametrize("rhs_shape", [(40,), (40, 1), (40, 3)])
    def test_agrees_with_numpy_solve(self, rhs_shape):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((40, 40))
        b = rng.standard_normal(rhs_shape)
        solve = dense_lu(a, "test matrix")
        for _ in range(2):  # the factorization serves every solve
            x, ref = solve(b), np.linalg.solve(a, b)
            assert x.shape == rhs_shape
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_leaves_matrix_unchanged(self):
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        before = a.copy()
        assert np.allclose(dense_lu(a, "test matrix")(np.array([2.0, 4.0])), [1.0, 1.0])
        assert np.array_equal(a, before)

    def test_zero_pivot(self):
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularMatrix, match=r"^test matrix: exactly zero pivot"):
            dense_lu(a, "test matrix")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry(self, value):
        a = np.eye(4) + 0.1
        a[2, 1] = value
        with pytest.raises(SingularMatrix, match=r"^test matrix: non-finite"):
            dense_lu(a, "test matrix")

    def test_non_finite_solution(self):
        solve = dense_lu(np.eye(3), "test matrix")
        with pytest.raises(SingularMatrix, match=r"^test matrix: non-finite solution"):
            solve(np.array([1.0, np.nan, 0.0]))


def _laplacian_2d(n):
    """5-point Laplacian on an n x n grid (Dirichlet), CSC."""
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)).tocsc()


class TestSolveNear:
    """GMRES preconditioned by a factorization of a nearby matrix."""

    def _perturbed(self, scale, seed=0):
        a0 = _laplacian_2d(30)
        rng = np.random.default_rng(seed)
        # a nonsymmetric perturbation on the matrix's own pattern
        d = a0.copy()
        d.data = scale * rng.standard_normal(d.nnz)
        return a0, (a0 + d).tocsc(), rng.standard_normal(a0.shape[0])

    def test_near_matrix_solved_to_lu_bound(self):
        a0, a, b = self._perturbed(0.05)
        x = numerics.solve_near(a, b, factorize(a0).raw_solve)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_far_matrix_raises(self):
        a0, a, b = self._perturbed(3.0, seed=1)
        with pytest.raises(ConvergenceFailure):
            numerics.solve_near(a, b, factorize(a0).raw_solve)

    def test_zero_rhs(self):
        a0, a, _ = self._perturbed(0.05)
        x = numerics.solve_near(a, np.zeros(a.shape[0]), factorize(a0).raw_solve)
        assert np.array_equal(x, np.zeros(a.shape[0]))

    def test_dimension_mismatch(self):
        lu = factorize(_laplacian_2d(4))
        with pytest.raises(DimensionMismatch):
            numerics.solve_near(_laplacian_2d(5), np.ones(25), lu.raw_solve)
        with pytest.raises(DimensionMismatch):
            numerics.solve_near(_laplacian_2d(4), np.ones(25), lu.raw_solve)

    def test_newton_step_solver_factorizes_when_gmres_misses(self, monkeypatch):
        """The first matrix is factorized; a near one is served by GMRES, a
        far one is factorized and then serves its own successors."""
        a0, near, b = self._perturbed(0.05)
        far = self._perturbed(3.0, seed=1)[1]
        calls = []
        monkeypatch.setattr(numerics, "factorize",
                            lambda A: calls.append(A.shape) or factorize(A))
        solve = numerics.newton_step_solver(lambda A: numerics.factorize(A).raw_solve)
        counts = []
        for a in (a0, near, far, far):
            x = solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
            counts.append(len(calls))
        assert counts == [1, 1, 2, 2]


class TestNewton:
    @staticmethod
    def square_root_of_two(x):
        """x^2 = 2: residual and the solve of its 1x1 Jacobian."""
        return x**2 - 2.0, lambda b: b / (2.0 * x)

    def test_scalar_square_root(self):
        x, res, iterations = newton(self.square_root_of_two, np.array([1.0]),
                                    tol_rel=1e-12, tol_abs=0.0, max_iter=20)
        # residuals 1, 0.25, 6.9e-3, 6.0e-6, 4.5e-12, 4.4e-16
        assert iterations == 5
        assert abs(x[0] - np.sqrt(2.0)) <= 1e-15
        assert np.array_equal(res, x**2 - 2.0)

    def test_converged_start_takes_no_step(self):
        def system(x):
            def solve(b):
                raise AssertionError("no step expected")
            return x**2 - 2.0, solve

        start = np.array([np.sqrt(2.0)])
        x, res, iterations = newton(system, start, 1e-12, 1e-12, 20)
        assert iterations == 0 and x is start
        assert abs(res[0]) <= 1e-12

    def test_iteration_limit_carries_norms(self):
        with pytest.raises(NewtonDiverged, match="no convergence in 2 iterations") as info:
            newton(self.square_root_of_two, np.array([1.0]), 1e-12, 0.0, 2)
        assert np.allclose(info.value.residual_norms, [1.0, 0.25, 1.0 / 144.0])

    def test_three_growths_carry_norms(self):
        def system(x):  # each step triples x and so the residual
            return x, lambda b: -2.0 * b

        with pytest.raises(NewtonDiverged, match="3 consecutive") as info:
            newton(system, np.array([1.0]), 1e-12, 0.0, 20)
        assert info.value.residual_norms == [1.0, 3.0, 9.0, 27.0]


class TestSymmetricEig:
    def test_diagonal(self):
        lam, vecs = symmetric_eig(np.diag([4.0, 1.0]))
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(6)
        s *= np.sqrt(7.0) / np.linalg.norm(s)
        lam, _ = symmetric_eig(np.outer(s, s))
        assert abs(lam[0] - 7.0) <= 1e-10
        assert np.all(np.abs(lam[1:]) <= 1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((20, 20))
        c = 0.5 * (c + c.T)
        lam, vecs = symmetric_eig(c)
        rec = vecs @ np.diag(lam) @ vecs.T
        assert np.linalg.norm(rec - c) <= 1e-10

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((15, 15))
        c = c @ c.T
        lam, vecs = symmetric_eig(c)
        for k in range(15):
            v = vecs[:, k]
            r = np.linalg.norm(c @ v - lam[k] * v)
            assert r <= 1e-10 * max(1.0, abs(lam[0]))
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(15)).max() <= 1e-10

    def test_descending_and_trace(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((12, 12))
        c = 0.5 * (c + c.T)
        lam, _ = symmetric_eig(c)
        assert np.all(np.diff(lam) <= 1e-14)
        assert abs(lam.sum() - np.trace(c)) <= 1e-10 * max(
            1.0, abs(np.trace(c)))

    def test_psd_nonnegative(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 4))
        lam, _ = symmetric_eig(m @ m.T)
        assert np.all(lam >= -1e-12 * lam[0])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((8, 8))
        c = c @ c.T
        _, v1 = symmetric_eig(c)
        _, v2 = symmetric_eig(c.copy())
        assert np.array_equal(v1, v2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                    max_size=8))
    def test_spectrum_recovery(self, diag):
        """Eigenvalues of Q diag Q^T come back sorted descending."""
        n = len(diag)
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        c = q @ np.diag(diag) @ q.T
        c = 0.5 * (c + c.T)
        lam, _ = symmetric_eig(c)
        assert np.allclose(lam, np.sort(diag)[::-1],
                           atol=1e-9 * max(1.0, np.abs(diag).max()))


def test_sparse_matvec_matches_dense_oracle():
    rng = np.random.default_rng(1)
    a = sp.random(200, 200, density=0.02, random_state=12, format="csr")
    x = rng.standard_normal(200)
    dense = a.toarray() @ x
    assert np.allclose(a @ x, dense, rtol=1e-13, atol=1e-13)
