import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ocrom import numerics
from ocrom.errors import ConvergenceFailure, DimensionMismatch, NotSymmetric, SingularMatrix
from ocrom.numerics import factorize, sparse_lu_solve, symmetric_eig

from oracles import gauss_solve


class TestSparseLuSolve:
    def test_identity(self):
        assert np.allclose(sparse_lu_solve(sp.identity(2, format="csc"),
                                           np.array([3.0, 5.0])), [3.0, 5.0])

    def test_diagonal(self):
        a = sp.diags([2.0, 4.0]).tocsc()
        assert np.allclose(sparse_lu_solve(a, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_spd_against_elimination_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((50, 50))
        a = m @ m.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        x = sparse_lu_solve(sp.csc_matrix(a), b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10
        assert np.allclose(x, gauss_solve(a, b), rtol=1e-9, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = sp.random(120, 120, density=0.05, random_state=7,
                      format="csc") + 5 * sp.identity(120, format="csc")
        b = rng.standard_normal(120)
        x = sparse_lu_solve(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_singular(self):
        a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            sparse_lu_solve(a, np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sparse_lu_solve(sp.identity(3, format="csc"), np.zeros(4))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = sp.csc_matrix(rng.standard_normal((30, 30)) + 30 * np.eye(30))
        b = rng.standard_normal(30)
        x1 = sparse_lu_solve(a, b)
        x2 = sparse_lu_solve(a.copy(), b.copy())
        assert np.array_equal(x1, x2)

    def test_factorize_reuse(self):
        rng = np.random.default_rng(8)
        a = sp.csc_matrix(rng.standard_normal((25, 25)) + 25 * np.eye(25))
        lu = factorize(a)
        for _ in range(3):
            b = rng.standard_normal(25)
            x = lu.solve(b)
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


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
        x = factorize(a0).solve_near(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_far_matrix_raises(self):
        a0, a, b = self._perturbed(3.0, seed=1)
        with pytest.raises(ConvergenceFailure):
            factorize(a0).solve_near(a, b)

    def test_no_budget_raises(self, monkeypatch):
        a0, a, b = self._perturbed(0.05)
        monkeypatch.setattr(numerics, "_GMRES_CYCLES", 0)
        with pytest.raises(ConvergenceFailure):
            factorize(a0).solve_near(a, b)

    def test_zero_rhs(self):
        a0, a, _ = self._perturbed(0.05)
        x = factorize(a0).solve_near(a, np.zeros(a.shape[0]))
        assert np.array_equal(x, np.zeros(a.shape[0]))

    def test_dimension_mismatch(self):
        lu = factorize(_laplacian_2d(4))
        with pytest.raises(DimensionMismatch):
            lu.solve_near(_laplacian_2d(5), np.ones(25))
        with pytest.raises(DimensionMismatch):
            lu.solve_near(_laplacian_2d(4), np.ones(25))


class TestSymmetricEig:
    def test_diagonal(self):
        eig = symmetric_eig(np.diag([4.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [4.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(6)
        s *= np.sqrt(7.0) / np.linalg.norm(s)
        eig = symmetric_eig(np.outer(s, s))
        assert abs(eig.eigenvalues[0] - 7.0) <= 1e-10
        assert np.all(np.abs(eig.eigenvalues[1:]) <= 1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((20, 20))
        c = 0.5 * (c + c.T)
        eig = symmetric_eig(c)
        rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.linalg.norm(rec - c) <= 1e-10

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((15, 15))
        c = c @ c.T
        eig = symmetric_eig(c)
        for k in range(15):
            v = eig.eigenvectors[:, k]
            r = np.linalg.norm(c @ v - eig.eigenvalues[k] * v)
            assert r <= 1e-10 * max(1.0, abs(eig.eigenvalues[0]))
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(15)).max() <= 1e-10

    def test_descending_and_trace(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal((12, 12))
        c = 0.5 * (c + c.T)
        eig = symmetric_eig(c)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-14)
        assert abs(eig.eigenvalues.sum() - np.trace(c)) <= 1e-10 * max(
            1.0, abs(np.trace(c)))

    def test_psd_nonnegative(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((10, 4))
        eig = symmetric_eig(m @ m.T)
        assert np.all(eig.eigenvalues >= -1e-12 * eig.eigenvalues[0])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((8, 8))
        c = c @ c.T
        e1 = symmetric_eig(c)
        e2 = symmetric_eig(c.copy())
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

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
        eig = symmetric_eig(c)
        assert np.allclose(eig.eigenvalues, np.sort(diag)[::-1],
                           atol=1e-9 * max(1.0, np.abs(diag).max()))


def test_sparse_matvec_matches_dense_oracle():
    rng = np.random.default_rng(1)
    a = sp.random(200, 200, density=0.02, random_state=12, format="csr")
    x = rng.standard_normal(200)
    dense = a.toarray() @ x
    assert np.allclose(a @ x, dense, rtol=1e-13, atol=1e-13)
