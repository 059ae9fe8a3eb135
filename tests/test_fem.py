import numpy as np
import pytest
import scipy.sparse as sp

from ocrom.errors import DimensionMismatch
from ocrom.fem import ConvectionKernel, assemble_operators, build_spaces
from ocrom.mesh import Mesh, generate_graft
from ocrom.quadrature import tet_rule, tri_rule
from ocrom.study import graft_geometry

import oracles
from conftest import straight_tube


def single_tet_mesh():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return Mesh(
        nodes=nodes, tets=np.array([[0, 1, 2, 3]]),
        boundary_tris=np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]),
        boundary_tags=np.array([1, 1, 1, 1]), centerlines=[],
    )


def two_tet_mesh():
    nodes = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    return Mesh(
        nodes=nodes, tets=np.array([[0, 1, 2, 3], [1, 2, 3, 4]]),
        boundary_tris=np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2],
                                [1, 2, 4], [1, 4, 3], [2, 3, 4]]),
        boundary_tags=np.array([1, 1, 1, 1, 1, 1]), centerlines=[],
    )


class TestQuadrature:
    def test_tet_rule_exact(self):
        """Exactness on monomials via the factorial formula
        int x^a y^b z^c = a! b! c! / (a+b+c+3)! on the reference tet."""
        from math import factorial
        pts, wts = tet_rule(4)
        for (a, b, c) in [(0, 0, 0), (2, 1, 1), (4, 0, 0), (2, 2, 0), (1, 1, 2)]:
            exact = (factorial(a) * factorial(b) * factorial(c)
                     / factorial(a + b + c + 3))
            approx = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
            assert abs(approx - exact) <= 1e-14

    def test_tri_rule_exact(self):
        from math import factorial
        pts, wts = tri_rule(4)
        for (a, b) in [(0, 0), (4, 0), (2, 2), (1, 3)]:
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            approx = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(approx - exact) <= 1e-14


class TestBuildSpaces:
    def test_single_tet_counts(self):
        spaces = build_spaces(single_tet_mesh())
        assert spaces.n_velocity == 3 * (4 + 6)
        assert spaces.n_pressure == 4

    def test_counts_formula(self, tube_mesh, tube_spaces):
        nv = tube_mesh.nodes.shape[0]
        pairs = np.sort(tube_mesh.tets[:, oracles.TET_EDGES].reshape(-1, 2), axis=1)
        ne = np.unique(pairs, axis=0).shape[0]
        assert tube_spaces.n_scalar == nv + ne
        assert tube_spaces.n_velocity == 3 * (nv + ne)
        assert tube_spaces.n_pressure == nv

    def test_control_dofs_are_outlet_trace(self, tube_mesh, tube_spaces):
        outlet = np.unique(
            tube_spaces.btri_entities[tube_mesh.boundary_tags >= 100])
        expected = np.sort(
            (3 * outlet[:, None] + np.arange(3)).ravel())
        dofs = (3 * tube_spaces.control_entities[:, None] + np.arange(3)).ravel()
        assert np.array_equal(np.sort(dofs), expected)
        assert tube_spaces.n_control == expected.shape[0]

    @pytest.mark.parametrize("mesh", ["tube", "graft"])
    def test_velocity_operators_act_per_component(self, mesh):
        """The premise of the offline build's scalar blocks: the free
        velocity dofs are whole entities, and X_v and its free block are
        their component-0 blocks (x) I3, exactly."""
        if mesh == "tube":
            mesh = straight_tube(resolution=0.6)
        else:
            mesh = generate_graft(graft_geometry(2.5, 1.0, 0.7, 35.0, 1.6, resolution=0.68))
        spaces = build_spaces(mesh)
        X_v = assemble_operators(spaces, 3.6).X_v
        f = spaces.free_velocity
        ents = f[::3] // 3
        assert np.array_equal(f, (3 * ents[:, None] + np.arange(3)).ravel())
        X_s, I3 = X_v[::3, ::3], sp.identity(3)
        assert (X_v != sp.kron(X_s, I3)).nnz == 0
        assert (X_v[f][:, f] != sp.kron(X_s[ents][:, ents], I3)).nnz == 0

    def test_node_permutation_preserves_counts(self):
        mesh = straight_tube(resolution=0.6)
        s1 = build_spaces(mesh)
        rng = np.random.default_rng(0)
        perm = rng.permutation(mesh.nodes.shape[0])
        inv = np.argsort(perm)
        shuffled = Mesh(
            nodes=mesh.nodes[perm],
            tets=inv[mesh.tets],
            boundary_tris=inv[mesh.boundary_tris],
            boundary_tags=mesh.boundary_tags.copy(),
            centerlines=mesh.centerlines,
        )
        s2 = build_spaces(shuffled)
        assert (s1.n_velocity, s1.n_pressure, s1.n_control) == (
            s2.n_velocity, s2.n_pressure, s2.n_control)


class TestAssembleOperators:
    def test_p1_mass_closed_form(self):
        spaces = build_spaces(single_tet_mesh())
        ops = assemble_operators(spaces, 1.0)
        vol = 1.0 / 6.0
        exact = vol / 20.0 * (np.ones((4, 4)) + np.eye(4))
        assert np.abs(ops.X_p.toarray() - exact).max() <= 1e-14

    def test_vector_mass_integrates_volume(self, tube_mesh, tube_operators):
        ones = np.ones(tube_operators.M.shape[0])
        assert abs(ones @ (tube_operators.M @ ones)
                   - 3 * tube_mesh.volume()) <= 1e-10 * tube_mesh.volume()

    def test_divergence_of_constant(self, tube_operators):
        c = np.tile([1.0, -2.0, 0.5], tube_operators.B.shape[1] // 3)
        assert np.linalg.norm(tube_operators.B @ c) <= 1e-10

    def test_divergence_of_linear_solenoidal(self, tube_spaces, tube_operators):
        coords = tube_spaces.entity_coords
        v = np.zeros(tube_spaces.n_velocity)
        v[0::3] = coords[:, 1]
        v[1::3] = -coords[:, 0]
        assert np.linalg.norm(tube_operators.B @ v) <= 1e-10

    def test_symmetry(self, tube_operators):
        for mat in (tube_operators.A, tube_operators.M, tube_operators.N_c,
                    tube_operators.X_v, tube_operators.X_p):
            diff = (mat - mat.T)
            assert abs(diff).max() <= 1e-12 * abs(mat).max()

    def test_positive_definite_inner_products(self, tube_operators):
        rng = np.random.default_rng(5)
        for mat in (tube_operators.X_v, tube_operators.X_p):
            x = rng.standard_normal(mat.shape[0])
            assert x @ (mat @ x) > 0
        u = rng.standard_normal(tube_operators.N_c.shape[0])
        assert u @ (tube_operators.N_c @ u) > 0

    def test_stiffness_against_quadrature_oracle(self):
        """A entries for a quadratic field checked via an independently
        computed H1 seminorm: v^T A v = eta * int |grad v|^2."""
        mesh = two_tet_mesh()
        spaces = build_spaces(mesh)
        ops = assemble_operators(spaces, 2.0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(spaces.n_velocity)
        lam_q, wts = oracles._tet_quad_points()
        total = 0.0
        for t in range(mesh.tets.shape[0]):
            verts = mesh.nodes[mesh.tets[t]]
            vol6 = abs(np.linalg.det(verts[1:] - verts[0]))
            for lam, w in zip(lam_q, wts):
                g = oracles.grad_p2_vector(v, spaces, mesh, t, lam)
                total += w * vol6 * np.sum(g * g)
        assert abs(v @ (ops.A @ v) - 2.0 * total) <= 1e-10 * abs(total)

    def test_assembly_order_invariance(self):
        mesh = straight_tube(resolution=0.6)
        s1 = build_spaces(mesh)
        o1 = assemble_operators(s1, 3.6)
        rng = np.random.default_rng(2)
        shuffled = Mesh(
            nodes=mesh.nodes, tets=mesh.tets[rng.permutation(len(mesh.tets))],
            boundary_tris=mesh.boundary_tris, boundary_tags=mesh.boundary_tags,
            centerlines=mesh.centerlines,
        )
        s2 = build_spaces(shuffled)
        o2 = assemble_operators(s2, 3.6)
        for m1, m2 in ((o1.A, o2.A), (o1.M, o2.M), (o1.B, o2.B)):
            assert abs(m1 - m2).max() <= 1e-13 * abs(m1).max()

    @pytest.mark.parametrize("viscosity", [np.nan, 0.0, -1.0, np.inf])
    def test_non_finite_or_non_positive_viscosity(self, tube_spaces, viscosity):
        with pytest.raises(DimensionMismatch):
            assemble_operators(tube_spaces, viscosity)


class TestConvection:
    def test_zero_field(self, tube_spaces):
        k = ConvectionKernel(tube_spaces)
        z = np.zeros(tube_spaces.n_velocity)
        assert k.state_matrix(z).nnz == 0 or abs(k.state_matrix(z)).max() == 0.0

    def test_linearity(self, tube_spaces):
        k = ConvectionKernel(tube_spaces)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(tube_spaces.n_velocity)
        d = abs(k.state_matrix(2 * v) - 2 * k.state_matrix(v)).max()
        assert d <= 1e-13 * abs(k.state_matrix(v)).max()

    def test_dimension_mismatch(self, tube_spaces):
        k = ConvectionKernel(tube_spaces)
        with pytest.raises(DimensionMismatch):
            k.state_matrix(np.zeros(5))

    def test_direct_quadrature_oracle(self):
        """E(v) v entry i equals direct quadrature of ((v.grad)v).phi_i."""
        mesh = two_tet_mesh()
        spaces = build_spaces(mesh)
        k = ConvectionKernel(spaces)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(spaces.n_velocity)
        ev = k.state_matrix(v) @ v
        for i in rng.choice(spaces.n_velocity, size=6, replace=False):
            phi = np.zeros(spaces.n_velocity)
            phi[i] = 1.0
            direct = oracles.trilinear_quadrature(mesh, spaces, v, v, phi)
            assert abs(ev[i] - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_slot_identities(self, tube_spaces):
        """The three linearization matrices agree on the trilinear values."""
        k = ConvectionKernel(tube_spaces)
        rng = np.random.default_rng(6)
        a, b, c = (rng.standard_normal(tube_spaces.n_velocity) for _ in range(3))
        t1 = float(c @ (k.state_matrix(a) @ b))
        t2 = float(c @ (k.first_slot_matrix(b) @ a))
        t3 = float(a @ (k.test_slot_matrix(c) @ b))
        scale = max(1.0, abs(t1))
        assert abs(t1 - t2) <= 1e-12 * scale
        assert abs(t1 - t3) <= 1e-12 * scale

    def test_skew_symmetry_decay(self):
        """e(v, w, w) with solenoidal v and zero-trace w shrinks under
        refinement at least first order."""
        from ocrom.optctrl import FullOrderModel, OcpConfig

        vals = []
        for res in (0.55, 0.3):
            mesh = straight_tube(resolution=res)
            model = FullOrderModel(
                mesh, OcpConfig(equation="stokes", domain={2: (0.0, 200.0)}))
            v, _ = model.solve_state(np.array([50.0]),
                                     np.zeros(model.spaces.n_control))
            rng = np.random.default_rng(7)
            w = rng.standard_normal(model.spaces.n_velocity)
            boundary = np.unique(np.concatenate(
                [3 * np.unique(model.spaces.btri_entities) + c for c in range(3)]))
            w[boundary] = 0.0
            w /= np.sqrt(w @ (model.operators.X_v @ w))
            k = ConvectionKernel(model.spaces)
            vals.append(abs(w @ (k.state_matrix(v) @ w)))
        assert vals[1] <= 0.55 / 0.3 ** 1 * vals[0] * 0.7  # clear decay


class TestInfSup:
    def test_positive_on_taylor_hood(self, tube_spaces, tube_operators):
        beta = oracles.inf_sup_constant(tube_operators.B, tube_operators.X_v,
                                        tube_operators.X_p, tube_spaces.free_velocity)
        assert beta > 1e-3

    def test_renumbering_invariance(self):
        mesh = straight_tube(resolution=0.6)
        s1 = build_spaces(mesh)
        o1 = assemble_operators(s1, 3.6)
        b1 = oracles.inf_sup_constant(o1.B, o1.X_v, o1.X_p, s1.free_velocity)
        rng = np.random.default_rng(8)
        perm = rng.permutation(mesh.nodes.shape[0])
        inv = np.argsort(perm)
        shuffled = Mesh(nodes=mesh.nodes[perm], tets=inv[mesh.tets],
                        boundary_tris=inv[mesh.boundary_tris],
                        boundary_tags=mesh.boundary_tags,
                        centerlines=mesh.centerlines)
        s2 = build_spaces(shuffled)
        o2 = assemble_operators(s2, 3.6)
        b2 = oracles.inf_sup_constant(o2.B, o2.X_v, o2.X_p, s2.free_velocity)
        assert abs(b1 - b2) <= 1e-10 * b1

    def test_equal_order_p1_p1_unstable(self):
        """Honest P1-P1 pair assembled in-test: spurious pressure modes
        drive the inf-sup constant to (numerical) zero."""
        mesh = straight_tube(resolution=0.45)
        nv = mesh.nodes.shape[0]
        lam_q, wts = oracles._tet_quad_points()
        rows_b, cols_b, vals_b = [], [], []
        rows_k, cols_k, vals_k = [], [], []
        for tet in mesh.tets:
            verts = mesh.nodes[tet]
            vol = oracles.tet_volume(verts)
            gl = oracles.tet_gradlam(verts)  # (4,3) constant P1 gradients
            for a in range(4):
                for b in range(4):
                    # B_p1[p_a, 3 v_b + d] = -int lambda_a  d_d lambda_b
                    for d in range(3):
                        rows_b.append(tet[a])
                        cols_b.append(3 * tet[b] + d)
                        vals_b.append(-vol / 4.0 * gl[b, d])
                    # P1 vector H1 matrix
                    kab = vol * (gl[a] @ gl[b]) + vol / 20.0 * (1 + (a == b))
                    for d in range(3):
                        rows_k.append(3 * tet[a] + d)
                        cols_k.append(3 * tet[b] + d)
                        vals_k.append(kab)
        B = sp.coo_matrix((vals_b, (rows_b, cols_b)),
                          shape=(nv, 3 * nv)).tocsr()
        Xv = sp.coo_matrix((vals_k, (rows_k, cols_k)),
                           shape=(3 * nv, 3 * nv)).tocsr()
        ops = assemble_operators(build_spaces(mesh), 1.0)
        boundary_nodes = np.unique(mesh.boundary_tris)
        dirichlet = set((3 * boundary_nodes[:, None] + np.arange(3)).ravel())
        free = np.array([d for d in range(3 * nv) if d not in dirichlet])
        beta = oracles.inf_sup_constant(B, Xv, ops.X_p, free)
        assert beta <= 1e-6
