"""Independent re-implementations used as oracles by the tests.

The finite-element oracles are written from the quadratic-tetrahedron
definitions directly (shape functions, geometric mapping, Gauss rules),
deliberately not sharing assembly code with the package under test.  The
inf-sup reference solves the dense generalized eigenproblem of a
velocity-pressure pairing.  A sparse LU of a whole optimality matrix is
the reference for the block elimination on its state block.  The gradient
references take a full-order model: J(u) at the state a control drives,
and its adjoint gradient from one state and one adjoint solve, for the
optimality and finite-difference checks; they build their own
free-restricted blocks and saddle-point matrix.  The convection
kernel's reference evaluates every field at the quadrature points of each
element (the path the reference-tensor blocks replace); it takes its shape
tables and element geometry from the definitions here.  The Navier-Stokes
references at the end build on its assembled sparse convection matrices:
the full-order KKT Jacobian and residual as a ``sp.bmat`` of sliced blocks and as matrix-vector products (the paths the
fixed-pattern Jacobian and the element-wise residual replace), and a
reduced Newton that reassembles the full-order matrices at every iterate
(the path the precomputed reduced tensor replaces) on a reduced system
assembled block by block from the projected operators (the path the
precomputed constant KKT matrix and affine right-hand side replace), whose
tensor convection terms come from three contractions of the stored tensor
(the path the symmetrized tensor replaces).  The whole reduced system, its
KKT matrix, affine right-hand side and symmetrized tensor rebuilt from the
stored projections, is the reference for the system in null-space
coordinates; at a point F [z; 1; mu] with zero pressures, its momentum
rows tested with the null-space basis and its Jacobian carried through F
give the residual in z and the Jacobian over z and mu (the path the
precomputed map of the convection Jacobian replaces).  Its residual and
Jacobian serve the references that solve on the whole system: a zero-start
reduced Newton that builds every Jacobian with its residual, the reference
for zero starts (the path the chord steps in null-space coordinates
replace), and a full Newton from the warm start, each step solving the x
columns of the Jacobian over [x; mu], for warm-started queries.  A point in null-space coordinates is
lifted to the whole system's coefficients with pressures fitted to the
momentum rows in least squares.  The per-basis lift of reduced
coefficients to full-order fields is the reference for the Stokes
one-product lift.  The convection tensor projected column by column, each
column's state matrix assembled on its own, is the reference for the one
built from scalar element blocks.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

from ocrom import numerics, rom
from ocrom.errors import NewtonDiverged
from ocrom.optctrl import affine_rhs, evaluate_objective, optimality_matrix
from ocrom.quadrature import tet_rule, tri_rule

TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TRI_EDGES = [(0, 1), (0, 2), (1, 2)]


def p2_values(lam):
    """Quadratic shape-function values at barycentric coordinates ``lam``."""
    lam = np.asarray(lam, dtype=float)
    vals = [l * (2.0 * l - 1.0) for l in lam]
    vals += [4.0 * lam[a] * lam[b] for a, b in TET_EDGES]
    return np.array(vals)


def p2_grad_lambda(lam):
    """d N_i / d lambda_j at a barycentric point, shape (10, 4)."""
    lam = np.asarray(lam, dtype=float)
    g = np.zeros((10, 4))
    for i in range(4):
        g[i, i] = 4.0 * lam[i] - 1.0
    for k, (a, b) in enumerate(TET_EDGES):
        g[4 + k, a] = 4.0 * lam[b]
        g[4 + k, b] = 4.0 * lam[a]
    return g


def tet_gradlam(verts):
    """Gradients of the four barycentric coordinates of one tetrahedron."""
    mat = np.ones((4, 4))
    mat[:, 1:] = verts
    inv = np.linalg.inv(mat)
    return inv[1:, :].T  # (4, 3): row i = grad lambda_i


def tet_volume(verts):
    return abs(np.linalg.det(verts[1:] - verts[0])) / 6.0


def eval_p2_vector(coeffs, spaces, tet, lam):
    """Value of a vector quadratic field at one barycentric point of a tet."""
    ents = spaces.cells10[tet]
    n = p2_values(lam)
    out = np.zeros(3)
    for loc, e in enumerate(ents):
        out += n[loc] * coeffs[3 * e : 3 * e + 3]
    return out


def grad_p2_vector(coeffs, spaces, mesh, tet, lam):
    """Jacobian d v_c / d x_d of a vector quadratic field, shape (3, 3)."""
    ents = spaces.cells10[tet]
    gl = tet_gradlam(mesh.nodes[mesh.tets[tet]])
    gn = p2_grad_lambda(lam) @ gl  # (10, 3)
    out = np.zeros((3, 3))
    for loc, e in enumerate(ents):
        out += np.outer(coeffs[3 * e : 3 * e + 3], gn[loc])
    return out


def _tet_quad_points(degree=4):
    pts, wts = tet_rule(degree)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
    return lam, wts


def trilinear_quadrature(mesh, spaces, a, b, c, degree=4):
    """Direct quadrature of e(a, b, c) = integral ((a . grad) b) . c."""
    lam_q, wts = _tet_quad_points(degree)
    total = 0.0
    for t in range(mesh.tets.shape[0]):
        verts = mesh.nodes[mesh.tets[t]]
        vol6 = abs(np.linalg.det(verts[1:] - verts[0]))
        for lam, w in zip(lam_q, wts):
            av = eval_p2_vector(a, spaces, t, lam)
            gb = grad_p2_vector(b, spaces, mesh, t, lam)
            cv = eval_p2_vector(c, spaces, t, lam)
            total += w * vol6 * float(cv @ (gb @ av))
    return total


def l2_product_quadrature(mesh, spaces, a, b, degree=4):
    """Direct quadrature of integral a . b over the volume."""
    lam_q, wts = _tet_quad_points(degree)
    total = 0.0
    for t in range(mesh.tets.shape[0]):
        verts = mesh.nodes[mesh.tets[t]]
        vol6 = abs(np.linalg.det(verts[1:] - verts[0]))
        for lam, w in zip(lam_q, wts):
            av = eval_p2_vector(a, spaces, t, lam)
            bv = eval_p2_vector(b, spaces, t, lam)
            total += w * vol6 * float(av @ bv)
    return total


class QuadratureConvection:
    """The convection kernel's matrices, residual terms and Jacobian values
    evaluated at the quadrature points of every element: each field's value
    and gradient at the 27 points of ``tet_rule(4)``, summed with the shape
    functions there, 128 elements at a time.  Its shape tables and element
    geometry come from the definitions above, not from the package.  Its
    ``jacobian_values`` takes the bin index in (i, c, j, d) block order:
    entry (i, c, j, d) is row ``3 cells10[e, i] + c`` and column
    ``3 cells10[e, j] + d``."""

    CHUNK = 128

    def __init__(self, spaces):
        self.spaces = spaces
        pts, self.wts = tet_rule(4)
        lam = np.column_stack([1.0 - pts.sum(axis=1), pts])
        self.N = np.array([p2_values(l) for l in lam])  # (nq, 10)
        self.dNdl = np.array([p2_grad_lambda(l) for l in lam])  # (nq, 10, 4)
        mesh = spaces.mesh
        mat = np.ones((mesh.tets.shape[0], 4, 4))
        mat[:, :, 1:] = mesh.nodes[mesh.tets]
        self.gradlam = np.linalg.inv(mat)[:, 1:, :].transpose(0, 2, 1)  # (m, 4, 3)
        self.detJ = np.abs(np.linalg.det(mat))  # 6 |tet| = |det J|

    def element_dofs(self):
        """Velocity dofs per element, (m, 30) in (i, c) order."""
        ent = self.spaces.cells10
        return (3 * ent[:, :, None] + np.arange(3)).reshape(ent.shape[0], 30)

    def _chunks(self):
        m = self.detJ.shape[0]
        for s in range(0, m, self.CHUNK):
            yield np.arange(s, min(s + self.CHUNK, m))

    def _tested(self, x):
        """sum_q N_i(q) x[e, q, ...] for every element e, as one GEMM: (m, 10, ...)."""
        m, nq = x.shape[:2]
        y = self.N.T @ np.moveaxis(x, 1, 0).reshape(nq, -1)
        return np.moveaxis(y.reshape((10, m) + x.shape[2:]), 0, 1)

    def _quadrature(self, *fields):
        """Per chunk of elements: (cells, wdet, gNt, [(value, gradient) of
        each field at the quadrature points]).  gNt[e, q, d, j] = d N_j / d x_d
        and gradient[e, q, d, c] = d a_c / d x_d."""
        spaces = self.spaces
        for a in fields:
            if a.shape[0] != spaces.n_velocity:
                raise ValueError("velocity coefficient length mismatch")
        for cells in self._chunks():
            gNt = np.einsum("qia,mad->mqdi", self.dNdl, self.gradlam[cells], optimize=True)
            ent = spaces.cells10[cells]
            at_qp = []
            for a in fields:
                coeff = a[3 * ent[:, :, None] + np.arange(3)][:, None]  # (c, 1, 10, 3)
                at_qp.append(((self.N @ coeff)[:, 0], gNt @ coeff))
            yield cells, self.wts[None, :] * self.detJ[cells, None], gNt, at_qp

    def _state_block(self, wdet, gNt, aq):
        """Scalar (c, 10, 10) block of e(a, N_j, N_i)."""
        adv = (aq[:, :, None, :] @ gNt)[:, :, 0]  # a.grad N_j, (c, nq, 10)
        return self._tested(wdet[:, :, None] * adv)

    def _first_slot_block(self, wdet, gaq):
        """(c, 10, 3, 10, 3) block of e(phi_j, a, phi_i): int N_i N_j d a_c/d x_d."""
        m, nq = wdet.shape
        nn = (self.N[:, :, None] * self.N[:, None, :]).reshape(nq, 100)
        gq = (wdet[:, :, None, None] * gaq).transpose(1, 0, 2, 3).reshape(nq, -1)
        return (nn.T @ gq).reshape(10, 10, m, 3, 3).transpose(2, 0, 4, 1, 3)

    def _test_slot_block(self, wdet, gNt, aq):
        """(c, 10, 3, 10, 3) block of e(phi_i, phi_j, a): int N_i (d_c N_j) a_d."""
        m, nq = wdet.shape
        x = (wdet[:, :, None, None] * self.N[None, :, :, None] * aq[:, :, None, :])
        g = x.reshape(m, nq, 30).transpose(0, 2, 1) @ gNt.reshape(m, nq, 30)
        return g.reshape(m, 10, 3, 3, 10).transpose(0, 1, 3, 4, 2)

    def _convection_block(self, wdet, gNt, aq, gaq):
        """(c, 10, 3, 10, 3) block of e(a, phi_j, phi_i) + e(phi_j, a, phi_i)."""
        el = self._first_slot_block(wdet, gaq)
        e = self._state_block(wdet, gNt, aq)
        for c in range(3):
            el[:, :, c, :, c] += e
        return el

    def state_matrix(self, a):
        a = np.asarray(a, dtype=float)
        ns = self.spaces.n_scalar
        rows, cols, vals = [], [], []
        for cells, wdet, gNt, [(aq, _)] in self._quadrature(a):
            ent = self.spaces.cells10[cells]
            rows.append(np.repeat(ent, 10, axis=1).ravel())
            cols.append(np.tile(ent, (1, 10)).ravel())
            vals.append(self._state_block(wdet, gNt, aq).ravel())
        Es = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(ns, ns)).tocsr()
        return sp.kron(Es, sp.identity(3, format="csr"), format="csr")

    def _vector_matrix(self, a, first_slot):
        n = self.spaces.n_velocity
        dofs = self.element_dofs()
        rows, cols, vals = [], [], []
        for cells, wdet, gNt, [(aq, gaq)] in self._quadrature(np.asarray(a, dtype=float)):
            if first_slot:
                el = self._first_slot_block(wdet, gaq)
            else:
                el = self._test_slot_block(wdet, gNt, aq)
            d = dofs[cells]
            shape = (d.shape[0], 30, 30)
            rows.append(np.broadcast_to(d[:, :, None], shape).ravel())
            cols.append(np.broadcast_to(d[:, None, :], shape).ravel())
            vals.append(el.ravel())
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n)).tocsr()

    def first_slot_matrix(self, a):
        return self._vector_matrix(a, True)

    def test_slot_matrix(self, a):
        return self._vector_matrix(a, False)

    def residual_terms(self, v, w):
        """(E(v)^T w + G(w) v, E(v) v) with E = state_matrix and
        G = test_slot_matrix, evaluated without assembling either."""
        n = self.spaces.n_velocity
        dofs = self.element_dofs()
        r_v, r_w = np.zeros(n), np.zeros(n)
        for cells, wdet, gNt, [(vq, gv), (wq, _)] in self._quadrature(v, w):
            m, nq = wdet.shape
            ww = wdet[:, :, None] * wq
            # tested with N_i: (v.grad) v and (grad v)^T w
            conv = (wdet[:, :, None, None] * vq[:, :, None, :] @ gv)[:, :, 0]
            gtw = (gv @ ww[..., None])[..., 0]
            # w_c (v.grad N_j), summed over the points and d at once
            vw = (vq[:, :, :, None] * ww[:, :, None, :]).reshape(m, 3 * nq, 3)
            el_v = self._tested(gtw) + gNt.reshape(m, 3 * nq, 10).transpose(0, 2, 1) @ vw
            d = dofs[cells].ravel()
            r_v += np.bincount(d, el_v.ravel(), n)
            r_w += np.bincount(d, self._tested(conv).ravel(), n)
        return r_v, r_w

    def jacobian_values(self, v, w, index, size):
        """Element blocks of E(v) + F(v) and of G(w) (F = first_slot_matrix)
        summed into ``size`` bins: entry k of element e's flattened
        (i, c, j, d) block goes to bin ``index[e, k]``.  Returns both sums;
        G's is None, and not summed, when ``w`` is None."""
        fields = (v,) if w is None else (v, w)
        ef, g = np.zeros(size), None if w is None else np.zeros(size)
        for cells, wdet, gNt, [(vq, gv), *w_at_qp] in self._quadrature(*fields):
            idx = index[cells].ravel().astype(np.intp)
            ef += np.bincount(idx, self._convection_block(wdet, gNt, vq, gv).ravel(), size)
            if g is not None:
                [(wq, _)] = w_at_qp
                g += np.bincount(idx, self._test_slot_block(wdet, gNt, wq).ravel(), size)
        return ef, g


def p2_tri_values(lam):
    lam = np.asarray(lam, dtype=float)
    vals = [l * (2.0 * l - 1.0) for l in lam]
    vals += [4.0 * lam[a] * lam[b] for a, b in TRI_EDGES]
    return np.array(vals)


def surface_flux(mesh, spaces, coeffs, tag, degree=4):
    """Integral of v . n over the boundary triangles carrying ``tag``.

    The outward normal is taken from the owning tetrahedron (boundary faces
    point away from the volume).
    """
    pts, wts = tri_rule(degree)
    lam_q = np.column_stack([1.0 - pts.sum(axis=1), pts])
    sel = np.nonzero(mesh.boundary_tags == tag)[0]
    total = 0.0
    for k in sel:
        tri = mesh.boundary_tris[k]
        verts = mesh.nodes[tri]
        cross = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        area2 = np.linalg.norm(cross)
        normal = cross / area2
        # orient outward: away from the centroid of an owning tet
        owner = None
        tri_set = set(tri)
        for t, tet in enumerate(mesh.tets):
            if tri_set.issubset(set(tet)):
                owner = t
                break
        inside = mesh.nodes[mesh.tets[owner]].mean(axis=0)
        if (verts.mean(axis=0) - inside) @ normal < 0:
            normal = -normal
        ents = spaces.btri_entities[k]
        for lam, w in zip(lam_q, wts):
            n6 = p2_tri_values(lam)
            val = np.zeros(3)
            for loc, e in enumerate(ents):
                val += n6[loc] * coeffs[3 * e : 3 * e + 3]
            total += w * area2 * float(val @ normal)
    return total


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting (solver oracle)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) == 0.0:
            raise ZeroDivisionError("singular")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def inf_sup_constant(B, X_v, X_p, free_velocity):
    """Smallest inf-sup constant of a divergence pairing.

    beta^2 is the smallest eigenvalue of B Xv^-1 B^T q = beta^2 Xp q with the
    velocity space restricted to ``free_velocity``.
    """
    Bf = sp.csr_matrix(B)[:, free_velocity]
    Xf = sp.csr_matrix(X_v)[free_velocity][:, free_velocity]
    lu = numerics.factorize(Xf.tocsc())
    Bt = Bf.T.toarray()
    S = Bf @ np.column_stack([lu.solve(Bt[:, k]) for k in range(Bt.shape[1])])
    w = eigh(0.5 * (S + S.T), np.asarray(X_p.todense()), eigvals_only=True)
    return float(np.sqrt(max(float(w[0]), 0.0)))


def kkt_lu(K):
    """Solve function of one sparse LU of a whole optimality matrix or
    Navier-Stokes Jacobian (the path the block elimination on its state
    block replaces)."""
    return numerics.factorize(K).solve


def free_blocks(model):
    """The model's operators restricted to its free velocity dofs, and the
    locked-pressure pin: (M_ff, A_ff, B_f, C_f, pin)."""
    ops, f = model.operators, model.free
    pin = np.zeros(model.spaces.n_pressure)
    pin[model.locked_pressure] = 1.0
    return ops.M[f][:, f], ops.A[f][:, f], ops.B[:, f], ops.C[f], sp.diags(pin)


def saddle_matrix(model, X_ff):
    """Saddle-point matrix [[X_ff, B_f^T], [B_f, pin]] on the free dofs."""
    _, _, B_f, _, pin = free_blocks(model)
    return sp.bmat([[X_ff, B_f.T], [B_f, pin]], format="csc")


def solve_adjoint(model, mu, v_total):
    """Adjoint solve of a full-order model at a given state; returns
    (w_total, q)."""
    model.check_mu(mu)
    ops = model.operators
    f = model.free
    rhs = np.concatenate([-(ops.M @ (v_total - model.target))[f],
                          np.zeros(model.spaces.n_pressure)])
    X_ff = free_blocks(model)[1]
    if model.config.equation == "navier-stokes":
        conv = QuadratureConvection(model.spaces)
        E = conv.state_matrix(v_total)
        F = conv.first_slot_matrix(v_total)
        X_ff = X_ff + (E + F).T[f][:, f]
    sol = numerics.factorize(saddle_matrix(model, X_ff)).solve(rhs)
    return model._expand(sol[: f.shape[0]]), sol[f.shape[0]:]


def reduced_gradient(model, mu, u):
    """Gradient of J(u) via one state and one adjoint solve."""
    v_t, _ = model.solve_state(mu, u)
    w_t, _ = solve_adjoint(model, mu, v_t)
    return model.config.alpha * (model.operators.N_c @ u) + model.operators.C.T @ w_t


def objective_of_control(model, mu, u):
    """J(u): the objective at the state the control ``u`` drives."""
    v_t, _ = model.solve_state(mu, u)
    return evaluate_objective(v_t, u, model.target, model.operators, model.config.alpha)


def boundary_triangle_entities(mesh):
    """Entities (3 vertices, then the edges (0, 1), (0, 2), (1, 2)) of every
    boundary triangle, each edge looked up in a dict of all tet edges
    numbered in sorted (a, b) order after the vertices."""
    pairs = np.sort(mesh.tets[:, TET_EDGES].reshape(-1, 2), axis=1)
    edges = np.unique(pairs, axis=0)
    nv = mesh.nodes.shape[0]
    index = {(int(a), int(b)): nv + k for k, (a, b) in enumerate(edges)}
    return np.array([list(tri) + [index[tuple(sorted((int(tri[i]), int(tri[j]))))]
                                  for i, j in ((0, 1), (0, 2), (1, 2))]
                     for tri in mesh.boundary_tris], dtype=np.int64).reshape(-1, 6)


def reduced_dimension(basis, n_lift):
    """Reduced optimality-system size counted from the basis columns:
    velocity and pressure twice (state and adjoint), control once, plus
    the ``n_lift`` lifting columns."""
    return 2 * basis.y_v.shape[1] + 2 * basis.y_p.shape[1] + basis.y_u.shape[1] + n_lift


def blockwise_reduced_system(ops, mu, x, conv):
    """Residual and Jacobian of the reduced optimality system at ``x``,
    assembled slice by slice from the projected operators, as
    ``reduced_system`` returns them (``conv`` None for Stokes), plus
    (v_ext, u_n)."""
    nv, np_, nu = ops.n_velocity_modes, ops.y_p.shape[1], ops.y_u.shape[1]
    sv = slice(0, nv)
    sp_ = slice(nv, nv + np_)
    su = slice(nv + np_, nv + np_ + nu)
    sw = slice(nv + np_ + nu, 2 * nv + np_ + nu)
    sq = slice(2 * nv + np_ + nu, 2 * nv + 2 * np_ + nu)
    v_ext = np.concatenate([x[sv], mu])
    w_ext = np.concatenate([x[sw], np.zeros(ops.n_lift)])
    u_n = x[su]
    r_v = (ops.m @ v_ext - ops.h + ops.a @ w_ext)[:nv] + ops.b.T[:nv] @ x[sq]
    r_p = ops.b @ w_ext
    r_u = ops.alpha * (ops.n_ctrl @ u_n) + ops.c.T @ w_ext
    r_w = (ops.a @ v_ext)[:nv] + ops.b.T[:nv] @ x[sp_] + (ops.c @ u_n)[:nv]
    r_q = ops.b @ v_ext
    n = 2 * nv + 2 * np_ + nu
    jac = np.zeros((n, n))
    jac[sv, sv] = ops.m[:nv, :nv]
    jac[sv, sw] = ops.a[:nv, :nv]
    jac[sv, sq] = ops.b.T[:nv]
    jac[sp_, sw] = ops.b[:, :nv]
    jac[su, su] = ops.alpha * ops.n_ctrl
    jac[su, sw] = ops.c.T[:, :nv]
    jac[sw, sv] = ops.a[:nv, :nv]
    jac[sw, sp_] = ops.b.T[:nv]
    jac[sw, su] = ops.c[:nv]
    jac[sq, sv] = ops.b[:, :nv]
    if conv is not None:
        cv, cw, blocks = conv(v_ext, w_ext)
        d_vv, d_vw, d_wv = blocks()
        r_v += cv[:nv]
        r_w += cw[:nv]
        jac[sv, sv] += d_vv[:nv, :nv]
        jac[sv, sw] += d_vw[:nv, :nv]
        jac[sw, sv] += d_wv[:nv, :nv]
    res = np.concatenate([r_v, r_p, r_u, r_w, r_q])
    return res, jac, (v_ext, u_n)


def per_basis_lift(ops, x, mu):
    """Full-order fields of reduced coefficients ``x`` at ``mu``, one basis
    product per field (the path the Stokes one-product lift replaces)."""
    v_n, p_n, u_n, w_n, q_n = (x[s] for s in ops.blocks)
    return {"v": ops.y_v @ v_n + ops.lifting @ mu, "p": ops.y_p @ p_n,
            "u": ops.y_u @ u_n, "w": ops.y_v @ w_n, "q": ops.y_p @ q_n}


def reassembled_convection(ops, model):
    """Reduced convection terms from freshly assembled full-order matrices,
    in the ``conv`` form ``blockwise_reduced_system`` takes."""
    y_ext = np.column_stack([ops.y_v, ops.lifting])
    kernel = QuadratureConvection(model.spaces)

    def conv(v_ext, w_ext):
        v_full = y_ext @ v_ext
        w_full = y_ext @ w_ext
        e_mat = kernel.state_matrix(v_full)
        f_mat = kernel.first_slot_matrix(v_full)
        g_mat = kernel.test_slot_matrix(w_full)
        cv = y_ext.T @ (g_mat @ v_full + e_mat.T @ w_full)
        cw = y_ext.T @ (e_mat @ v_full)
        d_vv = y_ext.T @ ((g_mat + g_mat.T) @ y_ext)
        d_wv = y_ext.T @ ((e_mat + f_mat) @ y_ext)
        return cv, cw, lambda: (d_vv, d_wv.T, d_wv)

    return conv


def reassembled_reduced_solve(ops, model, mu):
    """Reduced Navier-Stokes Newton with per-iteration reassembly of the
    convection terms on the block-by-block reduced system, from the start
    (lifted by ``lift_z``) and to the stop threshold that ``rom._start``
    gives the tensor path; returns (coefficients, objective, iterations)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    conv = reassembled_convection(ops, model)
    z, tol = rom._start(ops, mu)
    x = lift_z(ops, mu, z)
    res, jac, (v_ext, u_n) = blockwise_reduced_system(ops, mu, x, conv)
    for it in range(rom.NEWTON_MAX_ITER + 1):
        if np.linalg.norm(res) <= tol:
            return x, rom._reduced_objective(ops, v_ext, u_n), it
        x = x + np.linalg.solve(jac, -res)
        res, jac, (v_ext, u_n) = blockwise_reduced_system(ops, mu, x, conv)
    raise NewtonDiverged(
        f"reassembled reduced Newton: no convergence in {rom.NEWTON_MAX_ITER} iterations"
    )


def per_column_tensor(kernel, y):
    """t[g, j, b] = y_g^T E(y_j) y_b with each E(y_j) assembled by
    ``kernel.state_matrix`` (a ``QuadratureConvection``): the loop
    ``reduced_tensor`` replaces."""
    n = y.shape[1]
    t = np.empty((n, n, n))
    for j in range(n):
        t[:, j, :] = y.T @ (kernel.state_matrix(y[:, j]) @ y)
    return t


def tensor_convection(ops):
    """Convection terms from the stored tensor t[g, a, b] = e(y_a, y_b, y_g)
    by three contractions, fv = t.v over b, ev = t.v over a and gw = w.t
    over g, in the ``conv`` form ``blockwise_reduced_system`` takes (the
    path the symmetrized tensor replaces)."""
    t = ops.tensor
    n = t.shape[0]

    def conv(v_ext, w_ext):
        fv = (t.reshape(n * n, n) @ v_ext).reshape(n, n)
        d_wv = v_ext @ t + fv
        gw = (w_ext @ t.reshape(n, n * n)).reshape(n, n)
        return d_wv.T @ w_ext, fv @ v_ext, lambda: (gw + gw.T, d_wv.T, d_wv)

    return conv


def whole_system(ops):
    """(K, R, S) of the whole reduced optimality system, rebuilt from the
    stored projections: the constant KKT matrix K and the affine right-hand
    side R by ``optctrl.optimality_matrix`` and ``affine_rhs`` (residual
    ``K x + R [1; mu]`` plus convection), and for Navier-Stokes the tensor
    t symmetrized in its two velocity slots on the homogeneous test rows g,
    S[g, a, b] = t[g, a, b] + t[g, b, a] (None for Stokes)."""
    nv = ops.n_velocity_modes
    K = optimality_matrix(ops.m[:nv, :nv], ops.a[:nv, :nv], ops.b[:, :nv], ops.c[:nv],
                          ops.n_ctrl, ops.alpha).toarray()
    R = affine_rhs([s.stop for s in ops.blocks], ops.h[:nv], ops.m[:nv, nv:],
                   ops.a[:nv, nv:], ops.b[:, nv:])
    if ops.tensor is None:
        return K, R, None
    t = ops.tensor[:nv]
    return K, R, t + t.transpose(0, 2, 1)


def reduced_system(ops, mu, x):
    """Residual of the whole reduced Navier-Stokes optimality system at
    ``x``, ``K x + R [1; mu]`` plus the convection terms (``whole_system``),
    and a function for its Jacobian over the coefficients, ``dr/dx``, or
    with ``mu_columns`` over the coefficients and then the parameters,
    ``[dr/dx | dr/dmu]``.

    The convection comes from contractions of the symmetrized tensor S
    over the whole system: with d = S.v_ext over the last slot, the adjoint
    momentum rows (v) get w.d, the state momentum rows (w) d v_ext / 2, and
    the Jacobian the blocks d and w.S over the first slot."""
    K, R, s = whole_system(ops)
    nv, n = s.shape[:2]
    sv, _, _, sw, _ = ops.blocks
    v_ext = np.concatenate([x[sv], mu])
    w = x[sw]
    d = (s.reshape(nv * n, n) @ v_ext).reshape(nv, n)
    res = K @ x + R @ np.concatenate([[1.0], mu])
    res[sv] += w @ d[:, :nv]
    res[sw] += 0.5 * (d @ v_ext)

    def jacobian(mu_columns=False):
        g = (w @ s.reshape(nv, n * n)).reshape(n, n)
        jac = K.copy()
        jac[sv, sv] += g[:nv, :nv]
        jac[sv, sw] += d[:, :nv].T
        jac[sw, sv] += d[:, :nv]
        if not mu_columns:
            return jac
        jac_mu = R[:, 1:].copy()
        jac_mu[sv] += g[:nv, nv:]
        jac_mu[sw] += d[:, nv:]
        return np.hstack([jac, jac_mu])

    return res, jacobian


def z_system(ops, mu, z):
    """Residual of the system in z at ``z`` and its Jacobian over z and
    then mu, from ``reduced_system``, which contracts ``ops.tensor`` itself:
    the whole system at x = F [z; 1; mu] with zero pressures, its adjoint
    and state momentum rows tested with N^T (N = F[sv, :k], the pressures
    dropping out as b_hom N = 0), and its Jacobian carried over z and mu by
    the chain rule through F."""
    sv, sp, _, sw, sq = ops.blocks
    n, dim = z.size, ops.dimension()
    F = ops.F.copy()
    F[sp] = F[sq] = 0.0
    N = F[sv, :n // 2]
    res, jacobian = reduced_system(ops, mu, F @ np.concatenate([z, [1.0], mu]))
    jac = jacobian(mu_columns=True)
    jac = np.hstack([jac[:, :dim] @ F[:, :n], jac[:, :dim] @ F[:, n + 1:] + jac[:, dim:]])
    return (np.concatenate([N.T @ res[sv], N.T @ res[sw]]),
            np.vstack([N.T @ jac[sv], N.T @ jac[sw]]))


def lift_z(ops, mu, z):
    """Coefficients of the whole reduced system at the point ``z`` in
    null-space coordinates: the velocities and control of
    ``ops.F [z; 1; mu]``, with the state and adjoint pressures that fit the
    state and adjoint momentum rows of the block-by-block system best in
    least squares."""
    sv, sp, _, sw, sq = ops.blocks
    x = ops.F @ np.concatenate([z, [1.0], mu])
    x[sp] = x[sq] = 0.0
    res, _, _ = blockwise_reduced_system(ops, mu, x, tensor_convection(ops))
    b_hom_t = ops.b[:, :ops.n_velocity_modes].T
    x[sp] = -np.linalg.lstsq(b_hom_t, res[sw], rcond=None)[0]
    x[sq] = -np.linalg.lstsq(b_hom_t, res[sv], rcond=None)[0]
    return x


def zero_start_reduced_solve(ops, mu):
    """Reduced Navier-Stokes Newton on the whole system from zero with the
    relative stop test, building each iterate's Jacobian with its residual
    by ``reduced_system``.  Returns (coefficients, iterations)."""

    def system(x):
        res, jacobian = reduced_system(ops, mu, x)
        jac = jacobian()
        return res, lambda rhs: np.linalg.solve(jac, rhs)

    x, _, iters = numerics.newton(system, np.zeros(ops.dimension()), rom.NEWTON_TOL_REL,
                                  rom.NEWTON_TOL_ABS, rom.NEWTON_MAX_ITER)
    return x, iters


def warm_newton_reduced_solve(ops, mu):
    """Reduced Navier-Stokes Newton on the whole system from the warm start
    of ``rom._start`` (lifted by ``lift_z``) to its stop threshold, each
    step building the Jacobian over [x; mu], cutting out its x columns and
    solving them with ``np.linalg.solve``.  Returns (coefficients,
    iterations)."""
    n = ops.dimension()

    def system(x):
        res, jacobian = reduced_system(ops, mu, x)
        return res, lambda rhs: np.linalg.solve(jacobian(mu_columns=True)[:, :n], rhs)

    z, tol = rom._start(ops, mu)
    x, _, iters = numerics.newton(system, lift_z(ops, mu, z), 0.0, tol, rom.NEWTON_MAX_ITER)
    return x, iters


def bmat_jacobian(model, v_total, w_total):
    """Navier-Stokes KKT Jacobian at full velocity vectors, from the
    assembled convection matrices sliced to the free dofs and ``sp.bmat``."""
    f = model.free
    kernel = QuadratureConvection(model.spaces)
    E = kernel.state_matrix(v_total)
    F = kernel.first_slot_matrix(v_total)
    G = kernel.test_slot_matrix(w_total)
    M_ff, A_ff, B_f, C_f, pin = free_blocks(model)
    J11 = M_ff + (G + G.T)[f][:, f]
    J41 = A_ff + (E + F)[f][:, f]
    return sp.bmat(
        [
            [J11, None, None, J41.T, B_f.T],
            [None, None, None, B_f, pin],
            [None, None, model.config.alpha * model.operators.N_c, C_f.T, None],
            [J41, B_f.T, C_f, None, None],
            [B_f, pin, None, None, None],
        ],
        format="csc",
    )


def matrix_kkt_residual(model, x, mu, nonlinear):
    """KKT residual with the convection terms as products of the assembled
    matrices E(v) and G(w)."""
    ops = model.operators
    f = model.free
    v_f, p, u, w_f, q = model._split(x)
    v_t = model._expand(v_f) + model.lifting_field(mu)
    w_t = model._expand(w_f)
    r_v = (ops.M @ (v_t - model.target) + ops.A @ w_t + ops.B.T @ q)[f]
    r_w = (ops.A @ v_t + ops.B.T @ p)[f] + (ops.C @ u)[f]
    if nonlinear:
        kernel = QuadratureConvection(model.spaces)
        E = kernel.state_matrix(v_t)
        G = kernel.test_slot_matrix(w_t)
        r_v = r_v + (G @ v_t + E.T @ w_t)[f]
        r_w = r_w + (E @ v_t)[f]
    r_p = ops.B @ w_t
    r_u = model.config.alpha * (ops.N_c @ u) + ops.C.T @ w_t
    r_q = ops.B @ v_t
    r_p[model.locked_pressure] = q[model.locked_pressure]
    r_q[model.locked_pressure] = p[model.locked_pressure]
    return np.concatenate([r_v, r_p, r_u, r_w, r_q])
