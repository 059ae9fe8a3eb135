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
free-restricted blocks and saddle-point matrix.  The Navier-Stokes
references at the end build on the assembled sparse convection matrices:
the full-order KKT Jacobian and residual as a ``sp.bmat`` of sliced blocks and as matrix-vector products (the paths the
fixed-pattern Jacobian and the element-wise residual replace), and a
reduced Newton that reassembles the full-order matrices at every iterate
(the path the precomputed reduced tensor replaces) on a reduced system
assembled block by block from the projected operators (the path the
precomputed constant KKT matrix and affine right-hand side replace), whose
tensor convection terms come from three contractions of the stored tensor
(the path the symmetrized tensor replaces).  The residual and Jacobian of
the whole reduced system from the symmetrized tensor serve the references
that solve on the whole system: a zero-start reduced Newton that builds
every Jacobian with its residual, the reference for zero starts (the path
the chord steps in null-space coordinates replace), and a full Newton from
the warm start, each step solving the x columns of the Jacobian over
[x; mu], for warm-started queries.  A point in null-space coordinates is
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
from ocrom.optctrl import evaluate_objective
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
        E = model.kernel.state_matrix(v_total)
        F = model.kernel.first_slot_matrix(v_total)
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

    def conv(v_ext, w_ext):
        v_full = y_ext @ v_ext
        w_full = y_ext @ w_ext
        e_mat = model.kernel.state_matrix(v_full)
        f_mat = model.kernel.first_slot_matrix(v_full)
        g_mat = model.kernel.test_slot_matrix(w_full)
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
    ``kernel.state_matrix``: the loop ``reduced_tensor`` replaces."""
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


def reduced_system(ops, mu, x, rmu=None):
    """Residual of the whole reduced Navier-Stokes optimality system at
    ``x``, ``K x + rmu`` plus the convection terms, with ``rmu = R [1; mu]``
    (formed here when not given), and a function for its Jacobian over the
    coefficients, ``dr/dx``, or with ``mu_columns`` over the coefficients
    and then the parameters, ``[dr/dx | dr/dmu]``."""
    sv, _, _, sw, _ = ops.blocks
    if rmu is None:
        rmu = ops.R @ np.concatenate([[1.0], mu])
    res, jacobian = rom._convective_system(ops.K, ops.S, sv, sw, x, mu, rmu)
    return res, lambda mu_columns=False: jacobian(ops.R[:, 1:] if mu_columns else None)


def lift_z(ops, mu, z):
    """Coefficients of the whole reduced system at the point ``z`` in
    null-space coordinates: ``ops.F [z; mu]``, with the state and adjoint
    pressures that fit the state and adjoint momentum rows of the
    block-by-block system best in least squares."""
    sv, sp, _, sw, sq = ops.blocks
    x = ops.F @ np.concatenate([z, mu])
    res, _, _ = blockwise_reduced_system(ops, mu, x, tensor_convection(ops))
    b_hom_t = ops.b[:, :ops.n_velocity_modes].T
    x[sp] = -np.linalg.lstsq(b_hom_t, res[sw], rcond=None)[0]
    x[sq] = -np.linalg.lstsq(b_hom_t, res[sv], rcond=None)[0]
    return x


def zero_start_reduced_solve(ops, mu):
    """Reduced Navier-Stokes Newton on the whole system from zero with the
    relative stop test, building each iterate's Jacobian with its residual,
    from the contractions of the symmetrized tensor ``ops.S`` that
    ``reduced_system`` makes.  Returns (coefficients, iterations)."""
    s = ops.S
    nv, n = s.shape[:2]
    sv, _, _, sw, _ = ops.blocks

    def system(x):
        v_ext = np.concatenate([x[sv], mu])
        w = x[sw]
        d = (s.reshape(nv * n, n) @ v_ext).reshape(nv, n)
        g = (w @ s.reshape(nv, n * n)).reshape(n, n)
        res = ops.K @ x + ops.R @ np.concatenate([[1.0], mu])
        res[sv] += w @ d[:, :nv]
        res[sw] += 0.5 * (d @ v_ext)
        jac = ops.K.copy()
        jac[sv, sv] += g[:nv, :nv]
        jac[sv, sw] += d[:, :nv].T
        jac[sw, sv] += d[:, :nv]
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
    kernel = model.kernel
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
        E = model.kernel.state_matrix(v_t)
        G = model.kernel.test_slot_matrix(w_t)
        r_v = r_v + (G @ v_t + E.T @ w_t)[f]
        r_w = r_w + (E @ v_t)[f]
    r_p = ops.B @ w_t
    r_u = model.config.alpha * (ops.N_c @ u) + ops.C.T @ w_t
    r_q = ops.B @ v_t
    r_p[model.locked_pressure] = q[model.locked_pressure]
    r_q[model.locked_pressure] = p[model.locked_pressure]
    return np.concatenate([r_v, r_p, r_u, r_w, r_q])
