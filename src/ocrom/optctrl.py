"""Full-order parameterized optimal flow control.

Solves the coupled first-order optimality system of the tracking problem

    min 1/2 ||v - v_o||^2_{L2(Omega)} + alpha/2 ||u||^2_{L2(Gamma_o)}

subject to Stokes or steady Navier-Stokes flow with parabolic Dirichlet
inflow (scaled by a per-inlet Reynolds number), no-slip walls, and the
control acting as Neumann data on the outlets.  Inflow data is absorbed by
per-inlet lifting fields (each a divergence-free auxiliary Stokes solve), so
unknowns live in the homogeneous velocity space.

The monolithic unknown ordering is (v, p, u, w, q); block rows follow the
same order: adjoint momentum, adjoint continuity, optimality, state
momentum, state continuity.  ``optimality_matrix`` and ``affine_rhs`` build
the system ``K x + R [1; mu] = 0``, affine in the parameters, at both orders
(here and in ``rom``); the state equations are its w and q rows on the v
and p columns.  Locked pressures (empty divergence rows) are pinned to
zero on q in the adjoint continuity rows and on p in the state ones, so
the state block and the adjoint block (v and p rows on the w and q
columns) are one and the same slice S of K.

The model factorizes S at construction; the liftings, the Stokes state
solve and every Stokes optimality solve run on that LU.  Every optimality
solve, Stokes or a Navier-Stokes Newton step, is one block elimination on
the LU of its matrix's state block (``_elimination``): the state by that
LU, the adjoint by its transposed pass, the control by a small dense Schur
complement, then refinement against the whole matrix.  Nothing of the
optimality system's size is factorized.  Navier-Stokes is Newton from the
Stokes solution, run like the state sub-solve by the one driver
``numerics.newton`` with this module's ``NEWTON_*`` settings.  Its
Jacobians keep K's layout (state block S(v), adjoint block S(v)^T, (v, v)
block M + G(w) + G(w)^T) and share one sparsity pattern, built on the
first Navier-Stokes Jacobian of a model: an assembly adds the element
convection blocks to the constant Stokes values in place, and the
residual's convection terms are evaluated element-wise without a matrix.
Both solves take their Newton steps from ``numerics.newton_step_solver``,
which prepares a raw solve of the first Jacobian it meets (the
elimination, or an LU of the state block) and serves later steps by GMRES
preconditioned with it.  A solve has its own step solver, except inside
``FullOrderModel.continuation``: there successive solves follow one path,
each starting from the previous converged solution and all sharing one
step solver, so a snapshot build factorizes about once.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import DimensionMismatch, NewtonDiverged, ParameterOutOfDomain, UnknownTag
from .fem import ConvectionKernel, assemble_operators, build_spaces
from .mesh import centerline_query

NEWTON_TOL_REL = 1e-9
NEWTON_TOL_ABS = 1e-12
NEWTON_MAX_ITER = 25


@dataclass
class OcpConfig:
    """Physical settings and parameter domain of the control problem."""

    equation: str = "stokes"  # "stokes" | "navier-stokes"
    viscosity: float = 3.6  # mm^2/s
    v_const: float = 350.0  # mm/s
    alpha: float = 1e-2
    domain: dict = field(default_factory=dict)  # inlet tag -> (Re_min, Re_max)

    def __post_init__(self):
        # the comparisons are false for NaN
        if not 0.0 < self.alpha < np.inf:
            raise DimensionMismatch(f"penalty alpha must be positive and finite: {self.alpha}")
        if not 0.0 < self.viscosity < np.inf:
            raise DimensionMismatch(f"viscosity must be positive and finite: {self.viscosity}")
        if not np.isfinite(self.v_const):
            raise DimensionMismatch(f"target speed v_const must be finite: {self.v_const}")
        if self.equation not in ("stokes", "navier-stokes"):
            raise DimensionMismatch(f"unknown equation kind {self.equation!r}")
        for tag, (lo, hi) in self.domain.items():
            if not lo <= hi:
                raise DimensionMismatch(f"domain interval for tag {tag} reversed or NaN")


def check_parameters(mu, lo, hi):
    """``mu`` as a float vector, checked against the finite part of the box
    [lo, hi] (NaN and +-inf are outside it, on an unbounded domain too)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.shape != lo.shape:
        raise DimensionMismatch(f"expected parameters of shape {lo.shape}, got shape {mu.shape}")
    outside = ~((lo <= mu) & (mu <= hi) & np.isfinite(mu))
    if outside.any():
        k = int(np.argmax(outside))
        raise ParameterOutOfDomain(
            f"Re={mu[k]:g} outside [{lo[k]:g}, {hi[k]:g}] (parameter {k + 1})")
    return mu


@dataclass
class OcpSolution:
    """Coefficient vectors of one optimality-system solve (full dof vectors)."""

    mu: np.ndarray
    v: np.ndarray  # state velocity incl. lifting, mm/s
    p: np.ndarray
    u: np.ndarray
    w: np.ndarray
    q: np.ndarray
    v_hom: np.ndarray  # state velocity with the lifting removed
    objective: float
    kkt_residual: float
    newton_iterations: int


@dataclass
class _JacobianPattern:
    """CSC pattern shared by a model's Navier-Stokes Jacobians."""

    data0: np.ndarray  # the Stokes matrix's values, zero elsewhere
    indices: np.ndarray  # int32 CSC row indices
    indptr: np.ndarray  # int32 CSC column pointers
    index: np.ndarray  # (m, 900) int32 coupling bin of each (c, d, i, j) block entry
    j11: np.ndarray  # int32 position in .data of each coupling in J11
    j11t: np.ndarray  # ... of its transposed position in J11
    j41: np.ndarray  # ... in J41
    j14: np.ndarray  # ... of its transposed position, in J14 = J41^T


@dataclass
class _Path:
    """The last converged KKT vector and the step solver of a path of
    Navier-Stokes solves."""

    step: object
    x: np.ndarray = None


def optimality_matrix(m, a, b, c, n_ctrl, alpha, pin=None):
    """The optimality matrix K in the (v, p, u, w, q) layout from its
    blocks: mass ``m``, stiffness ``a``, divergence ``b``, control ``c``,
    control mass ``n_ctrl``, and ``pin`` in the adjoint continuity rows on
    q and in the state continuity rows on p.  The state block (rows w, q;
    columns v, p) and the adjoint block (rows v, p; columns w, q) are then
    one matrix S = [[a, b^T], [b, pin]]."""
    return sp.bmat([[m, None, None, a, b.T],
                    [None, None, None, b, pin],
                    [None, None, alpha * n_ctrl, c.T, None],
                    [a, b.T, c, None, None],
                    [b, pin, None, None, None]], format="csc")


def affine_rhs(ends, h, m_lift, a_lift, b_lift):
    """R of ``K x + R [1; mu]`` for (v, p, u, w, q) block ``ends``: column 0
    is minus the target load ``h`` in the v rows, column k the k-th lifting's
    mass, stiffness and divergence terms in the v, w and q rows."""
    R = np.zeros((ends[-1], 1 + m_lift.shape[1]))
    r_v, _, _, r_w, r_q = np.split(R, ends[:-1])
    r_v[:, 0] = -h
    r_v[:, 1:] = m_lift
    r_w[:, 1:] = a_lift
    r_q[:, 1:] = b_lift
    return R


def build_target(mesh, spaces, v_const):
    """Parabolic target velocity along the centerlines, interpolated at dofs.

    v_o(x) = v_const (1 - r^2/R^2) t_c, clamped to zero outside the lumen.
    """
    r, R, tau, _ = centerline_query(mesh, spaces.entity_coords)
    factor = np.maximum(0.0, 1.0 - (r / R) ** 2)
    return (v_const * factor[:, None] * tau).ravel()


def inlet_geometry(mesh, tag):
    """Center point, outward normal and radius of an inlet boundary."""
    if tag not in mesh.inlet_tags():
        raise UnknownTag(f"tag {tag} is not an inlet of this mesh")
    sel = mesh.boundary_tags == tag
    centroid = mesh.nodes[mesh.boundary_tris[sel]].mean(axis=(0, 1))
    best = None
    for cl in mesh.centerlines:
        d = np.linalg.norm(cl.points[0] - centroid)
        if best is None or d < best[0]:
            tangent = cl.points[1] - cl.points[0]
            tangent = tangent / np.linalg.norm(tangent)
            best = (d, cl.points[0], -tangent, float(cl.radii[0]))
    _, center, normal, radius = best
    return center, normal, radius


def build_inflow(mesh, spaces, tag, reynolds, viscosity):
    """Parabolic inlet Dirichlet data as a full-length velocity vector.

    v_in = -(eta Re / R_in) (1 - r^2 / R_in^2) n_in with r measured from the
    inlet center; entries are nonzero only on the requested inlet's dofs.
    """
    center, normal, radius = inlet_geometry(mesh, tag)
    g = np.zeros(spaces.n_velocity)
    dofs = spaces.inlet_dofs[tag]
    ents = np.unique(dofs // 3)
    peak = viscosity * reynolds / radius
    for e in ents:
        x = spaces.entity_coords[e]
        r2 = np.sum((x - center) ** 2) - ((x - center) @ normal) ** 2
        factor = max(0.0, 1.0 - r2 / radius**2)
        g[3 * e : 3 * e + 3] = -peak * factor * normal
    return g


def evaluate_objective(v, u, target, operators, alpha):
    """J = 1/2 (v - v_o)^T M (v - v_o) + alpha/2 u^T N_c u."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.shape[0] != operators.M.shape[0] or u.shape[0] != operators.N_c.shape[0]:
        raise DimensionMismatch("objective input lengths do not match operators")
    dv = v - target
    return float(0.5 * dv @ (operators.M @ dv) + 0.5 * alpha * u @ (operators.N_c @ u))


class FullOrderModel:
    """Mesh, spaces, operators, target and liftings bundled for many-query use.

    ``domain_lo``/``domain_hi`` bound the parameters, one entry per inlet in
    tag order (unbounded when the configuration gives no domain).
    """

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config
        self.spaces = build_spaces(mesh)
        self.operators = ops = assemble_operators(self.spaces, config.viscosity)
        self.kernel = ConvectionKernel(self.spaces)
        self._target = build_target(mesh, self.spaces, config.v_const)
        self._target.flags.writeable = False
        self.inlet_tags = sorted(mesh.inlet_tags())
        domain = config.domain or dict.fromkeys(self.inlet_tags, (-np.inf, np.inf))
        if sorted(domain) != self.inlet_tags:
            raise UnknownTag(f"domain tags {sorted(domain)} != mesh inlets {self.inlet_tags}")
        self.domain_lo, self.domain_hi = np.array(
            [domain[tag] for tag in self.inlet_tags], dtype=float).T.copy()
        self.free = f = self.spaces.free_velocity
        # ends of the (v, p, u, w, q) blocks of a KKT vector
        self._ends = e = np.cumsum([f.shape[0], self.spaces.n_pressure,
                                    self.spaces.n_control, f.shape[0],
                                    self.spaces.n_pressure]).tolist()
        A_ff, B_f = ops.A[f][:, f], ops.B[:, f]
        # Pressure vertices whose whole velocity stencil is Dirichlet (corner
        # tets at rims/seams) have empty divergence rows on the free space and
        # would make every saddle system singular; pin them to zero instead.
        b_free = abs(B_f).max(axis=1).toarray().ravel()
        self.locked_pressure = np.where(b_free <= 1e-14 * max(b_free.max(), 1.0))[0]
        pin = np.zeros(self.spaces.n_pressure)
        pin[self.locked_pressure] = 1.0
        self._stokes_matrix = optimality_matrix(
            ops.M[f][:, f], A_ff, B_f, ops.C[f], ops.N_c, config.alpha, sp.diags(pin))
        self._state_lu = numerics.factorize(self._stokes_matrix[e[2] :, : e[1]])
        self.lifting = L = self._liftings()
        b_lift = ops.B @ L
        b_lift[self.locked_pressure] = 0.0
        self._R = affine_rhs(self._ends, (ops.M @ self._target)[f], (ops.M @ L)[f],
                             (ops.A @ L)[f], b_lift)
        self._stokes_solve = None  # built by the first Stokes solve
        self._ns_pattern = None  # built by the first Navier-Stokes Jacobian
        self._path = None  # set inside continuation()

    @property
    def target(self):
        """Target velocity v_o; it enters R, so it is fixed at construction."""
        return self._target

    # -- parameter handling ------------------------------------------------

    def check_mu(self, mu):
        return check_parameters(mu, self.domain_lo, self.domain_hi)

    def lifting_field(self, mu):
        return self.lifting @ np.atleast_1d(mu)

    def _liftings(self):
        """Divergence-free liftings of the unit-Reynolds inflow, one column
        per inlet, from the model's factorization of the Stokes state block.

        The inflow data vanishes on the free dofs, so A g and B g only see
        its constrained part.
        """
        ops, f, nf = self.operators, self.free, self.free.shape[0]
        g = np.column_stack([build_inflow(self.mesh, self.spaces, tag, 1.0,
                                          self.config.viscosity)
                             for tag in self.inlet_tags])
        rhs = -np.vstack([(ops.A @ g)[f], ops.B @ g])
        rhs[nf + self.locked_pressure] = 0.0
        g[f] = np.column_stack([self._state_lu.solve(r)[:nf] for r in rhs.T])
        return g

    def _elimination(self, K, lu):
        """Raw solve of an optimality matrix or Navier-Stokes Jacobian ``K``
        by block elimination on ``lu``, the LU of its state block S (rows
        w, q; columns v, p): the Schur complement on the control.

        K's adjoint block (rows v, p; columns w, q) is S^T and its (v, v)
        block J11 (M for Stokes).  With y = (v, p), l = (w, q) and
        J0 y = [J11 v; 0], the state rows of K read S y = r_s - [C_f u; 0]
        and the adjoint rows S^T l = r_a - J0 y, with r_s = (r_w, r_q) and
        r_a = (r_v, r_p).  The control reaches only the rows R where C_f has
        entries: with W = S^-1 E_R (one block solve) the control rows become
        H u = r_u - C_R^T W^T (r_a - J0 y0), y0 = S^-1 r_s, for the small
        dense H = alpha N_c + C_R^T (W_v^T J11 W_v) C_R.  Then
        y = y0 - W C_R u and l = S^-T (r_a - J0 y), a transposed pass.
        """
        e, nf = self._ends, self.free.shape[0]
        J11 = K[: e[0], : e[0]]
        C_f = K[e[2] : e[3], e[1] : e[2]].tocsr()
        rows = np.flatnonzero(np.diff(C_f.indptr))
        C_R = C_f[rows].toarray()
        E_R = np.zeros((e[1], rows.size), order="F")
        E_R[rows, np.arange(rows.size)] = 1.0
        W = lu.raw_solve(E_R)
        W_v = W[:nf]
        H = K[e[1] : e[2], e[1] : e[2]].toarray() + C_R.T @ (W_v.T @ (J11 @ W_v)) @ C_R
        solve_h = numerics.dense_lu(H, "control Schur complement")

        def solve(b):
            r_v, r_p, r_u, r_w, r_q = np.split(b, e[:-1])
            y = lu.raw_solve(np.concatenate([r_w, r_q]))
            a = np.concatenate([r_v - J11 @ y[:nf], r_p])
            u = solve_h(r_u - C_R.T @ (W.T @ a))
            y -= W @ (C_R @ u)
            l = lu.raw_solve(np.concatenate([r_v - J11 @ y[:nf], r_p]), "T")
            return np.concatenate([y, u, l])

        return solve

    def _step_solver(self):
        """Newton step solver whose raw solves are ``_elimination`` on a
        fresh LU of the Jacobian's state block."""
        e = self._ends
        return numerics.newton_step_solver(
            lambda J: self._elimination(J, numerics.factorize(J[e[2] :, : e[1]])))

    # -- KKT assembly --------------------------------------------------------

    def _build_ns_pattern(self):
        """Fixed CSC pattern of the Navier-Stokes Jacobians.

        It is the union of the Stokes matrix and the free-free velocity
        couplings of the elements in the blocks J11 (rows v, columns v),
        J41 (rows w, columns v) and J14 = J41^T.  Every element block entry
        gets the int32 bin of its coupling, in the (c, d, i, j) order of
        ``ConvectionKernel.jacobian_values``' blocks; entries in a
        constrained row or column go to one last bin that is dropped.  A coupling's E + F sum
        goes to its position in J41 and its transposed one in J14, and its
        G sum to its position and its transposed one in J11 (G + G^T).
        """
        f = self.free
        nf, o_w, n = f.shape[0], self._ends[2], self._ends[-1]
        ent, ns = self.spaces.cells10, self.spaces.n_scalar
        S = sp.csr_matrix(
            (np.ones(ent.shape[0] * 100),
             (np.repeat(ent, 10, axis=1).ravel(), np.tile(ent, (1, 10)).ravel())),
            shape=(ns, ns),
        )
        P = sp.kron(S, np.ones((3, 3)), format="csr")[f][:, f].tocoo()
        couplings = np.sort(P.row.astype(np.int64) * nf + P.col)
        n_bins = couplings.shape[0]
        local = np.full(self.spaces.n_velocity, -1, dtype=np.int64)
        local[f] = np.arange(nf)
        dofs = local[self.kernel.element_dofs()]  # [e, c, i]
        index = np.empty((dofs.shape[0], 900), dtype=np.int32)
        for start in range(0, dofs.shape[0], 1024):
            rows = dofs[start : start + 1024, :, None, :, None]
            cols = dofs[start : start + 1024, None, :, None, :]
            bins = np.searchsorted(couplings, rows * nf + cols)
            bins[(rows < 0) | (cols < 0)] = n_bins
            index[start : start + 1024] = bins.reshape(-1, 900)
        r, c = couplings // nf, couplings % nf
        stokes = self._stokes_matrix.tocoo()
        keys = [  # column-major, the CSC order
            stokes.col.astype(np.int64) * n + stokes.row,
            c * n + r,  # J11
            r * n + c,  # J11, transposed
            c * n + (o_w + r),  # J41
            (o_w + r) * n + c,  # J14 = J41^T
        ]
        pattern = np.sort(np.concatenate(keys))
        pattern = pattern[np.concatenate([[True], pattern[1:] != pattern[:-1]])]
        data0 = np.zeros(pattern.shape[0])
        data0[np.searchsorted(pattern, keys[0])] = stokes.data
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.bincount(pattern // n, minlength=n))
        j11, j11t, j41, j14 = (np.searchsorted(pattern, k).astype(np.int32)
                               for k in keys[1:])
        self._ns_pattern = _JacobianPattern(
            data0=data0, indices=(pattern % n).astype(np.int32), indptr=indptr,
            index=index, j11=j11, j11t=j11t, j41=j41, j14=j14,
        )

    def _ns_jacobian(self, v_t, w_t=None):
        """Navier-Stokes Jacobian at full velocity vectors (v_total, w_total):
        J11 = M + G(w) + G(w)^T, J41 = A + E(v) + F(v), J14 = J41^T.
        Without an adjoint (``w_t`` None) J11 keeps its Stokes values M."""
        if self._ns_pattern is None:
            self._build_ns_pattern()
        pat = self._ns_pattern
        bins = pat.j11.shape[0]
        ef, g = self.kernel.jacobian_values(v_t, w_t, pat.index, bins + 1)
        data = pat.data0.copy()
        if g is not None:
            data[pat.j11] += g[:bins]
            data[pat.j11t] += g[:bins]
        data[pat.j41] += ef[:bins]
        data[pat.j14] += ef[:bins]
        n = pat.indptr.shape[0] - 1
        return sp.csc_matrix((data, pat.indices, pat.indptr), shape=(n, n))

    def assemble_kkt(self, mu, linearization=None):
        """Optimality matrix and right-hand side at parameter ``mu``.

        For Navier-Stokes pass the linearization point (v_total, w_total);
        the convection operators are inserted there and the rhs keeps its
        Stokes form (the Newton driver works with residuals directly).  The
        Stokes matrix is the model's own: the same object on every call.
        """
        self.check_mu(mu)
        if linearization is None:
            K = self._stokes_matrix
        else:
            v_t, w_t = (np.asarray(a, dtype=float) for a in linearization)
            K = self._ns_jacobian(v_t, w_t)
        return K, -(self._R @ np.append(1.0, mu))

    # -- residuals -----------------------------------------------------------

    def _split(self, x):
        """Views of the (v, p, u, w, q) blocks of a KKT vector."""
        return np.split(x, self._ends[:-1])

    def _expand(self, free_values):
        full = np.zeros(self.spaces.n_velocity)
        full[self.free] = free_values
        return full

    def kkt_residual(self, x, mu, nonlinear):
        """Residual of the coupled optimality system at unknown vector ``x``:
        the Stokes system's, plus for Navier-Stokes the convection terms of
        the v and w rows."""
        res = self._stokes_matrix @ x + self._R @ np.append(1.0, mu)
        if nonlinear:
            v_f, _, _, w_f, _ = self._split(x)
            c_v, c_w = self.kernel.residual_terms(
                self._expand(v_f) + self.lifting_field(mu), self._expand(w_f))
            r_v, _, _, r_w, _ = self._split(res)
            r_v += c_v[self.free]
            r_w += c_w[self.free]
        return res

    # -- solvers ---------------------------------------------------------

    def _pack_solution(self, x, mu, iters, res, rhs):
        """Solution fields at ``x``; ``res`` is the KKT residual there and
        ``rhs`` the Stokes right-hand side that scales it."""
        v_f, p, u, w_f, q = self._split(x)
        vL = self.lifting_field(mu)
        v_hom = self._expand(v_f)
        v = v_hom + vL
        w = self._expand(w_f)
        J = evaluate_objective(v, u, self.target, self.operators, self.config.alpha)
        scale = np.linalg.norm(rhs) or 1.0
        return OcpSolution(
            mu=np.atleast_1d(np.asarray(mu, dtype=float)),
            v=v,
            p=p,
            u=u,
            w=w,
            q=q,
            v_hom=v_hom,
            objective=J,
            kkt_residual=float(np.linalg.norm(res) / scale),
            newton_iterations=iters,
        )

    def solve_ocp(self, mu):
        """Solve the optimality system at ``mu``: Stokes by block
        elimination on the model's state-block LU (``_elimination``, built
        by the first call), refined and residual-checked against the whole
        optimality matrix by ``numerics.refine``; Navier-Stokes by Newton
        from that solution, its steps by the same elimination on the LU of
        a Jacobian's state block (``_step_solver``).

        Inside ``continuation`` Newton starts instead from the path's last
        converged solution, with the path's step solver, and stops where
        the Stokes start x_S would: at max(NEWTON_TOL_REL ||r(x_S)||,
        NEWTON_TOL_ABS), not relative to the warm start's own residual.  A
        warm start that diverges is retried once from x_S with a fresh step
        solver.
        """
        mu = self.check_mu(mu)
        K, rhs = self.assemble_kkt(mu)
        if self._stokes_solve is None:
            self._stokes_solve = self._elimination(K, self._state_lu)
        x = numerics.refine(K, rhs, self._stokes_solve)
        if self.config.equation == "stokes":
            return self._pack_solution(x, mu, 0, self.kkt_residual(x, mu, False), rhs)
        path = self._path or _Path(self._step_solver())  # outside a build: a path of one
        if path.x is not None:
            r0 = np.linalg.norm(self.kkt_residual(x, mu, True))
            try:
                path.x, res, iters = self._newton(
                    mu, path.x, path.step, 0.0, max(NEWTON_TOL_REL * r0, NEWTON_TOL_ABS))
            except NewtonDiverged:
                path.step = self._step_solver()
            else:
                return self._pack_solution(path.x, mu, iters, res, rhs)
        path.x, res, iters = self._newton(mu, x, path.step, NEWTON_TOL_REL, NEWTON_TOL_ABS)
        return self._pack_solution(path.x, mu, iters, res, rhs)

    def _newton(self, mu, x, step, tol_rel, tol_abs):
        """Navier-Stokes Newton at ``mu`` from the KKT vector ``x``, its
        steps taken by ``step``; returns (x, residual, iterations)."""
        vL = self.lifting_field(mu)

        def system(x):
            def solve(b):
                v_f, _, _, w_f, _ = self._split(x)
                return step(self._ns_jacobian(self._expand(v_f) + vL, self._expand(w_f)), b)

            return self.kkt_residual(x, mu, True), solve

        return numerics.newton(system, x, tol_rel, tol_abs, NEWTON_MAX_ITER)

    @contextmanager
    def continuation(self):
        """A block whose Navier-Stokes ``solve_ocp`` calls follow one path
        and share one step solver; both are released on exit."""
        self._path = _Path(self._step_solver())
        try:
            yield
        finally:
            self._path = None

    # -- state sub-solve (uncontrolled flow, feasibility checks) -----------

    def solve_state(self, mu, u):
        """Flow solve at fixed control; returns (v_total, p).

        The residual is the w and q rows of ``kkt_residual`` at zero
        adjoint, whose Jacobian is the state block of K (or of the
        Navier-Stokes Jacobian).  The Stokes solve is one solve on the
        model's state-block LU; Navier-Stokes runs Newton on from there
        with its own step solver.
        """
        mu = self.check_mu(mu)
        if np.shape(u) != (self.spaces.n_control,):
            raise DimensionMismatch(f"control shape {np.shape(u)} != ({self.spaces.n_control},)")
        e, nf = self._ends, self.free.shape[0]

        def residual(vp, nonlinear):
            x = np.concatenate([vp, u, np.zeros_like(vp)])  # (v, p, u, w, q)
            return self.kkt_residual(x, mu, nonlinear)[e[2] :]

        vp = self._state_lu.solve(-residual(np.zeros(e[1]), False))
        if self.config.equation == "navier-stokes":
            step = numerics.newton_step_solver(lambda S: numerics.factorize(S).raw_solve)

            def system(vp):
                def solve(b):
                    J = self._ns_jacobian(self._expand(vp[:nf]) + self.lifting_field(mu))
                    return step(J[e[2] :, : e[1]], b)

                return residual(vp, True), solve

            vp, _, _ = numerics.newton(system, vp, NEWTON_TOL_REL, NEWTON_TOL_ABS,
                                       NEWTON_MAX_ITER)
        return self._expand(vp[:nf]) + self.lifting_field(mu), vp[nf:]
