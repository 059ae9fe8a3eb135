"""POD-Galerkin reduced-order layer for the optimal flow control problem.

Offline: collect full-order optimality-system snapshots over a training set,
compress each field (state velocity/pressure, control, adjoint
velocity/pressure) by proper orthogonal decomposition in its natural inner
product, enrich the velocity spaces with supremizers of the retained pressure
modes, aggregate state and adjoint spaces, and project all operators once —
including a third-order tensor holding the convection trilinear form on the
reduced velocity basis, so the online Navier-Stokes Newton loop never touches
full-order arrays.

The aggregated spaces are nested: their columns are ordered by mode index,
velocity as (v_k, s_k, w_k, t_k) (state mode, its supremizer, adjoint mode,
its supremizer) and pressure as (p_k, q_k), so the spaces of basis size n
are leading columns and ``slice_operators`` cuts every smaller reduced model
out of the one projection.

Inflow lifting fields enter the reduced velocity basis as fixed trailing
columns whose coefficients are pinned to the parameter values; they are kept
out of the orthonormalized block so that pinning stays exact.

Stokes is affine in the parameters: its optimality system ``K x = -R [1; mu]``
has a fixed ``K``.  Its snapshots therefore come from at most n_lift + 1
full-order solves at anchor points of the training set, and every training
column is a combination of theirs.  A Navier-Stokes model solves every
training point, along a nearest-neighbour path: each solve starts from the
previous converged one, and one factorization serves the whole build.

Online: the reduced system of dimension 13*N is precomputed as one constant
KKT matrix plus terms affine in the parameters, by the builders the full
order uses (``optctrl.optimality_matrix`` and ``affine_rhs``).  A Stokes
query is two products with ``[1; mu]``: one with the coefficient map for the
coefficients and objective, one with its precomputed full-order lift for
the fields.  A Navier-Stokes query solves in null-space coordinates z: the
divergence rows and the control rows are linear, so the velocities are
eliminated onto the kernel of the reduced divergence block and the control
onto the adjoint velocity, which leaves 2 (n_v - n_p) unknowns.  The
convection is quadratic, so the Jacobian in z over z and the parameters is
affine in them, a constant J0 plus a part linear in them: one routine gives
the residual, J0 [z; mu] plus a constant column plus the convection, and
that Jacobian from one product with a linear map precomputed on
construction.  Every solve is chord steps, run by the package's one driver
``numerics.newton``, on one LU of that Jacobian made again only where the
steps stop contracting fast.
The coefficients of z are one product with [z; 1; mu] plus two small tensor
contractions for the pressures' convection, and the fields are lifted one
basis at a time.  The training solves start from z = 0, and the Jacobian
over z and the parameters gives each one's mu-tangent, so a query starts
from the nearest training solution plus its tangent step (an Euler
predictor), stops at the threshold a start from zero would use, and starts
again from z = 0 if its steps diverge.  The null space needs a divergence
block of full row rank, which supremizers give: a model without it (a
saddle point that is not inf-sup stable) answers every query with
``SingularMatrix``.

The artifact holds the bases, the lifting, the projected operators, the
parameter domain, the training parameters and, for Navier-Stokes, the
tensor: what the online system is derived from.  The POD spectrum stays on
the offline ``PodBasis``.
"""

import io
import json
import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import numerics
from .errors import (
    AllSnapshotsFailed,
    DimensionMismatch,
    InvariantViolation,
    IoError,
    MissingArtifact,
    NewtonDiverged,
    OcromError,
    ParseError,
    RankDeficiency,
    SingularMatrix,
)
from .optctrl import affine_rhs, check_parameters, optimality_matrix

FIELDS = ("v", "p", "u", "w", "q")

# relative remainder below which a column adds no direction: _mgs drops it,
# and _affine_anchors does not make it an anchor
_MGS_DROP_TOL = 1e-10
_ORTH_TOL = 1e-10  # largest |Y^T W Y - I| entry check_pod_invariants accepts


@dataclass
class TrainingSet:
    """Parameter samples for snapshot collection."""

    parameters: np.ndarray  # shape (size, n_parameters)

    def __post_init__(self):
        self.parameters = np.atleast_2d(np.asarray(self.parameters, dtype=float))
        if self.parameters.shape[0] < 1:
            raise DimensionMismatch("training set must contain at least one sample")

    def __len__(self):
        return self.parameters.shape[0]


def training_grid(bounds, size):
    """Uniformly spaced samples; tensor grid for multiple parameters."""
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    axes = [np.linspace(lo, hi, size) for lo, hi in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return TrainingSet(pts)


def training_random(bounds, size, seed):
    """Uniform random samples with a recorded seed."""
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(bounds[:, 0], bounds[:, 1], size=(size, bounds.shape[0]))
    return TrainingSet(pts)


@dataclass
class SnapshotSet:
    """Per-field solution matrices, one column per in-domain training point
    whose solve succeeded, and how many full-order solves made them."""

    matrices: dict  # field -> (n_dof, n_ok) array; velocity fields homogeneous
    parameters: np.ndarray  # parameters of the successful solves
    failures: list  # (index, parameter vector, message)
    solves: int = 0  # full-order solves that made them

    def __len__(self):
        return self.parameters.shape[0]


def collect_snapshots(model, training):
    """Full optimality-system solutions at every in-domain training point,
    as columns in training order.

    A point outside the parameter domain, or a Navier-Stokes solve that
    fails, is recorded in ``failures`` with its training index.  Stokes
    solves only the anchors of ``_affine_anchors`` and combines their
    solutions: the solution is affine in mu, and all Stokes solves share
    one factorization, so a failed anchor raises ``AllSnapshotsFailed``.
    Navier-Stokes solves every point inside ``model.continuation()``, in
    the order of ``_path_order``: each solve starts from the previous
    converged one, and the build shares one step solver.
    """
    mus, inside, failures = training.parameters, [], []
    for i, mu in enumerate(mus):
        try:
            model.check_mu(mu)
            inside.append(i)
        except OcromError as exc:
            failures.append((i, mu.copy(), str(exc)))
    stokes = model.config.equation == "stokes"
    if not stokes:
        sols = {}
        with model.continuation():
            for k in _path_order(mus[inside], model.domain_lo, model.domain_hi):
                i = inside[k]
                try:
                    sols[i] = model.solve_ocp(mus[i])
                except (OcromError, np.linalg.LinAlgError) as exc:
                    failures.append((i, mus[i].copy(), str(exc)))
        failures.sort(key=lambda failure: failure[0])
        inside = sorted(sols)
        sols = [sols[i] for i in inside]
    if not inside:
        raise AllSnapshotsFailed(
            f"all {len(training)} snapshot solves failed; first: {failures[0][2]}"
        )
    ok_mu = mus[inside]
    if stokes:
        anchors, coefficients = _affine_anchors(ok_mu)
        try:
            sols = [model.solve_ocp(ok_mu[k]) for k in anchors]
        except (OcromError, np.linalg.LinAlgError) as exc:
            raise AllSnapshotsFailed(f"Stokes anchor solve failed: {exc}") from exc
    matrices = {f: np.column_stack([getattr(s, "v_hom" if f == "v" else f) for s in sols])
                for f in FIELDS}
    if stokes:
        matrices = {f: S @ coefficients for f, S in matrices.items()}
    return SnapshotSet(matrices, ok_mu, failures, len(sols))


def _domain_scale(lo, hi):
    """Distance scale of the parameter domain [lo, hi]: its width where
    that is finite and positive, 1 elsewhere."""
    width = hi - lo
    return np.where(np.isfinite(width) & (width > 0), width, 1.0)


def _nearest(points, mu, scale):
    """Index of the row of ``points`` nearest to ``mu``, distances divided
    by ``scale`` (``_domain_scale``)."""
    return int(np.argmin((((points - mu) / scale) ** 2).sum(axis=1)))


def _path_order(mus, lo, hi):
    """Row indices of ``mus`` in the order of a greedy nearest-neighbour
    path (``_nearest``) that starts at the first row; it depends on the
    rows and the domain alone, not on how the solves along it end."""
    order, left, scale = [], list(range(mus.shape[0])), _domain_scale(lo, hi)
    while left:
        order.append(left.pop(_nearest(mus[left], mus[order[-1]], scale) if order else 0))
    return order


def _affine_anchors(mus):
    """Anchor points for an affine snapshot map: indices of at most n + 1 of
    the parameter rows ``mus`` (n parameters each), in training order, and
    the coefficients C with ``[1; mu_anchor] C = [1; mu]`` for every row.

    Column-pivoted QR of the columns ``[1; mu]`` picks them; the parameters
    are centred and scaled to [-1, 1] first, which keeps C well conditioned
    and leaves it unchanged in exact arithmetic.  A pivot below
    ``_MGS_DROP_TOL`` of the first adds no direction, so a repeated point is
    one anchor.  On a 1-D grid the anchors are the two end points.
    """
    shifted = mus - mus.mean(axis=0)
    scale = np.abs(shifted).max(axis=0)
    P = np.vstack([np.ones(mus.shape[0]), (shifted / np.where(scale > 0, scale, 1.0)).T])
    r, pivots = scipy.linalg.qr(P, mode="r", pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > _MGS_DROP_TOL * abs(r[0, 0])))
    anchors = np.sort(pivots[:rank])
    return anchors, np.linalg.lstsq(P[:, anchors], P, rcond=None)[0]


def inner_products_of(model):
    return _inner_products(model.operators)


def _inner_products(ops):
    """Inner-product matrix of each field's space, from the FEM operators."""
    return {"v": ops.X_v, "p": ops.X_p, "u": ops.N_c, "w": ops.X_v, "q": ops.X_p}


@dataclass
class PodBasis:
    """Per-field POD results plus the aggregated spaces, whose columns are
    ordered by mode index: (v_k, s_k, w_k, t_k) in ``y_v``, (p_k, q_k) in
    ``y_p``.  The leading ``sizes[f][n]`` columns of ``y_f`` span the spaces
    of basis size n (fewer than 4n, 2n, n where near-dependent ones dropped).
    """

    eigenvalues: dict  # field -> descending eigenvalue array (full spectrum)
    modes: dict  # field -> (n_dof, n_retained) X-orthonormal columns
    n_max: int
    energy: dict  # field -> retained energy fraction
    training_parameters: np.ndarray  # parameters of the snapshots
    y_v: np.ndarray | None = None  # aggregated velocity basis (4*n_max cols)
    y_p: np.ndarray | None = None  # aggregated pressure basis (2*n_max cols)
    y_u: np.ndarray | None = None  # control basis (n_max cols)
    sizes: dict | None = None  # "v", "p", "u" -> column counts for n = 0..n_max


def pod_compress(snapshots, inner_products, n_max, eps_tol=1e-4):
    """X-weighted correlation-matrix POD of every snapshot field.

    Solves (1/|Lambda|) X^T W X rho = lambda rho per field and maps retained
    eigenvectors to X-orthonormal modes X rho / sqrt(|Lambda| lambda).
    """
    n_snap = len(snapshots)
    if n_max > n_snap:
        raise DimensionMismatch(f"n_max={n_max} exceeds snapshot count {n_snap}")
    eigenvalues, modes, energy = {}, {}, {}
    ranks = []
    for f in FIELDS:
        X = snapshots.matrices[f]
        W = inner_products[f]
        corr = (X.T @ (W @ X)) / n_snap
        corr = 0.5 * (corr + corr.T)
        lam, vecs = numerics.symmetric_eig(corr)
        lam = np.maximum(lam, 0.0)
        total = lam.sum()
        rank = int(np.sum(lam > max(total, 1e-300) * 1e-12))
        ranks.append(rank)
        keep = min(n_max, rank)
        cols = []
        for n in range(keep):
            cols.append(X @ vecs[:, n] / np.sqrt(n_snap * lam[n]))
        eigenvalues[f] = lam
        modes[f] = np.column_stack(cols) if cols else np.zeros((X.shape[0], 0))
    n_keep = min(min(ranks), n_max)
    if min(ranks) < n_max:
        warnings.warn(
            RankDeficiency(f"snapshot rank {min(ranks)} < requested n_max {n_max}")
        )
    for f in FIELDS:
        modes[f] = modes[f][:, :n_keep]
        lam = eigenvalues[f]
        energy[f] = float(lam[:n_keep].sum() / lam.sum()) if lam.sum() > 0 else 1.0
    basis = PodBasis(eigenvalues, modes, n_keep, energy, snapshots.parameters)
    for f in FIELDS:
        if basis.energy[f] < 1.0 - eps_tol and n_keep == n_max:
            warnings.warn(RankDeficiency(
                f"field {f}: retained energy {basis.energy[f]:.6f} < 1 - eps_tol"))
    return basis


def _mgs(columns, weight):
    """Modified Gram-Schmidt in the ``weight`` inner product W, two sweeps.

    Orthonormalizes ``columns`` and returns the basis and the indices of the
    columns it kept; near-dependent columns are dropped.  W acts once on all
    the columns, for their norms, and once on each column's remainder after
    the sweeps, for its norm and, divided by it, the W b of a kept column b,
    by which the later columns' sweeps project: n + 1 products for n
    columns.  A column's result depends only on the columns before it, so
    prefixes give prefixes.
    """
    w_columns = weight @ columns
    kept, w_kept, index = [], [], []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        scale = np.sqrt(max(v @ w_columns[:, j], 0.0))
        for _ in range(2):  # the second sweep for numerical orthogonality
            for b, wb in zip(kept, w_kept):
                v -= (wb @ v) * b
        wv = weight @ v
        nrm = np.sqrt(max(v @ wv, 0.0))
        if nrm <= _MGS_DROP_TOL * max(scale, 1.0):
            continue
        kept.append(v / nrm)
        w_kept.append(wv / nrm)
        index.append(j)
    if not kept:
        return np.zeros((columns.shape[0], 0)), np.zeros(0, dtype=int)
    return np.column_stack(kept), np.array(index)


def compute_supremizers(model, *pressure_modes):
    """Velocity enrichment restoring reduced inf-sup stability.

    For each pressure mode q solves (T, v)_{X_v} = b(q, v) on the homogeneous
    velocity space; returns per set of modes an X_v-orthonormal basis of the
    solutions and the indices of the modes whose solutions it kept.  X_v is
    X_s (x) I3 and the free velocity dofs are whole entities, so the free
    block is its component-0 block (x) I3: one factorization of that scalar
    block serves all sets, and each component of each mode is one
    right-hand side, solved, refined and checked on its own.
    """
    ops = model.operators
    f = model.free
    s = f[::3]  # the component-0 dof of each free entity
    lu = numerics.factorize(ops.X_v[s][:, s])
    rhs = (ops.B.T @ np.column_stack(pressure_modes))[f]
    k = rhs.shape[1]
    rhs = rhs.reshape(s.size, 3 * k)  # column c k + n: component c of mode n
    sol = np.empty_like(rhs)
    for n in range(3 * k):
        sol[:, n] = lu.solve(rhs[:, n])
    raw = np.zeros((model.spaces.n_velocity, k))
    raw[f] = sol.reshape(f.size, k)
    ends = np.cumsum([q.shape[1] for q in pressure_modes])[:-1]
    return [_mgs(cols, ops.X_v) for cols in np.split(raw, ends, axis=1)]


def build_reduced_spaces(model, basis, enrich=True):
    """Aggregate state and adjoint spaces into shared reduced bases.

    Velocity: state modes, state supremizers, adjoint modes and adjoint
    supremizers, interleaved by mode index as (v_k, s_k, w_k, t_k) and
    orthonormalized as one block; lifting fields stay outside the
    orthonormalization so their coefficients pin to the parameters exactly.
    Pressure: state and adjoint modes interleaved as (p_k, q_k).
    """
    if enrich:
        sup_v, sup_w = compute_supremizers(model, basis.modes["p"], basis.modes["q"])
    else:
        sup_v = sup_w = (np.zeros((model.spaces.n_velocity, 0)), np.zeros(0, dtype=int))
    return _aggregate(model, basis, sup_v, sup_w)


def _aggregate(model, basis, sup_v, sup_w):
    """A copy of ``basis`` with each field's (columns, mode index of each)
    pairs orthonormalized in mode-index order, and its column counts per size."""
    ops = model.operators
    modes = {f: (basis.modes[f], np.arange(basis.n_max)) for f in FIELDS}
    spaces, sizes = {}, {}
    for name, parts, weight in (
        ("v", [modes["v"], sup_v, modes["w"], sup_w], ops.X_v),
        ("p", [modes["p"], modes["q"]], ops.X_p),
        ("u", [modes["u"]], ops.N_c),
    ):
        index = np.concatenate([k for _, k in parts])
        order = np.argsort(index, kind="stable")
        y, kept = _mgs(np.column_stack([c for c, _ in parts])[:, order], weight)
        spaces[f"y_{name}"] = y
        sizes[name] = np.searchsorted(index[order][kept], np.arange(basis.n_max + 1))
        if y.shape[1] != index.size:
            warnings.warn(RankDeficiency(
                f"aggregated {name} basis lost columns to near-dependence: "
                f"{y.shape[1]}/{index.size}"))
    return replace(basis, sizes=sizes, **spaces)


def check_pod_invariants(model, basis, eps_tol=1e-4):
    """Assert eigenvalue monotonicity, non-negativity and orthonormality.

    ``eps_tol`` is not checked: rank-limited energy retention is reported
    by ``pod_compress`` as a ``RankDeficiency`` warning.  No call in the
    package passes it.
    """
    for f in FIELDS:
        lam = basis.eigenvalues[f]
        if np.any(np.diff(lam) > 1e-12 * max(lam[0], 1e-300)):
            raise InvariantViolation(f"field {f}: eigenvalues not descending")
        if np.any(lam < -1e-12 * max(lam[0], 1e-300)):
            raise InvariantViolation(f"field {f}: negative eigenvalue")
    ops = model.operators
    for name, y, w in (
        ("velocity", basis.y_v, ops.X_v),
        ("pressure", basis.y_p, ops.X_p),
        ("control", basis.y_u, ops.N_c),
    ):
        if y is None or y.shape[1] == 0:
            continue
        gram = y.T @ (w @ y)
        err = np.abs(gram - np.eye(y.shape[1])).max()
        if err > _ORTH_TOL:
            raise InvariantViolation(f"{name} basis orthonormality error {err:.2e}")


@dataclass
class ReducedOperators:
    """Projected operators, convection tensor, and basis arrays.

    Velocity projections use the extended basis [y_v | lifting]; reduced
    state-velocity coefficient vectors carry the parameter values in their
    trailing ``n_lift`` slots.

    The online system is precomputed on construction, so queries only read
    it: ``g_target``/``j_perp`` (the M-orthogonal target projection and half
    the squared M-norm of its remainder) and ``blocks`` (slices of the
    (v, p, u, w, q) coefficients).  The whole system (residual
    ``K x + R [1; mu]`` plus convection) and its null-space bases are not
    kept.  For Stokes it keeps ``X = -K^{-1} R`` and its full-order lift
    ``Z`` (the (v, p, u, w, q) fields stacked, ``Z_ends`` their row ends),
    so that a query's coefficients are ``X [1; mu]`` and its fields
    ``Z [1; mu]``.  For Navier-Stokes it keeps the system in z every query
    solves (``_null_space_system``): ``F`` (the map from [z; 1; mu] to the
    coefficients, less the pressures' convection, which ``Sp`` and ``Sq``
    give), ``J0`` and ``rz`` (the constant part of the Jacobian over
    x = [z; mu] and the residual in z at x = 0, so that the residual's
    affine part is ``J0 x + rz``), ``T`` (the transposed map whose product
    with x is the Jacobian's convection part), ``r_zero`` (the whole
    system's residual at coefficient zero over [1; mu; mu (x) mu]), and
    ``mu_scale``, the distance scale by which a query picks its nearest
    start (``_domain_scale``).
    With ``training_parameters`` it also derives the starts of its queries:
    ``warm_mu`` (the training parameters whose reduced solve succeeded),
    ``warm_x`` (their solutions in z) and ``warm_dx`` (their mu-tangents in
    z); all three are None otherwise.
    Where the divergence block has rank below n_p, or K or the control
    block is singular, ``unsolvable`` holds the message every query raises
    as ``SingularMatrix``, and the arrays past that point are None;
    construction and loading still succeed.
    """

    y_v: np.ndarray
    y_p: np.ndarray
    y_u: np.ndarray
    lifting: np.ndarray
    a: np.ndarray  # extended x extended
    m: np.ndarray
    b: np.ndarray  # pressure x extended
    c: np.ndarray  # extended x control
    n_ctrl: np.ndarray
    h: np.ndarray  # extended: Y^T M v_o
    j_const: float  # 1/2 v_o^T M v_o
    alpha: float
    equation: str
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    tensor: np.ndarray | None = None  # extended^3: t[g, a, b] = e(y_a, y_b, y_g)
    training_parameters: np.ndarray | None = None

    def __post_init__(self):
        self.g_target = np.linalg.solve(self.m, self.h)
        self.j_perp = max(self.j_const - 0.5 * self.g_target @ (self.m @ self.g_target), 0.0)
        nv, n_p, nu = self.n_velocity_modes, self.y_p.shape[1], self.y_u.shape[1]
        ends = np.cumsum([nv, n_p, nu, nv, n_p]).tolist()
        self.blocks = tuple(slice(lo, hi) for lo, hi in zip([0] + ends, ends))
        K = optimality_matrix(self.m[:nv, :nv], self.a[:nv, :nv], self.b[:, :nv],
                              self.c[:nv], self.n_ctrl, self.alpha).toarray()
        R = affine_rhs(ends, self.h[:nv], self.m[:nv, nv:], self.a[:nv, nv:], self.b[:, nv:])
        self.X = self.Z = self.Z_ends = self.unsolvable = None
        self.F = self.J0 = self.rz = self.T = self.Sp = self.Sq = self.r_zero = None
        self.mu_scale = self.warm_mu = self.warm_x = self.warm_dx = None
        try:
            N, Y = _null_space(self.b[:, :nv], K)
            if self.equation == "stokes":
                self.X = -np.linalg.solve(K, R)
                # X [1; mu] lifted: the mu columns carry the inflow lifting
                lifts = _lift(self, self.X, np.eye(1 + self.n_lift)[1:])
                self.Z = np.vstack(lifts)
                self.Z_ends = np.cumsum([f.shape[0] for f in lifts[:-1]])
            else:
                system = _null_space_system(self, K, R, N, Y)
                self.F, self.J0, self.rz, self.T, self.Sp, self.Sq, self.r_zero = system
                self.mu_scale = _domain_scale(self.domain_lo, self.domain_hi)
                if self.training_parameters is not None:
                    self.warm_mu, self.warm_x, self.warm_dx = _training_starts(self)
        except SingularMatrix as exc:
            self.unsolvable = str(exc)
        except np.linalg.LinAlgError as exc:  # a singular K or control block
            self.unsolvable = f"reduced Jacobian: {exc}"

    @property
    def n_velocity_modes(self):
        return self.y_v.shape[1]

    @property
    def n_lift(self):
        return self.lifting.shape[1]

    @property
    def n_extended(self):
        return self.y_v.shape[1] + self.lifting.shape[1]

    def dimension(self):
        """Reduced system size: velocity + pressure blocks twice, control once."""
        return self.blocks[-1].stop

    def check_mu(self, mu):
        return check_parameters(mu, self.domain_lo, self.domain_hi)


def project_operators(model, basis):
    """Galerkin projection of every operator onto the aggregated spaces.

    A Navier-Stokes model also gets the convection tensor.
    """
    ops = model.operators
    cfg = model.config
    y_ext = np.column_stack([basis.y_v, model.lifting])
    a = y_ext.T @ (ops.A @ y_ext)
    m = y_ext.T @ (ops.M @ y_ext)
    b = basis.y_p.T @ np.asarray(ops.B @ y_ext)
    c = y_ext.T @ (ops.C @ basis.y_u)
    n_ctrl = basis.y_u.T @ (ops.N_c @ basis.y_u)
    h = y_ext.T @ (ops.M @ model.target)
    j_const = float(0.5 * model.target @ (ops.M @ model.target))
    tensor = model.kernel.reduced_tensor(y_ext) if cfg.equation == "navier-stokes" else None
    return ReducedOperators(
        y_v=basis.y_v,
        y_p=basis.y_p,
        y_u=basis.y_u,
        lifting=model.lifting,
        a=a,
        m=m,
        b=b,
        c=c,
        n_ctrl=n_ctrl,
        h=h,
        j_const=j_const,
        alpha=cfg.alpha,
        equation=cfg.equation,
        domain_lo=model.domain_lo,
        domain_hi=model.domain_hi,
        tensor=tensor,
        training_parameters=basis.training_parameters,
    )


def slice_operators(ops, basis, n):
    """The reduced model of basis size ``n``, cut out of the model ``ops``
    projected on the nested spaces of ``basis``: the leading columns of each
    basis, the lifting columns kept, and the matching rows and columns of
    every projected operator and of the tensor."""
    if not 0 <= n <= basis.n_max:
        raise DimensionMismatch(f"basis size {n} is outside 0..{basis.n_max}, the built sizes")
    nv, n_p, nu = (basis.sizes[f][n] for f in "vpu")
    ext = np.r_[:nv, ops.n_velocity_modes:ops.n_extended]
    return replace(
        ops, y_v=ops.y_v[:, :nv], y_p=ops.y_p[:, :n_p], y_u=ops.y_u[:, :nu],
        a=ops.a[np.ix_(ext, ext)], m=ops.m[np.ix_(ext, ext)], b=ops.b[:n_p, ext],
        c=ops.c[ext, :nu], n_ctrl=ops.n_ctrl[:nu, :nu], h=ops.h[ext],
        tensor=None if ops.tensor is None else ops.tensor[np.ix_(ext, ext, ext)],
    )


def reduced_inf_sup(ops):
    """Smallest singular value of the reduced divergence block.

    The homogeneous velocity columns are X_v-orthonormal and the pressure
    columns X_p-orthonormal, so the generalized eigenproblem collapses to the
    ordinary one for B_N B_N^T.
    """
    b_hom = ops.b[:, : ops.n_velocity_modes]
    lam, _ = numerics.symmetric_eig(b_hom @ b_hom.T)
    return float(np.sqrt(max(lam[-1], 0.0)))


@dataclass
class ReducedSolution:
    """A reduced solution lifted to full-order fields.

    ``newton_iterations`` counts the steps of the reduced solve: none for
    Stokes, and for Navier-Stokes the chord steps in null-space coordinates,
    after a fallback the abandoned ones plus those from z = 0."""

    mu: np.ndarray
    objective: float
    newton_iterations: int
    v: np.ndarray
    p: np.ndarray
    u: np.ndarray
    w: np.ndarray
    q: np.ndarray


def _reduced_objective(ops, v_ext, u_n):
    """Tracking functional from reduced coefficients alone.

    Uses the completed-square form 1/2 |v - Pv_o|_M^2 + 1/2 |v_o - Pv_o|_M^2
    (P = M-orthogonal projection onto the reduced velocity span), which avoids
    the catastrophic cancellation of 1/2 v M v - h v + const near the optimum.
    """
    d = v_ext - ops.g_target
    return float(
        0.5 * d @ (ops.m @ d) + ops.j_perp
        + 0.5 * ops.alpha * u_n @ (ops.n_ctrl @ u_n)
    )


def _null_space(b_hom, K):
    """``(N, Y)`` of the divergence block ``b_hom`` (n_p x n_v) of the
    optimality matrix ``K`` from one complete QR b_hom^T = [Q1 Q2] [R1; 0]:
    N = Q2, an orthonormal basis of its kernel, and Y = Q1 R1^{-T}, so that
    b_hom Y = I.  Raises ``SingularMatrix`` when b_hom has rank below n_p,
    counted on the diagonal of R1 with numpy's ``matrix_rank`` tolerance for
    K (its Frobenius norm bounding its largest singular value): a divergence
    block that is round-off next to the rest of K, as without supremizers,
    has no such inverse, and the reduced saddle point is not inf-sup
    stable."""
    n_p = b_hom.shape[0]
    q, r = np.linalg.qr(b_hom.T, mode="complete")
    tol = np.linalg.norm(K) * K.shape[0] * np.finfo(float).eps
    rank = np.count_nonzero(np.abs(np.diag(r)) > tol)
    if rank < n_p:
        raise SingularMatrix(f"reduced divergence block has rank {rank} < {n_p} pressure "
                             f"modes: the model is not inf-sup stable (no supremizers?)")
    return q[:, n_p:], scipy.linalg.solve_triangular(r[:n_p], q[:, :n_p].T).T


def _null_space_system(ops, K, R, N, Y):
    """The reduced optimality system on the divergence-free,
    control-eliminated subspace, in the coordinates z = (xi, eta) in which
    every Navier-Stokes query solves (Benzi, Golub & Liesen, Acta Numerica
    2005, 6), the pressures of every z and the residual at zero, from the
    whole system ``K x + R [1; mu]`` plus convection and ``_null_space``'s
    N and Y.  The convection is that of S[g, a, b] = t[g, a, b] + t[g, b, a]
    on the n_v homogeneous test rows g of ``tensor`` t.

    Every coefficient vector that meets the divergence rows and the control
    rows is v = N xi - Y b_lift mu, w = N eta and
    u = -(alpha n_ctrl)^{-1} c^T N eta, plus pressures.  The momentum rows
    tested with N^T leave the pressures out, so the system in z is
    ``J0 x + rz`` at x = [z; mu] plus the convection through ``Sz``, S
    with its test slot on N and its velocity slots on the affine map
    P: a = [xi; mu] -> [v; mu].  Tested with Y^T (b_hom Y = I) they give
    p = -Y^T and q = -Y^T of the rest of the state (w) and adjoint (v)
    rows: ``F [z; 1; mu]`` is the coefficients with the pressures' affine
    parts, and ``Sp[i, j, l] = S(Y_i, P_j, P_l)`` and
    ``Sq[i, j, l] = S(N_j, Y_i, P_l)`` give their convection.  The residual
    at coefficient zero is ``r_zero [1; mu; mu (x) mu]``: R, plus
    S[:, nv:, nv:] / 2 on the state momentum (w) rows.

    With a = [xi; mu] and d = Sz.a over the last slot, the convection is
    d a / 2 on the state rows (eta) and d^T eta on the adjoint rows (xi):
    quadratic in x = [z; mu], so the convection part C(x) of the Jacobian
    over x is linear in x and C(x) x / 2 is the convection itself (Sz is
    symmetric in its last two slots).  C(x)'s state rows are d in the
    columns of a, its adjoint rows eta.Sz over the first slot in the
    columns of a and d^T in those of eta.  ``T`` holds that map as
    C(x) = (x T).reshape(2 k, 2 k + n_lift); it is stored as the map's
    transpose, (2 k + n_lift) x 2 k (2 k + n_lift), because BLAS forms x T
    faster than the map times x.  ``J0`` is the rest of that Jacobian, and
    ``rz`` the residual in z at x = 0.  Returns (F, J0, rz, T, Sp, Sq,
    r_zero); a singular control block raises ``LinAlgError``."""
    sv, sp, su, sw, sq = ops.blocks
    nv, k, nl = ops.n_velocity_modes, N.shape[1], ops.n_lift
    S = ops.tensor[:nv] + ops.tensor[:nv].transpose(0, 2, 1)
    F = np.zeros((ops.dimension(), 2 * k + 1 + nl))
    F[sv, :k] = N
    F[sw, k:2 * k] = N
    F[su, k:2 * k] = -np.linalg.solve(ops.alpha * ops.n_ctrl, ops.c[:nv].T @ N)
    F[sv, 2 * k + 1:] = -Y @ ops.b[:, nv:]
    # the linear residual at F [z; 1; mu] with zero pressures, over [z; 1; mu]
    lin = K @ F
    lin[:, 2 * k:] += R
    F[sp], F[sq] = -(Y.T @ lin[sw]), -(Y.T @ lin[sv])
    lin = np.vstack([N.T @ lin[sv], N.T @ lin[sw]])
    P = np.zeros((ops.n_extended, k + nl))
    P[:nv, :k], P[:nv, k:], P[nv:, k:] = N, F[sv, 2 * k + 1:], np.eye(nl)
    Sz, Sp = (np.einsum("gi,gab,aj,bl->ijl", B, S, P, P, optimize=True) for B in (N, Y))
    Sq = np.einsum("gj,gab,ai,bl->ijl", N, S[:, :nv], Y, P, optimize=True)
    r_zero = np.hstack([R, np.zeros((R.shape[0], nl * nl))])
    r_zero[sw, 1 + nl:] = 0.5 * S[:, nv:, nv:].reshape(nv, nl * nl)
    # T[s, r, c] = dC[r, c] / dx_s over x = [xi; eta; mu], a = [xi; mu] at
    # the positions a
    xi, eta, a = np.arange(k), np.arange(k, 2 * k), np.r_[:k, 2 * k:2 * k + nl]
    T = np.zeros((2 * k + nl, 2 * k, 2 * k + nl))
    T[np.ix_(a, eta, a)] = Sz.transpose(2, 0, 1)
    T[np.ix_(eta, xi, a)] = Sz[:, :k]
    T[np.ix_(a, xi, eta)] = Sz[:, :k].transpose(2, 1, 0)
    J0 = np.hstack([lin[:, :2 * k], lin[:, 2 * k + 1:]])
    return F, J0, lin[:, 2 * k].copy(), T.reshape(2 * k + nl, -1), Sp, Sq, r_zero


NEWTON_TOL_REL = 1e-11
NEWTON_TOL_ABS = 1e-13
NEWTON_MAX_ITER = 30
# a chord step whose residual norm ratio exceeds this gets a fresh Jacobian:
# the default contraction bound below which RADAU5 keeps its Jacobian on
# small systems (Hairer & Wanner, Solving ODEs II, IV.8)
_CHORD_CONTRACTION = 1e-3


def _z_residual(ops, z, mu):
    """Residual of the system in z at ``z`` and a function for its
    Jacobian over z and then mu, from one product C = (x T).reshape(...)
    at x = [z; mu]: the residual is ``J0 x + rz`` plus C x / 2, the
    convection being quadratic in x, and the Jacobian a fresh ``J0 + C``
    (``_null_space_system``)."""
    x = np.concatenate([z, mu])
    C = (x @ ops.T).reshape(z.size, x.size)
    return ops.J0 @ x + ops.rz + 0.5 * (C @ x), lambda: ops.J0 + C


def _chord(ops, mu, z, tol):
    """Chord steps in z from ``z`` until the residual norm is at most
    ``tol``; returns (z, iterations).

    One LU of the z Jacobian (``numerics.dense_lu``) serves the steps.  It
    is made again at an iterate only where the step's residual norm ratio
    exceeded ``_CHORD_CONTRACTION`` and the next residual norm that ratio
    predicts would still miss the threshold; the last residual evaluation
    builds no Jacobian, so a start that already meets it factorizes nothing."""
    lu, last = None, np.inf

    def system(z):
        nonlocal lu, last
        res, jacobian = _z_residual(ops, z, mu)
        norm = np.linalg.norm(res)
        if norm > _CHORD_CONTRACTION * last and norm * norm > tol * last:
            lu = None
        last = norm

        def solve(rhs):
            nonlocal lu
            if lu is None:
                lu = numerics.dense_lu(jacobian()[:, :z.size], "reduced Jacobian")
            return lu(rhs)

        return res, solve

    z, _, iters = numerics.newton(system, z, 0.0, tol, NEWTON_MAX_ITER)
    return z, iters


def _coefficients(ops, z, mu):
    """The reduced coefficients of ``z``: F [z; 1; mu], less the pressures'
    convection terms, Sp over a = [xi; mu] twice, halved, and Sq over a and
    eta (``_null_space_system``)."""
    _, sp, _, _, sq = ops.blocks
    n_p, k, m = ops.Sq.shape
    a = np.concatenate([z[:k], mu])
    x = ops.F @ np.concatenate([z, [1.0], mu])
    x[sp] -= 0.5 * ((ops.Sp.reshape(n_p * m, m) @ a).reshape(n_p, m) @ a)
    x[sq] -= (ops.Sq.reshape(n_p * k, m) @ a).reshape(n_p, k) @ z[k:]
    return x


def _training_starts(ops):
    """(mu_i, z_i, D_i) arrays over the training parameters: the reduced
    solution z_i at mu_i, by chord steps from z = 0, and its mu-tangent
    D_i = -J_z^{-1} J_mu from the Jacobian [J_z | J_mu] in z at z_i.  A
    point whose solve raises is left out; Nones when none is left."""
    n = ops.J0.shape[0]
    starts = []
    for mu in ops.training_parameters:
        try:
            z, _ = _chord(ops, mu, *_start(ops, mu))
            jac = _z_residual(ops, z, mu)[1]()
            starts.append((mu, z, -numerics.dense_lu(jac[:, :n], "reduced Jacobian")(jac[:, n:])))
        except OcromError:
            continue
    if not starts:
        return None, None, None
    return tuple(np.array(a) for a in zip(*starts))


def _start(ops, mu):
    """Start in z and stop threshold of a Navier-Stokes solve.  The start is
    the nearest training solution (distance scaled by ``mu_scale``) plus
    its tangent step, or z = 0 without training solutions; z = 0 is
    v = -Y b_lift mu, which meets the divergence rows, and w = u = 0.  The
    threshold is that of a start from zero on the whole system,
    max(NEWTON_TOL_REL ||r(0; mu)||, NEWTON_TOL_ABS), with the residual at
    coefficient zero r(0; mu) = r_zero [1; mu; mu (x) mu]
    (``_null_space_system``)."""
    r0 = ops.r_zero @ np.concatenate([[1.0], mu, np.outer(mu, mu).ravel()])
    tol = max(NEWTON_TOL_REL * np.linalg.norm(r0), NEWTON_TOL_ABS)
    if ops.warm_mu is None:
        return np.zeros(ops.J0.shape[0]), tol
    i = _nearest(ops.warm_mu, mu, ops.mu_scale)
    return ops.warm_x[i] + ops.warm_dx[i] @ (mu - ops.warm_mu[i]), tol


def solve_reduced_coefficients(ops, mu):
    """Reduced optimality solve; returns (coefficients, objective, iterations)."""
    return _solve_coefficients(ops, ops.check_mu(mu))


def _solve_coefficients(ops, mu):
    """A Stokes query is one product.  A Navier-Stokes query takes chord
    steps in z from its start (``_start``); if they diverge from a training
    solution's start, it takes them again from z = 0.  The iterations count
    every step, the abandoned ones of a fallback included.  A model whose
    system could not be formed (``unsolvable``) raises ``SingularMatrix``."""
    if ops.unsolvable is not None:
        raise SingularMatrix(ops.unsolvable)
    if ops.equation == "stokes":
        x, iters = ops.X @ np.concatenate([[1.0], mu]), 0
    else:
        z, tol = _start(ops, mu)
        try:
            z, iters = _chord(ops, mu, z, tol)
        except NewtonDiverged as exc:
            if ops.warm_mu is None:
                raise
            z, iters = _chord(ops, mu, np.zeros_like(z), tol)
            iters += len(exc.residual_norms) - 1
        x = _coefficients(ops, z, mu)
    sv, _, su, _, _ = ops.blocks
    return x, _reduced_objective(ops, np.concatenate([x[sv], mu]), x[su]), iters


def _lift(ops, x, mu):
    """Full-order (v, p, u, w, q) fields of reduced coefficients ``x`` at
    parameters ``mu``, one basis product per field; linear, so ``x`` and
    ``mu`` may also be matrices of matching columns."""
    v_n, p_n, u_n, w_n, q_n = (x[s] for s in ops.blocks)
    return (ops.y_v @ v_n + ops.lifting @ mu, ops.y_p @ p_n, ops.y_u @ u_n,
            ops.y_v @ w_n, ops.y_p @ q_n)


def solve_reduced(ops, mu):
    """Online reduced solve lifted back to full-order coefficients: for
    Stokes one product with the precomputed lift ``Z``, split into views."""
    mu = ops.check_mu(mu)
    x, objective, iters = _solve_coefficients(ops, mu)
    if ops.Z is None:
        fields = _lift(ops, x, mu)
    else:
        fields = np.split(ops.Z @ np.concatenate([[1.0], mu]), ops.Z_ends)
    return ReducedSolution(mu, objective, iters, *fields)


@dataclass
class ErrorReport:
    """X-norm discrepancies between full-order and reduced solutions."""

    e_v: float
    e_p: float
    e_u: float
    e_w: float
    e_q: float
    e_total: float
    e_total_rel: float
    e_objective: float


def compute_errors(full, reduced, operators):
    """Per-field, total and relative errors of a lifted reduced solution."""

    def xnorm(vec, mat):
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    diffs, refs = {}, {}
    for f, mat in _inner_products(operators).items():
        a = getattr(full, f)
        b = getattr(reduced, f)
        if b is None or a.shape != b.shape:
            raise DimensionMismatch(f"field {f}: incompatible or missing vectors")
        diffs[f] = xnorm(a - b, mat)
        refs[f] = xnorm(a, mat)
    e_t, ref_t = (float(np.sqrt(np.hypot(n["v"], n["p"]) ** 2 + np.hypot(n["w"], n["q"]) ** 2
                                + n["u"] ** 2)) for n in (diffs, refs))
    return ErrorReport(
        e_v=diffs["v"], e_p=diffs["p"], e_u=diffs["u"], e_w=diffs["w"], e_q=diffs["q"],
        e_total=e_t, e_total_rel=e_t / ref_t if ref_t > 0 else 0.0,
        e_objective=abs(full.objective - reduced.objective),
    )


# -- offline artifact ---------------------------------------------------------

_MAGIC = b"ocrom-rb 1\n"

_ARRAY_FIELDS = (
    "y_v", "y_p", "y_u", "lifting", "a", "m", "b", "c", "n_ctrl", "h",
    "domain_lo", "domain_hi",
)


def save_artifact(path, ops):
    """Write the reduced model to a single versioned binary file."""
    optional = {"tensor": ops.tensor, "training_parameters": ops.training_parameters}
    arrays = {name: getattr(ops, name) for name in _ARRAY_FIELDS}
    arrays.update((name, a) for name, a in optional.items() if a is not None)
    index = {
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
        "scalars": {
            "alpha": ops.alpha,
            "j_const": ops.j_const,
            "equation": ops.equation,
        },
    }
    blob = json.dumps(index, sort_keys=True).encode()
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for k in arrays:
                fh.write(arrays[k].astype("<f8").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write artifact {path}: {exc}") from exc


def load_artifact(path):
    """Read an offline artifact back into ReducedOperators."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MissingArtifact(f"cannot read artifact {path}: {exc}") from exc
    if not data.startswith(_MAGIC):
        raise ParseError(f"{path}: not an 'ocrom-rb 1' artifact")
    buf = io.BytesIO(data[len(_MAGIC) :])
    try:
        (blob_len,) = struct.unpack("<Q", buf.read(8))
        index = json.loads(buf.read(blob_len).decode())
        arrays = {}
        for rec in index["arrays"]:
            name, shape = rec["name"], tuple(rec["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise ParseError(f"{path}: array {name} has invalid shape {list(shape)}")
            count = math.prod(shape)
            raw = buf.read(8 * count)
            if len(raw) != 8 * count:
                raise ParseError(f"{path}: truncated payload for array {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        scal = index["scalars"]
        alpha, j_const, equation = float(scal["alpha"]), float(scal["j_const"]), scal["equation"]
    except (struct.error, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed artifact frame: {exc!r}") from exc
    if buf.read(1):
        raise ParseError(f"{path}: trailing bytes after the last array")
    if equation not in ("stokes", "navier-stokes"):
        raise ParseError(f"{path}: unknown equation {equation!r}")
    finite = (v for k, v in arrays.items() if not k.startswith("domain_"))
    if not all(np.isfinite(v).all() for v in [alpha, j_const, *finite]):
        raise ParseError(f"{path}: non-finite values")
    _check_shapes(path, arrays, equation)
    lo, hi = arrays["domain_lo"], arrays["domain_hi"]
    if not (lo <= hi).all():  # NaN fails too
        raise ParseError(f"{path}: domain bounds NaN or reversed")
    if not 0.0 < alpha < np.inf:  # OcpConfig's rule
        raise ParseError(f"{path}: penalty alpha must be positive and finite: {alpha}")
    training = arrays.get("training_parameters")
    if training is not None and not ((lo <= training) & (training <= hi)).all():
        raise ParseError(f"{path}: training parameters outside the stored domain")
    try:
        return ReducedOperators(
            **{name: arrays[name] for name in _ARRAY_FIELDS},
            j_const=j_const, alpha=alpha, equation=equation,
            tensor=arrays.get("tensor"),
            training_parameters=arrays.get("training_parameters"),
        )
    except np.linalg.LinAlgError as exc:
        raise ParseError(f"{path}: singular reduced operators: {exc}") from exc


def _check_shapes(path, arrays, equation):
    """Raise ParseError unless the operators fit the stored bases and a
    convection tensor is stored exactly for a Navier-Stokes model."""
    missing = [name for name in _ARRAY_FIELDS if name not in arrays]
    if missing:
        raise ParseError(f"{path}: missing arrays {missing}")
    if ("tensor" in arrays) != (equation == "navier-stokes"):
        have = "with" if "tensor" in arrays else "without"
        raise ParseError(f"{path}: {equation} artifact {have} a convection tensor")
    if any(arrays[k].ndim != 2 for k in ("y_v", "y_p", "y_u", "lifting")):
        raise ParseError(f"{path}: basis arrays must be two-dimensional")
    if arrays["lifting"].shape[0] != arrays["y_v"].shape[0]:
        raise ParseError(f"{path}: lifting and y_v have different row counts")
    n_lift = arrays["lifting"].shape[1]
    n_ext = arrays["y_v"].shape[1] + n_lift
    n_p, n_u = arrays["y_p"].shape[1], arrays["y_u"].shape[1]
    expected = {
        "a": (n_ext, n_ext), "m": (n_ext, n_ext), "b": (n_p, n_ext),
        "c": (n_ext, n_u), "n_ctrl": (n_u, n_u), "h": (n_ext,),
        "tensor": (n_ext, n_ext, n_ext), "domain_lo": (n_lift,), "domain_hi": (n_lift,),
    }
    if "training_parameters" in arrays:
        expected["training_parameters"] = arrays["training_parameters"].shape[:1] + (n_lift,)
    for name, shape in expected.items():
        if name in arrays and arrays[name].shape != shape:
            raise ParseError(
                f"{path}: array {name} has shape {arrays[name].shape}, expected {shape}"
            )


def build_offline(model, training, n_max, eps_tol=1e-4, enrich=True):
    """Full offline phase: snapshots, POD, supremizers, aggregation, projection."""
    if n_max > len(training):  # checked before any full-order solve
        raise DimensionMismatch(f"n_max={n_max} exceeds training-set size {len(training)}")
    snapshots = collect_snapshots(model, training)
    basis = pod_compress(snapshots, inner_products_of(model), n_max, eps_tol)
    basis = build_reduced_spaces(model, basis, enrich=enrich)
    return snapshots, basis, project_operators(model, basis)
