"""Taylor-Hood finite elements on tetrahedral meshes.

Velocity and adjoint velocity are vector P2, pressure and adjoint pressure
scalar P1, boundary control vector P2 traces on the outlet triangles.
Scalar dofs are ordered vertices first (by node id) then edges (by sorted
node pair); a vector dof is ``3 * entity + component``.

All volume integrals use a tetrahedral rule exact to degree 4 and surface
integrals a triangle rule exact to degree 4, covering every form assembled
here including the trilinear convection terms.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .mesh import FIRST_OUTLET_TAG, WALL_TAG
from .quadrature import tet_rule, tri_rule

_TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_TRI_EDGES = [(0, 1), (0, 2), (1, 2)]
_CHUNK = 1024
# Convection elements per chunk: its temporaries (about 7 kB per element
# each) are allocated at every Newton step while a factorization is held.
_CONVECTION_CHUNK = 128
# (element, basis column) pairs per chunk of ``reduced_tensor``: its
# temporaries hold about 170 floats per pair, 1.4 MB whatever the basis size.
_TENSOR_CHUNK = 1024


# ---------------------------------------------------------------------------
# reference elements


def _p2_tet(points):
    """P2 shape values and barycentric derivatives at quadrature points."""
    x, y, z = points.T
    lam = np.stack([1.0 - x - y - z, x, y, z], axis=1)  # (nq, 4)
    nq = len(points)
    N = np.empty((nq, 10))
    dNdl = np.zeros((nq, 10, 4))
    for i in range(4):
        N[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        dNdl[:, i, i] = 4.0 * lam[:, i] - 1.0
    for k, (i, j) in enumerate(_TET_EDGES):
        N[:, 4 + k] = 4.0 * lam[:, i] * lam[:, j]
        dNdl[:, 4 + k, i] = 4.0 * lam[:, j]
        dNdl[:, 4 + k, j] = 4.0 * lam[:, i]
    return lam, N, dNdl


def _p2_tri(points):
    x, y = points.T
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    nq = len(points)
    N = np.empty((nq, 6))
    for i in range(3):
        N[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
    for k, (i, j) in enumerate(_TRI_EDGES):
        N[:, 3 + k] = 4.0 * lam[:, i] * lam[:, j]
    return lam, N


_TET_PTS, _TET_WTS = tet_rule(4)
_TET_LAM, _TET_N, _TET_DNDL = _p2_tet(_TET_PTS)
_TRI_PTS, _TRI_WTS = tri_rule(4)
_TRI_LAM, _TRI_N = _p2_tri(_TRI_PTS)
# The scalar convection block of a field a on an element as one product:
# e(a, N_k, N_i) = |det J| sum_{l, b} G[l, b] _CONVECTION[(l, b), (i, k)]
# with G[l, b] = a_l . grad lambda_b, a_l the field's value at node l: the
# quadrature sum over the points, taken once for every element.
_CONVECTION = np.einsum("q,ql,qi,qkb->lbik", _TET_WTS, _TET_N, _TET_N,
                        _TET_DNDL).reshape(40, 100)


# ---------------------------------------------------------------------------
# function spaces


@dataclass
class FunctionSpaces:
    """Dof maps and Dirichlet sets for the Taylor-Hood + boundary-control pair."""

    mesh: object
    cells10: np.ndarray  # (m, 10) scalar entity per tet (4 verts, 6 edges)
    entity_coords: np.ndarray  # (n_scalar, 3) vertex coords then edge midpoints
    btri_entities: np.ndarray  # (k, 6) scalar entity per boundary triangle
    control_entities: np.ndarray  # scalar entities on outlet triangles, ascending
    n_scalar: int
    n_velocity: int
    n_pressure: int
    n_control: int
    inlet_dofs: dict  # tag -> velocity dof array
    free_velocity: np.ndarray  # velocity dofs without Dirichlet data

    def total_dofs(self):
        """Full KKT dimension: v, p, u, w, q."""
        return 2 * (self.n_velocity + self.n_pressure) + self.n_control


def _entity_dofs(entities):
    ent = np.asarray(entities, dtype=np.int64)
    return (3 * ent[:, None] + np.arange(3)[None, :]).ravel()


def build_spaces(mesh):
    """Deterministic Taylor-Hood dof maps over a validated mesh."""
    tets = mesh.tets
    nv = mesh.nodes.shape[0]

    pair_rows = np.concatenate([tets[:, [i, j]] for i, j in _TET_EDGES])
    pair_rows = np.sort(pair_rows, axis=1)
    edges, inverse = np.unique(pair_rows, axis=0, return_inverse=True)
    ne = edges.shape[0]

    m = tets.shape[0]
    cells10 = np.empty((m, 10), dtype=np.int64)
    cells10[:, :4] = tets
    edge_ids = inverse.reshape(6, m).T  # local edge k of element e
    cells10[:, 4:] = nv + edge_ids

    entity_coords = np.vstack(
        [mesh.nodes, 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])]
    )

    edge_index = {(int(a), int(b)): nv + k for k, (a, b) in enumerate(edges)}
    btris = mesh.boundary_tris
    btri_entities = np.empty((btris.shape[0], 6), dtype=np.int64)
    btri_entities[:, :3] = btris
    for k, (i, j) in enumerate(_TRI_EDGES):
        pairs = np.sort(btris[:, [i, j]], axis=1)
        btri_entities[:, 3 + k] = [edge_index[(int(a), int(b))] for a, b in pairs]

    outlet = mesh.boundary_tags >= FIRST_OUTLET_TAG
    control_entities = np.unique(btri_entities[outlet])

    inlet_dofs = {}
    for tag in mesh.inlet_tags():
        ents = np.unique(btri_entities[mesh.boundary_tags == tag])
        inlet_dofs[tag] = _entity_dofs(ents)
    wall_ents = np.unique(btri_entities[mesh.boundary_tags == WALL_TAG])

    n_scalar = nv + ne
    n_velocity = 3 * n_scalar
    constrained = np.unique(
        np.concatenate([_entity_dofs(wall_ents)] + list(inlet_dofs.values())))
    free = np.setdiff1d(np.arange(n_velocity), constrained, assume_unique=False)

    return FunctionSpaces(
        mesh=mesh,
        cells10=cells10,
        entity_coords=entity_coords,
        btri_entities=btri_entities,
        control_entities=control_entities,
        n_scalar=n_scalar,
        n_velocity=n_velocity,
        n_pressure=nv,
        n_control=3 * control_entities.shape[0],
        inlet_dofs=inlet_dofs,
        free_velocity=free,
    )


# ---------------------------------------------------------------------------
# element geometry


def _tet_geometry(mesh, cells):
    """Gradients of barycentric coordinates and |detJ| per element."""
    p = mesh.nodes[mesh.tets[cells]]
    J = p[:, 1:] - p[:, :1]  # rows: edge vectors
    detJ = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    gradlam = np.empty((len(cells), 4, 3))
    gradlam[:, 1:] = np.transpose(Jinv, (0, 2, 1))
    gradlam[:, 0] = -gradlam[:, 1:].sum(axis=1)
    return gradlam, np.abs(detJ)


def _chunks(n, size=_CHUNK):
    for s in range(0, n, size):
        yield np.arange(s, min(s + size, n))


def _tested(x):
    """sum_q N_i(q) x[e, q, ...] for every element e, as one GEMM: (m, 10, ...)."""
    m, nq = x.shape[:2]
    y = _TET_N.T @ np.moveaxis(x, 1, 0).reshape(nq, -1)
    return np.moveaxis(y.reshape((10, m) + x.shape[2:]), 0, 1)


def _grad_shapes(gradlam):
    # (m, nq, 10, 3)
    return np.einsum("qia,mad->mqid", _TET_DNDL, gradlam, optimize=True)


# ---------------------------------------------------------------------------
# operator assembly


@dataclass
class OperatorSet:
    """Assembled parameter-independent matrices (CSR, problem units)."""

    A: sp.csr_matrix  # viscous stiffness, Nv x Nv
    B: sp.csr_matrix  # divergence, Np x Nv
    C: sp.csr_matrix  # control-to-momentum coupling, Nv x Nu
    M: sp.csr_matrix  # velocity mass over the volume, Nv x Nv
    N_c: sp.csr_matrix  # control mass on the outlets, Nu x Nu
    X_v: sp.csr_matrix  # H1 velocity inner product
    X_p: sp.csr_matrix  # L2 pressure inner product


def _scatter(rows, cols, vals, shape):
    return sp.coo_matrix(
        (np.asarray(vals).ravel(), (np.asarray(rows).ravel(), np.asarray(cols).ravel())),
        shape=shape,
    ).tocsr()


def assemble_operators(spaces, viscosity):
    """Assemble all bilinear-form matrices of the optimality system."""
    if not 0.0 < viscosity < np.inf:  # NaN included
        raise DimensionMismatch(f"viscosity must be positive and finite: {viscosity}")
    mesh = spaces.mesh
    ns = spaces.n_scalar
    m = mesh.tets.shape[0]

    # element values per chunk; the index arrays below span the whole mesh in
    # the same element-major order
    Kvals, Mvals, Bvals, Pvals = [], [], [], []
    for cells in _chunks(m):
        gradlam, detJ = _tet_geometry(mesh, cells)
        gN = _grad_shapes(gradlam)  # (c, nq, 10, 3)
        wdet = _TET_WTS[None, :] * detJ[:, None]  # (c, nq)
        Kvals.append(np.einsum("mq,mqid,mqjd->mij", wdet, gN, gN, optimize=True))
        Mvals.append(np.einsum("mq,qi,qj->mij", wdet, _TET_N, _TET_N, optimize=True))
        # divergence: rows pressure vertex, cols velocity dof 3*entity+c
        Bvals.append(-np.einsum("mq,qk,mqjd->mkjd", wdet, _TET_LAM, gN, optimize=True))
        # P1 pressure mass
        Pvals.append(np.einsum("mq,qi,qj->mij", wdet, _TET_LAM, _TET_LAM, optimize=True))

    ent = spaces.cells10
    rows, cols = np.repeat(ent, 10, axis=1).ravel(), np.tile(ent, (1, 10)).ravel()
    K_s = _scatter(rows, cols, np.concatenate(Kvals, axis=None), (ns, ns))
    # exactly symmetric (summing duplicates leaves round-off asymmetry), so
    # a Navier-Stokes Jacobian's adjoint block is its state block transposed
    K_s = (0.5 * (K_s + K_s.T)).tocsr()
    M_s = _scatter(rows, cols, np.concatenate(Mvals, axis=None), (ns, ns))
    del rows, cols  # not held while B's larger index arrays exist
    b_shape = (m, 4, 10, 3)
    vdofs = 3 * ent[:, None, :, None] + np.arange(3)[None, None, None, :]
    B = _scatter(np.broadcast_to(mesh.tets[:, :, None, None], b_shape).ravel(),
                 np.broadcast_to(vdofs, b_shape).ravel(), np.concatenate(Bvals, axis=None),
                 (spaces.n_pressure, spaces.n_velocity))
    X_p = _scatter(np.repeat(mesh.tets, 4, axis=1).ravel(), np.tile(mesh.tets, (1, 4)).ravel(),
                   np.concatenate(Pvals, axis=None), (spaces.n_pressure, spaces.n_pressure))

    I3 = sp.identity(3, format="csr")
    A = viscosity * sp.kron(K_s, I3, format="csr")
    M = sp.kron(M_s, I3, format="csr")
    X_v = sp.kron((K_s + M_s).tocsr(), I3, format="csr")

    # surface mass on outlet triangles
    outlet = mesh.boundary_tags >= FIRST_OUTLET_TAG
    tris = mesh.boundary_tris[outlet]
    ents = spaces.btri_entities[outlet]
    p = mesh.nodes[tris]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    area2 = np.linalg.norm(cross, axis=1)  # |e1 x e2| (twice the area)
    wdet = _TRI_WTS[None, :] * area2[:, None]
    elS = np.einsum("kq,qi,qj->kij", wdet, _TRI_N, _TRI_N)  # scalar 6x6

    ctrl_pos = np.full(ns, -1, dtype=np.int64)
    ctrl_pos[spaces.control_entities] = np.arange(spaces.control_entities.shape[0])
    upos = ctrl_pos[ents]  # (k, 6), all >= 0 by construction

    S_c = _scatter(np.repeat(upos, 6, axis=1), np.tile(upos, (1, 6)), elS,
                   (spaces.n_control // 3, spaces.n_control // 3))
    N_c = sp.kron(S_c, I3, format="csr")
    Cs = _scatter(np.repeat(ents, 6, axis=1), np.tile(upos, (1, 6)), -elS,
                  (ns, spaces.n_control // 3))
    C = sp.kron(Cs, I3, format="csr")

    return OperatorSet(A=A, B=B, C=C, M=M, N_c=N_c, X_v=X_v, X_p=X_p)


# ---------------------------------------------------------------------------
# convection kernel


class ConvectionKernel:
    """Element data for the trilinear form e(a, b, c) = integral (a.grad b).c.

    Exposes the matrices needed by the state and adjoint sub-solves and the
    reduced tensor:

    * ``state_matrix(a)``: entries e(a, phi_j, phi_i) (the advection operator
      linearized in its second slot), block diagonal over components.
    * ``first_slot_matrix(a)``: entries e(phi_j, a, phi_i).
    * ``test_slot_matrix(a)``: entries e(phi_i, phi_j, a).
    * ``reduced_tensor(y)``: e(y_j, y_b, y_g) over the columns of a basis,
      from scalar element blocks, with no matrix assembled per column.

    and the same forms without a sparse matrix, for the Navier-Stokes Newton
    loop: ``residual_terms`` evaluates them on vectors at the quadrature
    points, and ``jacobian_values`` sums the element blocks into bins the
    caller maps onto a fixed sparsity pattern.  An element block is
    (m, 10, 3, 10, 3): entry (i, c, j, d) is row ``3 cells10[e, i] + c``
    and column ``3 cells10[e, j] + d``, in ``element_dofs()`` order.

    The element geometry does not depend on the fields; it is computed on
    first use and kept (gradients of the barycentric coordinates and
    |det J|, 104 bytes per element).
    """

    def __init__(self, spaces):
        self.spaces = spaces
        self._geometry = None

    def element_dofs(self):
        """Velocity dofs per element, (m, 30) in (i, c) order."""
        ent = self.spaces.cells10
        return (3 * ent[:, :, None] + np.arange(3)).reshape(ent.shape[0], 30)

    def _element_geometry(self):
        """(gradlam, |det J|) of every element, computed on first use."""
        if self._geometry is None:
            mesh = self.spaces.mesh
            self._geometry = _tet_geometry(mesh, np.arange(mesh.tets.shape[0]))
        return self._geometry

    def _quadrature(self, *fields):
        """Per chunk of elements: (cells, wdet, gNt, [(value, gradient) of
        each field at the quadrature points]).  gNt[e, q, d, j] = d N_j / d x_d
        and gradient[e, q, d, c] = d a_c / d x_d."""
        spaces = self.spaces
        for a in fields:
            if a.shape[0] != spaces.n_velocity:
                raise DimensionMismatch("velocity coefficient length mismatch")
        gradlam, detJ = self._element_geometry()
        for cells in _chunks(gradlam.shape[0], _CONVECTION_CHUNK):
            gNt = np.einsum("qia,mad->mqdi", _TET_DNDL, gradlam[cells], optimize=True)
            ent = spaces.cells10[cells]
            at_qp = []
            for a in fields:
                coeff = a[3 * ent[:, :, None] + np.arange(3)][:, None]  # (c, 1, 10, 3)
                at_qp.append(((_TET_N @ coeff)[:, 0], gNt @ coeff))
            yield cells, _TET_WTS[None, :] * detJ[cells, None], gNt, at_qp

    @staticmethod
    def _state_block(wdet, gNt, aq):
        """Scalar (c, 10, 10) block of e(a, N_j, N_i)."""
        adv = (aq[:, :, None, :] @ gNt)[:, :, 0]  # a.grad N_j, (c, nq, 10)
        return _tested(wdet[:, :, None] * adv)

    @staticmethod
    def _first_slot_block(wdet, gaq):
        """(c, 10, 3, 10, 3) block of e(phi_j, a, phi_i): int N_i N_j d a_c/d x_d."""
        m, nq = wdet.shape
        nn = (_TET_N[:, :, None] * _TET_N[:, None, :]).reshape(nq, 100)
        gq = (wdet[:, :, None, None] * gaq).transpose(1, 0, 2, 3).reshape(nq, -1)
        return (nn.T @ gq).reshape(10, 10, m, 3, 3).transpose(2, 0, 4, 1, 3)

    @staticmethod
    def _test_slot_block(wdet, gNt, aq):
        """(c, 10, 3, 10, 3) block of e(phi_i, phi_j, a): int N_i (d_c N_j) a_d."""
        m, nq = wdet.shape
        x = (wdet[:, :, None, None] * _TET_N[None, :, :, None] * aq[:, :, None, :])
        g = x.reshape(m, nq, 30).transpose(0, 2, 1) @ gNt.reshape(m, nq, 30)
        return g.reshape(m, 10, 3, 3, 10).transpose(0, 1, 3, 4, 2)

    @classmethod
    def _convection_block(cls, wdet, gNt, aq, gaq):
        """(c, 10, 3, 10, 3) block of e(a, phi_j, phi_i) + e(phi_j, a, phi_i)."""
        el = cls._first_slot_block(wdet, gaq)
        e = cls._state_block(wdet, gNt, aq)
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
        Es = _scatter(np.concatenate(rows), np.concatenate(cols),
                      np.concatenate(vals), (ns, ns))
        return sp.kron(Es, sp.identity(3, format="csr"), format="csr")

    def reduced_tensor(self, y):
        """t[g, j, b] = e(y_j, y_b, y_g) over the columns of ``y``
        (n_velocity x n): y^T E(y_j) y for every column, with E =
        ``state_matrix``, without assembling E.

        E(a) is E_s(a) (x) I3 with a scalar E_s(a).  One pass over the
        elements gives the scalar element blocks of every column, all of a
        chunk's in one product with ``_CONVECTION``, summed chunk by chunk
        into an n x nnz array of values on the scalar P2 pattern; then
        t[:, j, :] = y^T (E_s(y_j) (x) I3) y, where E_s(y_j) acts on y
        viewed as (n_scalar, 3 n), every component at once.
        """
        ns, ent = self.spaces.n_scalar, self.spaces.cells10
        if y.shape[0] != self.spaces.n_velocity:
            raise DimensionMismatch("velocity basis row count mismatch")
        n = y.shape[1]
        y_s = y.reshape(ns, 3 * n)  # row i holds y[3 i + c, b] at c n + b
        keys = (np.repeat(ent, 10, axis=1) * ns + np.tile(ent, (1, 10))).ravel()
        pattern, position = np.unique(keys, return_inverse=True)
        position = position.reshape(ent.shape[0], 100)  # (i, k) of each element
        gradlam, detJ = self._element_geometry()
        values = np.zeros((n, pattern.size))
        for cells in _chunks(ent.shape[0], max(1, _TENSOR_CHUNK // n)):
            coeff = y_s[ent[cells]].reshape(len(cells), 10, 3, n)
            g = np.einsum("eldj,ead->jela", coeff, gradlam[cells], optimize=True)
            g *= detJ[cells, None, None]
            blocks = (g.reshape(-1, 40) @ _CONVECTION).reshape(n, -1)
            # summed over the chunk's own pattern entries, not the whole
            # pattern once per column
            touched, local = np.unique(position[cells].ravel(), return_inverse=True)
            for j in range(n):
                values[j, touched] += np.bincount(local, blocks[j], touched.size)
        indices, indptr = pattern % ns, np.searchsorted(pattern, ns * np.arange(ns + 1))
        t = np.empty((n, n, n))
        for j in range(n):
            e_s = sp.csr_matrix((values[j], indices, indptr), shape=(ns, ns))
            t[:, j, :] = y.T @ (e_s @ y_s).reshape(3 * ns, n)
        return t

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
        return _scatter(np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals), (n, n))

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
            el_v = _tested(gtw) + gNt.reshape(m, 3 * nq, 10).transpose(0, 2, 1) @ vw
            d = dofs[cells].ravel()
            r_v += np.bincount(d, el_v.ravel(), n)
            r_w += np.bincount(d, _tested(conv).ravel(), n)
        return r_v, r_w

    def jacobian_values(self, v, w, index, size):
        """Element blocks of E(v) + F(v) and of G(w) (F = first_slot_matrix)
        summed into ``size`` bins: entry k of element e's flattened block
        goes to bin ``index[e, k]``.  Returns both sums; G's is None, and
        not summed, when ``w`` is None."""
        fields = (v,) if w is None else (v, w)
        ef, g = np.zeros(size), None if w is None else np.zeros(size)
        for cells, wdet, gNt, [(vq, gv), *w_at_qp] in self._quadrature(*fields):
            idx = index[cells].ravel().astype(np.intp)
            ef += np.bincount(idx, self._convection_block(wdet, gNt, vq, gv).ravel(), size)
            if g is not None:
                [(wq, _)] = w_at_qp
                g += np.bincount(idx, self._test_slot_block(wdet, gNt, wq).ravel(), size)
        return ef, g
