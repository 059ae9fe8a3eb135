"""Tetrahedral vessel meshes: synthetic generation, text format, centerline queries.

Geometry is synthetic (straight or smoothly curved tubes and two-branch
grafts) built from centerline polylines with per-point radii.  Units are
millimetres throughout.

Boundary tag convention: 1 = wall, 2..99 = inlets, 100+ = outlets.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import (
    DegenerateGeometry,
    InvariantViolation,
    IoError,
    NonIntersectingBranches,
    ParseError,
)

WALL_TAG = 1
FIRST_INLET_TAG = 2
FIRST_OUTLET_TAG = 100

_NEAREST_CHUNK = 1024  # query points per vectorized centerline projection


@dataclass(frozen=True)
class Centerline:
    """Ordered polyline with per-point maximal inscribed radii (mm)."""

    points: np.ndarray  # (n, 3)
    radii: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        rad = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "radii", rad)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise InvariantViolation("centerline needs >= 2 points in 3D")
        if rad.shape != (pts.shape[0],):
            raise InvariantViolation("one radius per centerline point required")
        if not np.isfinite(pts).all():
            raise InvariantViolation("non-finite centerline point")
        if np.any(np.linalg.norm(np.diff(pts, axis=0), axis=1) == 0.0):
            raise InvariantViolation("consecutive centerline points must be distinct")
        if not np.all(rad > 0.0):  # NaN included
            raise InvariantViolation("centerline radii must be positive")

    def tangents(self):
        """Unit tangents at the polyline vertices by central differences."""
        pts = self.points
        t = np.empty_like(pts)
        t[1:-1] = pts[2:] - pts[:-2]
        t[0] = pts[1] - pts[0]
        t[-1] = pts[-1] - pts[-2]
        return t / np.linalg.norm(t, axis=1)[:, None]

    def nearest(self, x):
        """Closest points on the polyline to the rows of ``x`` (n, 3).

        Returns per-point (distance, radius, unit tangent, arc parameter)
        arrays.  Each foot point is found by exact projection onto every
        segment, the first of equally near segments winning; radius and
        tangent are interpolated linearly along the hit segment.
        """
        x = np.asarray(x, dtype=float)
        p0 = self.points[:-1]
        seg = self.points[1:] - p0
        seglen2 = np.einsum("ij,ij->i", seg, seg)
        tang = self.tangents()
        out = []
        # bounded chunks keep the (points x segments x 3) temporaries small
        for s in range(0, x.shape[0], _NEAREST_CHUNK):
            xc = x[s : s + _NEAREST_CHUNK, None, :]
            t = np.clip(np.einsum("nij,ij->ni", xc - p0, seg) / seglen2, 0.0, 1.0)
            feet = p0 + t[:, :, None] * seg
            d2 = np.einsum("nij,nij->ni", feet - xc, feet - xc)
            k = np.argmin(d2, axis=1)
            rows = np.arange(k.shape[0])
            tk = t[rows, k]
            radius = (1.0 - tk) * self.radii[k] + tk * self.radii[k + 1]
            tau = (1.0 - tk)[:, None] * tang[k] + tk[:, None] * tang[k + 1]
            tau = tau / np.linalg.norm(tau, axis=1)[:, None]
            out.append((np.sqrt(d2[rows, k]), radius, tau, k + tk))
        return tuple(np.concatenate(parts) for parts in zip(*out))


@dataclass(frozen=True)
class GeometrySpec:
    """Synthetic vessel description: branch polylines, radii, target edge length."""

    branches: tuple  # of (control_points (m,3), radii (m,))
    resolution: float

    def __post_init__(self):
        if not self.resolution > 0.0:  # NaN included
            raise DegenerateGeometry("resolution must be positive")
        try:
            lines = [Centerline(p, r) for p, r in self.branches]
        except InvariantViolation as exc:
            raise DegenerateGeometry(f"branch: {exc}") from exc
        object.__setattr__(self, "branches", tuple((c.points, c.radii) for c in lines))


@dataclass
class Mesh:
    """Tetrahedral volume mesh with tagged boundary triangles and centerlines."""

    nodes: np.ndarray  # (n, 3) float
    tets: np.ndarray  # (m, 4) int
    boundary_tris: np.ndarray  # (k, 3) int
    boundary_tags: np.ndarray  # (k,) int
    centerlines: list = field(default_factory=list)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.tets = np.asarray(self.tets, dtype=np.int64)
        self.boundary_tris = np.asarray(self.boundary_tris, dtype=np.int64)
        self.boundary_tags = np.asarray(self.boundary_tags, dtype=np.int64)

    # -- invariants ------------------------------------------------------

    def validate(self):
        n = self.nodes.shape[0]
        if not np.isfinite(self.nodes).all():
            raise InvariantViolation("non-finite node coordinate")
        if self.tets.size and (self.tets.min() < 0 or self.tets.max() >= n):
            raise InvariantViolation("tet node index out of range")
        if self.boundary_tris.size and (
            self.boundary_tris.min() < 0 or self.boundary_tris.max() >= n
        ):
            raise InvariantViolation("boundary triangle node index out of range")
        vols = tet_volumes(self.nodes, self.tets)
        if np.any(vols <= 0.0):
            raise InvariantViolation(
                "tet %d has non-positive volume after canonical orientation"
                % int(np.argmin(vols))
            )
        faces, counts = _face_counts(self.tets)
        if (counts > 2).any():
            raise InvariantViolation("face shared by more than two tets")
        boundary = faces[counts == 1]
        tagged, copies = _unique_faces(self.boundary_tris)
        if (copies > 1).any():
            raise InvariantViolation("duplicate boundary triangle")
        if not np.array_equal(tagged, boundary):
            union = len(np.unique(np.concatenate([boundary, tagged]), axis=0))
            raise InvariantViolation(
                "boundary tags do not partition the boundary "
                f"({union - len(tagged)} untagged, {union - len(boundary)} not boundary faces)"
            )
        if self.boundary_tags.size and self.boundary_tags.min() < WALL_TAG:
            raise InvariantViolation("boundary tag below wall tag")
        return self

    def inlet_tags(self):
        tags = np.unique(self.boundary_tags)
        return [int(t) for t in tags if FIRST_INLET_TAG <= t < FIRST_OUTLET_TAG]

    def volume(self):
        return float(tet_volumes(self.nodes, self.tets).sum())


def tet_volumes(nodes, tets):
    p = nodes[tets]
    return np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0


def orient_tets(nodes, tets):
    """Swap last two vertices of tets with negative signed volume."""
    tets = np.array(tets, dtype=np.int64)
    vols = tet_volumes(nodes, tets)
    flip = vols < 0.0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def _unique_faces(tris):
    """Distinct triangles (rows of ascending node indices, sorted) and their counts."""
    return np.unique(np.sort(tris, axis=1), axis=0, return_counts=True)


def _face_counts(tets):
    """``_unique_faces`` of the four faces of every tet."""
    return _unique_faces(tets[:, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]].reshape(-1, 3))


def boundary_faces(tets):
    """Faces belonging to exactly one tet, as an (k, 3) array."""
    faces, counts = _face_counts(tets)
    return faces[counts == 1]


# ---------------------------------------------------------------------------
# centerline discretization helpers


def _resample_polyline(points, radii, spacing):
    """Resample a polyline (and its radii) to roughly uniform arc spacing."""
    points = np.asarray(points, dtype=float)
    radii = np.asarray(radii, dtype=float)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    n = max(2, int(round(total / spacing)) + 1)
    si = np.linspace(0.0, total, n)
    pts = np.column_stack([np.interp(si, s, points[:, k]) for k in range(3)])
    rad = np.interp(si, s, radii)
    return pts, rad


def _frames(points):
    """Parallel-transported orthonormal frames (normal, binormal) per vertex."""
    tang = np.diff(points, axis=0)
    tang = np.vstack([tang, tang[-1]])
    mids = np.empty_like(points)
    mids[0] = tang[0]
    mids[1:-1] = points[2:] - points[:-2]
    mids[-1] = tang[-1]
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    # seed normal: anything not parallel to the first tangent
    seed = np.array([1.0, 0.0, 0.0])
    if abs(mids[0] @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    n = seed - (seed @ mids[0]) * mids[0]
    n /= np.linalg.norm(n)
    frames = [(n, np.cross(mids[0], n))]
    for k in range(1, len(points)):
        t = mids[k]
        n = frames[-1][0]
        n = n - (n @ t) * t
        n /= np.linalg.norm(n)
        frames.append((n, np.cross(t, n)))
    return frames


def _disk_template(n_rings):
    """2D unit-disk point set (center + hexagonal rings) and its triangulation."""
    pts = [(0.0, 0.0)]
    for j in range(1, n_rings + 1):
        r = j / n_rings
        m = 6 * j
        ang = 2.0 * np.pi * np.arange(m) / m
        pts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    pts = np.array(pts)
    tri = Delaunay(pts)
    return pts, np.array(sorted(map(tuple, np.sort(tri.simplices, axis=1))))


_PRISM_ROTATIONS = [
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (5, 4, 3, 2, 1, 0),
    (4, 3, 5, 1, 0, 2),
]


def _split_prism(v):
    """Split prism (bottom v0 v1 v2, top v3 v4 v5) into 3 tets.

    Diagonals of the quad faces are chosen from global node ids so that
    adjacent prisms agree (Dompierre et al. indexing rule).
    """
    best = min(range(6), key=lambda i: v[i])
    for perm in _PRISM_ROTATIONS:
        if perm[0] == best:
            w = [v[i] for i in perm]
            break
    if min(w[1], w[5]) < min(w[2], w[4]):
        tets = [(w[0], w[1], w[2], w[5]), (w[0], w[1], w[5], w[4]), (w[0], w[4], w[5], w[3])]
    else:
        tets = [(w[0], w[1], w[2], w[4]), (w[0], w[4], w[2], w[5]), (w[0], w[4], w[5], w[3])]
    return tets


def _tube_points(centerline_pts, radii, n_rings):
    """Structured node cloud for a tube swept along a centerline.

    Returns (points array, per-node layer index, disk template points, disk
    triangles) with one disk of nodes per centerline vertex.
    """
    disk, disk_tris = _disk_template(n_rings)
    frames = _frames(centerline_pts)
    pts = []
    layer = []
    for k, c in enumerate(centerline_pts):
        n, b = frames[k]
        ring = c + radii[k] * (disk[:, :1] * n + disk[:, 1:2] * b)
        pts.append(ring)
        layer.extend([k] * len(disk))
    return np.vstack(pts), np.array(layer), disk, disk_tris


def generate_tube(spec):
    """Structured tetrahedral mesh of a single tube branch.

    Inlet (tag 2) at the first centerline end, outlet (tag 100) at the last,
    wall tag 1.  Deterministic: identical specs produce identical meshes.
    """
    if len(spec.branches) != 1:
        raise InvariantViolation("generate_tube expects exactly one branch")
    ctrl_pts, ctrl_rad = spec.branches[0]
    h = spec.resolution
    if np.min(ctrl_rad) <= h:
        raise DegenerateGeometry(
            f"radius {np.min(ctrl_rad):g} must exceed resolution {h:g}"
        )
    cpts, crad = _resample_polyline(ctrl_pts, ctrl_rad, h)
    n_rings = max(2, int(round(float(np.min(crad)) / h)))
    nodes, layer, disk, disk_tris = _tube_points(cpts, crad, n_rings)
    per_layer = disk.shape[0]
    n_layers = cpts.shape[0]

    tets = []
    for k in range(n_layers - 1):
        off0 = k * per_layer
        off1 = off0 + per_layer
        for (a, b, c) in disk_tris:
            tets.extend(_split_prism((off0 + a, off0 + b, off0 + c, off1 + a, off1 + b, off1 + c)))
    tets = orient_tets(nodes, np.array(tets, dtype=np.int64))

    btris = boundary_faces(tets)
    tags = np.full(len(btris), WALL_TAG, dtype=np.int64)
    tri_layers = layer[btris]
    tags[np.all(tri_layers == 0, axis=1)] = FIRST_INLET_TAG
    tags[np.all(tri_layers == n_layers - 1, axis=1)] = FIRST_OUTLET_TAG

    mesh = Mesh(
        nodes=nodes,
        tets=tets,
        boundary_tris=btris,
        boundary_tags=tags,
        centerlines=[Centerline(points=cpts, radii=crad)],
    )
    return mesh.validate()


def _inside_union(points, centerlines, shrink=0.0):
    """Boolean mask: point lies inside any branch tube (r < R - shrink)."""
    inside = np.zeros(len(points), dtype=bool)
    for cl in centerlines:
        d, R, _, _ = cl.nearest(points)
        inside |= d < R - shrink
    return inside


def _endcap_mask(tri_centroids, point, normal, radius, h):
    d_plane = np.abs((tri_centroids - point) @ normal)
    d_axis = np.linalg.norm(
        tri_centroids - point - ((tri_centroids - point) @ normal)[:, None] * normal,
        axis=1,
    )
    return (d_plane < 0.35 * h) & (d_axis < 1.05 * radius)


def generate_graft(spec):
    """Union mesh of a host tube and a graft branch joining it.

    Branch 0 is the host (inlet tag 2, outlet tag 100); branch 1 is the graft
    (inlet tag 3) whose centerline must reach the host tube.  The union is
    meshed by a Delaunay tetrahedralization of the combined structured node
    clouds, filtered to tets inside the implicit union surface.
    """
    if len(spec.branches) != 2:
        raise InvariantViolation("generate_graft expects exactly two branches")
    h = spec.resolution
    for pts, rad in spec.branches:
        if np.min(rad) <= h:
            raise DegenerateGeometry(
                f"radius {np.min(rad):g} must exceed resolution {h:g}"
            )

    host = Centerline(*_resample_polyline(*spec.branches[0], h))
    graft = Centerline(*_resample_polyline(*spec.branches[1], h))

    # the graft must actually meet the host tube
    d, R, _, _ = host.nearest(graft.points)
    gaps = d - R - graft.radii
    if gaps.min() > 0.0:
        raise NonIntersectingBranches(
            "graft centerline stays %.3g mm clear of the host tube" % gaps.min()
        )

    n_rings = max(2, int(round(min(float(np.min(host.radii)), float(np.min(graft.radii))) / h)))
    host_nodes = _tube_points(host.points, host.radii, n_rings)[0]
    graft_nodes = _tube_points(graft.points, graft.radii, n_rings)[0]

    # keep graft nodes outside the host lumen and away from host nodes
    keep = ~_inside_union(graft_nodes, [host], shrink=0.25 * h)
    tree = cKDTree(host_nodes)
    close = tree.query_ball_point(graft_nodes, 0.45 * h)
    keep &= np.array([len(c) == 0 for c in close])
    graft_nodes = graft_nodes[keep]

    if graft_nodes.size == 0:
        raise DegenerateGeometry("graft branch fully contained in host tube")

    nodes = np.vstack([host_nodes, graft_nodes])
    tri = Delaunay(nodes)
    tets = np.sort(tri.simplices, axis=1)
    tets = tets[np.lexsort(tets.T[::-1])]

    centroids = nodes[tets].mean(axis=1)
    inside = _inside_union(centroids, [host, graft], shrink=0.0)
    vols = np.abs(tet_volumes(nodes, tets))
    tets = tets[inside & (vols > 1e-10 * h**3)]

    # drop nodes not referenced by any kept tet
    used = np.unique(tets)
    remap = -np.ones(len(nodes), dtype=np.int64)
    remap[used] = np.arange(len(used))
    nodes = nodes[used]
    tets = orient_tets(nodes, remap[tets])

    btris = boundary_faces(tets)
    tags = np.full(len(btris), WALL_TAG, dtype=np.int64)
    cent = nodes[btris].mean(axis=1)

    t_host = host.tangents()
    t_graft = graft.tangents()
    caps = [
        (FIRST_INLET_TAG, host.points[0], t_host[0], host.radii[0]),
        (FIRST_INLET_TAG + 1, graft.points[0], t_graft[0], graft.radii[0]),
        (FIRST_OUTLET_TAG, host.points[-1], t_host[-1], host.radii[-1]),
    ]
    for tag, point, normal, radius in caps:
        tags[_endcap_mask(cent, point, normal, radius, h)] = tag

    mesh = Mesh(
        nodes=nodes,
        tets=tets,
        boundary_tris=btris,
        boundary_tags=tags,
        centerlines=[host, graft],
    )
    return mesh.validate()


def centerline_query(mesh, x):
    """Distance, radius, tangent and branch id of the nearest centerline
    point to each row of ``x`` (n, 3), as per-point arrays.

    Nearest branch wins; ties break toward the lowest branch id.
    """
    if not mesh.centerlines:
        raise InvariantViolation("mesh carries no centerline metadata")
    r, R, tau, _ = mesh.centerlines[0].nearest(x)
    branch = np.zeros(r.shape[0], dtype=np.int64)
    for bid, cl in enumerate(mesh.centerlines[1:], start=1):
        r_b, R_b, tau_b, _ = cl.nearest(x)
        better = r_b < r - 1e-14
        r = np.where(better, r_b, r)
        R = np.where(better, R_b, R)
        tau = np.where(better[:, None], tau_b, tau)
        branch = np.where(better, bid, branch)
    return r, R, tau, branch


# ---------------------------------------------------------------------------
# OCROM-MESH text format


def save_mesh(mesh, path):
    """Write the bit-exact OCROM-MESH text format."""
    lines = ["ocrom-mesh 1"]
    lines.append(f"$nodes {mesh.nodes.shape[0]}")
    for i, (x, y, z) in enumerate(mesh.nodes):
        lines.append(f"{i} {float(x)!r} {float(y)!r} {float(z)!r}")
    lines.append(f"$tets {mesh.tets.shape[0]}")
    for i, t in enumerate(mesh.tets):
        lines.append(f"{i} {t[0]} {t[1]} {t[2]} {t[3]}")
    lines.append(f"$btris {mesh.boundary_tris.shape[0]}")
    for i, (tri, tag) in enumerate(zip(mesh.boundary_tris, mesh.boundary_tags)):
        lines.append(f"{i} {tri[0]} {tri[1]} {tri[2]} {tag}")
    for bid, cl in enumerate(mesh.centerlines):
        lines.append(f"$centerline {bid} {cl.points.shape[0]}")
        for (x, y, z), r in zip(cl.points, cl.radii):
            lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r} {float(r)!r}")
    lines.append("$end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# record sections: a header line "$section count", then one line per record,
# its id (in order from 0) and ``width`` values of ``kind``; a boundary
# triangle's values are its three nodes and its tag
_RECORDS = {"$nodes": ("node", float, 3), "$tets": ("tet", int, 4), "$btris": ("btri", int, 4)}


def load_mesh(path):
    """Strict parser for the OCROM-MESH format; validates all mesh invariants.

    An unreadable file raises :class:`IoError`.  Bytes that are not text,
    malformed content and broken mesh or centerline invariants all raise
    :class:`ParseError`: the file is at fault.
    """
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read mesh {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from exc
    if not lines or lines[0].strip() != "ocrom-mesh 1":
        raise ParseError("missing 'ocrom-mesh 1' header", line=1)

    records = {section: [] for section in _RECORDS}
    centerlines = []
    i = 1
    ended = False

    def fail(msg, ln):
        raise ParseError(msg, line=ln + 1)

    try:
        while i < len(lines):
            line = lines[i].strip()
            if not line:
                i += 1
                continue
            if not line.startswith("$"):
                fail(f"expected section marker, got {line!r}", i)
            if line == "$end":
                ended = True
                i += 1
                break
            parts = line.split()
            if parts[0] in _RECORDS:
                name, kind, width = _RECORDS[parts[0]]
                for k in range(_parse_count(parts, 2, i)):
                    i += 1
                    toks = _tokens(lines, i, 1 + width)
                    if int(toks[0]) != k:
                        fail(f"{name} id {toks[0]} out of order", i)
                    records[parts[0]].append([kind(t) for t in toks[1:]])
            elif parts[0] == "$centerline":
                count = _parse_count(parts, 3, i)
                bid = int(parts[1])
                if bid != len(centerlines):
                    fail(f"centerline branch id {bid} out of order", i)
                pts, rad = [], []
                for _ in range(count):
                    i += 1
                    toks = _tokens(lines, i, 4)
                    pts.append([float(toks[0]), float(toks[1]), float(toks[2])])
                    rad.append(float(toks[3]))
                centerlines.append(Centerline(points=np.array(pts), radii=np.array(rad)))
            else:
                fail(f"unknown section {parts[0]!r}", i)
            i += 1
    except ValueError as exc:  # a token that is not a number
        raise ParseError(str(exc), line=i + 1) from exc
    except InvariantViolation as exc:  # a centerline's own checks
        raise ParseError(f"{path}: {exc}", line=i + 1) from exc

    if not ended:
        raise ParseError("missing $end", line=len(lines))
    for j in range(i, len(lines)):
        if lines[j].strip():
            raise ParseError("content after $end", line=j + 1)

    btris = np.array(records["$btris"], dtype=np.int64).reshape(-1, 4)
    mesh = Mesh(
        nodes=np.array(records["$nodes"], dtype=float).reshape(-1, 3),
        tets=np.array(records["$tets"], dtype=np.int64).reshape(-1, 4),
        boundary_tris=btris[:, :3].copy(),
        boundary_tags=btris[:, 3].copy(),
        centerlines=centerlines,
    )
    try:
        return mesh.validate()
    except InvariantViolation as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_count(parts, expected_len, lineno):
    if len(parts) != expected_len:
        raise ParseError(f"malformed section header {' '.join(parts)!r}", line=lineno + 1)
    count = int(parts[-1])
    if count < 0:
        raise ParseError(f"negative count {count}", line=lineno + 1)
    return count


def _tokens(lines, i, n):
    if i >= len(lines):
        raise ParseError("unexpected end of file", line=i + 1)
    toks = lines[i].split()
    if len(toks) != n:
        raise ParseError(f"expected {n} fields, got {len(toks)}", line=i + 1)
    return toks
