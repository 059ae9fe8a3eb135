import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocrom.errors import (
    DegenerateGeometry,
    InvariantViolation,
    IoError,
    NonIntersectingBranches,
    ParseError,
)
from ocrom.mesh import (
    Centerline,
    GeometrySpec,
    Mesh,
    centerline_query,
    generate_graft,
    generate_tube,
    load_mesh,
    save_mesh,
)

from conftest import straight_tube


def graft_spec(resolution=0.55):
    host = (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 8.0]]),
            np.array([1.0, 1.0]))
    ang = np.deg2rad(45.0)
    d = np.array([np.sin(ang), 0.0, np.cos(ang)])
    end = np.array([0.0, 0.0, 4.0])
    start = end - 4.0 * d
    graft = (np.array([start, end]), np.array([0.7, 0.7]))
    return GeometrySpec(branches=(host, graft), resolution=resolution)


class TestGenerateTube:
    def test_tags_and_volume(self):
        mesh = straight_tube(length=10.0, radius=1.0, resolution=0.4)
        mesh.validate()
        assert set(mesh.boundary_tags.tolist()) == {1, 2, 100}
        exact = np.pi * 1.0**2 * 10.0
        assert abs(mesh.volume() - exact) / exact <= 0.05

    def test_degenerate(self):
        """A radius below the resolution, and a branch of zero length."""
        axis = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        for pts, radius in ((axis, 0.1), (np.zeros((2, 3)), 1.0)):
            with pytest.raises(DegenerateGeometry):
                generate_tube(GeometrySpec(branches=((pts, np.array([radius, radius])),),
                                           resolution=0.4))

    def test_deterministic(self):
        m1 = straight_tube(resolution=0.45)
        m2 = straight_tube(resolution=0.45)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.tets, m2.tets)
        assert np.array_equal(m1.boundary_tags, m2.boundary_tags)

    def test_positive_volumes_and_boundary(self, tube_mesh):
        tube_mesh.validate()  # raises on inverted tets / untagged faces

    def test_partition_message_counts_faces(self, tube_mesh):
        """Three tagged faces swapped for two interior ones: three untagged,
        two tagged faces that are not on the boundary."""
        t = tube_mesh.tets
        faces = np.sort(np.concatenate([t[:, [1, 2, 3]], t[:, [0, 2, 3]],
                                        t[:, [0, 1, 3]], t[:, [0, 1, 2]]]), axis=1)
        uniq, counts = np.unique(faces, axis=0, return_counts=True)
        bad = Mesh(nodes=tube_mesh.nodes, tets=t,
                   boundary_tris=np.vstack([tube_mesh.boundary_tris[3:], uniq[counts == 2][:2]]),
                   boundary_tags=np.append(tube_mesh.boundary_tags[3:], [1, 1]))
        with pytest.raises(InvariantViolation, match=r"\(3 untagged, 2 not boundary faces\)"):
            bad.validate()

    def test_volume_against_monte_carlo(self):
        """Signed tet volume sum vs point-sampling of the implicit cylinder."""
        mesh = straight_tube(length=6.0, radius=1.0, resolution=1.0 / 3.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform([-1, -1, 0], [1, 1, 6], size=(200000, 3))
        inside = (pts[:, 0] ** 2 + pts[:, 1] ** 2) <= 1.0
        mc = inside.mean() * 4.0 * 6.0
        assert abs(mesh.volume() - mc) / mc <= 0.05


class TestGenerateGraft:
    def test_tags(self):
        mesh = generate_graft(graft_spec())
        mesh.validate()
        assert set(mesh.boundary_tags.tolist()) == {1, 2, 3, 100}
        assert len(mesh.centerlines) == 2

    def test_non_intersecting(self):
        host = (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 8.0]]),
                np.array([1.0, 1.0]))
        far = (np.array([[10.0, 10.0, 0.0], [10.0, 10.0, 8.0]]),
               np.array([0.7, 0.7]))
        with pytest.raises(NonIntersectingBranches):
            generate_graft(GeometrySpec(branches=(host, far), resolution=0.5))

    def test_union_volume_bounds(self):
        mesh = generate_graft(graft_spec())
        v_host = np.pi * 1.0**2 * 8.0
        v_graft = np.pi * 0.7**2 * 4.0
        vol = mesh.volume()
        assert vol >= 0.85 * max(v_host, v_graft)
        assert vol <= v_host + v_graft

    def test_union_volume_monte_carlo(self):
        mesh = generate_graft(graft_spec())
        rng = np.random.default_rng(1)
        lo = mesh.nodes.min(axis=0) - 0.1
        hi = mesh.nodes.max(axis=0) + 0.1
        pts = rng.uniform(lo, hi, size=(120000, 3))

        def dist_to_segment(p, a, b):
            ab = b - a
            t = np.clip(((p - a) @ ab) / (ab @ ab), 0.0, 1.0)
            return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)

        inside = np.zeros(len(pts), dtype=bool)
        for cl in mesh.centerlines:
            for a, b, ra in zip(cl.points[:-1], cl.points[1:], cl.radii[:-1]):
                inside |= dist_to_segment(pts, a, b) <= ra
        mc = inside.mean() * np.prod(hi - lo)
        assert abs(mesh.volume() - mc) / mc <= 0.10


class TestCenterlineQuery:
    def test_on_axis(self, tube_mesh):
        r, R, t, branch = centerline_query(tube_mesh, np.array([[0.0, 0.0, 3.0]]))
        assert r[0] <= 1e-12 and abs(R[0] - 1.0) <= 1e-12 and branch[0] == 0
        assert np.allclose(np.abs(t[0]), [0, 0, 1])

    def test_at_wall(self, tube_mesh):
        r, R, t, _ = centerline_query(tube_mesh, np.array([[1.0, 0.0, 3.0]]))
        assert abs(r[0] - 1.0) <= 1e-12 and abs(R[0] - 1.0) <= 1e-12

    def test_unit_tangent(self, tube_mesh):
        rng = np.random.default_rng(3)
        x = rng.uniform([-1, -1, 0], [1, 1, 6], size=(20, 3))
        _, _, t, _ = centerline_query(tube_mesh, x)
        assert np.abs(np.linalg.norm(t, axis=1) - 1.0).max() <= 1e-12

    def test_brute_force_oracle(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 2.0], [2.0, 2.0, 4.0],
                        [2.0, 4.0, 6.0]])
        radii = np.array([1.0, 0.9, 0.8, 0.7])
        cl = Centerline(points=pts, radii=radii)
        mesh = Mesh(
            nodes=np.eye(4, 3, k=-1), tets=np.array([[0, 1, 2, 3]]),
            boundary_tris=np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
            boundary_tags=np.array([1, 1, 1, 1]), centerlines=[cl],
        )
        # dense resampling of every segment
        dense = np.concatenate([
            a + np.linspace(0, 1, 4001)[:, None] * (b - a)
            for a, b in zip(pts[:-1], pts[1:])
        ])
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 5, size=(25, 3))
        r, _, _, _ = centerline_query(mesh, x)
        assert r.shape == (25,)
        for k in range(25):
            brute = np.linalg.norm(dense - x[k], axis=1).min()
            assert abs(r[k] - brute) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 9)))
    def test_query_lower_bounds_all_points(self, tube_mesh, xyz):
        x = np.array(xyz)
        r, _, _, _ = centerline_query(tube_mesh, x[None])
        cl = tube_mesh.centerlines[0]
        assert r[0] <= np.linalg.norm(cl.points - x, axis=1).min() + 1e-12


SINGLE_TET = """ocrom-mesh 1
$nodes 4
0 0.0 0.0 0.0
1 1.0 0.0 0.0
2 0.0 1.0 0.0
3 0.0 0.0 1.0
$tets 1
0 0 1 2 3
$btris 4
0 0 2 1 1
1 0 1 3 1
2 0 3 2 1
3 1 2 3 1
$centerline 0 2
0.0 0.0 0.0 1.0
0.0 0.0 1.0 1.0
$end
"""


class TestMeshFormat:
    def test_single_tet(self, tmp_path):
        p = tmp_path / "one.mesh"
        p.write_text(SINGLE_TET)
        mesh = load_mesh(str(p))
        assert mesh.nodes.shape == (4, 3) and mesh.tets.shape == (1, 4)
        mesh.validate()

    def test_duplicate_boundary_face(self, tmp_path):
        bad = SINGLE_TET.replace("$btris 4", "$btris 5").replace(
            "3 1 2 3 1\n", "3 1 2 3 1\n4 1 2 3 1\n")
        p = tmp_path / "dup.mesh"
        p.write_text(bad)
        with pytest.raises(ParseError, match="dup.mesh") as exc:
            load_mesh(str(p))
        assert isinstance(exc.value.__cause__, InvariantViolation)

    def test_round_trip(self, tmp_path, tube_mesh):
        p = tmp_path / "tube.mesh"
        save_mesh(tube_mesh, str(p))
        back = load_mesh(str(p))
        assert np.array_equal(back.nodes, tube_mesh.nodes)
        assert np.array_equal(back.tets, tube_mesh.tets)
        assert np.array_equal(back.boundary_tris, tube_mesh.boundary_tris)
        assert np.array_equal(back.boundary_tags, tube_mesh.boundary_tags)
        for a, b in zip(back.centerlines, tube_mesh.centerlines):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.radii, b.radii)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("not-a-mesh\n")
        with pytest.raises(ParseError):
            load_mesh(str(p))

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text(SINGLE_TET.replace("$centerline", "$mystery"))
        with pytest.raises(ParseError) as exc:
            load_mesh(str(p))
        assert exc.value.line is not None

    def test_truncated(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text(SINGLE_TET.replace("$end\n", ""))
        with pytest.raises(ParseError):
            load_mesh(str(p))

    @pytest.mark.parametrize("old, new, line", [
        ("1 1.0 0.0 0.0", "1 x 0.0 0.0", 4),
        ("0 0 1 2 3", "0 0 1 2.5 3", 8),
        ("3 1 2 3 1", "3 1 2 3 wall", 13),
        ("$tets 1", "$tets one", 7),
        ("$tets 1", "$tets -1", 7),
        ("$centerline 0 2", "$centerline 0 -2", 14),
        ("0.0 0.0 1.0 1.0", "0.0 0.0 1.0 1,0", 16),
    ])
    def test_malformed_number(self, tmp_path, old, new, line):
        p = tmp_path / "bad.mesh"
        p.write_text(SINGLE_TET.replace(old, new))
        with pytest.raises(ParseError) as exc:
            load_mesh(str(p))
        assert exc.value.line == line

    @pytest.mark.parametrize("old, new", [
        ("3 0.0 0.0 1.0", "3 0.0 0.0 nan"),
        ("1 1.0 0.0 0.0", "1 inf 0.0 0.0"),
        ("0.0 0.0 1.0 1.0", "0.0 0.0 1.0 nan"),
        ("0.0 0.0 1.0 1.0", "0.0 nan 1.0 1.0"),
    ])
    def test_non_finite_coordinate(self, tmp_path, old, new):
        p = tmp_path / "bad.mesh"
        p.write_text(SINGLE_TET.replace(old, new))
        with pytest.raises(ParseError, match="bad.mesh") as exc:
            load_mesh(str(p))
        assert isinstance(exc.value.__cause__, InvariantViolation)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_mesh(str(tmp_path / "no.mesh"))


def test_centerline_invariants():
    with pytest.raises(Exception):
        Centerline(points=np.zeros((1, 3)), radii=np.array([1.0]))
    with pytest.raises(Exception):
        Centerline(points=np.array([[0, 0, 0], [0, 0, 1]]),
                   radii=np.array([1.0, -1.0]))
