import copy
import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ocrom import numerics, rom
from ocrom.cli import main
from ocrom.errors import (
    AllSnapshotsFailed,
    DimensionMismatch,
    InvariantViolation,
    MissingArtifact,
    NewtonDiverged,
    ParameterOutOfDomain,
    ParseError,
    RankDeficiency,
    SingularMatrix,
)
from ocrom.mesh import generate_graft
from ocrom.optctrl import FullOrderModel, OcpConfig
from ocrom.rom import (
    FIELDS,
    PodBasis,
    ReducedOperators,
    SnapshotSet,
    build_offline,
    build_reduced_spaces,
    check_pod_invariants,
    collect_snapshots,
    compute_errors,
    compute_supremizers,
    inner_products_of,
    load_artifact,
    pod_compress,
    project_operators,
    reduced_inf_sup,
    save_artifact,
    slice_operators,
    solve_reduced,
    training_grid,
    training_random,
)
from ocrom.study import graft_geometry

import oracles
from conftest import straight_tube


class TestTrainingSets:
    def test_grid_endpoints_and_size(self):
        ts = training_grid([(40.0, 80.0)], 5)
        assert len(ts) == 5
        assert ts.parameters[0, 0] == 40.0 and ts.parameters[-1, 0] == 80.0
        assert np.all(np.diff(ts.parameters[:, 0]) > 0)

    def test_grid_tensor_product(self):
        ts = training_grid([(0.0, 1.0), (2.0, 3.0)], 3)
        assert len(ts) == 9
        assert ts.parameters.shape == (9, 2)

    def test_random_seed_determinism(self):
        a = training_random([(40.0, 80.0)], 7, seed=3)
        b = training_random([(40.0, 80.0)], 7, seed=3)
        c = training_random([(40.0, 80.0)], 7, seed=4)
        assert np.array_equal(a.parameters, b.parameters)
        assert not np.array_equal(a.parameters, c.parameters)
        assert np.all(a.parameters >= 40.0) and np.all(a.parameters <= 80.0)


class TestSnapshots:
    def test_repeated_parameter_identical_columns(self, stokes_model):
        ts = training_grid([(60.0, 60.0)], 2)
        snaps = collect_snapshots(stokes_model, ts)
        for f in FIELDS:
            assert np.array_equal(snaps.matrices[f][:, 0], snaps.matrices[f][:, 1])

    def test_snapshots_satisfy_optimality(self, stokes_model):
        """Each snapshot column re-checked against the full residual."""
        ts = training_grid([(40.0, 80.0)], 3)
        snaps = collect_snapshots(stokes_model, ts)
        for k, mu in enumerate(snaps.parameters):
            x = np.concatenate([
                snaps.matrices["v"][:, k][stokes_model.free],
                snaps.matrices["p"][:, k],
                snaps.matrices["u"][:, k],
                snaps.matrices["w"][:, k][stokes_model.free],
                snaps.matrices["q"][:, k],
            ])
            res = stokes_model.kkt_residual(x, mu, False)
            scale = np.linalg.norm(stokes_model.assemble_kkt(mu)[1])
            assert np.linalg.norm(res) <= 1e-9 * scale

    def test_failures_recorded(self, stokes_model):
        """An out-of-domain sample fails gracefully; the rest survive."""
        from ocrom.rom import TrainingSet

        ts = TrainingSet(np.array([[50.0], [1e6], [70.0]]))
        snaps = collect_snapshots(stokes_model, ts)
        assert len(snaps) == 2
        assert len(snaps.failures) == 1
        assert snaps.failures[0][0] == 1

    def test_all_failed(self, stokes_model):
        from ocrom.errors import AllSnapshotsFailed
        from ocrom.rom import TrainingSet

        with pytest.raises(AllSnapshotsFailed):
            collect_snapshots(stokes_model, TrainingSet(np.array([[1e6]])))


def _count_solves(monkeypatch):
    """Parameters of every ``FullOrderModel.solve_ocp`` call from now on."""
    solved = []
    solve_ocp = FullOrderModel.solve_ocp

    def counted(model, mu):
        solved.append(np.array(mu, dtype=float))
        return solve_ocp(model, mu)

    monkeypatch.setattr(FullOrderModel, "solve_ocp", counted)
    return solved


@pytest.fixture(scope="module")
def stokes_graft_model():
    """A small two-inlet Stokes graft."""
    mesh = generate_graft(graft_geometry(host_length=3.0, host_radius=1.0,
                                         graft_radius=0.7, angle_deg=60.0,
                                         attach=2.0, resolution=0.68))
    return FullOrderModel(mesh, OcpConfig(domain={2: (40.0, 80.0), 3: (40.0, 80.0)}))


@pytest.fixture(scope="module")
def graft_ns_model():
    """A two-inlet Navier-Stokes graft shaped like the serving benchmark's:
    the coarsest graft, Re in [20, 30]^2."""
    mesh = generate_graft(graft_geometry(2.5, 1.0, 0.7, 35.0, 1.6, resolution=0.68))
    return FullOrderModel(mesh, OcpConfig(equation="navier-stokes",
                                          domain={2: (20.0, 30.0), 3: (20.0, 30.0)}))


def _domain(model):
    return np.column_stack([model.domain_lo, model.domain_hi])


def _assert_columns_match_cold_solves(model, snaps, exact=False):
    """Every column of every field equals a ``solve_ocp`` outside a build
    at its parameter: bit for bit, or within 1e-8 relative."""
    for k, mu in enumerate(snaps.parameters):
        sol = model.solve_ocp(mu)
        for f in FIELDS:
            ref = sol.v_hom if f == "v" else getattr(sol, f)
            if exact:
                assert np.array_equal(snaps.matrices[f][:, k], ref), (mu, f)
            else:
                err = np.abs(snaps.matrices[f][:, k] - ref).max()
                assert err <= 1e-8 * np.abs(ref).max(), (mu, f)


class TestAffineSnapshots:
    """Stokes snapshots come from at most n_lift + 1 anchor solves."""

    @pytest.mark.parametrize("model, training, solves", [
        ("stokes_model", [[60.0], [60.0], [60.0]], 1),
        ("stokes_model", [[50.0], [-5.0], [1e6], [np.nan], [70.0]], 2),
        ("ns_model", [[20.0], [40.0]], 2),
    ], ids=["repeated-point", "out-of-domain", "navier-stokes"])
    def test_full_order_solves(self, request, monkeypatch, model, training, solves):
        """Stokes solves only in-domain anchors; Navier-Stokes every point."""
        model = request.getfixturevalue(model)
        solved = _count_solves(monkeypatch)
        snaps = collect_snapshots(model, rom.TrainingSet(np.array(training)))
        assert len(solved) == snaps.solves == solves
        for mu in solved:
            assert any(np.array_equal(mu, p) for p in snaps.parameters)
            assert np.all((model.domain_lo <= mu) & (mu <= model.domain_hi))

    def test_stokes_build_from_two_solves(self, stokes_model, monkeypatch):
        solved = _count_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            snaps, _, _ = build_offline(stokes_model, training_grid([(40.0, 80.0)], 6), n_max=2)
        assert [mu.tolist() for mu in solved] == [[40.0], [80.0]]
        assert len(snaps) == 6 and snaps.solves == 2

    @pytest.mark.parametrize("model, solves", [("stokes_graft_model", 3),
                                               ("graft_ns_model", 9)],
                             ids=["stokes", "navier-stokes"])
    def test_graft_grid_columns_match_direct_solves(self, request, monkeypatch, model,
                                                    solves):
        """Stokes combines three anchor solves, Navier-Stokes follows a
        path through all nine points; either way the columns, in training
        order, are the solves at their points."""
        model = request.getfixturevalue(model)
        solved = _count_solves(monkeypatch)
        ts = training_grid(_domain(model), 3)
        snaps = collect_snapshots(model, ts)
        assert len(solved) == solves
        assert np.array_equal(snaps.parameters, ts.parameters)
        _assert_columns_match_cold_solves(model, snaps)

    @pytest.mark.parametrize("model", ["stokes_graft_model", "graft_ns_model"],
                             ids=["stokes", "navier-stokes"])
    def test_repeated_builds_bit_identical(self, request, model):
        model = request.getfixturevalue(model)
        ts = training_random(_domain(model), 7, seed=5)
        a, b = (collect_snapshots(model, ts) for _ in range(2))
        for f in FIELDS:
            assert a.matrices[f].tobytes() == b.matrices[f].tobytes()

    def test_failed_anchor_raises(self, stokes_model, monkeypatch):
        def singular(model, mu):
            raise SingularMatrix("zero pivot")

        monkeypatch.setattr(FullOrderModel, "solve_ocp", singular)
        with pytest.raises(AllSnapshotsFailed, match="zero pivot"):
            collect_snapshots(stokes_model, training_grid([(40.0, 80.0)], 4))


class TestSnapshotPath:
    """Navier-Stokes snapshots follow a nearest-neighbour path: each solve
    starts from the previous converged one, and the build shares one step
    solver."""

    def test_path_order(self):
        """Greedy nearest neighbour from the first row, distances scaled by
        the domain width; an infinite width counts as 1."""
        mus = np.array([[0.0, 0.0], [9.0, 0.9], [1.0, 0.8], [2.0, 0.0]])
        assert rom._path_order(mus, np.zeros(2), np.array([10.0, 1.0])) == [0, 3, 2, 1]
        assert rom._path_order(mus, np.zeros(2), np.array([np.inf, 1.0])) == [0, 2, 3, 1]
        assert rom._path_order(mus[:0], np.zeros(2), np.ones(2)) == []

    def test_failed_point_keeps_training_index(self, graft_ns_model, monkeypatch):
        """A solve that raises is recorded under its training index, and
        the next solve starts from the last successful one."""
        model = graft_ns_model
        ts = training_grid(_domain(model), 2)
        failing = 1
        solve_ocp, newton = FullOrderModel.solve_ocp, numerics.newton
        starts, solutions = [], []

        def fails_at_one_point(model, mu):
            if np.array_equal(mu, ts.parameters[failing]):
                raise NewtonDiverged("injected", [1.0])
            sol = solve_ocp(model, mu)
            solutions.append(sol)
            return sol

        def recorded(system, x, *args):
            starts.append(x)
            return newton(system, x, *args)

        monkeypatch.setattr(FullOrderModel, "solve_ocp", fails_at_one_point)
        monkeypatch.setattr(numerics, "newton", recorded)
        snaps = collect_snapshots(model, ts)
        assert [(i, mu.tolist()) for i, mu, _ in snaps.failures] == [
            (failing, ts.parameters[failing].tolist())]
        assert snaps.failures[0][2] == "injected"
        assert np.array_equal(snaps.parameters, np.delete(ts.parameters, failing, axis=0))
        # the path 0 -> 1 -> 3 -> 2 (a tie goes to the first row): the solve
        # at 3 starts from the solution at 0, the one at 2 from that at 3
        assert len(starts) == 3
        nf = model.free.shape[0]
        for start, sol in zip(starts[1:], solutions):
            assert np.array_equal(start[:nf], sol.v_hom[model.free])
        monkeypatch.undo()
        _assert_columns_match_cold_solves(model, snaps)

    def test_diverged_warm_start_retried_cold(self, graft_ns_model, monkeypatch):
        """A warm start that diverges (here: allowed no step) is retried
        once from the Stokes start with a fresh step solver, which is the
        solve outside a build bit for bit."""
        model = graft_ns_model
        ts = training_grid(_domain(model), 2)
        newton, warm = numerics.newton, []

        def warm_diverges(system, x, tol_rel, tol_abs, max_iter):
            if tol_rel == 0.0:  # only a warm start drops the relative test
                warm.append(x)
                max_iter = 0
            return newton(system, x, tol_rel, tol_abs, max_iter)

        monkeypatch.setattr(numerics, "newton", warm_diverges)
        snaps = collect_snapshots(model, ts)
        assert len(warm) == len(ts) - 1
        assert not snaps.failures
        assert np.array_equal(snaps.parameters, ts.parameters)
        monkeypatch.undo()
        _assert_columns_match_cold_solves(model, snaps, exact=True)

    def test_build_factorizes_less_than_once_per_point(self, graft_ns_model, monkeypatch):
        model = graft_ns_model
        ts = training_grid(_domain(model), 2)
        model.solve_ocp(ts.parameters[0])  # warm-up: builds the Stokes elimination
        calls = []
        factorize = numerics.factorize

        def counted(A):
            calls.append(A.shape)
            return factorize(A)

        monkeypatch.setattr(numerics, "factorize", counted)
        snaps = collect_snapshots(model, ts)
        assert len(snaps) == len(ts) == 4
        assert len(calls) < len(ts)
        e = model._ends
        assert set(calls) == {(e[-1] - e[2], e[1])}  # state blocks only
        assert model._path is None  # the path and its factorization are released


def _identity_products(n):
    eye = sp.identity(n, format="csr")
    return {f: eye for f in FIELDS}


def _synthetic_snapshots(S):
    return SnapshotSet(
        matrices={f: S.copy() for f in FIELDS},
        parameters=np.zeros((S.shape[1], 1)),
        failures=[],
    )


class TestPod:
    def test_two_column_hand_eigensolve(self):
        """Orthogonal columns of Euclidean norms 2 and 1: the correlation
        matrix is diag(4,1)/2 so the eigenvalues are (2, 1/2) and the modes
        are the normalized columns."""
        S = np.zeros((6, 2))
        S[0, 0] = 2.0
        S[3, 1] = 1.0
        basis = pod_compress(_synthetic_snapshots(S), _identity_products(6), 2)
        lam = basis.eigenvalues["v"]
        assert abs(lam[0] - 2.0) <= 1e-14
        assert abs(lam[1] - 0.5) <= 1e-14
        assert np.abs(basis.modes["v"][:, 0] - S[:, 0] / 2.0).max() <= 1e-13
        assert np.abs(basis.modes["v"][:, 1] - S[:, 1]).max() <= 1e-13
        assert basis.energy["v"] == 1.0

    def test_rank_one_mode(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(8)
        S = np.column_stack([s, 2 * s, -0.5 * s])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            basis = pod_compress(_synthetic_snapshots(S), _identity_products(8), 1)
        m = basis.modes["v"][:, 0]
        ref = s / np.linalg.norm(s)
        assert min(np.abs(m - ref).max(), np.abs(m + ref).max()) <= 1e-12

    def test_rank_deficiency_warning(self):
        s = np.arange(1.0, 6.0)
        S = np.column_stack([s, s])
        with pytest.warns(RankDeficiency):
            pod_compress(_synthetic_snapshots(S), _identity_products(5), 2)

    def test_n_max_exceeds_snapshots(self):
        S = np.eye(4)[:, :2]
        with pytest.raises(DimensionMismatch):
            pod_compress(_synthetic_snapshots(S), _identity_products(4), 3)

    def test_modes_weighted_orthonormal(self, stokes_model):
        ts = training_grid([(40.0, 80.0)], 4)
        snaps = collect_snapshots(stokes_model, ts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            basis = pod_compress(snaps, inner_products_of(stokes_model), 2)
        prods = inner_products_of(stokes_model)
        for f in FIELDS:
            y = basis.modes[f]
            g = y.T @ (prods[f] @ y)
            # raw modes at the numerical-rank boundary lose a few digits;
            # the aggregated bases are re-orthonormalized afterwards
            assert np.abs(g - np.eye(y.shape[1])).max() <= 1e-7


class TestSupremizers:
    def test_riesz_identity(self, stokes_model):
        """The raw representer solves (t, v)_Xv = b(q, v); re-derive it with
        an independent sparse solver and probe the identity with random v."""
        ops = stokes_model.operators
        f = stokes_model.free
        rng = np.random.default_rng(1)
        q = rng.standard_normal(stokes_model.spaces.n_pressure)
        X_ff = ops.X_v[f][:, f].tocsc()
        t_f = spla.spsolve(X_ff, (ops.B.T @ q)[f])
        for _ in range(5):
            v = rng.standard_normal(f.shape[0])
            lhs = t_f @ (X_ff @ v)
            rhs = (ops.B.T @ q)[f] @ v
            assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)

    def test_supremizer_space_contains_representers(self, stokes_model):
        """compute_supremizers spans the Riesz representers of the given
        pressure modes (checked via projection onto the returned basis)."""
        ops = stokes_model.operators
        f = stokes_model.free
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((stokes_model.spaces.n_pressure, 2))
        ((sup, kept),) = compute_supremizers(stokes_model, Q)
        assert kept.tolist() == [0, 1]
        assert sup.shape[1] == 2
        g = sup.T @ (ops.X_v @ sup)
        assert np.abs(g - np.eye(2)).max() <= 1e-10
        X_ff = ops.X_v[f][:, f].tocsc()
        for n in range(2):
            t = np.zeros(stokes_model.spaces.n_velocity)
            t[f] = spla.spsolve(X_ff, (ops.B.T @ Q[:, n])[f])
            coeffs = sup.T @ (ops.X_v @ t)
            resid = t - sup @ coeffs
            r = np.sqrt(resid @ (ops.X_v @ resid)) / np.sqrt(t @ (ops.X_v @ t))
            assert r <= 1e-8

    def test_zero_pressure_modes(self, stokes_model):
        ((sup, kept),) = compute_supremizers(
            stokes_model, np.zeros((stokes_model.spaces.n_pressure, 0)))
        assert sup.shape == (stokes_model.spaces.n_velocity, 0) and kept.size == 0

    def test_scalar_block_solves_match_whole_block(self, stokes_model, stokes_offline):
        """The supremizers solved per component on the scalar block of X_v
        equal those of solves with the whole free block X_v_ff, put through
        the same Gram-Schmidt, to 1e-12 relative."""
        ops, f = stokes_model.operators, stokes_model.free
        lu = numerics.factorize(ops.X_v[f][:, f])
        modes = stokes_offline[1].modes
        for (sup, kept), field in zip(
                compute_supremizers(stokes_model, modes["p"], modes["q"]), "pq"):
            rhs = (ops.B.T @ modes[field])[f]
            raw = np.zeros((stokes_model.spaces.n_velocity, rhs.shape[1]))
            for n in range(rhs.shape[1]):
                raw[f, n] = lu.solve(rhs[:, n])
            ref, ref_kept = rom._mgs(raw, ops.X_v)
            assert np.array_equal(kept, ref_kept) and sup.shape == ref.shape
            assert np.abs(sup - ref).max() <= 1e-12 * np.abs(ref).max(), field


class _CountedProducts:
    """A matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


class TestGramSchmidt:
    def test_at_most_n_plus_one_weight_products(self, stokes_model, stokes_offline):
        """``_mgs`` on n columns, one of them a repeat it drops, takes at
        most n + 1 products with the weight; the wrapper changes no
        arithmetic, so the basis is the unwrapped one bit for bit, and it
        is orthonormal."""
        modes, X_v = stokes_offline[1].modes, stokes_model.operators.X_v
        columns = np.column_stack([modes["v"], modes["v"][:, :1], modes["w"]])
        weight = _CountedProducts(X_v)
        y, kept = rom._mgs(columns, weight)
        n = columns.shape[1]
        assert weight.products <= n + 1
        assert modes["v"].shape[1] not in kept and y.shape[1] < n
        ref, ref_kept = rom._mgs(columns, X_v)
        assert np.array_equal(y, ref) and np.array_equal(kept, ref_kept)
        assert np.abs(y.T @ (X_v @ y) - np.eye(y.shape[1])).max() <= 1e-10


@pytest.fixture(scope="module")
def stokes_offline(stokes_model):
    ts = training_grid([(40.0, 80.0)], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        snaps, basis, ops = build_offline(
            stokes_model, ts, n_max=2)
    return snaps, basis, ops


class TestReducedSpaces:
    def test_aggregated_orthonormality(self, stokes_model, stokes_offline):
        _, basis, _ = stokes_offline
        check_pod_invariants(stokes_model, basis)

    def test_dimension_bookkeeping(self, stokes_offline):
        _, basis, ops = stokes_offline
        n, n_lift = basis.n_max, ops.n_lift
        assert oracles.reduced_dimension(basis, n_lift) == 13 * n + n_lift
        assert ops.dimension() == 13 * n
        assert ops.n_extended == ops.n_velocity_modes + n_lift

    def test_invariant_violation_detected(self, stokes_model, stokes_offline):
        import copy

        _, basis, _ = stokes_offline
        bad = copy.deepcopy(basis)
        bad.eigenvalues["v"] = bad.eigenvalues["v"][::-1].copy()
        with pytest.raises(InvariantViolation):
            check_pod_invariants(stokes_model, bad)
        bad2 = copy.deepcopy(basis)
        bad2.y_v[:, 0] *= 2.0
        with pytest.raises(InvariantViolation):
            check_pod_invariants(stokes_model, bad2)

    def test_one_factorization_per_build(self, stokes_model, stokes_offline, monkeypatch):
        """Both supremizer sets share one factorization of X_v, and each
        set keeps the basis it gets when enriched alone."""
        basis = copy.copy(stokes_offline[1])
        calls = []
        factorize = numerics.factorize

        def counted(A):
            calls.append(A.shape)
            return factorize(A)

        monkeypatch.setattr(numerics, "factorize", counted)
        build_reduced_spaces(stokes_model, basis)
        assert len(calls) == 1
        both = compute_supremizers(stokes_model, basis.modes["p"], basis.modes["q"])
        for (sup, kept), f in zip(both, ("p", "q")):
            ((alone, kept_alone),) = compute_supremizers(stokes_model, basis.modes[f])
            assert np.array_equal(sup, alone) and np.array_equal(kept, kept_alone)

    def test_truncation(self, stokes_model, stokes_offline):
        """A smaller model is the leading columns of each basis, the lifting
        kept, with orthonormal bases and the operators on those columns."""
        _, basis, ops = stokes_offline
        small = slice_operators(ops, basis, 1)
        assert small.y_v.shape[1] == basis.sizes["v"][1] == 4
        assert small.y_p.shape[1] == 2 and small.y_u.shape[1] == 1
        assert small.dimension() == 13 and small.n_lift == ops.n_lift
        assert np.array_equal(small.y_v, ops.y_v[:, :4])
        assert np.array_equal(small.lifting, ops.lifting)
        check_pod_invariants(stokes_model, small)
        y_ext = np.column_stack([small.y_v, small.lifting])
        a = y_ext.T @ (stokes_model.operators.A @ y_ext)
        assert np.abs(small.a - a).max() <= 1e-12 * np.abs(a).max()
        with pytest.raises(DimensionMismatch):
            slice_operators(ops, basis, basis.n_max + 1)

    def test_inf_sup_with_and_without_enrichment(self, stokes_model):
        ts = training_grid([(40.0, 80.0)], 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            snaps = collect_snapshots(stokes_model, ts)
            basis = pod_compress(snaps, inner_products_of(stokes_model), 2)
            enriched = build_reduced_spaces(stokes_model, basis, enrich=True)
            ops_en = project_operators(stokes_model, enriched)
            basis2 = pod_compress(snaps, inner_products_of(stokes_model), 2)
            plain = build_reduced_spaces(stokes_model, basis2, enrich=False)
            ops_pl = project_operators(stokes_model, plain)
        beta_en = reduced_inf_sup(ops_en)
        beta_pl = reduced_inf_sup(ops_pl)
        assert beta_en > 1e-3
        assert beta_pl <= 1e-2 * beta_en


class TestReducedTensor:
    @pytest.mark.parametrize("model, offline", [("ns_model", "ns_offline"),
                                                ("graft_ns_model", "graft_ns_offline")],
                             ids=["tube", "graft"])
    def test_matches_per_column_assembly(self, request, model, offline):
        """The tensor from scalar element blocks equals y^T E(y_j) y with
        each E(y_j) assembled by ``state_matrix``, to 1e-14 relative."""
        kernel = request.getfixturevalue(model).kernel
        ops = request.getfixturevalue(offline)[-1]
        ref = oracles.per_column_tensor(kernel, np.column_stack([ops.y_v, ops.lifting]))
        assert ops.tensor.shape == ref.shape
        assert np.abs(ops.tensor - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_matches_trilinear_quadrature(self, ns_model, ns_offline):
        _, _, ops = ns_offline
        y_ext = np.column_stack([ops.y_v, ops.lifting])
        rng = np.random.default_rng(3)
        n = ops.n_extended
        scale = np.abs(ops.tensor).max()
        for i, j, k in rng.integers(0, n, size=(4, 3)):
            direct = oracles.trilinear_quadrature(
                ns_model.mesh, ns_model.spaces,
                y_ext[:, j], y_ext[:, k], y_ext[:, i])
            assert abs(ops.tensor[i, j, k] - direct) <= 1e-9 * max(scale, 1.0)


class TestReducedSolve:
    def test_training_reproduction(self, stokes_model, stokes_offline):
        snaps, _, ops = stokes_offline
        for mu in snaps.parameters:
            full = stokes_model.solve_ocp(mu)
            red = solve_reduced(ops, mu)
            rep = compute_errors(full, red, stokes_model.operators)
            assert rep.e_total_rel <= 1e-8
            assert red.newton_iterations == 0

    def test_off_training_parameter(self, stokes_model, stokes_offline):
        """The Stokes problem depends affinely on the parameter, so the
        rank-2 space is exact off the training grid too."""
        _, _, ops = stokes_offline
        mu = np.array([53.7])
        full = stokes_model.solve_ocp(mu)
        red = solve_reduced(ops, mu)
        rep = compute_errors(full, red, stokes_model.operators)
        assert rep.e_total_rel <= 1e-8

    def test_objective_agreement(self, stokes_model, stokes_offline):
        _, _, ops = stokes_offline
        mu = np.array([66.0])
        full = stokes_model.solve_ocp(mu)
        red = solve_reduced(ops, mu)
        assert abs(full.objective - red.objective) <= 1e-8 * full.objective

    def test_out_of_domain(self, stokes_offline):
        _, _, ops = stokes_offline
        with pytest.raises(Exception) as exc:
            solve_reduced(ops, np.array([500.0]))
        from ocrom.errors import ParameterOutOfDomain

        assert isinstance(exc.value, ParameterOutOfDomain)

    @pytest.mark.parametrize("mu", [np.nan, -np.inf, np.inf])
    def test_non_finite_parameter(self, stokes_offline, mu):
        _, _, ops = stokes_offline
        with pytest.raises(ParameterOutOfDomain):
            solve_reduced(ops, np.array([mu]))
        with pytest.raises(ParameterOutOfDomain):
            rom.solve_reduced_coefficients(ops, np.array([mu]))


def _random_reduced_operators(rng, nv=3, np_=2, nu=2, nl=1):
    def spd(n):
        a = rng.standard_normal((n, n))
        return a @ a.T + n * np.eye(n)

    ne = nv + nl
    return ReducedOperators(
        y_v=np.zeros((1, nv)), y_p=np.zeros((1, np_)), y_u=np.zeros((1, nu)),
        lifting=np.zeros((1, nl)),
        a=spd(ne), m=spd(ne), b=rng.standard_normal((np_, ne)),
        c=rng.standard_normal((ne, nu)), n_ctrl=spd(nu),
        h=rng.standard_normal(ne), j_const=1.0, alpha=0.5,
        equation="navier-stokes",
        domain_lo=np.array([-10.0] * nl), domain_hi=np.array([10.0] * nl),
        tensor=rng.standard_normal((ne, ne, ne)),
    )


class TestReducedSystem:
    def test_jacobian_matches_finite_differences(self):
        """The hand-coded reduced Jacobian against central differences of the
        reduced residual, including the convection tensor terms, in the
        coefficients and then in the parameters, with one and two inlets."""
        for n_lift in (1, 2):
            rng = np.random.default_rng(4)
            ops = _random_reduced_operators(rng, nl=n_lift)
            n = ops.dimension()
            mu = np.array([0.7, -0.4][:n_lift])
            x = rng.standard_normal(n) * 0.3
            _, jacobian = oracles.reduced_system(ops, mu, x)
            jac = jacobian(mu_columns=True)
            assert jac.shape == (n, n + n_lift)
            assert np.array_equal(jacobian(), jac[:, :n])
            eps = 1e-6
            for k in range(n + n_lift):
                step = np.zeros(n + n_lift)
                step[k] = eps
                rp, _ = oracles.reduced_system(ops, mu + step[n:], x + step[:n])
                rm, _ = oracles.reduced_system(ops, mu - step[n:], x - step[:n])
                fd = (rp - rm) / (2 * eps)
                assert np.abs(fd - jac[:, k]).max() <= 1e-6 * max(
                    np.abs(jac).max(), 1.0)


class TestErrors:
    def test_identical_solutions(self, stokes_model, stokes_offline):
        _, _, ops = stokes_offline
        mu = np.array([60.0])
        full = stokes_model.solve_ocp(mu)
        rep = compute_errors(full, full, stokes_model.operators)
        assert rep.e_total == 0.0 and rep.e_objective == 0.0

    def test_constructed_perturbation(self, stokes_model):
        import copy

        mu = np.array([60.0])
        full = stokes_model.solve_ocp(mu)
        pert = copy.deepcopy(full)
        ops = stokes_model.operators
        d = np.zeros(stokes_model.spaces.n_velocity)
        d[0] = 1.0
        d /= np.sqrt(d @ (ops.X_v @ d))
        pert.v = full.v + d
        rep = compute_errors(full, pert, ops)
        assert abs(rep.e_v - 1.0) <= 1e-12
        assert rep.e_p == 0.0 and rep.e_u == 0.0
        assert abs(rep.e_total - np.sqrt(
            rep.e_v**2 + rep.e_p**2 + rep.e_u**2 + rep.e_w**2 + rep.e_q**2
        )) <= 1e-15


def _reframe(data, index_bytes):
    """Artifact bytes with the JSON index replaced, payload kept."""
    start = len(rom._MAGIC) + 8
    (n,) = struct.unpack("<Q", data[len(rom._MAGIC) : start])
    index = json.loads(data[start : start + n])
    blob = index_bytes(index)
    return rom._MAGIC + struct.pack("<Q", len(blob)) + blob + data[start + n :]


def _edited(edit):
    def index_bytes(index):
        edit(index)
        return json.dumps(index).encode()

    return index_bytes


def _y_v_shape(index, shape):
    rec = next(r for r in index["arrays"] if r["name"] == "y_v")
    rec["shape"] = shape(rec["shape"])


_BROKEN_INDEX = {
    "non_json": lambda index: b"{not json",
    "non_utf8": lambda index: b"\xff\xfe\xfd",
    "not_an_object": lambda index: b"[1, 2]",
    "no_arrays": _edited(lambda index: index.pop("arrays")),
    "no_scalars": _edited(lambda index: index.pop("scalars")),
    "no_alpha": _edited(lambda index: index["scalars"].pop("alpha")),
    "text_alpha": _edited(lambda index: index["scalars"].update(alpha="small")),
    "record_without_shape": _edited(lambda index: index["arrays"][0].pop("shape")),
    "negative_shape": _edited(lambda index: _y_v_shape(index, lambda s: [-d for d in s])),
    "fractional_shape": _edited(lambda index: _y_v_shape(index, lambda s: [d + 0.5 for d in s])),
    "float_shape": _edited(lambda index: _y_v_shape(index, lambda s: [float(d) for d in s])),
    "huge_shape": _edited(lambda index: _y_v_shape(index, lambda s: [2**62, 2**62])),
}


class TestArtifact:
    def test_round_trip_bit_exact(self, stokes_offline, tmp_path):
        _, _, ops = stokes_offline
        path = tmp_path / "rom.bin"
        save_artifact(path, ops)
        back = load_artifact(path)
        for name in ("y_v", "y_p", "y_u", "lifting", "a", "m", "b", "c",
                     "n_ctrl", "h", "domain_lo", "domain_hi",
                     "training_parameters"):
            assert np.array_equal(getattr(ops, name), getattr(back, name)), name
        assert back.alpha == ops.alpha
        assert back.j_const == ops.j_const
        assert back.equation == ops.equation
        for f in FIELDS:
            assert np.array_equal(back.eigenvalues[f], ops.eigenvalues[f])

    def test_loaded_artifact_solves(self, stokes_model, stokes_offline, tmp_path):
        _, _, ops = stokes_offline
        path = tmp_path / "rom.bin"
        save_artifact(path, ops)
        back = load_artifact(path)
        mu = np.array([47.0])
        xa, ja, _ = rom.solve_reduced_coefficients(ops, mu)
        xb, jb, _ = rom.solve_reduced_coefficients(back, mu)
        sv = ops.blocks[0]
        assert abs(ja - jb) <= 1e-12 * max(ja, 1.0)
        assert np.abs(xa[sv] - xb[sv]).max() <= 1e-12

    def test_unbounded_domain_round_trip(self, tube_mesh, tmp_path):
        """A model built with no configured domain has (-inf, inf) bounds,
        and its artifact reloads with them."""
        model = FullOrderModel(tube_mesh, OcpConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            _, _, ops = build_offline(model, training_grid([(40.0, 80.0)], 3), n_max=2)
        path = tmp_path / "rom.bin"
        save_artifact(path, ops)
        back = load_artifact(path)
        assert back.domain_lo.tolist() == [-np.inf]
        assert back.domain_hi.tolist() == [np.inf]
        assert solve_reduced(back, 60.0).objective == solve_reduced(ops, 60.0).objective

    @pytest.mark.parametrize("lo, hi", [(np.nan, 80.0), (40.0, np.nan), (80.0, 40.0)])
    def test_domain_nan_or_reversed(self, stokes_offline, tmp_path, lo, hi):
        bad = copy.copy(stokes_offline[-1])  # copy.copy skips __post_init__
        bad.domain_lo, bad.domain_hi = np.array([lo]), np.array([hi])
        path = tmp_path / "rom.bin"
        save_artifact(path, bad)
        with pytest.raises(ParseError, match="domain bounds"):
            load_artifact(path)

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(MissingArtifact):
            load_artifact(tmp_path / "does-not-exist.bin")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"garbage header\n" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_artifact(path)

    def test_truncated_payload(self, stokes_offline, tmp_path):
        _, _, ops = stokes_offline
        path = tmp_path / "rom.bin"
        save_artifact(path, ops)
        data = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError):
            load_artifact(tmp_path / "cut.bin")

    @pytest.mark.parametrize("corrupt", [
        "trailing_bytes", "equation", "non_finite", "singular_m", "a", "m", "b",
        "c", "n_ctrl", "h", "tensor", "domain_lo", "domain_hi", "dropped_array",
        "flat_y_v", "lifting_rows", "partial_eigenvalues", "training_parameters",
        "eigenvalues_2d", "ns_without_tensor", "stokes_with_tensor",
    ])
    def test_malformed_payload(self, stokes_offline, tmp_path, monkeypatch, corrupt):
        """A well-framed file whose content is inconsistent is rejected."""
        _, _, ops = stokes_offline
        bad = copy.copy(ops)  # copy.copy skips __post_init__
        n = ops.n_extended
        if corrupt == "equation":
            bad.equation = "euler"
        elif corrupt == "non_finite":
            bad.h = ops.h.copy()
            bad.h[0] = np.nan
        elif corrupt == "singular_m":
            bad.m = np.zeros_like(ops.m)
        elif corrupt == "tensor":
            bad.equation = "navier-stokes"
            bad.tensor = np.zeros((n - 1, n, n))
        elif corrupt == "ns_without_tensor":
            bad.equation = "navier-stokes"
        elif corrupt == "stokes_with_tensor":
            bad.tensor = np.zeros((n, n, n))
        elif corrupt == "dropped_array":
            monkeypatch.setattr(rom, "_ARRAY_FIELDS", rom._ARRAY_FIELDS[:-1])
        elif corrupt == "flat_y_v":
            bad.y_v = ops.y_v[:, 0]
        elif corrupt == "lifting_rows":
            bad.lifting = ops.lifting[:-1]
        elif corrupt == "partial_eigenvalues":
            monkeypatch.setattr(rom, "FIELDS", FIELDS[:1])
        elif corrupt == "training_parameters":
            bad.training_parameters = np.hstack([ops.training_parameters] * 2)
        elif corrupt == "eigenvalues_2d":
            bad.eigenvalues = {**ops.eigenvalues, "v": ops.eigenvalues["v"][None, :]}
        elif corrupt != "trailing_bytes":
            setattr(bad, corrupt, getattr(ops, corrupt)[:-1])
        path = tmp_path / "rom.bin"
        save_artifact(path, bad)
        monkeypatch.undo()
        if corrupt == "trailing_bytes":
            path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ParseError):
            load_artifact(path)

    # broken framing: length prefix, JSON index, array records

    @pytest.mark.parametrize("cut", [len(rom._MAGIC), len(rom._MAGIC) + 3])
    def test_cut_short_after_magic(self, stokes_offline, tmp_path, cut):
        path = tmp_path / "rom.bin"
        save_artifact(path, stokes_offline[-1])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ParseError):
            load_artifact(path)

    def test_huge_length_prefix(self, stokes_offline, tmp_path):
        path = tmp_path / "rom.bin"
        save_artifact(path, stokes_offline[-1])
        data = path.read_bytes()
        n = len(rom._MAGIC)
        path.write_bytes(data[:n] + struct.pack("<Q", 2**64 - 1) + data[n + 8 :])
        with pytest.raises(ParseError):
            load_artifact(path)

    @pytest.mark.parametrize("broken", sorted(_BROKEN_INDEX))
    def test_broken_index(self, stokes_offline, tmp_path, broken):
        path = tmp_path / "rom.bin"
        save_artifact(path, stokes_offline[-1])
        path.write_bytes(_reframe(path.read_bytes(), _BROKEN_INDEX[broken]))
        with pytest.raises(ParseError):
            load_artifact(path)

    def test_reframed_intact_index_loads(self, stokes_offline, tmp_path):
        """The re-framing helper itself keeps a valid file valid."""
        path = tmp_path / "rom.bin"
        save_artifact(path, stokes_offline[-1])
        path.write_bytes(_reframe(path.read_bytes(), _edited(lambda index: None)))
        assert load_artifact(path).equation == "stokes"


@pytest.fixture(scope="module")
def artifact_bytes(stokes_offline, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "rom.bin"
    save_artifact(path, stokes_offline[-1])
    return path.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_artifact_loads_or_raises_parse_error(artifact_bytes, tmp_path, data):
    """Truncating a valid artifact or flipping some of its bytes yields
    either a model or ParseError, never another exception."""
    raw = bytearray(artifact_bytes)
    n = len(rom._MAGIC)
    header = n + 8 + struct.unpack("<Q", raw[n : n + 8])[0]
    position = st.one_of(st.integers(0, header), st.integers(0, len(raw) - 1))
    for pos, mask in data.draw(st.lists(st.tuples(position, st.integers(1, 255)), max_size=4)):
        raw[pos] ^= mask
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)))
    path = tmp_path / "rom.bin"
    path.write_bytes(bytes(raw[:cut]))
    try:
        ops = load_artifact(path)
    except ParseError:
        return
    assert isinstance(ops, ReducedOperators)


@pytest.fixture(scope="module")
def ns_offline(ns_model):
    ts = training_grid([(20.0, 60.0)], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        return build_offline(ns_model, ts, n_max=3)


class TestNavierStokesRom:

    def test_training_reproduction(self, ns_model, ns_offline):
        snaps, _, ops = ns_offline
        mu = snaps.parameters[1]
        full = ns_model.solve_ocp(mu)
        red = solve_reduced(ops, mu)
        rep = compute_errors(full, red, ns_model.operators)
        assert rep.e_total_rel <= 1e-6
        assert red.newton_iterations == 0  # the start is the training solution

    def test_tensor_and_reassembly_agree(self, ns_model, ns_offline):
        _, _, ops = ns_offline
        mu = np.array([45.0])
        xa, ja, _ = rom.solve_reduced_coefficients(ops, mu)
        x, objective, _ = oracles.reassembled_reduced_solve(ops, ns_model, mu)
        sv = ops.blocks[0]
        assert np.abs(xa[sv] - x[sv]).max() <= 1e-9 * max(np.abs(xa[sv]).max(), 1.0)
        assert abs(ja - objective) <= 1e-9 * max(ja, 1.0)

    def test_divergence_carries_residual_history(self, ns_offline, monkeypatch):
        _, _, ops = ns_offline
        mu = np.array([45.0])
        iterations = solve_reduced(ops, mu).newton_iterations
        assert iterations >= 2
        monkeypatch.setattr(rom, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonDiverged, match="no convergence in 1 iterations") as info:
            solve_reduced(ops, mu)
        norms = info.value.residual_norms
        assert len(norms) == 2 and all(np.isfinite(norms))
        assert norms[1] < norms[0]


@pytest.fixture(scope="module")
def graft_ns_offline(graft_ns_model):
    """The reduced model of ``graft_ns_model``, built as the serving
    benchmark builds its own: 7 random training points (seed 0) on
    [20, 30]^2, n_max 7."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        return build_offline(graft_ns_model, training_random([(20.0, 30.0)] * 2, 7, seed=0),
                             n_max=7)


_NS_OFFLINE = ["ns_offline", "graft_ns_offline"]


def _zero_start(ops):
    """The same reduced model without training parameters."""
    return replace(ops, training_parameters=None)


def _in_z(ops, x):
    """The null-space coordinates (N^T v, N^T w) of the coefficients x."""
    sv, _, _, sw, _ = ops.blocks
    return np.concatenate([ops.N.T @ x[sv], ops.N.T @ x[sw]])


class TestWarmStart:
    """Navier-Stokes queries start from the nearest training solution plus
    its mu-tangent and stop at the threshold of a start from zero."""

    @pytest.mark.parametrize("offline", _NS_OFFLINE)
    def test_training_parameters_take_no_step(self, offline, request):
        snaps, _, ops = request.getfixturevalue(offline)
        assert np.array_equal(ops.warm_mu, snaps.parameters)
        for mu in snaps.parameters:
            assert solve_reduced(ops, mu).newton_iterations == 0

    def test_seeded_stream_meets_zero_start_threshold(self, graft_ns_offline):
        """256 queries drawn as the serving benchmark draws its first block
        (``default_rng(0).uniform`` on the domain, which repeats the
        training points of ``training_random(..., seed=0)``): none fails,
        and each residual, assembled block by block, is within the
        threshold a start from zero stops at."""
        _, _, ops = graft_ns_offline
        conv = oracles.tensor_convection(ops)
        zero = np.zeros(ops.dimension())
        mus = np.random.default_rng(0).uniform(ops.domain_lo, ops.domain_hi, size=(256, 2))
        for mu in mus:
            x, _, _ = rom.solve_reduced_coefficients(ops, mu)
            res0, _, _ = oracles.blockwise_reduced_system(ops, mu, zero, conv)
            res, _, _ = oracles.blockwise_reduced_system(ops, mu, x, conv)
            threshold = max(rom.NEWTON_TOL_REL * np.linalg.norm(res0), rom.NEWTON_TOL_ABS)
            assert np.linalg.norm(res) <= threshold, mu
            assert abs(rom._start(ops, mu)[1] - threshold) <= 1e-12 * threshold

    @pytest.mark.parametrize("offline", _NS_OFFLINE)
    def test_fewer_iterations_than_zero_start(self, offline, request):
        _, _, ops = request.getfixturevalue(offline)
        cold = _zero_start(ops)
        mus = np.random.default_rng(5).uniform(ops.domain_lo, ops.domain_hi,
                                               size=(32, ops.n_lift))
        warm_iters, cold_iters = [], []
        for mu in mus:
            x, _, it = rom.solve_reduced_coefficients(ops, mu)
            x_cold, _, it_cold = rom.solve_reduced_coefficients(cold, mu)
            warm_iters.append(it)
            cold_iters.append(it_cold)
            assert np.abs(x - x_cold).max() <= 1e-9 * np.abs(x_cold).max()
        assert np.mean(warm_iters) < np.mean(cold_iters)

    @pytest.mark.parametrize("offline", _NS_OFFLINE)
    def test_without_training_parameters_starts_from_zero(self, offline, request):
        """Chord steps from z = 0 stop within 1e-9 max|x| of the zero-start
        Newton on the whole system, whose every iterate builds its
        Jacobian."""
        _, _, ops = request.getfixturevalue(offline)
        cold = _zero_start(ops)
        assert cold.warm_mu is None and cold.warm_x is None and cold.warm_dx is None
        for mu in np.random.default_rng(6).uniform(ops.domain_lo, ops.domain_hi,
                                                   size=(16, ops.n_lift)):
            x, _, _ = rom.solve_reduced_coefficients(cold, mu)
            x_ref, _ = oracles.zero_start_reduced_solve(cold, mu)
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max(), mu

    def test_chord_steps_match_warm_newton(self, graft_ns_offline, monkeypatch):
        """The first 1 000 queries of the serving benchmark's seed-0 stream:
        the chord steps' coefficients are within 1e-9 max|x| of full Newton
        from the same start to the same threshold, no query takes more than
        4 steps, fewer than 3 on average (2.41 on this model), and a query
        factorizes its 28 x 28 Jacobian in z once, or not at all at a
        training parameter, where it takes no step."""
        _, _, ops = graft_ns_offline
        mus = np.random.default_rng(0).uniform(ops.domain_lo, ops.domain_hi, size=(1000, 2))
        refs = [oracles.warm_newton_reduced_solve(ops, mu)[0] for mu in mus]
        dense_lu, factorizations, steps = numerics.dense_lu, [], []
        monkeypatch.setattr(numerics, "dense_lu",
                            lambda a, name: factorizations.append(a.shape) or dense_lu(a, name))
        for mu, x_ref in zip(mus, refs):
            factorizations.clear()
            x, _, iters = rom.solve_reduced_coefficients(ops, mu)
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max(), mu
            training = bool((ops.warm_mu == mu).all(axis=1).any())
            assert factorizations == ([] if training else [(28, 28)]), mu
            assert (iters == 0) == training and iters <= 4, mu
            steps.append(iters)
        assert np.mean(steps) < 3.0

    def test_diverged_chord_falls_back_to_zero_start(self, graft_ns_offline, monkeypatch):
        """A warm start whose chord steps raise ``NewtonDiverged`` is
        answered by chord steps from z = 0, within 1e-9 max|x| of the
        zero-start Newton on the whole system, and its iteration count adds
        the abandoned steps to those of the model without training
        parameters."""
        _, _, ops = graft_ns_offline
        cold = _zero_start(ops)
        mus = np.random.default_rng(7).uniform(ops.domain_lo, ops.domain_hi, size=(8, 2))
        refs = [oracles.zero_start_reduced_solve(ops, mu)[0] for mu in mus]
        steps = [rom.solve_reduced_coefficients(cold, mu)[2] for mu in mus]
        newton = numerics.newton

        def chord_diverges(system, x, *args):
            if x.any():  # the warm start; the fallback starts from zero
                raise NewtonDiverged("injected", [4.0, 2.0, 3.0])
            return newton(system, x, *args)

        monkeypatch.setattr(numerics, "newton", chord_diverges)
        for mu, x_ref, steps_ref in zip(mus, refs, steps):
            x, _, iters = rom.solve_reduced_coefficients(ops, mu)
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max(), mu
            assert iters == steps_ref + 2 == solve_reduced(ops, mu).newton_iterations

    @pytest.mark.parametrize("offline, n_z", [("ns_offline", 12), ("graft_ns_offline", 28)])
    def test_warm_query_solves_in_z(self, offline, n_z, request, monkeypatch):
        """Every reduced Navier-Stokes solve factorizes only the Jacobian in
        z, of size 2 (n_v - n_p): the training solves and tangents of a
        construction, warm queries, the queries of a model without training
        parameters and the fallback after a diverged chord.  ``rom`` has no
        solver on the whole system."""
        _, _, ops = request.getfixturevalue(offline)
        assert 2 * (ops.n_velocity_modes - ops.y_p.shape[1]) == n_z
        for name in ("_reduced_system", "_newton", "_dense_solve"):
            assert not hasattr(rom, name), name
        dense_lu, shapes = numerics.dense_lu, []
        monkeypatch.setattr(numerics, "dense_lu",
                            lambda a, name: shapes.append(a.shape) or dense_lu(a, name))
        mus = np.random.default_rng(9).uniform(ops.domain_lo, ops.domain_hi,
                                               size=(16, ops.n_lift))
        newton = numerics.newton

        def chord_diverges(system, x, *args):
            if x.any():
                raise NewtonDiverged("injected", [4.0, 2.0, 3.0])
            return newton(system, x, *args)

        def queries(model):
            for mu in mus:
                rom.solve_reduced_coefficients(model, mu)
            return len(shapes)

        built = replace(ops)
        counts = [len(shapes), queries(built), queries(_zero_start(ops))]
        monkeypatch.setattr(numerics, "newton", chord_diverges)
        counts.append(queries(built))  # every warm start falls back
        assert np.all(np.diff([0] + counts) > 0), counts
        assert set(shapes) == {(n_z, n_z)}

    @pytest.mark.parametrize("offline", _NS_OFFLINE)
    def test_null_space_bases(self, offline, request):
        """N is an orthonormal basis of the kernel of b_hom, and Y a right
        inverse of b_hom."""
        _, _, ops = request.getfixturevalue(offline)
        b_hom = ops.b[:, :ops.n_velocity_modes]
        k = ops.n_velocity_modes - b_hom.shape[0]
        assert ops.N.shape == (ops.n_velocity_modes, k)
        assert np.abs(ops.N.T @ ops.N - np.eye(k)).max() <= 1e-14
        assert np.linalg.norm(b_hom @ ops.N) <= 1e-12 * np.linalg.norm(b_hom)
        assert np.abs(b_hom @ ops.Y - np.eye(b_hom.shape[0])).max() <= 1e-12

    @pytest.mark.parametrize("offline", _NS_OFFLINE)
    def test_z_jacobian_matches_finite_differences(self, offline, request):
        """The Jacobian of the system in z against central differences of
        its residual, at the warm start of a query and at a random point."""
        _, _, ops = request.getfixturevalue(offline)
        rng = np.random.default_rng(10)
        mu = rng.uniform(ops.domain_lo, ops.domain_hi)
        rz = ops.Rz @ np.concatenate([[1.0], mu])
        start, _ = rom._start(ops, mu)
        half = slice(0, start.size // 2), slice(start.size // 2, start.size)

        def system(z):
            return rom._convective_system(ops.Kz, ops.Sz, *half, z, mu, rz)

        for z in (start, start + rng.standard_normal(start.size) * np.abs(start).max()):
            jac = system(z)[1]()
            eps = 1e-6 * max(np.abs(z).max(), 1.0)
            for k in range(z.size):
                step = np.where(np.arange(z.size) == k, eps, 0.0)
                fd = (system(z + step)[0] - system(z - step)[0]) / (2 * eps)
                assert np.abs(fd - jac[:, k]).max() <= 1e-6 * np.abs(jac).max(), k

    def test_square_divergence_block_has_empty_z(self):
        """n_v = n_p with b_hom of full rank: z is empty, so a warm query
        takes no step, and its coefficients, all fixed by the divergence
        and control rows and the pressure recovery, match the zero-start
        Newton."""
        rng = np.random.default_rng(11)
        ops = replace(_random_reduced_operators(rng, nv=2, np_=2),
                      training_parameters=np.array([[-0.5], [0.5]]))
        assert ops.N.shape == (2, 0) and ops.Kz.shape == (0, 0)
        cold = _zero_start(ops)
        for mu in ([-0.5], [0.1], [0.4]):
            mu = np.array(mu)
            x, _, iters = rom.solve_reduced_coefficients(ops, mu)
            x_cold, _, _ = rom.solve_reduced_coefficients(cold, mu)
            assert iters == 0
            assert np.abs(x - x_cold).max() <= 1e-9 * np.abs(x_cold).max()

    def test_tangent_matches_finite_differences(self, graft_ns_offline):
        """Each training solution's mu-tangent in z against central
        differences of the solutions, in z, of the model without training
        parameters."""
        _, _, ops = graft_ns_offline
        cold = _zero_start(ops)
        h = 1e-3 * (ops.domain_hi - ops.domain_lo)
        for mu, dz in zip(ops.warm_mu, ops.warm_dx):
            for k in range(mu.size):
                step = np.where(np.arange(mu.size) == k, h, 0.0)
                zp = _in_z(ops, rom._solve_coefficients(cold, mu + step)[0])
                zm = _in_z(ops, rom._solve_coefficients(cold, mu - step)[0])
                fd = (zp - zm) / (2 * h[k])
                assert np.abs(fd - dz[:, k]).max() <= 1e-6 * np.abs(dz[:, k]).max()

    def test_predictor_error_is_second_order(self, graft_ns_offline):
        """A step of 5 % of the domain width from a training point: the
        tangent start is more than 50 times closer to the solution than the
        training solution itself (200 to 400 times on this model)."""
        _, _, ops = graft_ns_offline
        width = ops.domain_hi - ops.domain_lo
        centre = 0.5 * (ops.domain_lo + ops.domain_hi)
        for mu_i, z_i in zip(ops.warm_mu, ops.warm_x):
            mu = mu_i + 0.05 * np.sign(centre - mu_i) * width
            x, _, _ = rom.solve_reduced_coefficients(ops, mu)
            start = oracles.lift_z(ops, mu, rom._start(ops, mu)[0])
            x_i = oracles.lift_z(ops, mu_i, z_i)
            assert np.linalg.norm(start - x) <= 0.02 * np.linalg.norm(x_i - x)

    def test_failed_training_solve_is_left_out(self, ns_offline, tmp_path, monkeypatch):
        """Construction and loading skip a training point whose reduced
        solve raises; a query there starts from a neighbour."""
        snaps, _, ops = ns_offline
        path = tmp_path / "rom.bin"
        save_artifact(path, ops)
        newton, calls = numerics.newton, []

        def first_fails(system, x, *args):
            calls.append(x)
            if len(calls) == 1:
                raise NewtonDiverged("injected", [1.0])
            return newton(system, x, *args)

        monkeypatch.setattr(numerics, "newton", first_fails)
        for make in (lambda: replace(ops), lambda: load_artifact(path)):
            calls.clear()
            built = make()
            assert np.array_equal(built.warm_mu, snaps.parameters[1:])
            x, _, iters = rom.solve_reduced_coefficients(built, snaps.parameters[0])
            x_ref, _, _ = rom.solve_reduced_coefficients(ops, snaps.parameters[0])
            assert iters >= 1
            assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

    def test_no_training_solve_succeeds(self, ns_offline, monkeypatch):
        _, _, ops = ns_offline

        def fails(system, x, *args):
            raise NewtonDiverged("injected", [1.0])

        monkeypatch.setattr(numerics, "newton", fails)
        assert replace(ops).warm_mu is None


def test_wrong_parameter_shape(graft_ns_offline):
    """A (1, 2) parameter array against the two-inlet model's (2,) domain."""
    _, _, ops = graft_ns_offline
    with pytest.raises(DimensionMismatch, match=r"shape \(2,\), got shape \(1, 2\)"):
        solve_reduced(ops, np.array([[25.0, 25.0]]))


def test_singular_reduced_jacobian_raises(ns_offline, tmp_path, capsys):
    """A reduced model without control (zero ``c`` and ``n_ctrl``) has a
    singular Jacobian: a query raises ``SingularMatrix``, and ``ocrom
    online`` exits 3 with a one-line message."""
    snaps, _, ops = ns_offline
    singular = replace(ops, c=np.zeros_like(ops.c), n_ctrl=np.zeros_like(ops.n_ctrl))
    assert singular.warm_mu is None  # every training solve raised too
    with pytest.raises(SingularMatrix, match="reduced Jacobian"):
        solve_reduced(singular, snaps.parameters[0])
    path = tmp_path / "rom.bin"
    save_artifact(path, singular)
    assert main(["online", "--artifact", str(path), "--mu", "45.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1


def test_singular_warm_start_jacobian_raises(graft_ns_offline, tmp_path, capsys,
                                             monkeypatch):
    """A warm-started query whose start-point Jacobian is singular (its
    first column zeroed on the way to the factorization, in queries only,
    so that a loaded model keeps its training starts) raises
    ``SingularMatrix``; it is not a divergence, so there is no fallback.
    ``ocrom online`` on the saved model exits 3 with a one-line message."""
    _, _, ops = graft_ns_offline
    dense_lu, solve, querying = numerics.dense_lu, rom._solve_coefficients, []

    def singular(a, name):
        if querying:
            a[:, 0] = 0.0
        return dense_lu(a, name)

    def query(ops, mu):
        querying.append(mu)
        try:
            return solve(ops, mu)
        finally:
            querying.pop()

    monkeypatch.setattr(numerics, "dense_lu", singular)
    monkeypatch.setattr(rom, "_solve_coefficients", query)
    with pytest.raises(SingularMatrix, match="reduced Jacobian"):
        solve_reduced(ops, np.array([24.0, 26.0]))
    path = tmp_path / "rom.bin"
    save_artifact(path, ops)
    assert load_artifact(path).warm_mu is not None
    assert main(["online", "--artifact", str(path), "--mu", "24.0", "26.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: reduced Jacobian") and err.count("\n") == 1


@pytest.fixture(scope="module")
def short_stokes_tube():
    """A Stokes tube of length 4 and its offline build (5 grid points on
    [20, 60], n_max 3).  Without supremizers the smallest diagonal entry of
    its divergence block's QR factor, 1.1e-14, lies a factor 3.7 below the
    rank rule's tolerance, 4.0e-14: the narrowest margin of the models
    measured (the test tubes' lie near 1e-16)."""
    model = FullOrderModel(straight_tube(length=4.0),
                           OcpConfig(equation="stokes", domain={2: (0.0, 200.0)}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        return model, build_offline(model, training_grid([(20.0, 60.0)], 5), n_max=3)


@pytest.fixture(params=["stokes", "navier-stokes", "short-stokes-tube"])
def without_supremizers(request):
    """A reduced model built without supremizers from the snapshots of an
    offline build: the tube of ``stokes_offline``, of ``ns_offline``, or
    ``short_stokes_tube``."""
    if request.param == "short-stokes-tube":
        model, (snaps, basis, _) = request.getfixturevalue("short_stokes_tube")
    else:
        prefix = {"stokes": "stokes", "navier-stokes": "ns"}[request.param]
        model = request.getfixturevalue(f"{prefix}_model")
        snaps, basis, _ = request.getfixturevalue(f"{prefix}_offline")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        plain = pod_compress(snaps, inner_products_of(model), basis.n_max)
        return project_operators(model, build_reduced_spaces(model, plain, enrich=False))


def test_without_supremizers_every_query_raises(without_supremizers):
    """The divergence block has rank below n_p next to K, so the model is
    not inf-sup stable: it builds, derives nothing to solve, and every
    query raises ``SingularMatrix`` naming the rank."""
    ops = without_supremizers
    n_p = ops.y_p.shape[1]
    assert ops.unsolvable.startswith("reduced divergence block has rank")
    assert ops.X is None and ops.Z is None and ops.Kz is None and ops.warm_mu is None
    for mu in np.linspace(ops.domain_lo, ops.domain_hi, 4):
        for solve in (solve_reduced, rom.solve_reduced_coefficients):
            with pytest.raises(SingularMatrix, match=rf"has rank \d+ < {n_p} pressure modes"):
                solve(ops, mu)


def test_without_supremizers_online_exits_3(without_supremizers, tmp_path, capsys):
    """The artifact of a model without inf-sup stability saves and loads;
    ``ocrom online`` on it exits 3 with a one-line message."""
    path = tmp_path / "rom.bin"
    save_artifact(path, without_supremizers)
    assert load_artifact(path).unsolvable == without_supremizers.unsolvable
    assert main(["online", "--artifact", str(path), "--mu", "45.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: reduced divergence block has rank")
    assert err.count("\n") == 1


def _repeat_first_pressure_mode(modes):
    """The second state pressure mode repeats the first, so it drops, and
    so does its supremizer within the state set."""
    k = np.arange(modes["p"].shape[1])
    modes["p"] = modes["p"][:, np.where(k == 1, 0, k)]


_MODE_EDITS = {
    "aggregated": lambda modes: None,
    "adjoint-repeats-state": lambda modes: modes.update(w=modes["v"], q=modes["p"]),
    "pressure-mode-repeats": _repeat_first_pressure_mode,
}


def _fresh_build(model, snaps, n, edit):
    """POD at basis size ``n``, ``edit`` applied to the modes, then the
    reduced spaces and the projection, from scratch."""
    basis = pod_compress(snaps, inner_products_of(model), n)
    _MODE_EDITS[edit](basis.modes)
    basis = build_reduced_spaces(model, basis)
    return basis, project_operators(model, basis)


@pytest.mark.parametrize("edit", list(_MODE_EDITS))
@pytest.mark.parametrize("model, offline", [("stokes_model", "stokes_offline"),
                                            ("ns_model", "ns_offline")],
                         ids=["stokes", "navier-stokes"])
def test_slice_equals_fresh_build(request, model, offline, edit):
    """Every smaller model cut out of the top one equals a build from
    scratch at that size: the bases bit for bit, the operators and the
    tensor to round-off, also where Gram-Schmidt drops columns."""
    model = request.getfixturevalue(model)
    snaps, basis, ops = request.getfixturevalue(offline)
    expected = {"aggregated": (4, 2), "adjoint-repeats-state": (2, 1)}.get(edit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        if edit != "aggregated":
            basis, ops = _fresh_build(model, snaps, basis.n_max, edit)
        assert basis.n_max >= 2
        if expected is None:  # p_2 and its supremizer s_2 dropped
            assert basis.sizes["v"][2] == 7 and basis.sizes["p"][2] == 3
        for n in range(1, basis.n_max + 1):
            if expected is not None:
                assert basis.sizes["v"][n] == expected[0] * n
                assert basis.sizes["p"][n] == expected[1] * n
            small = slice_operators(ops, basis, n)
            _, fresh = _fresh_build(model, snaps, n, edit)
            for name in ("y_v", "y_p", "y_u", "lifting"):
                assert np.array_equal(getattr(small, name), getattr(fresh, name)), (n, name)
            for name in ("a", "m", "b", "c", "n_ctrl", "h", "tensor"):
                got, ref = getattr(small, name), getattr(fresh, name)
                if ref is None:
                    assert got is None, (n, name)
                    continue
                assert got.shape == ref.shape, (n, name)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (n, name)


def test_symmetrized_tensor(stokes_offline, ns_offline, tmp_path):
    """``S`` is the stored tensor plus its transpose in the two velocity
    slots on the homogeneous test rows, exactly, and a loaded or sliced
    model derives the same array as the model it came from."""
    assert stokes_offline[-1].S is None
    _, basis, ops = ns_offline
    t = ops.tensor[:ops.n_velocity_modes]
    assert np.array_equal(ops.S, t + t.transpose(0, 2, 1))
    path = tmp_path / "rom.bin"
    save_artifact(path, ops)
    assert np.array_equal(load_artifact(path).S, ops.S)
    for n in range(1, basis.n_max + 1):
        rows = np.arange(basis.sizes["v"][n])
        ext = np.r_[rows, ops.n_velocity_modes:ops.n_extended]
        assert np.array_equal(slice_operators(ops, basis, n).S, ops.S[np.ix_(rows, ext, ext)])


def _assert_identical(name, x, y):
    if isinstance(x, dict):
        assert isinstance(y, dict) and x.keys() == y.keys(), name
        for k in x:
            _assert_identical(f"{name}[{k}]", x[k], y[k])
    elif isinstance(x, np.ndarray):
        assert (isinstance(y, np.ndarray) and x.dtype == y.dtype
                and x.shape == y.shape and x.tobytes() == y.tobytes()), name
    else:
        assert type(x) is type(y) and x == y, name


@pytest.mark.parametrize("offline", ["stokes_offline", "ns_offline"])
def test_query_leaves_loaded_operators_unchanged(offline, request, tmp_path):
    """A served reduced model is read-only: every attribute of a loaded
    model is bit-identical before and after a query."""
    built = request.getfixturevalue(offline)
    snaps, ops = built[0], built[-1]
    path = tmp_path / "rom.bin"
    save_artifact(path, ops)
    loaded = load_artifact(path)
    before = copy.deepcopy(vars(loaded))
    solve_reduced(loaded, snaps.parameters[0])
    assert vars(loaded).keys() == before.keys()
    for name, value in before.items():
        _assert_identical(name, value, vars(loaded)[name])


@pytest.mark.parametrize("offline", ["stokes_offline", "ns_offline"])
def test_precomputed_system_matches_blockwise_oracle(offline, request):
    """The constant KKT matrix plus the affine right-hand side reproduce the
    reduced residual and Jacobian assembled block by block, at random
    coefficients and parameters."""
    ops = request.getfixturevalue(offline)[-1]
    conv = None if ops.tensor is None else oracles.tensor_convection(ops)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(ops.dimension())
        mu = rng.uniform(ops.domain_lo, ops.domain_hi)
        if conv is None:  # Stokes: the constant system alone
            res, jac = ops.K @ x + ops.R @ np.concatenate([[1.0], mu]), ops.K
        else:
            res, jacobian = oracles.reduced_system(ops, mu, x)
            jac = jacobian()[:, :ops.dimension()]
        ref_res, ref_jac, _ = oracles.blockwise_reduced_system(ops, mu, x, conv)
        assert np.abs(res - ref_res).max() <= 1e-14 * np.abs(ref_res).max()
        assert np.abs(jac - ref_jac).max() <= 1e-14 * np.abs(ref_jac).max()


@pytest.mark.parametrize("offline", ["stokes_offline", "ns_offline"])
def test_query_checks_mu_once(offline, request, monkeypatch):
    built = request.getfixturevalue(offline)
    snaps, ops = built[0], built[-1]
    calls = []
    check_mu = ReducedOperators.check_mu
    monkeypatch.setattr(ReducedOperators, "check_mu",
                        lambda self, mu: calls.append(mu) or check_mu(self, mu))
    solve_reduced(ops, snaps.parameters[0])
    assert len(calls) == 1
    rom.solve_reduced_coefficients(ops, snaps.parameters[0])
    assert len(calls) == 2


def test_stokes_query_is_a_matvec(stokes_offline, monkeypatch):
    """A Stokes query solves no linear system, and its coefficients match a
    dense solve of the block-by-block oracle system."""
    _, _, ops = stokes_offline
    mus = [np.array([m]) for m in (40.0, 53.7, 66.0, 80.0)]
    refs = []
    for mu in mus:
        res, jac, _ = oracles.blockwise_reduced_system(
            ops, mu, np.zeros(ops.dimension()), None)
        refs.append(np.linalg.solve(jac, -res))

    def no_solve(*args, **kwargs):
        raise AssertionError("linear solve in a Stokes query")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for mu, ref in zip(mus, refs):
        x, _, _ = rom.solve_reduced_coefficients(ops, mu)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("offline, tol", [("stokes_offline", 1e-13), ("ns_offline", 0.0)])
def test_lift_matches_per_basis_oracle(offline, tol, request):
    """A query's fields against the per-basis lift of its coefficients: the
    Stokes one-product lift to round-off, the Navier-Stokes lift exactly."""
    ops = request.getfixturevalue(offline)[-1]
    for mu in np.linspace(ops.domain_lo, ops.domain_hi, 4):
        x, objective, iters = rom.solve_reduced_coefficients(ops, mu)
        sol = solve_reduced(ops, mu)
        assert sol.objective == objective and sol.newton_iterations == iters
        for f, ref in oracles.per_basis_lift(ops, x, mu).items():
            got = getattr(sol, f)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), f
