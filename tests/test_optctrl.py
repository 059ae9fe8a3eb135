import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ocrom import numerics, optctrl, rom
from ocrom.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NewtonDiverged,
    ParameterOutOfDomain,
    UnknownTag,
)
from ocrom.mesh import Mesh, centerline_query, generate_graft
from ocrom.optctrl import (
    FullOrderModel,
    OcpConfig,
    build_inflow,
    build_target,
    evaluate_objective,
    inlet_geometry,
)
from ocrom.study import graft_geometry

import oracles
from conftest import straight_tube


def _count_factorizations(monkeypatch):
    """The shapes of the matrices ``numerics.factorize`` receives from here
    on, in call order."""
    calls = []
    factorize = numerics.factorize

    def counted(A):
        calls.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(numerics, "factorize", counted)
    return calls


@pytest.fixture(scope="module")
def locked_stokes_model():
    """Stokes on the default two-inlet graft at resolution 0.6, whose
    divergence leaves four pressure vertices locked."""
    mesh = generate_graft(graft_geometry(8.0, 1.0, 0.7, 35.0, 5.0, resolution=0.6))
    return FullOrderModel(mesh, OcpConfig())


class TestConfig:
    def test_bad_alpha(self):
        with pytest.raises(DimensionMismatch):
            OcpConfig(alpha=0.0)

    def test_bad_equation(self):
        with pytest.raises(DimensionMismatch):
            OcpConfig(equation="euler")

    def test_reversed_domain(self):
        with pytest.raises(DimensionMismatch):
            OcpConfig(domain={2: (10.0, 1.0)})

    @pytest.mark.parametrize("settings", [
        {"alpha": np.nan}, {"alpha": -1.0}, {"alpha": np.inf},
        {"viscosity": np.nan}, {"viscosity": 0.0}, {"viscosity": np.inf},
        {"v_const": np.inf}, {"v_const": np.nan},
        {"domain": {2: (np.nan, 1.0)}}, {"domain": {2: (0.0, np.nan)}},
    ], ids=["alpha-nan", "alpha-negative", "alpha-inf", "viscosity-nan", "viscosity-zero",
            "viscosity-inf", "v_const-inf", "v_const-nan", "domain-lo-nan", "domain-hi-nan"])
    def test_non_finite_or_non_positive_setting(self, settings):
        with pytest.raises(DimensionMismatch):
            OcpConfig(**settings)

    def test_infinite_domain_bounds_allowed(self):
        assert OcpConfig(domain={2: (-np.inf, np.inf)}).domain == {2: (-np.inf, np.inf)}

    def test_wrong_domain_tags(self, tube_mesh):
        with pytest.raises(UnknownTag):
            FullOrderModel(tube_mesh, OcpConfig(domain={3: (0.0, 1.0)}))

    def test_default_domain_leaves_config_untouched(self, tube_mesh):
        cfg = OcpConfig()
        model = FullOrderModel(tube_mesh, cfg)
        assert cfg.domain == {}
        assert model.domain_lo.tolist() == [-np.inf]
        assert model.domain_hi.tolist() == [np.inf]
        assert model.check_mu(1e6).tolist() == [1e6]
        for mu in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterOutOfDomain):
                model.check_mu(mu)


class TestTarget:
    def test_centerline_peak(self, tube_mesh, tube_spaces):
        v_o = build_target(tube_mesh, tube_spaces, 350.0)
        on_axis = np.where(
            np.linalg.norm(tube_spaces.entity_coords[:, :2], axis=1) < 1e-9)[0]
        assert on_axis.size > 0
        for e in on_axis:
            val = v_o[3 * e : 3 * e + 3]
            assert abs(np.linalg.norm(val) - 350.0) <= 1e-9
            # tangent points along the tube axis
            assert abs(abs(val[2]) - 350.0) <= 1e-9

    def test_zero_on_wall(self, tube_mesh, tube_spaces):
        v_o = build_target(tube_mesh, tube_spaces, 350.0)
        r = np.linalg.norm(tube_spaces.entity_coords[:, :2], axis=1)
        wall = np.where(np.abs(r - 1.0) < 1e-9)[0]
        assert wall.size > 0
        for e in wall:
            assert np.abs(v_o[3 * e : 3 * e + 3]).max() <= 1e-7

    def test_parabolic_profile_oracle(self, tube_mesh, tube_spaces):
        """Pointwise value v_const (1 - r^2/R^2) against an independent
        radius computation from the dof coordinate."""
        v_o = build_target(tube_mesh, tube_spaces, 350.0)
        rng = np.random.default_rng(0)
        for e in rng.choice(tube_spaces.entity_coords.shape[0], 20, replace=False):
            x = tube_spaces.entity_coords[e]
            r = np.linalg.norm(x[:2])
            expected = 350.0 * max(1.0 - r * r, 0.0)
            assert abs(np.linalg.norm(v_o[3 * e : 3 * e + 3]) - expected) <= 1e-6 * 350.0


class TestInflow:
    def test_inlet_geometry(self, tube_mesh):
        center, normal, radius = inlet_geometry(tube_mesh, 2)
        assert abs(radius - 1.0) <= 0.05
        assert np.linalg.norm(center - [0.0, 0.0, 0.0]) <= 0.05
        assert abs(abs(normal[2]) - 1.0) <= 1e-9

    def test_unknown_tag(self, tube_mesh):
        with pytest.raises(UnknownTag):
            inlet_geometry(tube_mesh, 7)

    def test_peak_value(self, tube_mesh, tube_spaces):
        """|v_in| at the inlet center is eta Re / R = 3.6 * 80 / 1 = 288."""
        g = build_inflow(tube_mesh, tube_spaces, 2, 80.0, 3.6)
        on_axis = np.where(
            (np.linalg.norm(tube_spaces.entity_coords[:, :2], axis=1) < 1e-9)
            & (np.abs(tube_spaces.entity_coords[:, 2]) < 1e-9))[0]
        assert on_axis.size == 1
        e = on_axis[0]
        assert abs(np.linalg.norm(g[3 * e : 3 * e + 3]) - 288.0) <= 288.0 * 0.02
        # points into the tube (positive z for an inlet at z=0)
        assert g[3 * e + 2] > 0

    def test_zero_on_rim(self, tube_mesh, tube_spaces):
        g = build_inflow(tube_mesh, tube_spaces, 2, 80.0, 3.6)
        coords = tube_spaces.entity_coords
        rim = np.where((np.abs(np.linalg.norm(coords[:, :2], axis=1) - 1.0) < 1e-9)
                       & (np.abs(coords[:, 2]) < 1e-9))[0]
        assert rim.size > 0
        for e in rim:
            assert np.abs(g[3 * e : 3 * e + 3]).max() <= 1e-6

    def test_linearity_in_reynolds(self, tube_mesh, tube_spaces):
        g1 = build_inflow(tube_mesh, tube_spaces, 2, 1.0, 3.6)
        g80 = build_inflow(tube_mesh, tube_spaces, 2, 80.0, 3.6)
        assert np.abs(g80 - 80.0 * g1).max() <= 1e-10 * np.abs(g80).max()

    def test_flux_oracle(self, tube_mesh, tube_spaces):
        """Inlet flux of the parabolic profile: |Q| = peak * pi R^2 / 2,
        computed by independent surface quadrature."""
        g = build_inflow(tube_mesh, tube_spaces, 2, 80.0, 3.6)
        q = oracles.surface_flux(tube_mesh, tube_spaces, g, 2)
        exact = 288.0 * np.pi / 2.0
        # polygonal inlet disc is what both sides integrate over, but the
        # analytic value carries the pi R^2 circle area: allow 2%
        assert abs(abs(q) - exact) <= 0.02 * exact


class TestObjective:
    def test_zero_at_target(self, stokes_model):
        v = stokes_model.target
        u = np.zeros(stokes_model.spaces.n_control)
        assert evaluate_objective(
            v, u, stokes_model.target, stokes_model.operators,
            stokes_model.config.alpha) == 0.0

    def test_nonnegative(self, stokes_model):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(stokes_model.spaces.n_velocity)
            u = rng.standard_normal(stokes_model.spaces.n_control)
            assert evaluate_objective(
                v, u, stokes_model.target, stokes_model.operators, 1e-2) >= 0.0

    def test_quadrature_oracle(self, tube_mesh, tube_spaces, tube_operators):
        """Tracking term against direct volume quadrature."""
        rng = np.random.default_rng(2)
        v = rng.standard_normal(tube_spaces.n_velocity)
        target = build_target(tube_mesh, tube_spaces, 350.0)
        u = np.zeros(tube_spaces.n_control)
        j = evaluate_objective(v, u, target, tube_operators, 1e-2)
        direct = 0.5 * oracles.l2_product_quadrature(
            tube_mesh, tube_spaces, v - target, v - target)
        assert abs(j - direct) <= 1e-9 * direct

    def test_dimension_mismatch(self, stokes_model):
        with pytest.raises(DimensionMismatch):
            evaluate_objective(
                np.zeros(3), np.zeros(stokes_model.spaces.n_control),
                stokes_model.target, stokes_model.operators, 1e-2)


class TestKktAssembly:
    def test_stokes_symmetry(self, stokes_model):
        K, _ = stokes_model.assemble_kkt(np.array([50.0]))
        d = K - K.T
        assert abs(d).max() <= 1e-12 * abs(K).max()

    def test_control_block(self, stokes_model):
        K, _ = stokes_model.assemble_kkt(np.array([50.0]))
        nf = stokes_model.free.shape[0]
        npr = stokes_model.spaces.n_pressure
        nu = stokes_model.spaces.n_control
        s = slice(nf + npr, nf + npr + nu)
        blk = K[s, s].toarray()
        expected = stokes_model.config.alpha * stokes_model.operators.N_c.toarray()
        assert np.abs(blk - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_parameter_out_of_domain(self, stokes_model):
        with pytest.raises(ParameterOutOfDomain):
            stokes_model.assemble_kkt(np.array([500.0]))
        with pytest.raises(ParameterOutOfDomain):
            stokes_model.solve_ocp(np.array([-1.0]))
        with pytest.raises(ParameterOutOfDomain):
            stokes_model.solve_ocp(np.array([np.nan]))

    def test_wrong_parameter_count(self, stokes_model):
        with pytest.raises(DimensionMismatch):
            stokes_model.solve_ocp(np.array([50.0, 50.0]))
        box = np.array([20.0, 20.0]), np.array([80.0, 80.0])
        with pytest.raises(DimensionMismatch,
                           match=r"shape \(2,\), got shape \(1, 2\)") as info:
            optctrl.check_parameters(np.array([[50.0, 50.0]]), *box)
        assert info.value.exit_code == 2

    def test_stokes_matrix_built_once(self, stokes_model):
        K, rhs = stokes_model.assemble_kkt(np.array([50.0]))
        K2, rhs2 = stokes_model.assemble_kkt(np.array([60.0]))
        assert K2 is K
        assert np.abs(rhs2 - rhs).max() > 0.0


class TestStokesSolve:
    def test_residual_small(self, stokes_model):
        sol = stokes_model.solve_ocp(np.array([80.0]))
        assert sol.kkt_residual <= 1e-10
        assert sol.newton_iterations == 0

    def test_zero_target_zero_mu(self, tube_mesh):
        cfg = OcpConfig(equation="stokes", v_const=0.0, domain={2: (0.0, 200.0)})
        model = FullOrderModel(tube_mesh, cfg)
        sol = model.solve_ocp(np.array([0.0]))
        assert np.abs(sol.v).max() <= 1e-12
        assert np.abs(sol.u).max() <= 1e-12
        assert sol.objective <= 1e-20

    def test_one_factorization_per_model(self, tube_mesh, monkeypatch):
        """A Stokes model factorizes its state block at construction and
        nothing after: not its first solve, a snapshot build on a grid, nor
        later solves."""
        calls = _count_factorizations(monkeypatch)
        model = FullOrderModel(tube_mesh, OcpConfig(equation="stokes",
                                                    domain={2: (0.0, 200.0)}))
        assert calls == [(model._ends[1], model._ends[1])]
        model.solve_ocp(np.array([80.0]))
        snaps = rom.collect_snapshots(model, rom.training_grid([[0.0, 200.0]], 5))
        assert len(snaps) == 5 and not snaps.failures
        for mu in (20.0, 150.0):
            assert model.solve_ocp(np.array([mu])).kkt_residual <= 1e-10
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["stokes_model", "locked_stokes_model"])
    def test_matches_kkt_lu_oracle(self, name, request):
        """The block elimination gives the solution of one sparse LU of
        the whole optimality matrix, with and without locked pressures.
        The optimality right-hand side is zero in the locked rows, so a
        random one, nonzero there too, checks where their pins go."""
        model = request.getfixturevalue(name)
        assert (model.locked_pressure.size > 0) == (name == "locked_stokes_model")
        mu = np.full(len(model.inlet_tags), 60.0)
        K, rhs = model.assemble_kkt(mu)
        kkt_solve = oracles.kkt_lu(K)
        ref = kkt_solve(rhs)
        sol = model.solve_ocp(mu)
        f = model.free
        x = np.concatenate([sol.v_hom[f], sol.p, sol.u, sol.w[f], sol.q])
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert sol.kkt_residual <= 1e-10
        b = np.random.default_rng(4).standard_normal(rhs.shape)
        ref = kkt_solve(b)
        x = model._elimination(K, model._state_lu)(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def _check_state_feasibility(model):
        """The optimal (v, u) satisfies the flow equations: re-solving the
        state at the optimal control reproduces v and p."""
        mu = np.full(len(model.inlet_tags), 60.0)
        sol = model.solve_ocp(mu)
        v_chk, p_chk = model.solve_state(mu, sol.u)
        assert np.abs(v_chk - sol.v).max() <= 1e-8 * max(np.abs(sol.v).max(), 1.0)
        assert np.abs(p_chk - sol.p).max() <= 1e-8 * max(np.abs(sol.p).max(), 1.0)

    def test_state_feasibility(self, stokes_model):
        self._check_state_feasibility(stokes_model)

    def test_state_feasibility_with_locked_pressures(self, locked_stokes_model):
        assert locked_stokes_model.locked_pressure.size > 0
        self._check_state_feasibility(locked_stokes_model)

    def test_optimality_against_competitors(self, stokes_model):
        """J(u*) <= J(u') for random competitor controls (global optimality
        of the quadratic problem)."""
        mu = np.array([70.0])
        sol = stokes_model.solve_ocp(mu)
        rng = np.random.default_rng(3)
        scale = max(np.abs(sol.u).max(), 1.0)
        for _ in range(10):
            u_alt = sol.u + scale * rng.standard_normal(sol.u.shape) * 0.5
            assert oracles.objective_of_control(stokes_model, mu, u_alt) >= sol.objective

    def test_gradient_vanishes_at_optimum(self, stokes_model):
        mu = np.array([70.0])
        sol = stokes_model.solve_ocp(mu)
        g = oracles.reduced_gradient(stokes_model, mu, sol.u)
        g0 = oracles.reduced_gradient(stokes_model, mu, np.zeros_like(sol.u))
        assert np.linalg.norm(g) <= 1e-7 * np.linalg.norm(g0)

    def test_finite_difference_gradient(self, stokes_model):
        mu = np.array([50.0])
        rng = np.random.default_rng(4)
        u = rng.standard_normal(stokes_model.spaces.n_control)
        g = oracles.reduced_gradient(stokes_model, mu, u)
        for _ in range(5):
            d = rng.standard_normal(u.shape)
            d /= np.linalg.norm(d)
            eps = 1e-4
            fd = (oracles.objective_of_control(stokes_model, mu, u + eps * d)
                  - oracles.objective_of_control(stokes_model, mu, u - eps * d)) / (2 * eps)
            assert abs(fd - g @ d) <= 1e-4 * max(abs(fd), 1.0)

    def test_attainable_target_near_zero_cost(self, tube_mesh, monkeypatch):
        """If the target is itself an uncontrolled flow solution, the
        optimal objective collapses relative to the uncontrolled one."""
        cfg = OcpConfig(equation="stokes", alpha=1e-6, domain={2: (0.0, 200.0)})
        model = FullOrderModel(tube_mesh, cfg)
        mu = np.array([80.0])
        v_free, _ = model.solve_state(mu, np.zeros(model.spaces.n_control))
        j_init = evaluate_objective(
            v_free, np.zeros(model.spaces.n_control), model.target,
            model.operators, cfg.alpha)
        monkeypatch.setattr(optctrl, "build_target", lambda *args: v_free)
        model = FullOrderModel(tube_mesh, cfg)
        sol = model.solve_ocp(mu)
        assert sol.objective <= 1e-8 * j_init

    def test_target_read_only(self, stokes_model):
        """The target enters the right-hand side R at construction, so
        changing it afterwards fails instead of being ignored."""
        with pytest.raises(AttributeError):
            stokes_model.target = np.zeros(stokes_model.spaces.n_velocity)
        with pytest.raises(ValueError):
            stokes_model.target[0] = 1.0

    def test_alpha_monotonicity(self, tube_mesh):
        """Optimal tracking error grows and control effort shrinks as the
        penalization increases."""
        mu = np.array([80.0])
        track, effort = [], []
        for alpha in (1e-2, 1e2, 1e6):
            model = FullOrderModel(
                tube_mesh, OcpConfig(equation="stokes", alpha=alpha,
                                     domain={2: (0.0, 200.0)}))
            sol = model.solve_ocp(mu)
            dv = sol.v - model.target
            track.append(dv @ (model.operators.M @ dv))
            effort.append(sol.u @ (model.operators.N_c @ sol.u))
        assert track[0] < track[1] < track[2]
        assert effort[0] > effort[1] > effort[2]

    def test_factorization_reuse(self, stokes_model):
        """Repeated parameters hit the cached factorization and agree
        bit for bit."""
        a = stokes_model.solve_ocp(np.array([55.0]))
        b = stokes_model.solve_ocp(np.array([55.0]))
        assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)


class TestNavierStokesSolve:
    def test_matches_stokes_at_small_velocities(self, tube_mesh):
        """With target and inflow both scaled down the convection term is
        quadratically small and the two equations agree."""
        cfg_s = OcpConfig(equation="stokes", v_const=0.035,
                          domain={2: (0.0, 200.0)})
        cfg_n = OcpConfig(equation="navier-stokes", v_const=0.035,
                          domain={2: (0.0, 200.0)})
        m_s = FullOrderModel(tube_mesh, cfg_s)
        m_n = FullOrderModel(tube_mesh, cfg_n)
        mu = np.array([1e-3])
        a, b = m_s.solve_ocp(mu), m_n.solve_ocp(mu)
        scale = np.abs(a.v).max()
        assert np.abs(a.v - b.v).max() <= 1e-4 * scale
        assert abs(a.objective - b.objective) <= 1e-5 * a.objective

    def test_converges_at_reference_reynolds(self, ns_model):
        sol = ns_model.solve_ocp(np.array([80.0]))
        assert sol.kkt_residual <= 1e-8
        assert 1 <= sol.newton_iterations <= 10

    def test_one_residual_per_newton_iterate(self, ns_model, monkeypatch):
        """The Stokes start and each Newton iterate get one KKT residual."""
        calls = []
        residual = ns_model.kkt_residual

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(ns_model, "kkt_residual", counted)
        sol = ns_model.solve_ocp(np.array([80.0]))
        assert len(calls) == sol.newton_iterations + 1

    def test_state_feasibility(self, ns_model):
        mu = np.array([80.0])
        sol = ns_model.solve_ocp(mu)
        v_chk, _ = ns_model.solve_state(mu, sol.u)
        assert np.abs(v_chk - sol.v).max() <= 1e-6 * np.abs(sol.v).max()

    def test_finite_difference_gradient(self, ns_model):
        mu = np.array([40.0])
        rng = np.random.default_rng(5)
        u = 0.1 * rng.standard_normal(ns_model.spaces.n_control)
        g = oracles.reduced_gradient(ns_model, mu, u)
        for _ in range(3):
            d = rng.standard_normal(u.shape)
            d /= np.linalg.norm(d)
            eps = 1e-4
            fd = (oracles.objective_of_control(ns_model, mu, u + eps * d)
                  - oracles.objective_of_control(ns_model, mu, u - eps * d)) / (2 * eps)
            assert abs(fd - g @ d) <= 1e-3 * max(abs(fd), 1.0)

    def test_objective_not_worse_than_uncontrolled(self, ns_model):
        mu = np.array([80.0])
        sol = ns_model.solve_ocp(mu)
        j_zero = oracles.objective_of_control(
            ns_model, mu, np.zeros(ns_model.spaces.n_control))
        assert sol.objective <= j_zero


@pytest.fixture(scope="module")
def graft_mesh():
    """The coarsest two-inlet graft the generator accepts."""
    return generate_graft(graft_geometry(host_length=2.5, host_radius=1.0,
                                         graft_radius=0.7, angle_deg=35.0,
                                         attach=1.6, resolution=0.68))


@pytest.fixture(scope="module")
def graft_ns_model(graft_mesh):
    return FullOrderModel(graft_mesh, OcpConfig(equation="navier-stokes"))


def _linearization_point(model, rng):
    """A Navier-Stokes solution with random velocities added, as a KKT
    vector and as full velocity vectors."""
    mu = np.full(len(model.inlet_tags), 25.0)
    sol = model.solve_ocp(mu)
    f = model.free
    x = np.concatenate([sol.v_hom[f], sol.p, sol.u, sol.w[f], sol.q])
    x = x + rng.standard_normal(x.shape) * np.abs(x).max() * 1e-2
    v_f, _, _, w_f, _ = model._split(x)
    return mu, x, model._expand(v_f) + model.lifting_field(mu), model._expand(w_f)


class TestNavierStokesJacobian:
    @pytest.mark.parametrize("name", ["ns_model", "graft_ns_model"])
    def test_assembly_matches_bmat_oracle(self, name, request):
        model = request.getfixturevalue(name)
        mu, x, v, w = _linearization_point(model, np.random.default_rng(7))
        K, rhs = model.assemble_kkt(mu, (v, w))
        K_ref = oracles.bmat_jacobian(model, v, w)
        assert K.format == "csc" and K.shape == K_ref.shape
        assert abs(K - K_ref).max() <= 1e-14 * abs(K_ref).max()
        assert np.array_equal(rhs, model.assemble_kkt(mu)[1])
        for nonlinear in (True, False):
            res = model.kkt_residual(x, mu, nonlinear)
            res_ref = oracles.matrix_kkt_residual(model, x, mu, nonlinear)
            assert np.linalg.norm(res - res_ref) <= 1e-11 * np.linalg.norm(res_ref)

    @pytest.mark.parametrize("call, peak_bytes", [
        # the per-quadrature-point kernel's peaks on this mesh
        (lambda model, v, w: model.kernel.jacobian_values(
            v, w, model._ns_pattern.index, model._ns_pattern.j11.shape[0] + 1), 5_398_736),
        (lambda model, v, w: model.kernel.residual_terms(v, w), 3_815_880),
    ], ids=["jacobian_values", "residual_terms"])
    def test_convection_memory_peak(self, graft_ns_model, call, peak_bytes):
        """One Jacobian-value or residual-term call allocates no more at
        its peak (tracemalloc, the returned arrays included) than the
        per-quadrature-point kernel did: the reference-tensor blocks are
        formed chunk by chunk, and the bin index is read in their order."""
        model = graft_ns_model
        rng = np.random.default_rng(4)
        v, w = rng.standard_normal((2, model.spaces.n_velocity))
        model._ns_jacobian(v, w)  # the pattern and the element geometry
        tracemalloc.start()
        try:
            call(model, v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_bytes

    def test_state_and_adjoint_blocks_transposed(self, graft_ns_model):
        """At an iterate with a nonzero adjoint the Jacobian's adjoint block
        (rows v, p; columns w, q) is exactly the transpose of its state
        block (rows w, q; columns v, p), so one LU serves both."""
        model = graft_ns_model
        mu, _, v, w = _linearization_point(model, np.random.default_rng(3))
        assert np.abs(w).max() > 0.0
        J, _ = model.assemble_kkt(mu, (v, w))
        e = model._ends
        assert abs(J[: e[1], e[2] :] - J[e[2] :, : e[1]].T).max() == 0.0

    def test_elimination_matches_kkt_lu_oracle(self, graft_ns_model):
        """One refined elimination solve on the LU of a Jacobian's state
        block gives the solution of one sparse LU of the whole Jacobian."""
        model = graft_ns_model
        mu, _, v, w = _linearization_point(model, np.random.default_rng(5))
        J, _ = model.assemble_kkt(mu, (v, w))
        e = model._ends
        b = np.random.default_rng(6).standard_normal(e[-1])
        ref = oracles.kkt_lu(J)(b)
        elim = model._elimination(J, numerics.factorize(J[e[2] :, : e[1]]))
        x = numerics.refine(J, b, elim)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_one_factorization_per_solve(self, ns_model, monkeypatch):
        """Only the first Jacobian of a solve is factorized, not one per
        Newton step, and only its state block."""
        mu = np.array([80.0])
        ns_model.solve_ocp(mu)  # warm-up: the Stokes elimination, the Jacobian pattern
        calls = _count_factorizations(monkeypatch)
        sol = ns_model.solve_ocp(mu)
        assert sol.newton_iterations >= 2
        e = ns_model._ends
        assert calls == [(e[-1] - e[2], e[1])]

    def test_refactorization_fallback_matches(self, ns_model, monkeypatch):
        """When GMRES misses its bound every step falls back to a fresh
        factorization, and the solve takes the same steps."""
        mu = np.array([80.0])
        ref = ns_model.solve_ocp(mu)

        def no_gmres(A, b, raw_solve):
            raise ConvergenceFailure("forced refactorization")

        monkeypatch.setattr(numerics, "solve_near", no_gmres)
        calls = _count_factorizations(monkeypatch)
        sol = ns_model.solve_ocp(mu)
        assert sol.newton_iterations == ref.newton_iterations
        assert len(calls) == sol.newton_iterations
        assert np.abs(sol.v - ref.v).max() <= 1e-10 * np.abs(ref.v).max()
        assert sol.kkt_residual <= 1e-8

    def test_repeated_solve_bit_identical(self, graft_ns_model):
        mu = np.array([27.0, 22.0])
        a = graft_ns_model.solve_ocp(mu)
        b = graft_ns_model.solve_ocp(mu)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)

    def test_stokes_builds_no_convection_cache(self, tube_mesh):
        model = FullOrderModel(tube_mesh, OcpConfig(equation="stokes",
                                                    domain={2: (0.0, 200.0)}))
        model.solve_ocp(np.array([80.0]))
        assert model._ns_pattern is None
        assert model.kernel._geometry is None

    def test_divergence_carries_residual_history(self, tube_mesh, monkeypatch):
        monkeypatch.setattr(optctrl, "NEWTON_MAX_ITER", 1)
        cfg = OcpConfig(equation="navier-stokes", domain={2: (0.0, 200.0)})
        with pytest.raises(NewtonDiverged, match="no convergence in 1 iterations") as info:
            FullOrderModel(tube_mesh, cfg).solve_ocp(np.array([80.0]))
        norms = info.value.residual_norms
        assert len(norms) == 2 and all(np.isfinite(norms))
        assert norms[1] < norms[0]


def _fill(lu):
    """L+U entries of a SuperLU factorization."""
    return lu.L.nnz + lu.U.nnz


class TestStateBlockOrdering:
    """The state-block LU's ordering follows from the block's symmetry,
    told apart by fill: the Stokes block is symmetric and fills less than
    under COLAMD, a Navier-Stokes Jacobian's is not and gets COLAMD."""

    @pytest.mark.parametrize("name", ["stokes_model", "locked_stokes_model"])
    def test_stokes_state_block_fills_less_than_colamd(self, name, request):
        model = request.getfixturevalue(name)
        e = model._ends
        S = model._stokes_matrix[e[2] :, : e[1]].tocsc()
        assert (S != S.T).nnz == 0
        assert _fill(model._state_lu._lu) < _fill(spla.splu(S))

    def test_navier_stokes_state_block_keeps_colamd(self, graft_ns_model):
        model = graft_ns_model
        mu, _, v, w = _linearization_point(model, np.random.default_rng(9))
        J, _ = model.assemble_kkt(mu, (v, w))
        e = model._ends
        S = J[e[2] :, : e[1]].tocsc()
        assert (S != S.T).nnz > 0
        assert _fill(numerics.factorize(S)._lu) == _fill(spla.splu(S))


class TestStateEquations:
    @pytest.mark.parametrize("name, nonlinear", [
        pytest.param("ns_model", False, id="False"),
        pytest.param("ns_model", True, id="True"),
        pytest.param("locked_stokes_model", False, id="locked_stokes_model-False"),
        pytest.param("locked_stokes_model", True, id="locked_stokes_model-True"),
    ])
    def test_state_block_matches_saddle_oracle(self, name, nonlinear, request):
        """The state block, rows w and q on columns v and p of K, is
        [[X_ff, B_f^T], [B_f, pin]]: X_ff is the free-free stiffness for
        Stokes, and for Navier-Stokes the J41 block of the Jacobian at zero
        adjoint (whose values test_assembly_matches_bmat_oracle checks).
        For Stokes the adjoint block, rows v and p on columns w and q, is
        the same matrix."""
        model = request.getfixturevalue(name)
        mu = np.full(len(model.inlet_tags), 80.0)
        e = model._ends
        X_ff = oracles.free_blocks(model)[1]
        K, _ = model.assemble_kkt(mu)
        if nonlinear:
            v = model.lifting_field(mu)
            v[model.free] += np.random.default_rng(9).standard_normal(e[0])
            K, _ = model.assemble_kkt(mu, (v, np.zeros_like(v)))
            X_ff = K[e[2] : e[3], : e[0]]
        S = K[e[2] :, : e[1]]
        assert S.shape == (e[1], e[1])
        assert abs(S - oracles.saddle_matrix(model, X_ff)).max() == 0.0
        if not nonlinear:
            assert abs(K[: e[1], e[2] :] - S).max() == 0.0

    def test_liftings_share_one_factorization(self, graft_mesh, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        model = FullOrderModel(graft_mesh, OcpConfig())
        assert model.lifting.shape[1] == 2
        assert len(calls) == 1

    def test_state_solve_reuses_factorization(self, ns_model, monkeypatch):
        """A state solve's Stokes pass runs on the model's state-block LU,
        and its Navier-Stokes pass factorizes its first Jacobian only, not
        one per Newton step."""
        calls = _count_factorizations(monkeypatch)
        v, p = ns_model.solve_state(np.array([80.0]), np.zeros(ns_model.spaces.n_control))
        assert np.isfinite(v).all() and np.isfinite(p).all()
        assert len(calls) == 1

    def test_stokes_state_solve_factorizes_nothing(self, stokes_model, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        u = np.full(stokes_model.spaces.n_control, 5.0)
        v, p = stokes_model.solve_state(np.array([80.0]), u)
        assert np.isfinite(v).all() and np.isfinite(p).all()
        assert calls == []


@pytest.mark.parametrize("missing", [3, -2])
def test_state_solve_rejects_wrong_control_length(stokes_model, missing):
    """A control that is not one value per control dof raises the typed
    error, not numpy's."""
    u = np.zeros(stokes_model.spaces.n_control - missing)
    with pytest.raises(DimensionMismatch, match="control"):
        stokes_model.solve_state(np.array([80.0]), u)


class TestRenumberingInvariance:
    def test_objective_invariant(self):
        mesh = straight_tube(resolution=0.55)
        cfg = OcpConfig(equation="stokes", domain={2: (0.0, 200.0)})
        j1 = FullOrderModel(mesh, cfg).solve_ocp(np.array([80.0])).objective
        rng = np.random.default_rng(6)
        perm = rng.permutation(mesh.nodes.shape[0])
        inv = np.argsort(perm)
        shuffled = Mesh(nodes=mesh.nodes[perm], tets=inv[mesh.tets],
                        boundary_tris=inv[mesh.boundary_tris],
                        boundary_tags=mesh.boundary_tags,
                        centerlines=mesh.centerlines)
        cfg2 = OcpConfig(equation="stokes", domain={2: (0.0, 200.0)})
        j2 = FullOrderModel(shuffled, cfg2).solve_ocp(np.array([80.0])).objective
        assert abs(j1 - j2) <= 1e-10 * j1
