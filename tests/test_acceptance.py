"""End-to-end acceptance checks.

Each criterion prints a single PASS/FAIL line (bypassing pytest's capture)
and asserts the same condition, so the summary is readable even on a green
run.  The heavyweight fixtures are module-scoped and shared across criteria.
"""

import sys
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from ocrom import numerics, optctrl, rom
from ocrom.fem import assemble_operators, build_spaces
from ocrom.errors import RankDeficiency
from ocrom.mesh import generate_graft
from ocrom.optctrl import (
    FullOrderModel,
    OcpConfig,
    build_inflow,
    evaluate_objective,
)
from ocrom.study import (
    graft_geometry,
    load_config,
    run_error_study,
    run_offline,
    run_speedup_study,
)

import conftest
import oracles
from conftest import straight_tube


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{name}]: {status}  {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"acceptance {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Poiseuille verification


def _poiseuille_error(resolution, reynolds=80.0, viscosity=3.6):
    """Stokes flow with the analytic profile imposed on inlet and wall,
    do-nothing outlet; returns the M-norm relative error of the velocity."""
    mesh = straight_tube(length=0.75, radius=1.0, resolution=resolution)
    spaces = build_spaces(mesh)
    ops = assemble_operators(spaces, viscosity)
    coords = spaces.entity_coords
    r2 = coords[:, 0] ** 2 + coords[:, 1] ** 2
    exact = np.zeros(spaces.n_velocity)
    exact[2::3] = viscosity * reynolds * np.maximum(1.0 - r2, 0.0)
    # parabolic profile on the inlet, no-slip wall; the no-slip condition on
    # the polygonal wall is what separates the discrete and exact solutions
    g = build_inflow(mesh, spaces, 2, reynolds, viscosity)
    f = spaces.free_velocity
    B_f = ops.B[:, f]
    K = sp.bmat([[ops.A[f][:, f], B_f.T], [B_f, None]], format="csc")
    rhs = np.concatenate([-(ops.A @ g)[f], -(ops.B @ g)])
    sol = numerics.factorize(K).solve(rhs)
    v = g.copy()
    v[f] += sol[: f.shape[0]]
    d = v - exact
    return float(np.sqrt((d @ (ops.M @ d)) / (exact @ (ops.M @ exact))))


def test_acceptance_1_poiseuille():
    t0 = time.perf_counter()
    err_coarse = _poiseuille_error(1.0 / 4.0)
    err_fine = _poiseuille_error(1.0 / 6.0)
    elapsed = time.perf_counter() - t0
    ok = (err_coarse <= 0.02 and err_coarse / err_fine >= 2.0
          and elapsed <= 60.0)
    _verdict(1, "Poiseuille verification", ok,
             f"err(h=R/4)={err_coarse:.3e} err(h=R/6)={err_fine:.3e} "
             f"ratio={err_coarse / err_fine:.2f} runtime={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Attainable-target optimality / 3. adjoint gradient


def _attainable_target_case(mesh, config, mu, monkeypatch):
    """Build a model around the uncontrolled flow as its target and
    optimize."""
    model = FullOrderModel(mesh, config)
    v_free, _ = model.solve_state(mu, np.zeros(model.spaces.n_control))
    with monkeypatch.context() as patch:
        patch.setattr(optctrl, "build_target", lambda *args: v_free)
        model = FullOrderModel(mesh, config)
    sol = model.solve_ocp(mu)
    # the solver starts from the zero vector for every unknown
    j_init = evaluate_objective(np.zeros(model.spaces.n_velocity),
                                np.zeros(model.spaces.n_control),
                                model.target, model.operators,
                                model.config.alpha)
    u_norm = np.sqrt(sol.u @ (model.operators.N_c @ sol.u))
    v_norm = np.sqrt(sol.v @ (model.operators.M @ sol.v))
    return sol.objective, j_init, u_norm, v_norm


def test_acceptance_2_attainable_target(tube_mesh, monkeypatch):
    t0 = time.perf_counter()
    mu = np.array([80.0])
    results = {}
    for eq in ("stokes", "navier-stokes"):
        results[eq] = _attainable_target_case(
            tube_mesh, OcpConfig(equation=eq, domain={2: (0.0, 200.0)}), mu, monkeypatch)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 300.0
    detail = []
    for eq, (j, j0, un, vn) in results.items():
        ok = ok and j <= 1e-8 * j0 and un <= 1e-6 * vn
        detail.append(f"{eq}: J/J0={j / j0:.1e} |u|/|v|={un / vn:.1e}")
    _verdict(2, "attainable-target optimality", ok,
             "; ".join(detail) + f" runtime={elapsed:.0f}s")


def _gradient_check(model, mu, u_scale, n_dirs, seed):
    rng = np.random.default_rng(seed)
    u = u_scale * rng.standard_normal(model.spaces.n_control)
    g = oracles.reduced_gradient(model, mu, u)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(u.shape)
        d /= np.linalg.norm(d)
        eps = 1e-4
        fd = (oracles.objective_of_control(model, mu, u + eps * d)
              - oracles.objective_of_control(model, mu, u - eps * d)) / (2 * eps)
        worst = max(worst, abs(fd - g @ d) / max(abs(fd), 1.0))
    return worst


def test_acceptance_3_adjoint_gradient(stokes_model, ns_model):
    worst_s = _gradient_check(stokes_model, np.array([50.0]), 1.0, 5, seed=0)
    worst_n = _gradient_check(ns_model, np.array([40.0]), 0.1, 5, seed=1)
    ok = worst_s <= 1e-4 and worst_n <= 1e-3
    _verdict(3, "adjoint gradient vs finite differences", ok,
             f"stokes worst={worst_s:.2e} (tol 1e-4), "
             f"navier-stokes worst={worst_n:.2e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# 4. dimension bookkeeping (13 N + n_inlets)


def _synthetic_reduced_dimension(model, n_max, n_snap, seed):
    """Full-rank random snapshots pushed through the actual reduction
    pipeline; the physical problem here is affine in its parameter and
    rank-limited, so bookkeeping is exercised on generic data instead."""
    rng = np.random.default_rng(seed)
    sizes = {"v": model.spaces.n_velocity, "p": model.spaces.n_pressure,
             "u": model.spaces.n_control, "w": model.spaces.n_velocity,
             "q": model.spaces.n_pressure}
    mats = {f: rng.standard_normal((sizes[f], n_snap)) for f in rom.FIELDS}
    constrained = np.setdiff1d(np.arange(model.spaces.n_velocity), model.free)
    for f in ("v", "w"):  # homogeneous velocity snapshots
        mats[f][constrained, :] = 0.0
    snaps = rom.SnapshotSet(mats, np.zeros((n_snap, len(model.inlet_tags))), [])
    with warnings.catch_warnings():
        # random snapshots have a flat spectrum, so the retained-energy
        # warning is expected; only the dimension bookkeeping matters here
        warnings.simplefilter("ignore", RankDeficiency)
        basis = rom.pod_compress(snaps, rom.inner_products_of(model), n_max)
        basis = rom.build_reduced_spaces(model, basis)
        ops = rom.project_operators(model, basis)
    return (oracles.reduced_dimension(basis, model.lifting.shape[1]),
            ops.dimension() + ops.n_lift)


@pytest.fixture(scope="module")
def coarse_graft_mesh():
    return generate_graft(graft_geometry(8.0, 1.0, 0.7, 35.0, 5.0,
                                         resolution=0.5))


def test_acceptance_4_dimension_bookkeeping(stokes_model, coarse_graft_mesh):
    dim1a, dim1b = _synthetic_reduced_dimension(stokes_model, 6, 12, 2)
    graft_model = FullOrderModel(
        coarse_graft_mesh,
        OcpConfig(equation="stokes",
                  domain={2: (0.0, 200.0), 3: (0.0, 200.0)}))
    dim2a, dim2b = _synthetic_reduced_dimension(graft_model, 10, 14, 3)
    ok = dim1a == dim1b == 79 and dim2a == dim2b == 132
    _verdict(4, "reduced dimension bookkeeping", ok,
             f"N=6, 1 inlet -> {dim1a}/{dim1b} (expect 79); "
             f"N=10, 2 inlets -> {dim2a}/{dim2b} (expect 132)")


# ---------------------------------------------------------------------------
# 5-7, 10. Stokes tube error-decay study


STUDY_INI = """\
[mesh]
kind = tube
length = 6.0
radius = 1.0
resolution = 0.45

[problem]
equation = stokes
viscosity = 3.6
v_const = 350.0
alpha = 1e-4
re_min = 70.0
re_max = 80.0

[training]
size = 50
sampling = grid

[test]
size = 20
seed = 11

[rom]
n_max = 10
sweep = 1 2 3 4 5 6 7 8 9 10
eps_tol = 1e-4

[output]
directory = {outdir}
"""


@pytest.fixture(scope="module")
def decay_study(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance-study")
    path = outdir / "study.ini"
    path.write_text(STUDY_INI.format(outdir=outdir))
    cfg = load_config(path)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # the affine Stokes snapshot set has numerical rank 2 < n_max = 10
        warnings.simplefilter("ignore", RankDeficiency)
        offline = run_offline(cfg)
        report = run_error_study(cfg, offline)
    model, snaps, basis, ops, _ = offline
    elapsed = time.perf_counter() - t0
    return cfg, model, snaps, basis, ops, report, elapsed


def test_acceptance_5_error_decay(decay_study):
    _, _, _, _, _, report, elapsed = decay_study
    first, last = report.rows[0], report.rows[-1]
    decay_t = first["E_T_rel"] / max(last["E_T_rel"], 1e-300)
    decay_j = first["E_J"] / max(last["E_J"], 1e-300)
    ok = (first["n"] == 1 and last["n"] == 10
          and decay_t >= 1e5 and decay_j >= 1e5 and elapsed <= 1800.0)
    _verdict(5, "error decay over basis size", ok,
             f"E_T_rel: {first['E_T_rel']:.2e} -> {last['E_T_rel']:.2e} "
             f"({decay_t:.1e}x); E_J: {first['E_J']:.2e} -> "
             f"{last['E_J']:.2e} ({decay_j:.1e}x); runtime={elapsed:.0f}s")


def test_acceptance_6_training_reproduction(decay_study):
    _, model, snaps, _, ops, _, _ = decay_study
    worst = 0.0
    for mu in snaps.parameters:
        full = model.solve_ocp(mu)
        red = rom.solve_reduced(ops, mu)
        rep = rom.compute_errors(full, red, model.operators)
        worst = max(worst, rep.e_total_rel)
    ok = worst <= 1e-7
    _verdict(6, "training-set reproduction", ok,
             f"worst E_T_rel over {len(snaps)} training parameters = "
             f"{worst:.2e} (tol 1e-7)")


def test_acceptance_7_supremizer_necessity(decay_study):
    cfg, model, snaps, basis, ops, _, _ = decay_study
    beta = rom.reduced_inf_sup(ops)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        plain = rom.pod_compress(snaps, rom.inner_products_of(model),
                                 basis.n_max)
        plain = rom.build_reduced_spaces(model, plain, enrich=False)
        ops_plain = rom.project_operators(model, plain)
    test = rom.training_random([(cfg.re_min, cfg.re_max)], 5, seed=21)
    ratios = []
    failed = False
    for mu in test.parameters:
        full = model.solve_ocp(mu)
        enriched_rep = rom.compute_errors(
            full, rom.solve_reduced(ops, mu), model.operators)
        try:
            plain_rep = rom.compute_errors(
                full, rom.solve_reduced(ops_plain, mu), model.operators)
        except Exception:
            failed = True
            break
        ratios.append(plain_rep.e_p / max(enriched_rep.e_p, 1e-300))
    degraded = failed or (ratios and min(ratios) >= 1e2)
    ok = beta >= 1e-6 and degraded
    detail = f"enriched inf-sup={beta:.3e}; "
    detail += ("plain solve failed" if failed
               else f"E_p degradation without enrichment: min "
                    f"{min(ratios):.1e}x over 5 parameters")
    _verdict(7, "supremizer necessity", ok, detail)


def test_acceptance_10_pod_properties(decay_study):
    cfg, model, _, basis, _, _, _ = decay_study
    # run_offline already ran the same invariant checks; assert them here
    # explicitly so the criterion is visible in the output.
    ok = True
    details = []
    for f in rom.FIELDS:
        lam = basis.eigenvalues[f]
        ok = ok and np.all(np.diff(lam) <= 1e-12 * max(lam[0], 1e-300))
        ok = ok and np.all(lam >= -1e-12 * max(lam[0], 1e-300))
        ok = ok and basis.energy[f] >= 1.0 - cfg.eps_tol
    prods = rom.inner_products_of(model)
    for name, y, w in (("velocity", basis.y_v, prods["v"]),
                       ("pressure", basis.y_p, prods["p"]),
                       ("control", basis.y_u, prods["u"])):
        err = np.abs(y.T @ (w @ y) - np.eye(y.shape[1])).max()
        ok = ok and err <= 1e-10
        details.append(f"{name} orth err {err:.1e}")
    _verdict(10, "POD invariants on study run", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. speedup study on a >= 5e4-dof mesh


SPEEDUP_INI = """\
[mesh]
kind = tube
length = 4.5
radius = 1.0
resolution = {resolution}

[problem]
equation = stokes
re_min = 70.0
re_max = 80.0

[training]
size = 6
sampling = grid

[test]
size = 2
seed = 5

[rom]
n_max = 2
sweep =

[output]
directory = {outdir}
"""


def _online_min_seconds(ops_by_label, mu, repeats=200):
    """Fastest reduced solve per model, timed alternately so that host
    slowdowns hit every model alike and the minimum filters them out."""
    best = dict.fromkeys(ops_by_label, np.inf)
    for _ in range(repeats):
        for label, ops in ops_by_label.items():
            t0 = time.perf_counter()
            rom.solve_reduced_coefficients(ops, mu)
            best[label] = min(best[label], time.perf_counter() - t0)
    return best


def test_acceptance_8_speedup(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("speedup")
    results, reduced = {}, {}
    for label, res in (("coarse", 0.4), ("fine", 0.25)):
        sub = outdir / label
        path = outdir / f"{label}.ini"
        path.write_text(SPEEDUP_INI.format(resolution=res, outdir=sub))
        cfg = load_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiency)
            model, _, _, ops, _ = run_offline(cfg)
            report = run_speedup_study(
                cfg, [np.array([72.0]), np.array([78.0])], model=model)
        reduced[label] = ops
        results[label] = {
            "dofs": model.spaces.total_dofs(),
            "full": float(np.median(report.timing["full_seconds"])),
            "speedup": report.timing["speedup_mean"],
        }
    online = _online_min_seconds(reduced, np.array([75.0]))
    fine, coarse = results["fine"], results["coarse"]
    online_ratio = max(online.values()) / min(online.values())
    full_ratio = fine["full"] / coarse["full"]
    ok = (fine["dofs"] >= 5e4 and fine["speedup"] >= 50.0
          and online_ratio <= 1.5 and full_ratio >= 3.0)
    _verdict(8, "online speedup and scaling", ok,
             f"dofs={fine['dofs']}, mean speedup={fine['speedup']:.0f}x "
             f"(>=50), online ratio across refinements={online_ratio:.2f} "
             f"(<=1.5), full ratio={full_ratio:.1f} (>=3)")


# ---------------------------------------------------------------------------
# 9. Navier-Stokes online consistency on the graft


def test_acceptance_9_ns_online_consistency(coarse_graft_mesh):
    model = FullOrderModel(
        coarse_graft_mesh,
        OcpConfig(equation="navier-stokes",
                  domain={2: (70.0, 80.0), 3: (70.0, 80.0)}))
    training = rom.training_grid([(70.0, 80.0), (70.0, 80.0)], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiency)
        _, basis, ops = rom.build_offline(model, training, n_max=6)
    rng = np.random.default_rng(0)
    failures = 0
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(70.0, 80.0, size=2)
        try:
            a, _, _ = rom.solve_reduced_coefficients(ops, mu)
            b, _, _ = oracles.reassembled_reduced_solve(ops, model, mu)
        except Exception:
            failures += 1
            continue
        for s in ops.blocks:
            x, y = a[s], b[s]
            worst = max(worst, np.abs(x - y).max()
                        / max(np.abs(x).max(), 1e-300))
    ok = basis.n_max == 6 and failures == 0 and worst <= 1e-8
    _verdict(9, "Navier-Stokes online consistency", ok,
             f"n={basis.n_max}, Newton failures={failures}/20, worst "
             f"tensor-vs-reassembly coefficient discrepancy={worst:.2e}")
