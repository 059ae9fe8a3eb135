"""Study orchestration: configuration files, error-decay and speedup runs,
and CSV/JSON persistence of the results.

Configuration files are flat ``key = value`` text with ``[section]`` headers
(INI syntax).  Sections: ``[mesh]``, ``[problem]``, ``[training]``,
``[test]``, ``[rom]``, ``[output]``; see the repository README for the full
key list.
"""

import configparser
import json
import os
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import rom
from .errors import ConfigError, IoError, MissingArtifact, SingularMatrix
from .mesh import GeometrySpec, generate_graft, generate_tube, load_mesh
from .optctrl import FullOrderModel, OcpConfig

CSV_HEADER = "n,E_v,E_p,E_u,E_w,E_q,E_T,E_T_rel,E_J"

ARTIFACT_NAME = "rom.bin"


@dataclass
class StudyConfig:
    """Parsed study configuration."""

    mesh: dict
    equation: str
    viscosity: float
    v_const: float
    alpha: float
    re_min: float
    re_max: float
    training_size: int
    training_sampling: str
    training_seed: int
    test_size: int
    test_seed: int
    n_max: int
    sweep: list
    eps_tol: float
    supremizers: bool
    output_dir: str

    def __post_init__(self):
        if self.re_min > self.re_max:
            raise ConfigError("re_min exceeds re_max")
        if any(n > self.training_size for n in self.sweep):
            raise ConfigError("sweep values must not exceed the training size")
        if self.n_max > self.training_size:
            raise ConfigError("n_max must not exceed the training size")
        if min([self.training_size, self.test_size, self.n_max, *self.sweep]) < 1:
            raise ConfigError("sizes, n_max and sweep values must be positive")


def _get(parser, section, key, cast, default=None):
    try:
        if default is not None and not parser.has_option(section, key):
            return default
        if cast is bool:
            return parser.getboolean(section, key)
        return cast(parser.get(section, key))
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path):
    """Read a study configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not parser.has_section("mesh"):
        raise ConfigError(f"{path}: missing [mesh] section")
    return StudyConfig(
        mesh=dict(parser.items("mesh")),
        equation=_get(parser, "problem", "equation", str, default=OcpConfig.equation),
        viscosity=_get(parser, "problem", "viscosity", float, default=OcpConfig.viscosity),
        v_const=_get(parser, "problem", "v_const", float, default=OcpConfig.v_const),
        alpha=_get(parser, "problem", "alpha", float, default=OcpConfig.alpha),
        re_min=_get(parser, "problem", "re_min", float),
        re_max=_get(parser, "problem", "re_max", float),
        training_size=_get(parser, "training", "size", int, default=50),
        training_sampling=_get(parser, "training", "sampling", str, default="grid"),
        training_seed=_get(parser, "training", "seed", int, default=0),
        test_size=_get(parser, "test", "size", int, default=20),
        test_seed=_get(parser, "test", "seed", int, default=1),
        n_max=_get(parser, "rom", "n_max", int, default=6),
        sweep=_get(parser, "rom", "sweep",
                   lambda raw: [int(n) for n in raw.replace(",", " ").split()], default=[]),
        eps_tol=_get(parser, "rom", "eps_tol", float, default=1e-4),
        supremizers=_get(parser, "rom", "supremizers", bool, default=True),
        output_dir=_get(parser, "output", "directory", str, default="."),
    )


def graft_geometry(host_length, host_radius, graft_radius, angle_deg, attach, resolution=0.4):
    """Host tube along z plus a graft 0.6 times as long meeting its axis at ``attach``."""
    host = (
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, host_length]]),
        np.array([host_radius, host_radius]),
    )
    ang = np.deg2rad(angle_deg)
    direction = np.array([np.sin(ang), 0.0, np.cos(ang)])
    end = np.array([0.0, 0.0, attach])
    start = end - 0.6 * host_length * direction
    graft = (np.array([start, end]), np.array([graft_radius, graft_radius]))
    return GeometrySpec(branches=(host, graft), resolution=resolution)


def build_mesh(mesh_cfg):
    """Generate or load the mesh described by a ``[mesh]`` config section."""
    kind = mesh_cfg.get("kind", "tube")
    try:
        if kind == "tube":
            length = float(mesh_cfg.get("length", 6.0))
            radius = float(mesh_cfg.get("radius", 1.0))
            res = float(mesh_cfg.get("resolution", 0.4))
            pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, length]])
            return generate_tube(
                GeometrySpec(branches=((pts, np.array([radius, radius])),),
                             resolution=res)
            )
        if kind == "graft":
            spec = graft_geometry(
                host_length=float(mesh_cfg.get("host_length", 8.0)),
                host_radius=float(mesh_cfg.get("host_radius", 1.0)),
                graft_radius=float(mesh_cfg.get("graft_radius", 0.7)),
                angle_deg=float(mesh_cfg.get("angle_deg", 35.0)),
                attach=float(mesh_cfg.get("attach", 5.0)),
                resolution=float(mesh_cfg.get("resolution", 0.4)),
            )
            return generate_graft(spec)
        if kind == "file":
            return load_mesh(mesh_cfg["path"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[mesh]: {exc}") from exc
    raise ConfigError(f"[mesh] kind must be tube|graft|file, got {kind!r}")


def build_model(config, mesh=None):
    if mesh is None:
        mesh = build_mesh(config.mesh)
    domain = {tag: (config.re_min, config.re_max) for tag in mesh.inlet_tags()}
    ocp = OcpConfig(
        equation=config.equation,
        viscosity=config.viscosity,
        v_const=config.v_const,
        alpha=config.alpha,
        domain=domain,
    )
    return FullOrderModel(mesh, ocp)


def training_set_of(config, n_parameters):
    bounds = [(config.re_min, config.re_max)] * n_parameters
    if config.training_sampling == "grid":
        if n_parameters == 1:
            return rom.training_grid(bounds, config.training_size)
        size = max(2, int(round(config.training_size ** (1.0 / n_parameters))))
        return rom.training_grid(bounds, size)
    if config.training_sampling == "random":
        return rom.training_random(bounds, config.training_size, config.training_seed)
    raise ConfigError(f"training sampling must be grid|random, got "
                      f"{config.training_sampling!r}")


def test_set_of(config, n_parameters):
    bounds = [(config.re_min, config.re_max)] * n_parameters
    return rom.training_random(bounds, config.test_size, config.test_seed)


@dataclass
class StudyReport:
    """Error and timing results of one study run."""

    rows: list = field(default_factory=list)  # per-n dicts of mean errors
    rows_max: list = field(default_factory=list)  # per-n dicts of max errors
    eigenvalues: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)


def _environment(config):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "training_seed": config.training_seed,
        "test_seed": config.test_seed,
    }


def run_offline(config):
    """Offline phase at the largest requested basis size; writes the artifact.

    A reduced model that could answer no query (``unsolvable``, as without
    supremizers) raises ``SingularMatrix`` and writes nothing.
    """
    model = build_model(config)
    n_top = max([config.n_max, *config.sweep])
    training = training_set_of(config, len(model.inlet_tags))
    t0 = time.perf_counter()
    snapshots, basis, ops = rom.build_offline(
        model, training, n_top, eps_tol=config.eps_tol, enrich=config.supremizers
    )
    offline_seconds = time.perf_counter() - t0
    rom.check_pod_invariants(model, basis)
    if ops.unsolvable is not None:
        raise SingularMatrix(ops.unsolvable)
    os.makedirs(config.output_dir, exist_ok=True)
    rom.save_artifact(os.path.join(config.output_dir, ARTIFACT_NAME), ops)
    return model, snapshots, basis, ops, offline_seconds


def run_error_study(config, offline):
    """Error decay over the basis-size sweep, averaged over a random test set.

    ``offline`` is what ``run_offline`` returned; every swept size is a
    slice of its one projected model.
    """
    model, _, basis, ops_top, offline_seconds = offline
    test = test_set_of(config, len(model.inlet_tags))
    full_solutions = [model.solve_ocp(mu) for mu in test.parameters]
    report = StudyReport(
        eigenvalues={f: basis.eigenvalues[f].tolist() for f in rom.FIELDS},
        timing={"offline_seconds": offline_seconds},
        environment=_environment(config),
    )
    keys = ("E_v", "E_p", "E_u", "E_w", "E_q", "E_T", "E_T_rel", "E_J")
    for n in config.sweep or [basis.n_max]:
        ops = rom.slice_operators(ops_top, basis, min(n, basis.n_max))
        errs = []
        for mu, full in zip(test.parameters, full_solutions):
            red = rom.solve_reduced(ops, mu)
            e = rom.compute_errors(full, red, model.operators)
            errs.append((e.e_v, e.e_p, e.e_u, e.e_w, e.e_q,
                         e.e_total, e.e_total_rel, e.e_objective))
        arr = np.array(errs)
        report.rows.append({"n": n, **dict(zip(keys, arr.mean(axis=0)))})
        report.rows_max.append({"n": n, **dict(zip(keys, arr.max(axis=0)))})
    return report


def run_speedup_study(config, mu_list, model=None):
    """Wall-clock comparison of full-order and reduced online solves.

    Each full solve is the first one of a model built for it outside the
    timed interval.  The model's one factorization, of the state block, is
    paid at construction, so the timing covers the Stokes elimination's
    set-up (a block solve and a small dense LU), the solve itself and, for
    Navier-Stokes, Newton's factorizations.  Online timing covers the
    reduced solve and the lift of its coefficients to full-order fields,
    objective timing the reduced solve alone.
    Requires the offline artifact produced by ``run_offline``.
    """
    mu_list = [np.atleast_1d(np.asarray(m, dtype=float)) for m in mu_list]
    if not mu_list:
        raise ConfigError("speedup study needs at least one parameter value")
    artifact = os.path.join(config.output_dir, ARTIFACT_NAME)
    if not os.path.exists(artifact):
        raise MissingArtifact(f"offline artifact {artifact} not found; "
                              "run the offline phase first")
    ops = rom.load_artifact(artifact)
    if model is None:
        model = build_model(config)
    full_times, online_times, coeff_times = [], [], []
    for mu in mu_list:
        cold = FullOrderModel(model.mesh, model.config)
        t0 = time.perf_counter()
        cold.solve_ocp(mu)
        full_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        rom.solve_reduced_coefficients(ops, mu)
        coeff_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        rom.solve_reduced(ops, mu)
        online_times.append(time.perf_counter() - t0)
    full_times = np.array(full_times)
    online_times = np.array(online_times)
    coeff_times = np.array(coeff_times)
    speedups = full_times / online_times
    j_speedups = full_times / coeff_times
    report = StudyReport(environment=_environment(config))
    report.timing = {
        "full_seconds": full_times.tolist(),
        "online_seconds": online_times.tolist(),
        "objective_seconds": coeff_times.tolist(),
        "speedup_mean": float(speedups.mean()),
        "speedup_max": float(speedups.max()),
        "objective_speedup_mean": float(j_speedups.mean()),
        "objective_speedup_max": float(j_speedups.max()),
    }
    return report


def export(report, fmt, path):
    """Persist a report: ``csv`` (error rows) or ``json`` (everything)."""
    try:
        if fmt == "csv":
            lines = [CSV_HEADER]
            for row in report.rows:
                lines.append(
                    "%d,%s" % (
                        row["n"],
                        ",".join("%.17g" % row[k] for k in CSV_HEADER.split(",")[1:]),
                    )
                )
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump(asdict(report), fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            raise ConfigError(f"unknown export format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
