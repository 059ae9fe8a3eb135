"""Command-line interface.

Verbs::

    ocrom mesh gen --config FILE --output MESH
    ocrom mesh check MESH
    ocrom solve --config FILE --mu RE [RE2 ...] [--output NPZ]
    ocrom offline --config FILE
    ocrom online --artifact FILE --mu RE [RE2 ...]
    ocrom study errors --config FILE [--csv OUT] [--json OUT]
    ocrom study speedup --config FILE --mu RE [RE ...] [--json OUT]
    ocrom export --json REPORT --csv OUT

Exit codes: 0 success, 2 input at fault (config, mesh, artifact or
parameter), 3 solver failure, 4 I/O error; each ``OcromError`` class
carries its code.
"""

import argparse
import json
import sys

import numpy as np

from . import rom, study
from .errors import IoError, OcromError, ParseError
from .mesh import load_mesh, save_mesh

_LABELS = {2: "error", 3: "solver error", 4: "i/o error"}  # by exit code


def parameter_vector(text):
    """A comma-separated parameter vector such as ``75,72``."""
    return np.array([float(x) for x in text.split(",")])


def _parser():
    p = argparse.ArgumentParser(prog="ocrom",
                                description="Optimal flow control with "
                                            "POD-Galerkin model reduction")
    sub = p.add_subparsers(dest="verb", required=True)

    mesh = sub.add_parser("mesh", help="mesh generation and validation")
    msub = mesh.add_subparsers(dest="action", required=True)
    mg = msub.add_parser("gen", help="generate a mesh from a config file")
    mg.add_argument("--config", required=True)
    mg.add_argument("--output", required=True)
    mc = msub.add_parser("check", help="validate a mesh file")
    mc.add_argument("path")

    sv = sub.add_parser("solve", help="full-order optimal control solve")
    sv.add_argument("--config", required=True)
    sv.add_argument("--mu", required=True, nargs="+", type=float)
    sv.add_argument("--output", help="write a JSON solve summary")
    sv.add_argument("--dump", help="write solution vectors to an .npz file")

    off = sub.add_parser("offline", help="snapshots, POD, projection, artifact")
    off.add_argument("--config", required=True)

    onl = sub.add_parser("online", help="reduced solve from an offline artifact")
    onl.add_argument("--artifact", required=True)
    onl.add_argument("--mu", required=True, nargs="+", type=float)

    st = sub.add_parser("study", help="error-decay or speedup studies")
    ssub = st.add_subparsers(dest="kind", required=True)
    se = ssub.add_parser("errors")
    se.add_argument("--config", required=True)
    se.add_argument("--csv")
    se.add_argument("--json")
    sp = ssub.add_parser("speedup")
    sp.add_argument("--config", required=True)
    sp.add_argument("--mu", required=True, nargs="+", type=parameter_vector,
                    help="parameter values; comma-separated for multiple inlets")
    sp.add_argument("--json")

    ex = sub.add_parser("export", help="re-export a saved JSON report as CSV")
    ex.add_argument("--json", required=True)
    ex.add_argument("--csv", required=True)
    return p


def _cmd_mesh(args):
    if args.action == "gen":
        cfg = study.load_config(args.config)
        mesh = study.build_mesh(cfg.mesh)
        save_mesh(mesh, args.output)
        print(f"wrote {args.output}: {mesh.nodes.shape[0]} nodes, "
              f"{mesh.tets.shape[0]} tets, tags "
              f"{sorted(int(t) for t in set(mesh.boundary_tags))}")
    else:
        mesh = load_mesh(args.path)
        print(f"{args.path}: OK ({mesh.nodes.shape[0]} nodes, "
              f"{mesh.tets.shape[0]} tets, volume {mesh.volume():.6g})")
    return 0


def _cmd_solve(args):
    cfg = study.load_config(args.config)
    model = study.build_model(cfg)
    sol = model.solve_ocp(np.array(args.mu))
    summary = {
        "mu": list(sol.mu),
        "objective": sol.objective,
        "kkt_residual": sol.kkt_residual,
        "newton_iterations": sol.newton_iterations,
    }
    print(json.dumps(summary))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(summary, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise IoError(f"cannot write {args.output}: {exc}") from exc
    if args.dump:
        np.savez(args.dump, v=sol.v, p=sol.p, u=sol.u, w=sol.w, q=sol.q,
                 mu=sol.mu, objective=sol.objective)
    return 0


def _cmd_offline(args):
    cfg = study.load_config(args.config)
    model, snapshots, basis, ops, seconds = study.run_offline(cfg)
    print(f"offline done in {seconds:.2f}s: {len(snapshots)} snapshots from "
          f"{snapshots.solves} full-order solves, "
          f"{len(snapshots.failures)} failures, n_max={basis.n_max}, "
          f"reduced dimension {ops.dimension() + ops.n_lift}")
    return 0


def _cmd_online(args):
    ops = rom.load_artifact(args.artifact)
    sol = rom.solve_reduced(ops, np.array(args.mu))
    print(f"mu={args.mu} J={sol.objective:.10e} "
          f"newton_iterations={sol.newton_iterations}")
    return 0


def _cmd_study(args):
    cfg = study.load_config(args.config)
    if args.kind == "errors":
        report = study.run_error_study(cfg, study.run_offline(cfg))
        for row in report.rows:
            print(f"n={row['n']:3d}  E_T_rel={row['E_T_rel']:.6e}  "
                  f"E_J={row['E_J']:.6e}")
        if args.csv:
            study.export(report, "csv", args.csv)
        if args.json:
            study.export(report, "json", args.json)
    else:
        report = study.run_speedup_study(cfg, args.mu)
        t = report.timing
        print(f"speedup mean={t['speedup_mean']:.1f} max={t['speedup_max']:.1f} "
              f"objective mean={t['objective_speedup_mean']:.1f}")
        if args.json:
            study.export(report, "json", args.json)
    return 0


def _cmd_export(args):
    try:
        with open(args.json) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {args.json}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ParseError(f"{args.json}: {exc}") from exc
    try:
        study.export(study.StudyReport(**data), "csv", args.csv)
    except (TypeError, KeyError, ValueError) as exc:  # not a study report's layout
        raise ParseError(f"{args.json}: malformed study report: {exc!r}") from exc
    print(f"wrote {args.csv}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "mesh": _cmd_mesh,
        "solve": _cmd_solve,
        "offline": _cmd_offline,
        "online": _cmd_online,
        "study": _cmd_study,
        "export": _cmd_export,
    }
    try:
        return handlers[args.verb](args)
    except (OcromError, OSError) as exc:
        code = getattr(exc, "exit_code", IoError.exit_code)
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
