"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload ns-graft-online --seed 1 --seconds 8 --trace 0

The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run record (``{"record": ...}``):
seed, software, machine, workload sizes, failures and counts.  The traced
run also writes its spans to ``.perfbench/traces/``.  Everything the run
writes stays under ``.perfbench/`` in the repository root.  A run that
raises still prints both lines, with ``correct`` false and no metrics, and
exits with code 1.

The library is imported from ``src/`` next to this directory; without it
the run stops with exit code 2 before measuring anything.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ns-graft-online", "ns-graft-offline", "stokes-tube")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_library():
    """Put the repository's own ``src`` first on the path and check that
    ``ocrom`` is imported from there, not from an installed copy."""
    src = ROOT / "src"
    if not (src / "ocrom" / "__init__.py").is_file():
        raise ImportError(f"no ocrom package under {src}")
    sys.path.insert(0, str(src))
    import ocrom

    if Path(ocrom.__file__).resolve().parent != src / "ocrom":
        raise ImportError(f"ocrom imported from {ocrom.__file__}, not {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def measure(spec, name, seed, seconds, trace):
    """Run ``spec`` once; returns ``(record, result)`` as printed.  A run that
    raises still returns both, with the error counted as a failure, the
    traceback in the record and no metrics."""
    import runrecord
    import workloads

    bench = load_spec()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    started = time.time()
    run = workloads.Run(spec, seed, bool(trace), workdir)
    error = None
    try:
        e2e, e2e_wall, layer, sizes, counts = run.execute(seconds)
    except Exception as exc:
        run.gate.fail("run", exc)
        error = traceback.format_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    g = run.gate
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_at": started,
        "environment": runrecord.environment(),
        "heldout_e_t_rel": run.heldout_errors,
        "failed_ratio": g.failed / g.attempted,
        "failures": [f"{what}: {why}" for what, why in g.failures],
    }
    result = {"correct": g.failed == 0, "attempted": g.attempted, "failed": g.failed}
    if error is not None:
        record["traceback"] = error
        result["metrics"] = {}
        return record, result
    record.update(sizes=sizes, counts=counts, wall_clock=e2e_wall)
    if trace:
        record["estimated"] = run.estimated
        record["traced_end_to_end"] = e2e
        traces = OUT / "traces"
        traces.mkdir(exist_ok=True)
        trace_path = traces / f"{name}-seed{seed}.json"
        run.tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    values = layer if trace else e2e
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    return record, result


def main(argv=None):
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    record, result = measure(workloads.WORKLOADS[args.workload], args.workload,
                             args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 1 if "traceback" in record else 0


if __name__ == "__main__":
    sys.exit(main())
