"""Smoke self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Runs a tiny Navier-Stokes workload (reduced model built in set-up) and a
tiny Stokes workload (timed offline build) in both trace modes and checks
that each prints exactly the metrics BENCHMARK.json names, with their
units.  Then checks that the correctness gate trips: on a wrong full-order
reference, a wrong KKT residual, a corrupted artifact, and through a whole
run whose held-out tolerance cannot be met and through a whole run whose
reduced solves all fail.  Exit code 0 when all pass.
"""

import dataclasses
import json
import math
import sys
import warnings

import run

TINY_NS = """\
[mesh]
kind = graft
host_length = 2.5
attach = 1.6
resolution = 0.68
[problem]
equation = navier-stokes
re_min = 20.0
re_max = 30.0
[training]
size = 4
[rom]
n_max = 2
"""

TINY_STOKES = """\
[mesh]
kind = tube
length = 2.0
resolution = 0.5
[problem]
equation = stokes
re_min = 70.0
re_max = 80.0
[training]
size = 3
[rom]
n_max = 2
"""

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_output(name, trace, record, result, bench):
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name} trace {trace}: result has exactly the four keys")
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{name} trace {trace}: every named metric, no other")
    expect(all(got[k]["unit"] == u for k, u in wanted.items() if k in got),
           f"{name} trace {trace}: every metric carries its unit")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in got.values()), f"{name} trace {trace}: values are finite numbers")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace {trace}: correct, {result['failed']}/{result['attempted']} failed")
    json.dumps(record)  # the record must serialise


def gate_trips(stokes_ini):
    """The gate's checks reject deliberately wrong inputs."""
    import gate
    from ocrom import rom, study

    cfg = study.load_config(stokes_ini)
    model = study.build_model(cfg)
    training = study.training_set_of(cfg, 1)
    _, _, ops = rom.build_offline(model, training, cfg.n_max)
    path = run.OUT / "selftest" / "rom.bin"
    rom.save_artifact(path, ops)
    loaded = rom.load_artifact(path)
    # compared before any query fills the lazily derived fields
    expect(gate.artifact_identical(ops, loaded)[0], "artifact check passes on a round trip")
    loaded.a[0, 0] = math.nextafter(loaded.a[0, 0], math.inf)
    expect(not gate.artifact_identical(ops, loaded)[0],
           "artifact check trips on a one-ulp change")
    mu = [75.0]
    full = model.solve_ocp(mu)
    reduced = rom.solve_reduced(ops, mu)
    err = rom.compute_errors(full, reduced, model.operators).e_total_rel
    expect(gate.heldout_ok(err, 1e-6)[0], "held-out check passes on the true reference")
    wrong = dataclasses.replace(full, v=1.5 * full.v)
    err = rom.compute_errors(wrong, reduced, model.operators).e_total_rel
    expect(not gate.heldout_ok(err, 1e-6)[0], "held-out check trips on a wrong reference")
    expect(gate.full_order_ok(full)[0], "KKT check passes on a converged solve")
    expect(not gate.full_order_ok(dataclasses.replace(full, kkt_residual=1e-3))[0],
           "KKT check trips on a large residual")
    g = gate.Gate()
    g.check("x", (True, ""))
    g.check("y", (False, "wrong"))
    expect((g.attempted, g.failed) == (2, 1), "gate counts every check and every failure")


def failing_queries(spec):
    """A reduced solve that always raises ends the run on time with every
    attempt counted and correct=false."""
    import numpy as np
    import workloads

    def broken(ops, mu):
        raise np.linalg.LinAlgError("Singular matrix")

    solve = workloads.rom.solve_reduced
    workloads.rom.solve_reduced = broken
    try:
        record, result = run.measure(spec, "tiny-stokes", 1, 1, 0)
    finally:
        workloads.rom.solve_reduced = solve
    expect(not result["correct"] and result["failed"] > workloads.MIN_QUERIES
           and result["metrics"] == {} and "traceback" in record,
           f"a run whose queries all fail ends with correct=false "
           f"({result['failed']}/{result['attempted']} failed)")


def main():
    run.import_library()
    import workloads
    from ocrom.errors import RankDeficiency

    warnings.simplefilter("ignore", RankDeficiency)  # tiny bases are rank-limited

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = {w["name"] for w in bench["workloads"]}
    expect(names <= set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES),
           "every workload in BENCHMARK.json is defined and runnable")
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    ns_ini, stokes_ini = tmp / "tiny-ns.ini", tmp / "tiny-stokes.ini"
    ns_ini.write_text(TINY_NS)
    stokes_ini.write_text(TINY_STOKES)
    tiny = {
        "tiny-ns": workloads.Workload(ns_ini, True, 1, 0.5),
        "tiny-stokes": workloads.Workload(stokes_ini, False, 1, 1e-6),
    }
    for name, spec in tiny.items():
        for trace in (0, 1):
            record, result = run.measure(spec, name, 1, 1, trace)
            check_output(name, trace, record, result, bench)
    gate_trips(stokes_ini)
    impossible = dataclasses.replace(tiny["tiny-stokes"], e_t_rel_tol=-1.0)
    _, result = run.measure(impossible, "tiny-stokes", 1, 1, 0)
    expect(not result["correct"] and result["failed"] == impossible.heldout,
           "a run whose held-out tolerance cannot be met reports correct=false")
    failing_queries(tiny["tiny-stokes"])
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
