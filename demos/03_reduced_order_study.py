"""Offline/online reduced-order workflow, driven by a config file.

Writes a small study configuration, runs the offline phase (snapshots at
training Reynolds numbers, POD, supremizer enrichment, operator projection),
then evaluates the reduced model: error decay over the basis-size sweep and
online-vs-full wall-clock speedup.  The same workflow is available from the
command line:

    ocrom offline --config study.ini
    ocrom study errors --config study.ini --csv errors.csv
    ocrom study speedup --config study.ini --mu 75 --json speedup.json
    ocrom online --artifact out/rom.bin --mu 75

Run:  python3 demos/03_reduced_order_study.py
"""

import os
import tempfile

import numpy as np

from ocrom import rom
from ocrom.study import (
    ARTIFACT_NAME,
    load_config,
    run_error_study,
    run_offline,
    run_speedup_study,
)

CONFIG = """\
[mesh]
kind = tube
length = 5.0
radius = 1.0
resolution = 0.5

[problem]
equation = stokes
re_min = 70.0
re_max = 80.0
alpha = 1e-4

[training]
size = 20
sampling = grid

[test]
size = 5
seed = 3

[rom]
# the Stokes problem depends affinely on the single inlet Reynolds number,
# so two modes per field already reproduce the whole solution manifold
n_max = 2
sweep = 1 2

[output]
directory = {outdir}
"""


def main():
    with tempfile.TemporaryDirectory() as outdir:
        path = os.path.join(outdir, "study.ini")
        with open(path, "w") as fh:
            fh.write(CONFIG.format(outdir=outdir))
        config = load_config(path)

        print("offline phase: snapshots, POD, supremizers ...")
        offline = run_offline(config)
        model, snapshots, basis, ops, seconds = offline
        print(f"  {len(snapshots)} training snapshots from {snapshots.solves} "
              "full-order solves (Stokes is affine in Re)")
        print(f"  done in {seconds:.1f}s; retained {basis.n_max} modes per "
              f"field -> {ops.dimension() + ops.n_lift} reduced dofs "
              f"(full order: {model.spaces.total_dofs()})")
        print(f"  reduced inf-sup constant: {rom.reduced_inf_sup(ops):.3e}")

        print("\nerror decay over the basis-size sweep "
              "(mean over 5 random test parameters):")
        report = run_error_study(config, offline)
        print(f"  {'n':>3} {'E_T_rel':>12} {'E_J':>12}")
        for row in report.rows:
            print(f"  {row['n']:3d} {row['E_T_rel']:12.3e} "
                  f"{row['E_J']:12.3e}")

        print("\nonline vs full-order wall clock (2 parameter values):")
        timing = run_speedup_study(
            config, [np.array([72.0]), np.array([78.0])], model=model).timing
        print(f"  full solve   : {np.mean(timing['full_seconds']):8.3f} s")
        print(f"  online solve : {np.mean(timing['online_seconds']):8.5f} s")
        print(f"  mean speedup : {timing['speedup_mean']:8.1f}x")

        artifact = os.path.join(outdir, ARTIFACT_NAME)
        loaded = rom.load_artifact(artifact)
        sol = rom.solve_reduced(loaded, np.array([75.0]))
        print(f"\nreloaded artifact {ARTIFACT_NAME}; online solve at Re=75: "
              f"J = {sol.objective:.6e}")


if __name__ == "__main__":
    main()
