"""Poiseuille flow in a straight tube: solver verification.

Generates a cylindrical tube mesh, solves the Stokes equations with a
parabolic inlet profile, a no-slip wall and a do-nothing outlet, and compares
the discrete velocity against the analytic parabolic solution.  The error is
dominated by the polygonal approximation of the circular wall, so it shrinks
as the mesh is refined.

Run:  python3 demos/01_poiseuille_tube.py
"""

import numpy as np
import scipy.sparse as sp

from ocrom import numerics
from ocrom.fem import assemble_operators, build_spaces
from ocrom.mesh import GeometrySpec, generate_tube
from ocrom.optctrl import build_inflow

VISCOSITY = 3.6  # mm^2/s
REYNOLDS = 80.0


def solve_poiseuille(resolution):
    axis = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]])
    spec = GeometrySpec(branches=((axis, np.array([1.0, 1.0])),),
                        resolution=resolution)
    mesh = generate_tube(spec)
    spaces = build_spaces(mesh)
    ops = assemble_operators(spaces, VISCOSITY)

    # exact solution: v_z = nu * Re * (1 - r^2), interpolated at the dofs
    coords = spaces.entity_coords
    r2 = coords[:, 0] ** 2 + coords[:, 1] ** 2
    exact = np.zeros(spaces.n_velocity)
    exact[2::3] = VISCOSITY * REYNOLDS * np.maximum(1.0 - r2, 0.0)

    # Dirichlet data: parabolic inflow on the inlet (tag 2), no-slip wall
    g = build_inflow(mesh, spaces, 2, REYNOLDS, VISCOSITY)
    f = spaces.free_velocity
    B_f = ops.B[:, f]
    K = sp.bmat([[ops.A[f][:, f], B_f.T], [B_f, None]], format="csc")
    rhs = np.concatenate([-(ops.A @ g)[f], -(ops.B @ g)])
    sol = numerics.factorize(K).solve(rhs)
    v = g.copy()
    v[f] += sol[: f.shape[0]]

    d = v - exact
    err = np.sqrt((d @ (ops.M @ d)) / (exact @ (ops.M @ exact)))
    return mesh, spaces, err


def main():
    print(f"Poiseuille verification  (viscosity {VISCOSITY}, Re {REYNOLDS})")
    print(f"{'h':>8} {'vertices':>9} {'velocity dofs':>14} {'L2 rel error':>13}")
    prev = None
    for resolution in (0.40, 0.25, 1.0 / 6.0):
        mesh, spaces, err = solve_poiseuille(resolution)
        note = "" if prev is None else f"  ({prev / err:.2f}x smaller)"
        print(f"{resolution:8.3f} {mesh.nodes.shape[0]:9d} "
              f"{spaces.n_velocity:14d} {err:13.3e}{note}")
        prev = err


if __name__ == "__main__":
    main()
