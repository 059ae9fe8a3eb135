import os
import sys
from pathlib import Path

# One BLAS thread: on a small host OpenBLAS's default thread count makes
# small dense LAPACK calls orders of magnitude slower whenever another
# process holds a core, so test timings would follow the host's load.  It
# must be set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ocrom.fem import assemble_operators, build_spaces
from ocrom.mesh import GeometrySpec, generate_tube
from ocrom.optctrl import FullOrderModel, OcpConfig

# verdict lines collected by tests/test_acceptance.py, echoed after the run
# (output captured during passing tests is otherwise discarded)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def straight_tube(length=6.0, radius=1.0, resolution=0.5):
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, length]])
    return generate_tube(
        GeometrySpec(branches=((pts, np.array([radius, radius])),),
                     resolution=resolution)
    )


@pytest.fixture(scope="session")
def tube_mesh():
    return straight_tube()


@pytest.fixture(scope="session")
def tube_spaces(tube_mesh):
    return build_spaces(tube_mesh)


@pytest.fixture(scope="session")
def tube_operators(tube_spaces):
    return assemble_operators(tube_spaces, 3.6)


@pytest.fixture(scope="session")
def stokes_model(tube_mesh):
    cfg = OcpConfig(equation="stokes", domain={2: (0.0, 200.0)})
    return FullOrderModel(tube_mesh, cfg)


@pytest.fixture(scope="session")
def ns_model(tube_mesh):
    cfg = OcpConfig(equation="navier-stokes", domain={2: (0.0, 200.0)})
    return FullOrderModel(tube_mesh, cfg)
