"""The demos run to completion and print their final result line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, last_line", [
    ("02_optimal_control.py",
     "alpha = 1e+06 tracking = 144.4 effort = 1.014e-07"),
    ("03_reduced_order_study.py",
     "reloaded artifact rom.bin; online solve at Re=75: J = 1.491336e+04"),
])
def test_demo_runs(demo, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    assert " ".join(run.stdout.splitlines()[-1].split()) == last_line
