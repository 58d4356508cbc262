"""The quick demos run end to end against the library in ``src/``.

Demo 02 drives both finite-horizon routes and ``auto_cost_stats`` through the
public API.  Demos 04 and 05 run Monte Carlo studies of several seconds each
and are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_cost_statistics_basics.py",
                                  "02_two_routes_to_the_same_answer.py",
                                  "03_lqg_synthesis.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
