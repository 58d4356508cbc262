"""The quick demos run end to end against the library in ``src/``.

Demo 02 drives both finite-horizon routes and ``auto_cost_stats`` through the
public API.  Demo 05 reads the threshold study's report keys, so it runs too
(several seconds).  Demo 04 runs a Monte Carlo study of several seconds and
is not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_cost_statistics_basics.py",
                                  "02_two_routes_to_the_same_answer.py",
                                  "03_lqg_synthesis.py",
                                  "05_threshold_risk_study.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
