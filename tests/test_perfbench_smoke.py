"""The benchmark's tune-plant workload runs end to end and passes its own checks.

Its checks compare the tuned gain's mean and variance with SciPy's Lyapunov
and Riccati solvers and test that the gain stabilises the shifted loop, all
without importing the library's own solvers.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_tune_plant_workload_passes_its_checks():
    done = subprocess.run([sys.executable, str(RUN), "--workload", "tune-plant",
                           "--seconds", "0.1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
