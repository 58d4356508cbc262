"""Each of the benchmark's workloads runs end to end and passes its own checks.

Their checks compare the library's results with SciPy's Lyapunov and
Riccati solvers (the routes and the tuned gain) and the simulated moments
with SciPy's reference values, all without importing the library's own
solvers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["routes", "tune-plant", "sim-threshold"])
def test_workload_passes_its_checks(workload):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seconds", "0.1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
