"""The public surface: each module's ``__all__`` declares its own public names,
no two modules declare one name, and the package re-exports exactly their
union, each name the same object as in its module."""

import collections
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lqgcost

#: The command line and its runner are entry points, not library modules.
ENTRY_POINTS = ("cli", "__main__")

#: Names the package has exported, which must stay.
PUBLIC = {
    "AccuracyError", "BlockExpResult", "ConditionCheck", "ConditionError", "CostSpec",
    "CostStats", "DimensionError", "DriftFactor", "EmpiricalCostStats", "GainPair",
    "INFINITE_HORIZON", "InfeasibleGainError", "JointGaussian", "LqgCostError", "LqgPlant",
    "LtiSystem", "ModelDocument", "ModelFormatError", "NumericalError", "SimConfig",
    "SingularLyapunovError", "SpectrumReport", "SynthesisError", "TuneOptions", "TuneResult",
    "auto_cost_stats", "benchmark_plant", "block_exponential", "build_block_matrix",
    "classify_spectrum", "close_loop_full_state", "close_loop_output_feedback",
    "cost_stats_expm", "cost_stats_lyapunov", "cross_moment", "default_assumption",
    "evaluate_gain", "expected_cost_finite", "expected_cost_infinite",
    "finite_difference_gradient", "joint_quartic_expectation", "kalman_gain", "load_model",
    "mat_exp", "mean_state", "minimize_variance", "noise_gramian_finite", "objective_value",
    "optimal_gain", "psd_factor", "quartic_expectation", "save_plant_model",
    "save_system_model", "second_moment", "simulate_costs", "simulation_report",
    "solve_lyapunov", "solve_lyapunov_transposed", "solve_riccati", "synthesize_gains",
    "threshold_study", "van_loan_integral", "variance_cost_finite", "variance_cost_infinite",
}


def _modules():
    return [importlib.import_module(f"lqgcost.{info.name}")
            for info in pkgutil.iter_modules(lqgcost.__path__)
            if info.name not in ENTRY_POINTS]


def test_each_module_declares_what_it_defines():
    for module in _modules():
        assert hasattr(module, "__all__"), module.__name__
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_no_name_declared_twice():
    counts = collections.Counter(name for module in _modules() for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_package_exports_the_union():
    declared = {name: module for module in _modules() for name in module.__all__}
    assert lqgcost.__all__ == sorted(declared)
    for name, module in declared.items():
        assert getattr(lqgcost, name) is getattr(module, name), name
    assert PUBLIC <= set(lqgcost.__all__)


def test_import_leaves_the_command_line_out():
    src = Path(lqgcost.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lqgcost; print('lqgcost.cli' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
