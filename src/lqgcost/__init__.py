"""lqgcost: exact mean and variance of exponentially weighted quadratic costs
of noisy linear systems, LQG gain synthesis, and a Monte Carlo cross-check.

The analytic statistics come by two routes: closed forms built from
Lyapunov-equation solutions (valid when the relevant shifted drifts have no
eigenvalue pair summing to zero), and the paper's block matrix exponential
on a short step, doubled up to the horizon (finite horizons, any drift).
:func:`auto_cost_stats` takes the second at a finite horizon and the first
at the infinite one.
"""

from .cost_expm import (
    BlockExpResult,
    auto_cost_stats,
    block_exponential,
    build_block_matrix,
    cost_stats_expm,
)
from .cost_lyap import (
    CostStats,
    cost_stats_lyapunov,
    expected_cost_finite,
    expected_cost_infinite,
    variance_cost_finite,
    variance_cost_infinite,
)
from .demo import benchmark_plant, default_assumption, threshold_study
from .exceptions import (
    AccuracyError,
    ConditionCheck,
    ConditionError,
    DimensionError,
    InfeasibleGainError,
    LqgCostError,
    ModelFormatError,
    NumericalError,
    SingularLyapunovError,
    SynthesisError,
)
from .gaussian import (
    JointGaussian,
    joint_quartic_expectation,
    quartic_expectation,
)
from .linalg import (
    DriftFactor,
    SpectrumReport,
    classify_spectrum,
    mat_exp,
    psd_factor,
    solve_lyapunov,
    solve_lyapunov_transposed,
    van_loan_integral,
)
from .lqg import (
    GainPair,
    close_loop_full_state,
    close_loop_output_feedback,
    kalman_gain,
    optimal_gain,
    solve_riccati,
    synthesize_gains,
)
from .models import ModelDocument, load_model, save_plant_model, save_system_model
from .moments import cross_moment, mean_state, noise_gramian_finite, second_moment
from .simulate import EmpiricalCostStats, SimConfig, simulate_costs
from .systems import CostSpec, INFINITE_HORIZON, LqgPlant, LtiSystem
from .tune import (
    TuneOptions,
    TuneResult,
    evaluate_gain,
    finite_difference_gradient,
    minimize_variance,
    objective_value,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BlockExpResult",
    "ConditionCheck",
    "ConditionError",
    "CostSpec",
    "CostStats",
    "DimensionError",
    "DriftFactor",
    "EmpiricalCostStats",
    "GainPair",
    "INFINITE_HORIZON",
    "InfeasibleGainError",
    "JointGaussian",
    "LqgCostError",
    "LqgPlant",
    "LtiSystem",
    "ModelDocument",
    "ModelFormatError",
    "NumericalError",
    "SimConfig",
    "SingularLyapunovError",
    "SpectrumReport",
    "SynthesisError",
    "TuneOptions",
    "TuneResult",
    "auto_cost_stats",
    "benchmark_plant",
    "block_exponential",
    "build_block_matrix",
    "classify_spectrum",
    "close_loop_full_state",
    "close_loop_output_feedback",
    "cost_stats_expm",
    "cost_stats_lyapunov",
    "cross_moment",
    "default_assumption",
    "evaluate_gain",
    "expected_cost_finite",
    "expected_cost_infinite",
    "finite_difference_gradient",
    "joint_quartic_expectation",
    "kalman_gain",
    "load_model",
    "mat_exp",
    "mean_state",
    "minimize_variance",
    "noise_gramian_finite",
    "objective_value",
    "optimal_gain",
    "psd_factor",
    "quartic_expectation",
    "save_plant_model",
    "save_system_model",
    "second_moment",
    "simulate_costs",
    "solve_lyapunov",
    "solve_lyapunov_transposed",
    "solve_riccati",
    "synthesize_gains",
    "threshold_study",
    "van_loan_integral",
    "variance_cost_finite",
    "variance_cost_infinite",
]
