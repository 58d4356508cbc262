"""The bundled two-state benchmark: synthesis, variance tuning and the
threshold-exceedance study.

The plant is the unstable two-state system

    dx/dt = [[1, 0], [1/20, 1]] x + [1, 0]^T u + v

with Q = I, R = I and exponent alpha = -0.8, full state measured.  The
study compares the mean-optimal gain against the variance-minimizing gain
by the probability that the realized cost exceeds a threshold.  Each
simulation is judged by ``simulation_report`` at the simulated horizon; the
tuner's infinite-horizon statistics are reported beside it as ``objective``.

The benchmark's published description leaves the process-noise intensity
and the initial-state distribution unstated, so this module makes the
canonical assumption explicit and carries it verbatim into every report:

    V = I,  mu0 = 0,  Sigma0 = 0.

Absolute exceedance numbers are conditional on that assumption; the
qualitative outcome (the variance-minimizing gain violates the threshold
less often) is not.
"""

import numpy as np

from .lqg import close_loop_full_state, optimal_gain
from .simulate import SimConfig, simulation_report
from .systems import LqgPlant
from .tune import TuneOptions, evaluate_gain, minimize_variance

__all__ = ["benchmark_plant", "default_assumption", "threshold_study"]

BENCHMARK_ALPHA = -0.8
DEFAULT_THRESHOLD = 1500.0


def benchmark_plant(v=None, w_scale=0.01):
    """The two-state benchmark plant; ``v`` overrides the process-noise intensity."""
    if v is None:
        v = np.eye(2)
    return LqgPlant(
        A=np.array([[1.0, 0.0], [0.05, 1.0]]),
        B=np.array([[1.0], [0.0]]),
        C=np.eye(2),
        Q=np.eye(2),
        R=np.eye(1),
        V=np.asarray(v, dtype=float),
        W=w_scale * np.eye(2),
        alpha=BENCHMARK_ALPHA,
    )


def default_assumption():
    """The documented (V, mu0, Sigma0) assumption for the threshold study."""
    return {
        "V": np.eye(2),
        "mu0": np.zeros(2),
        "Sigma0": np.zeros((2, 2)),
    }


def _gain_report(plant, f, mu0, sigma0, cfg):
    """One gain's simulation judged at the simulated horizon, and the tuner's objective."""
    stats = evaluate_gain(plant, f, mu0, sigma0)
    sys, cost = close_loop_full_state(plant, f, mu0, sigma0)
    return {
        "gain": np.asarray(f).tolist(),
        **simulation_report(sys, cost, cfg),
        "objective": {"mean": stats.mean, "variance": stats.variance, "std": stats.std,
                      "horizon": cost.horizon},
    }


def threshold_study(n_paths=250_000, dt=0.01, horizon=20.0, threshold=DEFAULT_THRESHOLD,
                    seed=20160501, assumption=None, scheme="exact", threads=None,
                    tune_max_iter=3000, landscape_points=9):
    """Run the full study and return a structured report (a plain dict).

    Synthesizes the mean-optimal gain, tunes a variance-minimizing gain
    from it, simulates both closed loops at the given threshold, and samples the
    variance objective along the segment between the two gains.

    The integration scheme of the original study is undocumented.  The
    default here is the exact one-step discretization: at the canonical step
    0.01 the Euler scheme's O(dt) moment bias is several standard errors at
    the full path count, which would drown the analytic/empirical
    consistency check this study reports.
    """
    assumption = default_assumption() if assumption is None else assumption
    v = np.asarray(assumption["V"], dtype=float)
    mu0 = np.asarray(assumption["mu0"], dtype=float)
    sigma0 = np.asarray(assumption["Sigma0"], dtype=float)
    plant = benchmark_plant(v=v)

    f_opt = optimal_gain(plant)
    tune = minimize_variance(
        plant, mu0, sigma0,
        TuneOptions(f0=f_opt, objective="variance", max_iter=tune_max_iter,
                    grad_tol=1e-8, step_tol=1e-10),
    )
    f_mv = tune.F

    cfg = SimConfig(dt=dt, T=horizon, n_paths=n_paths, seed=seed,
                    threshold=threshold, scheme=scheme, threads=threads)
    report_opt = _gain_report(plant, f_opt, mu0, sigma0, cfg)
    report_mv = _gain_report(plant, f_mv, mu0, sigma0, cfg)

    ts = np.linspace(0.0, 1.0, landscape_points)
    landscape = []
    for t in ts:
        f = (1.0 - t) * f_opt + t * f_mv
        stats = evaluate_gain(plant, f, mu0, sigma0)
        landscape.append({"t": float(t), "gain": f.tolist(),
                          "mean": stats.mean, "variance": stats.variance})

    return {
        "command": "reproduce-example",
        "assumption": {
            "V": v.tolist(),
            "mu0": mu0.tolist(),
            "Sigma0": sigma0.tolist(),
            "note": "process noise and initial state are not documented for the "
                    "original study; all absolute numbers are conditional on this choice",
        },
        "config": {"n_paths": n_paths, "dt": dt, "T": horizon,
                   "threshold": threshold, "seed": seed, "scheme": scheme},
        "mean_optimal": report_opt,
        "variance_minimizing": report_mv,
        "tuner": {
            "iterations": tune.iterations,
            "converged": tune.converged,
            "stop_reason": tune.stop_reason,
            "gradient_norm": tune.gradient_norm,
            "objective_value": tune.objective_value,
        },
        "variance_landscape_on_segment": landscape,
        "direction_holds": bool(
            report_mv["empirical"]["exceed_prob"] < report_opt["empirical"]["exceed_prob"]
        ),
    }
