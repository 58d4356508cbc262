"""Feedback-gain search on the analytic cost statistics.

The objective (mean or variance of the infinite-horizon cost) is evaluated in
closed form for each candidate gain by the Lyapunov-route statistics of a loop
closed and validated once, with only its drift A - B F and weight Q + F^T R F
swapped in, so a plain gradient descent with finite-difference gradients and a
backtracking line search is cheap and adequate.  A gain that fails only the
route's "A+1a stable" check (at DEFAULT_SPECTRAL_TOL) is infinitely bad, which
confines the search to the stabilizing set without any constraint machinery.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_lyap import (
    ConditionCheck,
    CostStats,
    cost_stats_lyapunov,
    expected_cost_infinite,
    variance_cost_infinite,
)
from .exceptions import ConditionError, InfeasibleGainError
from .lqg import _regain_full_state, close_loop_full_state
from .systems import LqgPlant

__all__ = [
    "TuneOptions",
    "TuneResult",
    "evaluate_gain",
    "objective_value",
    "finite_difference_gradient",
    "minimize_variance",
]


@dataclass
class TuneOptions:
    """Options for :func:`minimize_variance`."""

    f0: np.ndarray
    objective: str = "variance"      # "mean" | "variance"
    step_tol: float = 1e-8
    grad_tol: float = 1e-4
    max_iter: int = 2000
    fd_step: float = 1e-4

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float)
        if self.objective not in ("mean", "variance"):
            raise ValueError(f"objective must be 'mean' or 'variance', got {self.objective!r}")
        if not (self.step_tol > 0 and self.grad_tol > 0 and self.fd_step > 0):
            raise ValueError("tolerances and fd_step must be positive")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        self.max_iter = int(self.max_iter)


@dataclass
class TuneResult:
    """Outcome of a gain search."""

    F: np.ndarray
    objective_value: float
    mean_at_F: float
    variance_at_F: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _evaluate(route, sys, cost):
    """``route(sys, cost)``; InfeasibleGainError when it fails only "A+1a stable"."""
    try:
        return route(sys, cost)
    except ConditionError as exc:
        if [c.name for c in exc.conditions
                if isinstance(c, ConditionCheck) and not c.passed] != ["A+1a stable"]:
            raise
        raise InfeasibleGainError(f"gain does not stabilize the shifted closed loop: {exc}",
                                  conditions=exc.conditions) from exc


def _objective(sys, cost, objective):
    """Mean or variance of a closed loop's cost; +inf for an infeasible gain."""
    try:
        return _evaluate(expected_cost_infinite if objective == "mean" else variance_cost_infinite,
                         sys, cost)
    except InfeasibleGainError:
        return math.inf


def evaluate_gain(plant: LqgPlant, f, mu0, sigma0) -> CostStats:
    """Analytic infinite-horizon cost statistics of the loop closed with gain ``f``.

    Raises :class:`InfeasibleGainError` when the only condition failed is the
    Lyapunov route's "A+1a stable" (every Re eig(A + alpha I - B F) below
    -DEFAULT_SPECTRAL_TOL), :class:`ConditionError` when another one is.
    """
    return _evaluate(cost_stats_lyapunov, *close_loop_full_state(plant, f, mu0, sigma0))


def objective_value(plant, f, mu0, sigma0, objective):
    """Objective at gain ``f``; +inf where :func:`evaluate_gain` raises InfeasibleGainError."""
    return _objective(*close_loop_full_state(plant, f, mu0, sigma0), objective)


def finite_difference_gradient(func, f, fd_step, stencil=2):
    """Entrywise finite-difference gradient of ``func`` at gain matrix ``f``.

    ``stencil=2`` is the central difference; ``stencil=4`` the five-point
    formula (f(-2h) - 8f(-h) + 8f(h) - f(2h)) / 12h used for cross-checks.
    Steps scale per entry as fd_step * (1 + |f_ij|).
    """
    f = np.asarray(f, dtype=float)
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        h = fd_step * (1.0 + abs(f[idx]))

        def shifted(k):
            fs = f.copy()
            fs[idx] += k * h
            return func(fs)

        if stencil == 2:
            grad[idx] = (shifted(1) - shifted(-1)) / (2.0 * h)
        elif stencil == 4:
            grad[idx] = (shifted(-2) - 8.0 * shifted(-1) + 8.0 * shifted(1) - shifted(2)) / (12.0 * h)
        else:
            raise ValueError("stencil must be 2 or 4")
    return grad


def minimize_variance(plant: LqgPlant, mu0, sigma0, opts: TuneOptions) -> TuneResult:
    """Gradient descent on the chosen analytic objective over the gain entries.

    Starts from ``opts.f0`` (which must stabilize the shifted loop), takes
    steps along the normalized negative gradient with a halving line search
    that rejects non-decreasing or destabilizing candidates, and reports
    ``converged=True`` when the gradient norm drops below ``opts.grad_tol``.
    """
    loop = close_loop_full_state(plant, opts.f0, mu0, sigma0)

    def func(f):
        return _objective(*_regain_full_state(plant, *loop, f), opts.objective)

    f = opts.f0.copy()
    value = _objective(*loop, opts.objective)
    if not math.isfinite(value):
        raise InfeasibleGainError("initial gain f0 does not stabilize the shifted closed loop")

    trace = [(0, value)]
    converged = False
    iterations = 0
    step_start = 1.0
    for iteration in range(1, opts.max_iter + 1):
        iterations = iteration
        grad = finite_difference_gradient(func, f, opts.fd_step)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < opts.grad_tol:
            converged = True
            iterations = iteration - 1
            break
        direction = -grad / gnorm
        step = step_start
        new_value = math.inf
        while step >= opts.step_tol:
            candidate = f + step * direction
            new_value = func(candidate)
            if new_value < value:
                break
            step *= 0.5
        if not new_value < value:
            # no decrease found above the step tolerance: local flatness
            break
        f = f + step * direction
        value = new_value
        trace.append((iteration, value))
        # warm-start the next line search near the accepted step
        step_start = min(1.0, 4.0 * step)

    if not converged:
        grad = finite_difference_gradient(func, f, opts.fd_step)
        converged = float(np.linalg.norm(grad)) < opts.grad_tol

    stats = _evaluate(cost_stats_lyapunov, *_regain_full_state(plant, *loop, f))
    return TuneResult(
        F=f,
        objective_value=value,
        mean_at_F=stats.mean,
        variance_at_F=stats.variance,
        iterations=iterations,
        converged=converged,
        trace=trace,
    )
