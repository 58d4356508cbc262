"""Feedback-gain search on the analytic cost statistics.

The objective (mean or variance of the infinite-horizon cost) and its exact
gradient with respect to the gain are evaluated in closed form for each
candidate gain: the Lyapunov-route statistics of a loop closed and validated
once, with only its drift A - B F and weight Q + F^T R F swapped in, and one
adjoint Lyapunov solve per forward solve for the gradient (Levine & Athans,
1970).  A BFGS search with a halving Armijo line search runs on top of it
(Nocedal & Wright, Numerical Optimization, 2nd ed., Alg. 6.1).  A gain that
fails only the route's "A+1a stable" check (at DEFAULT_SPECTRAL_TOL) is
infinitely bad, which confines the search to the stabilizing set without any
constraint machinery.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_lyap import CostStats, _infinite_objective_gradient, cost_stats_lyapunov
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

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float)
        if self.objective not in ("mean", "variance"):
            raise ValueError(f"objective must be 'mean' or 'variance', got {self.objective!r}")
        if not (self.step_tol > 0 and self.grad_tol > 0):
            raise ValueError("tolerances must be positive")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        self.max_iter = int(self.max_iter)


#: Armijo sufficient-decrease constant of the line search.
ARMIJO_C1 = 1e-4


@dataclass
class TuneResult:
    """Outcome of a gain search.

    ``iterations`` counts accepted steps; ``stop_reason`` is "gradient"
    (``gradient_norm``, the norm of the gradient at ``F``, fell below
    ``grad_tol``; then ``converged``), "max_iter" or "line_search" (a
    rejected trial step was shorter than ``step_tol``).
    """

    F: np.ndarray
    objective_value: float
    mean_at_F: float
    variance_at_F: float
    iterations: int
    converged: bool
    stop_reason: str
    gradient_norm: float
    trace: list = field(default_factory=list)


def _evaluate(route, sys, cost, *args):
    """``route(sys, cost, *args)``; InfeasibleGainError when it fails only "A+1a stable"."""
    try:
        return route(sys, cost, *args)
    except ConditionError as exc:
        if [c.name for c in exc.conditions if not c.passed] != ["A+1a stable"]:
            raise
        raise InfeasibleGainError(f"gain does not stabilize the shifted closed loop: {exc}",
                                  conditions=exc.conditions) from exc


def evaluate_gain(plant: LqgPlant, f, mu0, sigma0) -> CostStats:
    """Analytic infinite-horizon cost statistics of the loop closed with gain ``f``.

    Raises :class:`InfeasibleGainError` when the only condition failed is the
    Lyapunov route's "A+1a stable" (every Re eig(A + alpha I - B F) below
    -DEFAULT_SPECTRAL_TOL), :class:`ConditionError` when another one is.
    """
    return _evaluate(cost_stats_lyapunov, *close_loop_full_state(plant, f, mu0, sigma0))


def objective_value(plant, f, mu0, sigma0, objective):
    """Objective at gain ``f``; +inf where :func:`evaluate_gain` raises InfeasibleGainError."""
    f = np.asarray(f, dtype=float)
    return _value_and_gradient(plant, close_loop_full_state(plant, f, mu0, sigma0), f,
                               objective)[0]


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


def _value_and_gradient(plant, loop, f, objective):
    """Objective at gain ``f`` of a validated ``loop`` of ``plant`` and its gradient
    with respect to ``f``; ``(inf, None)`` for an infeasible gain."""
    try:
        value, d_a, d_q = _evaluate(_infinite_objective_gradient,
                                    *_regain_full_state(plant, *loop, f), objective)
    except InfeasibleGainError:
        return math.inf, None
    # chain rule through A - B F and Q + F^T R F
    return value, -plant.B.T @ d_a + 2.0 * plant.R @ f @ d_q


def minimize_variance(plant: LqgPlant, mu0, sigma0, opts: TuneOptions) -> TuneResult:
    """BFGS on the chosen analytic objective over the gain entries.

    Starts from ``opts.f0`` (which must stabilize the shifted loop) with a
    first step of length 1 along the normalized negative gradient, then
    scales the inverse-Hessian approximation to (s^T y / y^T y) I and updates
    it by BFGS, skipping pairs with s^T y <= 0.  Each step halves from 1 until
    the Armijo condition holds (c_1 = ``ARMIJO_C1``), rejecting destabilizing
    candidates, and the search gives up once a rejected trial step is shorter
    than ``opts.step_tol``.  Gradients are exact (adjoint Lyapunov solves), so
    ``converged=True`` means the gradient norm at ``F`` is below
    ``opts.grad_tol``.
    """
    loop = close_loop_full_state(plant, opts.f0, mu0, sigma0)

    def evaluate(f):
        return _value_and_gradient(plant, loop, f, opts.objective)

    f = opts.f0.copy()
    value, grad = evaluate(f)
    if grad is None:
        raise InfeasibleGainError("initial gain f0 does not stabilize the shifted closed loop")

    trace = [(0, value)]
    h = None        # inverse-Hessian approximation over the flattened gain, from the first update
    iterations = 0
    stop_reason = "max_iter"
    while True:
        gnorm = float(np.linalg.norm(grad))
        if gnorm < opts.grad_tol:
            stop_reason = "gradient"
            break
        if iterations == opts.max_iter:
            break
        g = grad.ravel()
        direction = -g / gnorm if h is None else -(h @ g)
        slope = g @ direction
        step = 1.0
        while True:
            s = step * direction
            new_value, new_grad = evaluate(f + s.reshape(f.shape))
            accepted = new_value <= value + ARMIJO_C1 * step * slope    # never for +inf
            if accepted or np.linalg.norm(s) < opts.step_tol:
                break
            step *= 0.5
        if not accepted:
            stop_reason = "line_search"
            break
        y = new_grad.ravel() - g
        sy = s @ y
        if sy > 0.0:
            if h is None:
                h = (sy / (y @ y)) * np.eye(g.size)
            rho = 1.0 / sy
            hy = h @ y
            h = (h - rho * (np.outer(hy, s) + np.outer(s, hy))
                 + (rho * rho * (y @ hy) + rho) * np.outer(s, s))
        f = f + s.reshape(f.shape)
        value, grad = new_value, new_grad
        iterations += 1
        trace.append((iterations, value))

    stats = _evaluate(cost_stats_lyapunov, *_regain_full_state(plant, *loop, f))
    return TuneResult(
        F=f,
        objective_value=value,
        mean_at_F=stats.mean,
        variance_at_F=stats.variance,
        iterations=iterations,
        converged=stop_reason == "gradient",
        stop_reason=stop_reason,
        gradient_norm=gnorm,
        trace=trace,
    )
