"""Feedback-gain search on the analytic cost statistics.

The objective (mean or variance of the infinite-horizon cost) and its exact
gradient with respect to the gain are evaluated in closed form for each
candidate gain: the Lyapunov-route statistics of a loop closed and validated
once, with only its drift A - B F and weight Q + F^T R F swapped in, and one
adjoint Lyapunov solve per forward solve for the gradient (Levine & Athans,
1970).  A BFGS search with an interpolating Armijo backtracking line search
runs on top of it (Nocedal & Wright, Numerical Optimization, 2nd ed.,
Alg. 6.1 and Sec. 3.5), which takes a step whose value ties within rounding
on its exact slope (Hager & Zhang, SIAM J. Optim. 16(1), 2005), and restarts
from steepest descent when a line search along a BFGS direction fails.  A
gain that fails only the route's "A+1a stable" check (at
DEFAULT_SPECTRAL_TOL), or whose loop or objective overflows double
precision, is infinitely bad, which confines the search to the stabilizing
set without any constraint machinery.  The mean and variance
reported at the final gain come from the last accepted evaluation (for the
mean objective plus the one variance solve its evaluations skip), so the
final gain is not factored again.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_lyap import SHIFTED_STABLE, CostStats, _infinite_objective_gradient, cost_stats_lyapunov
from .exceptions import AccuracyError, ConditionError, InfeasibleGainError
from .linalg import _as_matrix, _real_number, _whole_number
from .lqg import _open_loop, _regain_full_state, close_loop_full_state
from .systems import LqgPlant, _Value

__all__ = [
    "TuneOptions",
    "TuneResult",
    "evaluate_gain",
    "objective_value",
    "finite_difference_gradient",
    "minimize_variance",
]


@dataclass(frozen=True, eq=False)
class TuneOptions(_Value):
    """Options for :func:`minimize_variance`, an immutable value whose ``f0`` is
    a read-only copy."""

    f0: np.ndarray
    objective: str = "variance"      # "mean" | "variance"
    step_tol: float = 1e-8
    grad_tol: float = 1e-4
    max_iter: int = 2000

    def __post_init__(self):
        f0 = _as_matrix(self.f0, "f0")
        if self.objective not in ("mean", "variance"):
            raise ValueError(f"objective must be 'mean' or 'variance', got {self.objective!r}")
        self._set(f0=f0, step_tol=_real_number("step_tol", self.step_tol, 0.0, strict=True),
                  grad_tol=_real_number("grad_tol", self.grad_tol, 0.0, strict=True),
                  max_iter=_whole_number("max_iter", self.max_iter, 1))


#: Armijo sufficient-decrease constant of the line search.
ARMIJO_C1 = 1e-4
#: Relative band within which a trial's value ties the current one.  Where the
#: Armijo target rounds to the value, ARMIJO_C1 * step * |slope| is below
#: eps * |value|, so the decrease to expect is below about this band.
_TIE_RTOL = np.finfo(float).eps / ARMIJO_C1


@dataclass
class TuneResult:
    """Outcome of a gain search.

    ``iterations`` counts accepted steps; ``stop_reason`` is "gradient"
    (``gradient_norm``, the norm of the gradient at ``F``, fell below
    ``grad_tol``; then ``converged``), "max_iter", or one of two ways a
    steepest-descent line search fails once it rejects a trial step shorter
    than ``step_tol``: "rounding_floor" when that trial's first-order change,
    step length times ``gradient_norm``, is within the band in which values
    tie (``_TIE_RTOL`` times ``|objective_value|``), so that rounding of the
    objective, not its slope, decided the search and ``F`` is as stationary
    as the objective resolves; "line_search" otherwise.  ``mean_at_F`` and
    ``variance_at_F`` come from the search's evaluation at ``F`` and equal
    :func:`evaluate_gain` there bit for bit.
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
        if [c.name for c in exc.conditions if not c.passed] != [SHIFTED_STABLE]:
            raise
        raise InfeasibleGainError(f"gain does not stabilize the shifted closed loop: {exc}",
                                  conditions=exc.conditions) from exc


def evaluate_gain(plant: LqgPlant, f, mu0, sigma0) -> CostStats:
    """Analytic infinite-horizon cost statistics of the loop closed with gain ``f``.

    Raises :class:`InfeasibleGainError` when the only condition failed is the
    Lyapunov route's "A+1a stable" (every Re eig(A + alpha I - B F) below
    -DEFAULT_SPECTRAL_TOL), :class:`ConditionError` when another one is, and
    :class:`AccuracyError` when the loop or a statistic overflows double
    precision.
    """
    return _evaluate(cost_stats_lyapunov, *close_loop_full_state(plant, f, mu0, sigma0))


def objective_value(plant, f, mu0, sigma0, objective):
    """Objective at gain ``f``; +inf where :func:`evaluate_gain` raises
    InfeasibleGainError or AccuracyError (the loop or the objective overflows)."""
    f = _as_matrix(f, "F", (plant.n_inputs, plant.n_states))
    return _value_and_gradient(plant, _open_loop(plant, mu0, sigma0), f, objective)[0]


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
    """Objective at gain ``f`` of a validated ``loop`` of ``plant``, its gradient
    with respect to ``f`` and the evaluation they come from (its ``mean`` and
    ``variance``); ``(inf, None, None)`` for an infeasible gain: one whose shifted
    loop is not stable, or whose loop or objective overflows double precision."""
    try:
        value, d_a, d_q, evaluation = _evaluate(_infinite_objective_gradient,
                                                *_regain_full_state(plant, *loop, f), objective)
    except (InfeasibleGainError, AccuracyError):
        return math.inf, None, None
    # chain rule through A - B F and Q + F^T R F
    return value, -plant.B.T @ d_a + 2.0 * plant.R @ f @ d_q, evaluation


def minimize_variance(plant: LqgPlant, mu0, sigma0, opts: TuneOptions) -> TuneResult:
    """BFGS on the chosen analytic objective over the gain entries.

    Starts from ``opts.f0`` (which must be feasible) with a
    first step of length 1 along the normalized negative gradient, then
    scales the inverse-Hessian approximation to (s^T y / y^T y) I and updates
    it by BFGS, skipping pairs with s^T y <= 0.  Each step backtracks from 1
    until the Armijo condition holds (c_1 = ``ARMIJO_C1``): a rejected trial
    with a finite value is followed by the minimiser of the quadratic through
    the value and slope at ``F`` and the trial's value, clamped to
    [0.1, 0.5] times the trial step (Nocedal & Wright, eq. 3.58; Dennis &
    Schnabel 1983, Alg. A6.3.1); an infeasible trial (value +inf) halves.
    An Armijo target that rounds to the current value accepts nothing; a
    trial whose value ties it (``_TIE_RTOL``) is accepted when its slope s
    meets the approximate Wolfe conditions 0.9 s_0 <= s <= -0.8 s_0 (s_0 the
    slope at ``F``) and its gradient norm is at most half the one at ``F``,
    so the trace may rise by rounding but a search at that floor ends.
    A line search fails once a rejected trial step is shorter than
    ``opts.step_tol``.  When it failed along a BFGS direction, the matrix is
    dropped and the search restarts from the steepest-descent step of length
    1 (Nocedal & Wright, ch. 6, on restarting quasi-Newton updates): a matrix
    built from steps across many orders of magnitude of the objective can
    point badly near the minimum.  The search gives up when a
    steepest-descent line search fails, on "rounding_floor" or
    "line_search" (:class:`TuneResult`).  Gradients are exact (adjoint
    Lyapunov solves), so ``converged=True`` means the gradient norm at ``F``
    is below ``opts.grad_tol``.  The mean and variance at ``F`` are read from
    the last accepted evaluation; for the mean objective that takes one more
    Lyapunov solve (X_2) on its factor.
    """
    loop = close_loop_full_state(plant, opts.f0, mu0, sigma0)

    def evaluate(f):
        return _value_and_gradient(plant, loop, f, opts.objective)

    f = opts.f0.copy()
    value, grad, evaluation = evaluate(f)
    if grad is None:
        raise InfeasibleGainError("initial gain f0 is infeasible: the shifted closed loop is "
                                  "not stable or the objective overflows double precision")

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
            new_value, new_grad, new_evaluation = evaluate(f + s.reshape(f.shape))
            target = value + ARMIJO_C1 * step * slope
            accepted = target < value and new_value <= target    # never for +inf
            if not accepted and abs(new_value - value) <= _TIE_RTOL * abs(value):
                # approximate Wolfe with delta = 0.1, sigma = 0.9, on the exact slope
                new_slope = new_grad.ravel() @ direction
                accepted = (0.9 * slope <= new_slope <= -0.8 * slope
                            and np.linalg.norm(new_grad) <= 0.5 * gnorm)
            if accepted or np.linalg.norm(s) < opts.step_tol:
                break
            if math.isfinite(new_value):
                # minimiser of the quadratic through value, slope and new_value
                trial = -slope * step * step / (2.0 * (new_value - value - slope * step))
                step = min(max(trial, 0.1 * step), 0.5 * step)
            else:
                step *= 0.5
        if not accepted:
            if h is None:
                # the last trial's first-order change within the tie band (TuneResult)
                floor = step * abs(slope) <= _TIE_RTOL * abs(value)
                stop_reason = "rounding_floor" if floor else "line_search"
                break
            h = None        # restart from the steepest-descent step
            continue
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
        value, grad, evaluation = new_value, new_grad, new_evaluation
        iterations += 1
        trace.append((iterations, value))

    return TuneResult(
        F=f,
        objective_value=value,
        mean_at_F=evaluation.mean,
        variance_at_F=evaluation.variance,
        iterations=iterations,
        converged=stop_reason == "gradient",
        stop_reason=stop_reason,
        gradient_norm=gnorm,
        trace=trace,
    )
