"""Closed-form mean and variance of the quadratic cost via Lyapunov solutions.

Notation used throughout:

* ``A_k``      : A + k*alpha*I, the exponent-shifted drift,
* ``X[W; A_k]``: solution of  A_k X + X A_k^T + W = 0,
* ``Y[W; A_k]``: solution of  A_k^T Y + Y A_k + W = 0 (transposed equation),
* ``Y_T``      : the finite-horizon version integral_0^T e^{A_k^T t} W e^{A_k t} dt,
               obtained from Y via the exact identity Y_T = Y - e^{A_k^T T} Y e^{A_k T}.

Every drift A_k shares the real Schur basis of A: with A = U R U^T,
A_k = U (R + k alpha I) U^T.  One evaluation (:class:`_Evaluation`), at
either horizon, uses the system's factor (``sys.factor``, the
:class:`lqgcost.linalg.DriftFactor` of ``sys.A``, built once per system and
shared with every other evaluation of it, whatever its alpha or horizon),
maps Q, V, Sigma0 and mu0 into that basis once and stays there: each X and Y
above is one quasi-triangular back-substitution on R + k alpha I, each
exponential e^{A_k T} is the n x n exponential of R + k alpha I, the Van
Loan block of the variance's cross term is taken on R + k alpha I, and every
trace is read in the basis, where it has the same value.  The solvability
and stability conditions read the eigenvalues of R plus k*alpha.  Only the
tuner's gradient maps anything back out (dJ/dA and dJ/dQ).

Validity requirements (checked, and reported in ``conditions_checked``):

==================  =========================================
finite mean         A and A_1 uniquely solvable (sylvester)
finite variance     A_-1, A, A_1 and A_2 sylvester
infinite mean/var   alpha < 0 and A_1 stable
==================  =========================================

At a finite horizon the identities for Y_T and for the state covariance
Sigma_T = e^{A T} (Sigma0 - X[V; A]) e^{A^T T} + X[V; A] subtract terms that
can be far larger than their result; when a term exceeds the result by more
than ``linalg.CANCELLATION_LIMIT`` the evaluation raises :class:`AccuracyError`
instead of returning a value that has lost most of its digits.  Overflow
follows the one rule of :mod:`lqgcost.linalg`: the scalar exponentials are
inf past the largest double, and a mean, variance or cross-term weight that
is not finite raises :class:`AccuracyError`, whether the terms grow (A = 1,
T = 800) or the data are large (Sigma0 = 1e160).

One formula serves every alpha, zero included; nothing divides by alpha.  With
phi_r(T) = integral_0^T e^{r t} dt = expm1(r T) / r (T at r = 0) the mean's
(e^{2 alpha T} - 1) / (2 alpha) is phi_{2 alpha}(T), and by parts the variance's
(e^{4 alpha T} Y_T[Q; A_-1] - Y_T[Q; A_1]) / (4 alpha) is
phi_{4 alpha}(T) Y[Q; A_1] - e^{4 alpha T} Y_T[Y[Q; A_1]; A_-1].
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .exceptions import AccuracyError, ConditionCheck, ConditionError
from .linalg import _difference, _require_finite, _require_shape, symmetrize, van_loan_integral
from .systems import CostSpec, LtiSystem

__all__ = [
    "CostStats",
    "expected_cost_finite",
    "expected_cost_infinite",
    "variance_cost_finite",
    "variance_cost_infinite",
    "cost_stats_lyapunov",
]

#: The one condition whose failure marks a gain as infeasible for the tuner.
SHIFTED_STABLE = "A+1a stable"

#: Raw variances in [-VARIANCE_CLAMP_RTOL * (1 + mean^2), 0) clamp to zero.
VARIANCE_CLAMP_RTOL = 1e-8


@dataclass
class CostStats:
    """Analytic cost statistics plus provenance of how they were obtained."""

    mean: float
    variance: float
    method: str                      # "lyapunov" | "expm"
    conditions_checked: list = field(default_factory=list)
    branch: str = ""
    raw_variance: float = None

    @property
    def std(self):
        return math.sqrt(self.variance)


def _exp(x, fn=math.exp):
    """``fn(x)``, ``math.exp`` or ``math.expm1``, but inf past the largest double."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def _phi(rate, horizon):
    """integral_0^T e^{rate t} dt, exactly T at rate = 0."""
    x = rate * horizon
    return horizon if x == 0.0 else _exp(x, math.expm1) / rate


def _conditions(fac, cost, with_variance):
    """The route's validity checks on A + k*alpha*I, each distinct shift once,
    read from the factor's eigenvalues; :class:`ConditionError` when one fails."""
    alpha = cost.alpha
    what = "variance" if with_variance else "mean"
    if cost.is_infinite:
        rep = fac.spectrum(alpha)
        checks = [
            ConditionCheck("alpha < 0", alpha < 0.0, f"alpha = {alpha:g}"),
            ConditionCheck(SHIFTED_STABLE, rep.is_stable,
                           f"max Re eig = {rep.eigenvalues.real.max():.4g}"),
        ]
        what = f"infinite-horizon {what} (cost diverges)"
    else:
        checks, shifts = [], {}
        for k in (0, 1, -1, 2) if with_variance else (0, 1):
            shifts.setdefault(k * alpha, k)
        for shift, k in shifts.items():
            name = "A sylvester" if k == 0 else f"A{k:+g}a sylvester"
            rep = fac.spectrum(shift)
            detail = "" if rep.is_sylvester else (
                "eigenvalue pair sums to zero: " + ", ".join(
                    f"({rep.eigenvalues[i]:.4g}, {rep.eigenvalues[j]:.4g})"
                    for i, j in rep.degenerate_pairs[:2]
                )
            )
            checks.append(ConditionCheck(name, rep.is_sylvester, detail))
        what = f"finite-horizon {what}"
    failed = [c.name for c in checks if not c.passed]
    if failed:
        raise ConditionError(
            f"{what} is not computable by the Lyapunov method: failed {', '.join(failed)}",
            conditions=checks,
        )
    return checks


def _finalize_variance(raw, mean, route):
    """The raw variance, clamped at zero against rounding; :class:`AccuracyError`,
    naming ``route``, when the mean or the raw variance is not finite (a term
    overflowed) or the raw variance is negative beyond the clamp."""
    _require_finite(f"{route} lost the variance: the mean came out {mean:.6e} and the raw "
                    f"variance {raw:.6e}; a term", mean, raw)
    if raw >= 0.0:
        return raw
    if raw >= -VARIANCE_CLAMP_RTOL * (1.0 + mean * mean):
        return 0.0
    raise AccuracyError(f"{route} lost the variance: it came out {raw:.6e} < 0 "
                        "beyond the rounding allowance")


def _transposed_finite(y_inf, e_t, name):
    """Y_T = Y - e^{A^T T} Y e^{A T} given Y and e^{A T}."""
    return _difference(y_inf, e_t.T @ y_inf @ e_t, name)


def _require_horizon(cost, infinite):
    if cost.is_infinite != infinite:
        kind = "infinite" if infinite else "finite"
        raise ValueError(f"cost.horizon must be {kind} for the {kind}-horizon operations")


# ---------------------------------------------------------------------------
# one evaluation on one factor
# ---------------------------------------------------------------------------

class _Evaluation:
    """One evaluation of the route, in the real Schur basis of ``sys.A``
    (``sys.factor``).

    With A = U R U^T every shifted drift is U (R + s I) U^T, so
    Y[Q; A_1] = U Y~ U^T where Y~ solves the same equation on R + alpha I
    with Q~ = U^T Q U, and likewise for every X, Y and e^{A_k T}.  Q, V,
    Sigma0 and mu0 are mapped into the basis once (``q``, ``v``, ``s``,
    ``mu0``), the solves run on the factor's Schur-coordinate core
    (:meth:`DriftFactor._solve_schur`), the exponentials are taken on R + s I,
    and every trace is read in the basis, where it has the same value.

    ``y`` is Y~[Q; A_1] at either horizon.  At a finite horizon ``xv`` is
    X~[V; A] and ``e_p`` is e^{(R + alpha I) T}.  At the infinite horizon
    ``x2`` is X_2~ = (X[Sigma0; A_2] - X[V; A_2] / (4 alpha))~, one solve by
    linearity, made the first time ``raw_variance`` asks for it.

    Building it runs the route's checks (``checks``), raises
    :class:`ConditionError` when one fails, and computes ``mean``;
    ``raw_variance`` is computed on first use.
    """

    def __init__(self, sys, cost, with_variance):
        _require_shape(cost.Q, sys.A.shape, "Q")
        self.fac = fac = sys.factor
        self.alpha, self.horizon = alpha, horizon = cost.alpha, cost.horizon
        self.checks = _conditions(fac, cost, with_variance)
        self.branch = "infinite horizon" if cost.is_infinite else "finite horizon"
        u = fac.u
        # an overflow leaves a value that is not finite, which _require_finite refuses
        with np.errstate(over="ignore", invalid="ignore"):
            self.q, self.s, self.v = (u.T @ m @ u for m in (cost.Q, sys.Sigma0, sys.V))
            self.mu0 = sys.mu0 @ u
            self.y = fac._solve_schur(self.q, shift=alpha, transposed=True)
            if cost.is_infinite:
                mean = float(np.trace((self.s - self.v / (2.0 * alpha)) @ self.y))
            else:
                self.xv = xv = fac._solve_schur(self.v)
                # each e^{(A + s I) T} is its own exponential: e^{s T} e^{A T}
                # would make inf times 0 of a finite product
                self.e_p = e_p = expm(fac._at(alpha).t_s * horizon)
                # e^{2 alpha T} Sigma_T, with Sigma_T = e^{A T} (Sigma0 - X[V; A]) e^{A^T T}
                # + X[V; A], as a difference
                sig_t = _difference(e_p @ (self.s - xv) @ e_p.T,
                                    -_exp(2.0 * alpha * horizon) * xv, "Sigma_T")
                mean = float(np.trace(
                    (self.s - sig_t + _phi(2.0 * alpha, horizon) * self.v) @ self.y))
        self.mean = _require_finite("Lyapunov route lost the mean: a term", mean)

    @cached_property
    def x2(self):
        alpha = self.alpha
        with np.errstate(over="ignore", invalid="ignore"):
            return self.fac._solve_schur(self.s - self.v / (4.0 * alpha), shift=2.0 * alpha)

    @cached_property
    def raw_variance(self):
        # an overflow leaves a non-finite value, which _finalize_variance refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return self._raw_variance()

    def _raw_variance(self):
        s, y, mu0 = self.s, self.y, self.mu0
        if math.isinf(self.horizon):
            return float(
                2.0 * np.trace((s @ y) @ (s @ y))
                - 2.0 * (mu0 @ y @ mu0) ** 2
                + 4.0 * np.trace(self.x2 @ y @ self.v @ y)
            )
        fac, q, alpha, t, e_p, xv = self.fac, self.q, self.alpha, self.horizon, self.e_p, self.xv
        delta = symmetrize(s - xv)
        e_m = e_p if alpha == 0.0 else expm(fac._at(-alpha).t_s * t)
        y_t = _transposed_finite(y, e_p, "Y_T of A+1a")
        # (e^{4aT} Y_T[Q; A_-1] - Y_T[Q; A_1]) / (4a), by parts (module docstring)
        y_of_y = fac._solve_schur(y, shift=-alpha, transposed=True)
        y_of_y_t = _transposed_finite(y_of_y, e_m, "Y_T of A-1a, weight Y_1")
        weighted = _phi(4.0 * alpha, t) * y - _exp(4.0 * alpha * t) * y_of_y_t
        x2d = fac._solve_schur(delta, shift=2.0 * alpha)
        r_3 = fac.t + 3.0 * alpha * np.eye(len(q))
        weight = x2d @ e_p.T @ q
        # van_loan_integral refuses a non-finite input as the caller's error
        _require_finite("Lyapunov route lost the variance: its cross term", r_3, weight)
        cross = van_loan_integral(r_3, weight, fac._at(alpha).t_s, t)
        mid = xv @ weighted + 2.0 * x2d @ y_t - 2.0 * cross
        return float(
            2.0 * np.trace((delta @ y_t) @ (delta @ y_t))
            - 2.0 * (mu0 @ y_t @ mu0) ** 2
            + 4.0 * np.trace(xv @ q @ mid)
        )

    @property
    def variance(self):
        return _finalize_variance(self.raw_variance, self.mean, "Lyapunov route")


def _infinite_objective_gradient(sys, cost, objective):
    """``(J, dJ/dA, dJ/dQ, evaluation)`` for J the infinite-horizon mean or
    variance (``objective``), with ``evaluation`` the :class:`_Evaluation`
    they come from.

    Adjoint (Lagrange-multiplier) method, one adjoint solve on the same factor
    per Lyapunov solve in J: with P_1 from A_1 P_1 + P_1 A_1^T + dJ/dY = 0 and,
    for the variance, P_2 from A_2^T P_2 + P_2 A_2 + dJ/dX_2 = 0,
    dJ/dA = 2 (Y P_1 + P_2 X_2) and dJ/dQ = P_1.  Everything runs in the Schur
    basis; only dJ/dA and dJ/dQ are mapped back out.  J is the evaluation's
    ``mean`` or ``variance``, so it equals :func:`expected_cost_infinite` /
    :func:`variance_cost_infinite` bit for bit.

    Reference: W. S. Levine and M. Athans, "On the determination of the
    optimal constant output feedback gains for linear multivariable
    systems", IEEE Trans. Automat. Control 15(1), 1970.
    """
    ev = _Evaluation(sys, cost, objective == "variance")
    fac, alpha, s, v, y = ev.fac, ev.alpha, ev.s, ev.v, ev.y
    u = fac.u
    if objective != "variance":
        p1 = fac._solve_schur(s - v / (2.0 * alpha), shift=alpha)
        return ev.mean, u @ (2.0 * y @ p1) @ u.T, u @ p1 @ u.T, ev
    x2, mu0 = ev.x2, ev.mu0
    xyv = x2 @ y @ v
    d_y = 4.0 * symmetrize(s @ y @ s - (mu0 @ y @ mu0) * np.outer(mu0, mu0) + xyv + xyv.T)
    p1 = fac._solve_schur(d_y, shift=alpha)
    p2 = fac._solve_schur(4.0 * symmetrize(y @ v @ y), shift=2.0 * alpha, transposed=True)
    return ev.variance, u @ (2.0 * (y @ p1 + p2 @ x2)) @ u.T, u @ p1 @ u.T, ev


def expected_cost_finite(sys: LtiSystem, cost: CostSpec):
    """E of the finite-horizon cost integral (requires a finite ``cost.horizon``)."""
    _require_horizon(cost, infinite=False)
    return _Evaluation(sys, cost, with_variance=False).mean


def variance_cost_finite(sys: LtiSystem, cost: CostSpec):
    """Var of the finite-horizon cost integral, clamped at zero against rounding."""
    _require_horizon(cost, infinite=False)
    return _Evaluation(sys, cost, with_variance=True).variance


def expected_cost_infinite(sys: LtiSystem, cost: CostSpec):
    """E of the infinite-horizon cost; requires alpha < 0 and stable shifted drift."""
    _require_horizon(cost, infinite=True)
    return _Evaluation(sys, cost, with_variance=False).mean


def variance_cost_infinite(sys: LtiSystem, cost: CostSpec):
    """Var of the infinite-horizon cost; requires alpha < 0 and stable shifted drift."""
    _require_horizon(cost, infinite=True)
    return _Evaluation(sys, cost, with_variance=True).variance


def cost_stats_lyapunov(sys: LtiSystem, cost: CostSpec):
    """Mean and variance through the Lyapunov route, with condition provenance."""
    ev = _Evaluation(sys, cost, with_variance=True)
    return CostStats(
        mean=ev.mean,
        variance=ev.variance,
        method="lyapunov",
        conditions_checked=ev.checks,
        branch=ev.branch,
        raw_variance=ev.raw_variance,
    )
