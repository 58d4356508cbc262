"""Closed-form mean and variance of the quadratic cost via Lyapunov solutions.

Notation used throughout:

* ``A_k``      : A + k*alpha*I, the exponent-shifted drift,
* ``X[W; A_k]``: solution of  A_k X + X A_k^T + W = 0,
* ``Y[W; A_k]``: solution of  A_k^T Y + Y A_k + W = 0 (transposed equation),
* ``Y_T``      : the finite-horizon version integral_0^T e^{A_k^T t} W e^{A_k t} dt,
               obtained from Y via the exact identity Y_T = Y - e^{A_k^T T} Y e^{A_k T}.

Every drift A_k shares the Schur basis of A, so one evaluation factors
``sys.A`` once (:class:`lqgcost.linalg.DriftFactor`) and solves each X and Y
above by one quasi-triangular back-substitution on that factor; the
solvability and stability conditions read its eigenvalues plus k*alpha.
The same holds for the exponentials: e^{A_k T} = e^{k alpha T} e^{A T}, so a
finite-horizon evaluation takes one n x n exponential of ``sys.A``, plus the
Van Loan block of the cross term in the variance.

At the infinite horizon the whole evaluation stays in the Schur basis
(:class:`_InfiniteEvaluation`): Q, V, Sigma0 and mu0 are mapped in once, the
solves skip :meth:`DriftFactor.solve`'s validation and mappings, and the
traces are read there; the tuner's gradient maps only dJ/dA and dJ/dQ back
out.  The finite horizon calls the validated :meth:`DriftFactor.solve`.

Validity requirements (checked, and reported in ``conditions_checked``):

==================  =========================================
finite mean         A and A_1 uniquely solvable (sylvester)
finite variance     A_-1, A, A_1 and A_2 sylvester
infinite mean/var   alpha < 0 and A_1 stable
==================  =========================================

At a finite horizon the identities for Y_T and for the state covariance
Sigma_T = e^{A T} (Sigma0 - X[V; A]) e^{A^T T} + X[V; A] subtract terms that
can be far larger than their result; when a term exceeds the result by more
than ``CANCELLATION_LIMIT`` the evaluation raises :class:`AccuracyError`
instead of returning a value that has lost most of its digits.

The alpha = 0 forms are the analytic limits of the alpha != 0 forms; the
branch is selected automatically when |alpha| * max(1, T) < 1e-9 because the
general expressions divide by alpha.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import AccuracyError, ConditionCheck, ConditionError, NumericalError
from .linalg import DriftFactor, mat_exp, symmetrize, van_loan_integral
from .systems import CostSpec, LtiSystem

__all__ = [
    "ConditionCheck",
    "CostStats",
    "expected_cost_finite",
    "expected_cost_infinite",
    "variance_cost_finite",
    "variance_cost_infinite",
    "variance_cost_infinite_unreduced",
    "cost_stats_lyapunov",
]

#: Below this value of |alpha| * max(1, T) the alpha = 0 formulas are used.
ALPHA_BRANCH_TOL = 1e-9

#: Raw variances in [-VARIANCE_CLAMP_RTOL * (1 + mean^2), 0) clamp to zero.
VARIANCE_CLAMP_RTOL = 1e-8

#: Largest ||term||_F / ||result||_F allowed in the finite-horizon identities
#: for Y_T and Sigma_T.  Each factor of ten past it costs the result a digit
#: on top of the Lyapunov solutions' own rounding.
CANCELLATION_LIMIT = 1e6


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


def _shift(a, k, alpha):
    return a + (k * alpha) * np.eye(a.shape[0])


def _use_zero_alpha(alpha, horizon):
    return abs(alpha) * max(1.0, horizon) < ALPHA_BRANCH_TOL


def _check_sylvester(fac, multiples, alpha):
    """Classify A + k*alpha*I for each k from the factor's eigenvalues."""
    checks = []
    for k in multiples:
        name = "A sylvester" if k == 0 else f"A{k:+g}a sylvester"
        rep = fac.spectrum(k * alpha)
        detail = "" if rep.is_sylvester else (
            "eigenvalue pair sums to zero: " + ", ".join(
                f"({rep.eigenvalues[i]:.4g}, {rep.eigenvalues[j]:.4g})"
                for i, j in rep.degenerate_pairs[:2]
            )
        )
        checks.append(ConditionCheck(name, rep.is_sylvester, detail))
    return checks


def _check_infinite(fac, alpha):
    rep = fac.spectrum(alpha)
    return [
        ConditionCheck("alpha < 0", alpha < 0.0, f"alpha = {alpha:g}"),
        ConditionCheck("A+1a stable", rep.is_stable,
                       f"max Re eig = {rep.eigenvalues.real.max():.4g}"),
    ]


def _require(checks, what):
    failed = [c.name for c in checks if not c.passed]
    if failed:
        raise ConditionError(
            f"{what} is not computable by the Lyapunov method: failed {', '.join(failed)}",
            conditions=checks,
        )


def _finalize_variance(raw, mean):
    if raw >= 0.0:
        return raw
    if raw >= -VARIANCE_CLAMP_RTOL * (1.0 + mean * mean):
        return 0.0
    raise NumericalError(
        f"variance came out {raw:.6e} < 0 beyond the rounding allowance; "
        "the validity conditions are likely violated numerically"
    )


def _difference(first, second, name):
    """symmetrize(first - second), refused when it cancels beyond CANCELLATION_LIMIT."""
    out = symmetrize(first - second)
    big = max(np.linalg.norm(first), np.linalg.norm(second))
    ratio = big / max(np.linalg.norm(out), 1e-300) if big > 0.0 else 0.0
    if ratio > CANCELLATION_LIMIT:
        raise AccuracyError(
            f"finite-horizon identity for {name} cancels: its terms are {ratio:.3g} times "
            f"the result (limit {CANCELLATION_LIMIT:g}); use the exponential route"
        )
    return out


def _transposed_finite(y_inf, e_t, name):
    """Y_T = Y - e^{A^T T} Y e^{A T} given Y and e^{A T}."""
    return _difference(y_inf, e_t.T @ y_inf @ e_t, name)


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------

def _finite_mean(sys, cost, xv, y, e0):
    """Mean from X[V; A], Y[Q; A_1] (Y[Q; A] on the zero branch) and e^{A T}."""
    alpha, t = cost.alpha, cost.horizon
    # Sigma_T = e^{A T} (Sigma0 - X) e^{A^T T} + X, written as a difference
    sig_t = _difference(e0 @ (sys.Sigma0 - xv) @ e0.T, -xv, "Sigma_T")
    if _use_zero_alpha(alpha, t):
        return float(np.trace((sys.Sigma0 - sig_t + t * sys.V) @ y))
    g = math.exp(2.0 * alpha * t)
    return float(np.trace((sys.Sigma0 - g * sig_t + (g - 1.0) / (2.0 * alpha) * sys.V) @ y))


def _finite_variance(sys, cost, fac, xv, y, e0):
    """Raw variance; ``xv``, ``y`` and ``e0`` as for :func:`_finite_mean`."""
    a, q, mu0 = sys.A, cost.Q, sys.mu0
    alpha, t = cost.alpha, cost.horizon
    delta = symmetrize(sys.Sigma0 - xv)

    if _use_zero_alpha(alpha, t):
        y0_t = _transposed_finite(y, e0, "Y_T of A")
        # analytic alpha -> 0 limit of (e^{4aT} Y_-1,T - Y_1,T) / (4a):
        # T * Y - integral_0^T e^{A^T t} Y e^{A t} dt
        y_of_y = fac.solve(y, transposed=True)
        limit_term = t * y - _transposed_finite(y_of_y, e0, "Y_T of A, weight Y")
        xd = fac.solve(delta)
        cross = van_loan_integral(a, xd @ e0.T @ q, a, t)
        raw = (
            2.0 * np.trace((delta @ y0_t) @ (delta @ y0_t))
            - 2.0 * (mu0 @ y0_t @ mu0) ** 2
            + 4.0 * np.trace(xv @ q @ (xv @ limit_term + 2.0 * xd @ y0_t - 2.0 * cross))
        )
        return float(raw)

    # e^{(A +- alpha I) T} = e^{+-alpha T} e^{A T}
    e_p = math.exp(alpha * t) * e0
    y_p_t = _transposed_finite(y, e_p, "Y_T of A+1a")
    y_m = fac.solve(q, shift=-alpha, transposed=True)
    y_m_t = _transposed_finite(y_m, math.exp(-alpha * t) * e0, "Y_T of A-1a")
    x2d = fac.solve(delta, shift=2.0 * alpha)
    cross = van_loan_integral(_shift(a, 3, alpha), x2d @ e_p.T @ q, _shift(a, 1, alpha), t)
    g4 = math.exp(4.0 * alpha * t)
    mid = xv @ ((g4 * y_m_t - y_p_t) / (4.0 * alpha)) + 2.0 * x2d @ y_p_t - 2.0 * cross
    raw = (
        2.0 * np.trace((delta @ y_p_t) @ (delta @ y_p_t))
        - 2.0 * (mu0 @ y_p_t @ mu0) ** 2
        + 4.0 * np.trace(xv @ q @ mid)
    )
    return float(raw)


def _require_finite_horizon(cost):
    if cost.is_infinite:
        raise ValueError("cost.horizon must be finite for the finite-horizon operations")


def _require_infinite_horizon(cost):
    if not cost.is_infinite:
        raise ValueError("cost.horizon must be infinite for the infinite-horizon operations")


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------

class _InfiniteEvaluation:
    """One infinite-horizon evaluation, in the real Schur basis of ``sys.A``.

    With A = U T U^T every shifted drift is U (T + s I) U^T, so
    Y[Q; A_1] = U Y~ U^T where Y~ solves the same equation on T + alpha I
    with Q~ = U^T Q U, and likewise for X_2.  Q, V, Sigma0 and mu0 are mapped
    into the basis once (``q``, ``v``, ``s``, ``mu0``), the solves run on the
    factor's Schur-coordinate core (:meth:`DriftFactor._solve_schur`), and
    every trace is read in the basis, where it has the same value.  ``y`` is
    Y~, ``x2`` is X_2~ = (X[Sigma0; A_2] - X[V; A_2] / (4 alpha))~, one solve
    by linearity, made the first time ``raw_variance`` asks for it.

    Building it runs the infinite-horizon checks (``checks``) and raises
    :class:`ConditionError` when one fails.
    """

    def __init__(self, sys, cost, with_variance):
        self.fac = fac = DriftFactor(sys.A)
        self.alpha = alpha = cost.alpha
        self.checks = _check_infinite(fac, alpha)
        what = "infinite-horizon variance" if with_variance else "infinite-horizon mean"
        _require(self.checks, what + " (cost diverges)")
        u = fac.u
        self.q, self.s, self.v = (u.T @ m @ u for m in (cost.Q, sys.Sigma0, sys.V))
        self.mu0 = sys.mu0 @ u
        self.y = fac._solve_schur(self.q, shift=alpha, transposed=True)
        self.mean = float(np.trace((self.s - self.v / (2.0 * alpha)) @ self.y))

    @cached_property
    def x2(self):
        alpha = self.alpha
        return self.fac._solve_schur(self.s - self.v / (4.0 * alpha), shift=2.0 * alpha)

    @cached_property
    def raw_variance(self):
        s, y, mu0 = self.s, self.y, self.mu0
        return float(
            2.0 * np.trace((s @ y) @ (s @ y))
            - 2.0 * (mu0 @ y @ mu0) ** 2
            + 4.0 * np.trace(self.x2 @ y @ self.v @ y)
        )

    @property
    def variance(self):
        return _finalize_variance(self.raw_variance, self.mean)


def _infinite_objective_gradient(sys, cost, objective):
    """``(J, dJ/dA, dJ/dQ, evaluation)`` for J the infinite-horizon mean or
    variance (``objective``), with ``evaluation`` the :class:`_InfiniteEvaluation`
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
    ev = _InfiniteEvaluation(sys, cost, objective == "variance")
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


# ---------------------------------------------------------------------------
# one evaluation on one factor
# ---------------------------------------------------------------------------

def _evaluate(sys, cost, with_variance):
    """``(mean, raw variance or None, branch, checks)`` from one factor of ``sys.A``."""
    if cost.is_infinite:
        ev = _InfiniteEvaluation(sys, cost, with_variance)
        return ev.mean, ev.raw_variance if with_variance else None, "infinite horizon", ev.checks

    fac = DriftFactor(sys.A)
    alpha = cost.alpha
    zero_branch = _use_zero_alpha(alpha, cost.horizon)
    multiples = (0,) if zero_branch else (0, 1, -1, 2) if with_variance else (0, 1)
    checks = _check_sylvester(fac, multiples, alpha)
    _require(checks, "finite-horizon variance" if with_variance else "finite-horizon mean")
    xv = fac.solve(sys.V)
    y = fac.solve(cost.Q, shift=0.0 if zero_branch else alpha, transposed=True)
    e0 = mat_exp(sys.A, cost.horizon)
    mean = _finite_mean(sys, cost, xv, y, e0)
    raw = _finite_variance(sys, cost, fac, xv, y, e0) if with_variance else None
    branch = "finite horizon, " + ("alpha=0 branch" if zero_branch else "general-alpha branch")
    return mean, raw, branch, checks


def expected_cost_finite(sys: LtiSystem, cost: CostSpec):
    """E of the finite-horizon cost integral (requires a finite ``cost.horizon``)."""
    _require_finite_horizon(cost)
    return _evaluate(sys, cost, with_variance=False)[0]


def variance_cost_finite(sys: LtiSystem, cost: CostSpec):
    """Var of the finite-horizon cost integral, clamped at zero against rounding."""
    _require_finite_horizon(cost)
    mean, raw, _, _ = _evaluate(sys, cost, with_variance=True)
    return _finalize_variance(raw, mean)


def expected_cost_infinite(sys: LtiSystem, cost: CostSpec):
    """E of the infinite-horizon cost; requires alpha < 0 and stable shifted drift."""
    _require_infinite_horizon(cost)
    return _evaluate(sys, cost, with_variance=False)[0]


def variance_cost_infinite(sys: LtiSystem, cost: CostSpec):
    """Var of the infinite-horizon cost; requires alpha < 0 and stable shifted drift."""
    _require_infinite_horizon(cost)
    mean, raw, _, _ = _evaluate(sys, cost, with_variance=True)
    return _finalize_variance(raw, mean)


def variance_cost_infinite_unreduced(sys: LtiSystem, cost: CostSpec):
    """Diagnostic evaluation of the infinite-horizon variance before algebraic reduction.

    Mathematically identical to :func:`variance_cost_infinite` but uses the
    initial-condition offset ``Sigma0 - X[V; A]`` explicitly, so it
    additionally needs the unshifted noise Lyapunov equation to be solvable.
    Exposed for the equivalence test between the two evaluations.
    """
    _require_infinite_horizon(cost)
    ev = _InfiniteEvaluation(sys, cost, with_variance=True)
    fac, alpha, y = ev.fac, ev.alpha, ev.y
    xv = fac._solve_schur(ev.v)
    delta = symmetrize(ev.s - xv)
    x2d = fac._solve_schur(delta, shift=2.0 * alpha)
    raw = (
        2.0 * np.trace((delta @ y) @ (delta @ y))
        - 2.0 * (ev.mu0 @ y @ ev.mu0) ** 2
        + 4.0 * np.trace(y @ xv @ ev.q @ (2.0 * x2d - xv / (4.0 * alpha)))
    )
    return _finalize_variance(float(raw), ev.mean)


# ---------------------------------------------------------------------------
# combined
# ---------------------------------------------------------------------------

def cost_stats_lyapunov(sys: LtiSystem, cost: CostSpec):
    """Mean and variance through the Lyapunov route, with condition provenance."""
    mean, raw, branch, checks = _evaluate(sys, cost, with_variance=True)
    return CostStats(
        mean=mean,
        variance=_finalize_variance(raw, mean),
        method="lyapunov",
        conditions_checked=checks,
        branch=branch,
        raw_variance=raw,
    )
