"""First and second moments of the state of a noisy linear system.

For dx/dt = A x + v with noise intensity V and Gaussian initial state,
the state stays Gaussian with

    mu(t)          = e^{A t} mu0,
    Sigma(t)       = e^{A t} (Sigma0 - X) e^{A^T t} + X,
    Sigma(t1, t2)  = e^{A t1} (Sigma0 - X) e^{A^T t2} + X e^{A^T (t2 - t1)},

where X solves A X + X A^T + V = 0 and Sigma(t1, t2) = E[x(t1) x(t2)^T]
for t1 <= t2.  X is solved on the system's factor (``sys.factor``), the one
Schur factorization of A that the cost routes share.  When that Lyapunov
equation is singular (A has eigenvalue pairs summing to zero), Sigma(t) falls
back to the equivalent integral form

    Sigma(t) = e^{A t} Sigma0 e^{A^T t} + integral_0^t e^{A s} V e^{A^T s} ds

evaluated through one block matrix exponential, so no spectral condition is
needed for the single-time second moment.  A moment that overflows double
precision raises :class:`AccuracyError`.
"""

import numpy as np

from .exceptions import AccuracyError, SingularLyapunovError
from .linalg import _difference, mat_exp, solve_lyapunov, symmetrize, van_loan_integral
from .systems import LtiSystem

__all__ = ["mean_state", "second_moment", "cross_moment", "noise_gramian_finite"]


def _check_time(t):
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def mean_state(sys: LtiSystem, t):
    """Mean of the state at time t: e^{A t} mu0 (AccuracyError on overflow)."""
    _check_time(t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = mat_exp(sys.A, t) @ sys.mu0
    return _require_finite(out, f"mu(t) at t = {t:g}")


def noise_gramian_finite(a, v, t):
    """integral_0^t e^{A s} V e^{A^T s} ds for any square A (no spectral conditions).

    Identity used: the block exponential of [[-A, V], [0, A^T]] * t has
    upper-right block integral_0^t e^{-A (t-s)} V e^{A^T s} ds; multiplying by
    e^{A t} from the left shifts the decaying factor onto the integrand.  The
    -A block grows like e^{-A t}, so a stable A can overflow it.  Only then is
    the Gramian X - e^{A t} X e^{A^T t} instead, with X solving
    A X + X A^T + V = 0, refused (AccuracyError) when its terms cancel beyond
    ``linalg.CANCELLATION_LIMIT`` or overflow; when that equation is singular
    the overflow raises AccuracyError.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = van_loan_integral(-a, v, a.T, t)
        out = symmetrize(mat_exp(a, t) @ inner)
    if np.all(np.isfinite(out)):
        return out
    try:
        x = solve_lyapunov(a, v)
    except SingularLyapunovError:
        raise AccuracyError(f"the noise Gramian's Van Loan exponential at t = {t:g} "
                            "overflows double precision") from None
    with np.errstate(over="ignore", invalid="ignore"):
        e = mat_exp(a, t)
        far = _require_finite(e @ x @ e.T, f"e^(A t) X e^(A^T t) at t = {t:g}")
    return _difference(x, far, f"the noise Gramian at t = {t:g}")


def second_moment(sys: LtiSystem, t):
    """Second moment Sigma(t) = E[x(t) x(t)^T], exactly symmetric (AccuracyError on overflow)."""
    _check_time(t)
    if t == 0.0:
        return sys.Sigma0.copy()
    try:
        x = sys.factor.solve(sys.V)
        start, rest = sys.Sigma0 - x, x
    except SingularLyapunovError:
        start, rest = sys.Sigma0, noise_gramian_finite(sys.A, sys.V, t)
    with np.errstate(over="ignore", invalid="ignore"):
        e = mat_exp(sys.A, t)
        out = symmetrize(e @ start @ e.T + rest)
    return _require_finite(out, f"Sigma(t) at t = {t:g}")


def _require_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise AccuracyError(f"{what} overflows double precision")
    return m


def cross_moment(sys: LtiSystem, t1, t2):
    """Cross moment Sigma(t1, t2) = E[x(t1) x(t2)^T] (AccuracyError on overflow).

    Requires the noise Lyapunov equation to be uniquely solvable; unlike
    :func:`second_moment` there is no integral fallback here.
    """
    _check_time(t1)
    _check_time(t2)
    if t1 > t2:
        return cross_moment(sys, t2, t1).T
    x = sys.factor.solve(sys.V)
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = mat_exp(sys.A, t1)
        e2 = mat_exp(sys.A, t2)
        out = e1 @ (sys.Sigma0 - x) @ e2.T + x @ mat_exp(sys.A.T, t2 - t1)
    if t1 == t2:
        out = symmetrize(out)
    return _require_finite(out, f"Sigma(t1, t2) at t1 = {t1:g}, t2 = {t2:g}")
