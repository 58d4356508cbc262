"""First and second moments of the state of a noisy linear system.

For dx/dt = A x + v with noise intensity V and Gaussian initial state,
the state stays Gaussian with

    mu(t)          = e^{A t} mu0,
    Sigma(t)       = e^{A t} Sigma0 e^{A^T t} + W(t),
    Sigma(t1, t2)  = Sigma(t1) e^{A^T (t2 - t1)}          (t1 <= t2),

where W(t) = integral_0^t e^{A s} V e^{A^T s} ds is the noise Gramian and
Sigma(t1, t2) = E[x(t1) x(t2)^T].  One propagation gives e^{A t} and W(t)
for any square A, with no spectral condition and no Lyapunov solve: at a
step h = t / 2^k with ||A||_1 h <= 1 both come from one Van Loan block
exponential, and k doublings

    W(2h) = W(h) + e^{A h} W(h) e^{A^T h},    e^{2 A h} = (e^{A h})^2

carry them to t (C. F. Van Loan, "Computing integrals involving the matrix
exponential", IEEE Trans. Automat. Control 23(3), 1978).  Each doubling adds
positive semidefinite terms, so nothing cancels on stiff, unstable or
non-normal drifts.  A moment that overflows double precision raises
:class:`AccuracyError`.
"""

import math

import numpy as np

from .exceptions import AccuracyError
from .linalg import _as_square, mat_exp, symmetrize, van_loan_integral
from .systems import LtiSystem

__all__ = ["mean_state", "second_moment", "cross_moment", "noise_gramian_finite"]


def _check_time(t):
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")


def _propagate(a, v, t):
    """(e^{A t}, W(t)) for a finite t >= 0, by scaling and squaring.

    The doubling count k is the least with ||A||_1 t / 2^k <= 1, taken from
    logarithms so that neither ||A||_1 nor ||A||_1 t is formed; at k = 0 this
    is one exponential and one Van Loan block at t.  Overflow is left to the
    caller, which checks what it returns.
    """
    mag = np.abs(a)
    scale = mag.max()
    k = 0
    if scale > 0.0 and t > 0.0:
        norm = (mag / scale).sum(axis=0).max()      # ||A||_1 / scale, at least 1
        k = max(0, math.ceil(math.log2(scale) + math.log2(norm) + math.log2(t)))
    h = math.ldexp(t, -k)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = mat_exp(a, h)
        w = symmetrize(phi @ van_loan_integral(-a, v, a.T, h))
        for _ in range(k):
            w = symmetrize(w + phi @ w @ phi.T)
            phi = phi @ phi
    return phi, w


def mean_state(sys: LtiSystem, t):
    """Mean of the state at time t: e^{A t} mu0 (AccuracyError on overflow)."""
    _check_time(t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = mat_exp(sys.A, t) @ sys.mu0
    return _require_finite(out, f"mu(t) at t = {t:g}")


def noise_gramian_finite(a, v, t):
    """Noise Gramian W(t) = integral_0^t e^{A s} V e^{A^T s} ds for any square A.

    Exactly symmetric; AccuracyError when it overflows double precision.
    """
    a = _as_square(a, "A")
    _check_time(t)
    return _require_finite(_propagate(a, v, t)[1], f"the noise Gramian at t = {t:g}")


def second_moment(sys: LtiSystem, t):
    """Second moment Sigma(t) = E[x(t) x(t)^T], exactly symmetric (AccuracyError on overflow)."""
    _check_time(t)
    phi, w = _propagate(sys.A, sys.V, t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = symmetrize(phi @ sys.Sigma0 @ phi.T + w)
    return _require_finite(out, f"Sigma(t) at t = {t:g}")


def _require_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise AccuracyError(f"{what} overflows double precision")
    return m


def cross_moment(sys: LtiSystem, t1, t2):
    """Cross moment Sigma(t1, t2) = E[x(t1) x(t2)^T] for any drift (AccuracyError on overflow)."""
    _check_time(t1)
    _check_time(t2)
    if t1 > t2:
        return cross_moment(sys, t2, t1).T
    with np.errstate(over="ignore", invalid="ignore"):
        out = second_moment(sys, t1) @ mat_exp(sys.A.T, t2 - t1)
    return _require_finite(out, f"Sigma(t1, t2) at t1 = {t1:g}, t2 = {t2:g}")
