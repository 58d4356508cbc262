"""First and second moments of the state of a noisy linear system.

For dx/dt = A x + v with noise intensity V and Gaussian initial state,
the state stays Gaussian with

    mu(t)          = e^{A t} mu0,
    Sigma(t)       = e^{A t} Sigma0 e^{A^T t} + W(t),
    Sigma(t1, t2)  = Sigma(t1) e^{A^T (t2 - t1)}          (t1 <= t2),

where W(t) = integral_0^t e^{A s} V e^{A^T s} ds is the noise Gramian and
Sigma(t1, t2) = E[x(t1) x(t2)^T].  One propagation gives e^{A t} and W(t)
for any square A, with no spectral condition and no Lyapunov solve: at a
step h = t / 2^k with ||A||_1 h <= 1, one exponential E = e^{[[A, V], [0, -A^T]] h}
(``linalg._block_chain``) gives e^{A h} = E_11 and W(h) = sym(E_12 E_11^T), and k doublings

    W(2h) = W(h) + e^{A h} W(h) e^{A^T h},    e^{2 A h} = (e^{A h})^2

carry them to t (C. F. Van Loan, "Computing integrals involving the matrix
exponential", IEEE Trans. Automat. Control 23(3), 1978).  Each doubling adds
positive semidefinite terms, so nothing cancels on stiff, unstable or
non-normal drifts.  A moment that overflows double precision raises
:class:`AccuracyError`.  The cost segment's record and its composition, which
:mod:`lqgcost.cost_expm` doubles by the same scaling and squaring, live here too.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.linalg import expm

from .linalg import (_as_square, _as_symmetric, _block_chain, _real_number, _require_finite,
                     symmetrize)
from .systems import LtiSystem

__all__ = ["mean_state", "second_moment", "cross_moment", "noise_gramian_finite"]


def _doubling_count(a, t, shift=0.0):
    """The least k >= 0 with (||A||_1 + shift) t / 2^k <= 1, from logarithms
    so that neither the norm nor its product with t is formed."""
    mag = np.abs(a)
    scale = max(float(mag.max()), shift)
    if scale == 0.0 or t == 0.0:
        return 0
    norm = float((mag / scale).sum(axis=0).max()) + shift / scale
    return max(0, math.ceil(math.log2(scale) + math.log2(norm) + math.log2(t)))


def _van_loan_steps(a, v, s):
    """Stacks of e^{A s} and W(s) = sym(E_12 E_11^T) over the 1-d array s, E the exponential
    of the chain [[A, V], [0, -A^T]] s of :func:`_block_chain` for each s on its own in one
    call (Van Loan, IEEE TAC 23(3), 1978).  Unvalidated; accurate while ||A||_1 s <= 1."""
    n = a.shape[0]
    e = expm(s[:, None, None] * _block_chain([a, -a.T], [v]))
    phi = e[:, :n, :n]
    w = e[:, :n, n:] @ phi.transpose(0, 2, 1)
    return phi, 0.5 * (w + w.transpose(0, 2, 1))


def _propagate(a, v, t):
    """(e^{A t}, W(t)) for a finite t >= 0: one Van Loan exponential at t / 2^k,
    k the least count with ||A||_1 t / 2^k <= 1, then k doublings.  Overflow is
    left to the caller, which checks what it returns."""
    k = _doubling_count(a, t)
    with np.errstate(over="ignore", invalid="ignore"):
        phis, ws = _van_loan_steps(a, v, np.array([math.ldexp(t, -k)]))
        phi, w = phis[0], ws[0]
        for _ in range(k):
            w = symmetrize(w + phi @ w @ phi.T)
            phi = phi @ phi
    return phi, w


#: The record of one cost segment, quadratic in its start x0; its fields are
#: defined in :mod:`lqgcost.cost_expm`'s docstring.
_Segment = namedtuple("_Segment", "phi W P c G v H K")


def _compose(s1, s2, om):
    """The record of segment s1 followed by s2, with om = e^{2 alpha (length of s1)}."""
    pw = s2.P @ s1.W
    phi1t, phi2t = s1.phi.T, s2.phi.T
    w1 = s2.phi @ s1.W
    return _Segment(
        phi=s2.phi @ s1.phi,
        W=symmetrize(w1 @ phi2t + s2.W),
        P=symmetrize(s1.P + om * (phi1t @ s2.P @ s1.phi)),
        c=s1.c + om * (np.trace(pw) + s2.c),
        G=symmetrize(s1.G + om * om * (phi1t @ (s2.G + pw @ s2.P) @ s1.phi)
                     + 2.0 * om * symmetrize(s1.H @ s2.P @ s1.phi)),
        v=(s1.v + om * om * (4.0 * np.trace(s2.G @ s1.W) + s2.v + 2.0 * np.trace(pw @ pw))
           + 4.0 * om * np.trace(s2.P @ s1.K)),
        H=s1.H @ phi2t + om * (phi1t @ (s2.H + pw @ phi2t)),
        K=symmetrize(s2.phi @ s1.K @ phi2t
                     + om * (s2.K + 2.0 * symmetrize(w1 @ s2.H) + w1 @ s2.P @ w1.T)),
    )


def mean_state(sys: LtiSystem, t):
    """Mean of the state at time t: e^{A t} mu0 (AccuracyError on overflow)."""
    t = _real_number("t", t, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(sys.A * t) @ sys.mu0
    return _require_finite(f"mu(t) at t = {t:g}", out)


def noise_gramian_finite(a, v, t):
    """Noise Gramian W(t) = integral_0^t e^{A s} V e^{A^T s} ds for any square A.

    V must be symmetric and of A's size.  Exactly symmetric; AccuracyError
    when it overflows double precision.
    """
    a = _as_square(a, "A")
    v = _as_symmetric(v, "V", len(a))
    t = _real_number("t", t, 0.0)
    return _require_finite(f"the noise Gramian at t = {t:g}", _propagate(a, v, t)[1])


def second_moment(sys: LtiSystem, t):
    """Second moment Sigma(t) = E[x(t) x(t)^T], exactly symmetric (AccuracyError on overflow)."""
    t = _real_number("t", t, 0.0)
    phi, w = _propagate(sys.A, sys.V, t)
    with np.errstate(over="ignore", invalid="ignore"):
        out = symmetrize(phi @ sys.Sigma0 @ phi.T + w)
    return _require_finite(f"Sigma(t) at t = {t:g}", out)


def cross_moment(sys: LtiSystem, t1, t2):
    """Cross moment Sigma(t1, t2) = E[x(t1) x(t2)^T] for any drift (AccuracyError on overflow)."""
    t1 = _real_number("t1", t1, 0.0)
    t2 = _real_number("t2", t2, 0.0)
    if t1 > t2:
        return cross_moment(sys, t2, t1).T
    with np.errstate(over="ignore", invalid="ignore"):
        out = second_moment(sys, t1) @ expm(sys.A.T * (t2 - t1))
    return _require_finite(f"Sigma(t1, t2) at t1 = {t1:g}, t2 = {t2:g}", out)
