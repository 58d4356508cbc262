"""System and cost descriptions.

An :class:`LtiSystem` is the autonomous noisy linear system

    dx/dt = A x + v,      E[v(t) v(tau)^T] = V delta(t - tau),

with a Gaussian initial state described by its mean ``mu0`` and second
moment ``Sigma0 = E[x0 x0^T]`` (note: the second moment, not the
covariance -- the covariance is ``Sigma0 - mu0 mu0^T``).

A :class:`CostSpec` describes the exponentially weighted quadratic cost

    J = integral of exp(2 alpha t) x(t)^T Q x(t) dt

over [0, T] (finite horizon) or [0, inf) (``horizon = math.inf``).
Positive ``alpha`` acts as a prescribed degree of stability, negative
``alpha`` as a discount exponent.

An :class:`LqgPlant` is the controlled and observed plant that
:mod:`lqgcost.lqg` reduces to the autonomous form.

Every input check lives in :mod:`lqgcost.linalg`: shapes and finiteness
(DimensionError, ValueError), numbers such as ``alpha`` and ``horizon``
(ValueError for a bool, a string or NaN) and symmetry and
(semi)definiteness, at its ``PSD_TOL`` (ConditionError).  A Sigma0 - mu0 mu0^T
that overflows double precision is AccuracyError.  A cost's Q fits a
system when it is the system's n x n; the routes that meet the two check it.

``LtiSystem``, ``CostSpec`` and ``LqgPlant`` are immutable values: each
copies its inputs when it is built, its fields cannot be reassigned and its
arrays are read-only.  So a system can own ``factor``, the real Schur factor
of its drift, built on first use and shared by every route, shift and horizon
it is evaluated at.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (DriftFactor, _as_matrix, _as_square, _as_symmetric, _as_vector,
                     _real_number, _require_finite, _require_pd, _require_psd)

__all__ = ["LtiSystem", "CostSpec", "LqgPlant", "INFINITE_HORIZON"]

INFINITE_HORIZON = math.inf


def _set_fields(obj, **values):
    """Set fields of the frozen ``obj``, making each array read-only; the
    arrays must be ``obj``'s own."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Autonomous noisy linear system (A, V, mu0, Sigma0), an immutable value.

    Building it validates and copies the arrays, which are then read-only.
    ``factor`` is the :class:`~lqgcost.linalg.DriftFactor` of A, built the
    first time it is read and kept, so every evaluation of this system (each
    route, alpha and horizon) reads one Schur factorization.
    """

    A: np.ndarray
    V: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        a = _as_square(self.A, "A").copy()
        n = a.shape[0]
        v = _as_symmetric(self.V, "V", n)
        _require_psd(v, "V")
        mu0 = _as_vector(self.mu0, "mu0", n).copy()
        sigma0 = _as_symmetric(self.Sigma0, "Sigma0", n)
        with np.errstate(over="ignore", invalid="ignore"):
            c0 = sigma0 - np.outer(mu0, mu0)
        _require_psd(_require_finite("Sigma0 - mu0 mu0^T", c0), "Sigma0 - mu0 mu0^T")
        _set_fields(self, A=a, V=v, mu0=mu0, Sigma0=sigma0)

    @property
    def dim(self):
        return self.A.shape[0]

    @cached_property
    def factor(self):
        """The real Schur factor of A, shared by every solve on this system."""
        return DriftFactor(self.A)

    def __reduce__(self):
        # a copy or an unpickled system is built anew: read-only, without the factor
        return LtiSystem, (self.A, self.V, self.mu0, self.Sigma0)

    def initial_covariance(self):
        """Covariance of the initial state, Sigma0 - mu0 mu0^T."""
        return self.Sigma0 - np.outer(self.mu0, self.mu0)


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Weight matrix, exponent and horizon of the quadratic cost, an immutable
    value whose Q is a read-only copy."""

    Q: np.ndarray
    alpha: float = 0.0
    horizon: float = INFINITE_HORIZON

    def __post_init__(self):
        q = _as_symmetric(self.Q, "Q")
        alpha = _real_number("alpha", self.alpha)
        horizon = _real_number("horizon", self.horizon, 0.0, strict=True, infinite=True)
        _set_fields(self, Q=q, alpha=alpha, horizon=horizon)

    @property
    def is_infinite(self):
        return math.isinf(self.horizon)

    def __reduce__(self):
        return CostSpec, (self.Q, self.alpha, self.horizon)


def _with_gain_terms(sys, cost, a, q):
    """Copies of the validated ``sys`` and ``cost`` with the drift ``a`` and the
    weight ``q`` swapped in, for a gain's closed loop (A - B F and Q + F^T R F).

    Nothing is re-validated and the copy has no factor yet: the caller passes
    new arrays of the old shapes, ``a`` finite and ``q`` symmetric, which
    become read-only.
    """
    a.flags.writeable = q.flags.writeable = False
    new_sys, new_cost = object.__new__(LtiSystem), object.__new__(CostSpec)
    # the instance dictionaries directly, past the frozen __setattr__
    vars(new_sys).update(A=a, V=sys.V, mu0=sys.mu0, Sigma0=sys.Sigma0)
    vars(new_cost).update(Q=q, alpha=cost.alpha, horizon=cost.horizon)
    return new_sys, new_cost


@dataclass(frozen=True, eq=False)
class LqgPlant:
    """Controlled, observed plant for gain synthesis, an immutable value.

    dx/dt = A x + B u + v,   y = C x + w, with process noise intensity V,
    measurement noise intensity W, cost weights Q (state) and R (input),
    and cost exponent alpha.  Building it validates and copies the arrays,
    which are then read-only, so a later write to the caller's arrays does
    not reach the plant.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    V: np.ndarray
    W: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        a = _as_square(self.A, "A").copy()
        n = a.shape[0]
        b = _as_matrix(self.B, "B", (n, None)).copy()
        c = _as_matrix(self.C, "C", (None, n)).copy()
        m, p = b.shape[1], c.shape[0]
        q = _as_symmetric(self.Q, "Q", n)
        _require_psd(q, "Q")
        r = _as_symmetric(self.R, "R", m)
        _require_pd(r, "R")
        v = _as_symmetric(self.V, "V", n)
        _require_psd(v, "V")
        w = _as_symmetric(self.W, "W", p)
        _require_pd(w, "W")
        _set_fields(self, A=a, B=b, C=c, Q=q, R=r, V=v, W=w,
                    alpha=_real_number("alpha", self.alpha))

    def __reduce__(self):
        return LqgPlant, (self.A, self.B, self.C, self.Q, self.R, self.V, self.W, self.alpha)

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    def shifted_drift(self):
        """A + alpha * I, the exponent-shifted drift."""
        return self.A + self.alpha * np.eye(self.n_states)
