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

``LtiSystem``, ``CostSpec`` and ``LqgPlant`` are immutable values, as are
``SimConfig``, ``TuneOptions`` and ``JointGaussian``: each is a frozen
dataclass on the base ``_Value``, which stores every validated array as a
read-only copy and rebuilds a copied or unpickled value through its
constructor.  A changed copy is ``dataclasses.replace(value, field=...)``,
validated anew.  So a system can own ``factor``, the real Schur factor of its
drift, built on first use and shared by every route, shift and horizon it is
evaluated at.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (DriftFactor, _as_matrix, _as_square, _as_symmetric, _as_vector,
                     _real_number, _require_finite, _require_pd, _require_psd)

__all__ = ["LtiSystem", "CostSpec", "LqgPlant", "INFINITE_HORIZON"]

INFINITE_HORIZON = math.inf


class _Value:
    """Base of the frozen dataclasses whose validated fields never change."""

    def _set(self, **values):
        """Store the validated ``values`` past the frozen ``__setattr__``, each
        array as a read-only copy, so no caller's array reaches the value."""
        for name, value in values.items():
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # a copy or an unpickled value is built anew: validated, read-only and
        # without what it cached, such as a system's factor
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def _derived(self, **changes):
        """A copy with the fields ``changes`` swapped in, not validated and
        without what this value cached, for the tuner's closed loops.  The
        caller passes new arrays that would pass validation (a finite drift,
        a symmetric weight of the old shape), which become read-only in place."""
        for value in changes.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        new = object.__new__(type(self))
        # the instance dictionary directly, past the frozen __setattr__
        vars(new).update({name: getattr(self, name) for name in self.__dataclass_fields__},
                         **changes)
        return new


@dataclass(frozen=True, eq=False)
class LtiSystem(_Value):
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
        a = _as_square(self.A, "A")
        n = a.shape[0]
        v = _as_symmetric(self.V, "V", n)
        _require_psd(v, "V")
        mu0 = _as_vector(self.mu0, "mu0", n)
        sigma0 = _as_symmetric(self.Sigma0, "Sigma0", n)
        with np.errstate(over="ignore", invalid="ignore"):
            c0 = sigma0 - np.outer(mu0, mu0)
        _require_psd(_require_finite("Sigma0 - mu0 mu0^T", c0), "Sigma0 - mu0 mu0^T")
        self._set(A=a, V=v, mu0=mu0, Sigma0=sigma0)

    @property
    def dim(self):
        return self.A.shape[0]

    @cached_property
    def factor(self):
        """The real Schur factor of A, shared by every solve on this system."""
        return DriftFactor(self.A)

    def initial_covariance(self):
        """Covariance of the initial state, Sigma0 - mu0 mu0^T."""
        return self.Sigma0 - np.outer(self.mu0, self.mu0)


@dataclass(frozen=True, eq=False)
class CostSpec(_Value):
    """Weight matrix, exponent and horizon of the quadratic cost, an immutable
    value whose Q is a read-only copy."""

    Q: np.ndarray
    alpha: float = 0.0
    horizon: float = INFINITE_HORIZON

    def __post_init__(self):
        q = _as_symmetric(self.Q, "Q")
        alpha = _real_number("alpha", self.alpha)
        horizon = _real_number("horizon", self.horizon, 0.0, strict=True, infinite=True)
        self._set(Q=q, alpha=alpha, horizon=horizon)

    @property
    def is_infinite(self):
        return math.isinf(self.horizon)


@dataclass(frozen=True, eq=False)
class LqgPlant(_Value):
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
        a = _as_square(self.A, "A")
        n = a.shape[0]
        b = _as_matrix(self.B, "B", (n, None))
        c = _as_matrix(self.C, "C", (None, n))
        m, p = b.shape[1], c.shape[0]
        q = _as_symmetric(self.Q, "Q", n)
        _require_psd(q, "Q")
        r = _as_symmetric(self.R, "R", m)
        _require_pd(r, "R")
        v = _as_symmetric(self.V, "V", n)
        _require_psd(v, "V")
        w = _as_symmetric(self.W, "W", p)
        _require_pd(w, "W")
        self._set(A=a, B=b, C=c, Q=q, R=r, V=v, W=w, alpha=_real_number("alpha", self.alpha))

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
