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

Symmetry and (semi)definiteness are checked by :mod:`lqgcost.linalg`, at
its ``PSD_TOL``, and refused with ConditionError.

``LtiSystem`` and ``CostSpec`` are immutable values: each copies its inputs
when it is built, its fields cannot be reassigned and its arrays are
read-only.  So a system can own ``factor``, the real Schur factor of its
drift, built on first use and shared by every route, shift and horizon it is
evaluated at.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionError
from .linalg import (DriftFactor, _as_matrix, _as_square, _require_pd, _require_psd,
                     _require_symmetric)

__all__ = ["LtiSystem", "CostSpec", "LqgPlant", "INFINITE_HORIZON"]

INFINITE_HORIZON = math.inf


def _as_vector(v, n, name):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _square_of_size(m, n, name):
    m = _as_square(m, name)
    if m.shape != (n, n):
        raise DimensionError(f"{name} must be {n}x{n}, got {m.shape}")
    return _require_symmetric(m, name)


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
        v = _square_of_size(self.V, n, "V")
        _require_psd(v, "V")
        mu0 = _as_vector(self.mu0, n, "mu0").copy()
        sigma0 = _square_of_size(self.Sigma0, n, "Sigma0")
        _require_psd(sigma0 - np.outer(mu0, mu0), "Sigma0 - mu0 mu0^T")
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
        q = _require_symmetric(_as_square(self.Q, "Q"), "Q")
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        horizon = float(self.horizon)
        if horizon != INFINITE_HORIZON and not horizon > 0:
            raise ValueError(f"finite horizon must be positive, got {horizon}")
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


@dataclass
class LqgPlant:
    """Controlled, observed plant for gain synthesis.

    dx/dt = A x + B u + v,   y = C x + w, with process noise intensity V,
    measurement noise intensity W, cost weights Q (state) and R (input),
    and cost exponent alpha.
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
        self.A = _as_square(self.A, "A")
        n = self.A.shape[0]
        self.B = _as_matrix(self.B, "B")
        if self.B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {self.B.shape}")
        self.C = _as_matrix(self.C, "C")
        if self.C.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {self.C.shape}")
        m, p = self.B.shape[1], self.C.shape[0]
        self.Q = _square_of_size(self.Q, n, "Q")
        _require_psd(self.Q, "Q")
        self.R = _square_of_size(self.R, m, "R")
        _require_pd(self.R, "R")
        self.V = _square_of_size(self.V, n, "V")
        _require_psd(self.V, "V")
        self.W = _square_of_size(self.W, p, "W")
        _require_pd(self.W, "W")
        self.alpha = float(self.alpha)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    def shifted_drift(self, k=1.0):
        """A + k * alpha * I, the exponent-shifted drift."""
        return self.A + k * self.alpha * np.eye(self.n_states)
