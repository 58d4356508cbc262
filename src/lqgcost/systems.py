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
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .linalg import _as_matrix, _as_square, _require_pd, _require_psd, _require_symmetric

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


@dataclass
class LtiSystem:
    """Autonomous noisy linear system (A, V, mu0, Sigma0)."""

    A: np.ndarray
    V: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        self.A = _as_square(self.A, "A")
        n = self.A.shape[0]
        self.V = _square_of_size(self.V, n, "V")
        _require_psd(self.V, "V")
        self.mu0 = _as_vector(self.mu0, n, "mu0")
        self.Sigma0 = _square_of_size(self.Sigma0, n, "Sigma0")
        _require_psd(self.Sigma0 - np.outer(self.mu0, self.mu0), "Sigma0 - mu0 mu0^T")

    @property
    def dim(self):
        return self.A.shape[0]

    def initial_covariance(self):
        """Covariance of the initial state, Sigma0 - mu0 mu0^T."""
        return self.Sigma0 - np.outer(self.mu0, self.mu0)


@dataclass
class CostSpec:
    """Weight matrix, exponent and horizon of the quadratic cost."""

    Q: np.ndarray
    alpha: float = 0.0
    horizon: float = INFINITE_HORIZON

    def __post_init__(self):
        self.Q = _as_square(self.Q, "Q")
        self.Q = _require_symmetric(self.Q, "Q")
        self.alpha = float(self.alpha)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        self.horizon = float(self.horizon)
        if self.horizon != INFINITE_HORIZON and not self.horizon > 0:
            raise ValueError(f"finite horizon must be positive, got {self.horizon}")

    @property
    def is_infinite(self):
        return math.isinf(self.horizon)


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
