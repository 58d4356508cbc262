"""Quartic expectations of Gaussian vectors.

For a Gaussian x with mean mu and *second moment* S = E[x x^T] (not the
covariance!) and symmetric P, Q:

    E[x^T P x * x^T Q x] = tr(S P) tr(S Q) + 2 tr(S P S Q) - 2 mu^T P mu mu^T Q mu.

The two-vector version for jointly Gaussian (x, y) with covariance blocks
K_xx, K_xy, K_yy is the same expression with S replaced by the matching
second-moment blocks S_ab = K_ab + mu_a mu_b^T:

    E[x^T P x * y^T Q y] = tr(S_xx P) tr(S_yy Q) + 2 tr(S_yx P S_xy Q)
                           - 2 mu_x^T P mu_x mu_y^T Q mu_y.

Carrying second moments rather than covariances through the API mirrors the
rest of the library and avoids the classic second-moment/covariance mix-up.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .linalg import _as_matrix, _as_square, _require_psd, _require_symmetric

__all__ = [
    "JointGaussian",
    "quartic_expectation",
    "joint_quartic_expectation",
]


def _square_symmetric(m, name):
    return _require_symmetric(_as_square(m, name), name)


@dataclass
class JointGaussian:
    """Jointly Gaussian pair (x, y): means and covariance blocks (K_yx = K_xy^T)."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    K_xx: np.ndarray
    K_xy: np.ndarray
    K_yy: np.ndarray

    def __post_init__(self):
        self.mu_x = np.asarray(self.mu_x, dtype=float).reshape(-1)
        self.mu_y = np.asarray(self.mu_y, dtype=float).reshape(-1)
        nx, ny = self.mu_x.size, self.mu_y.size
        self.K_xx = _square_symmetric(self.K_xx, "K_xx")
        self.K_yy = _square_symmetric(self.K_yy, "K_yy")
        self.K_xy = _as_matrix(self.K_xy, "K_xy")
        if self.K_xx.shape != (nx, nx) or self.K_yy.shape != (ny, ny) or self.K_xy.shape != (nx, ny):
            raise DimensionError(
                f"covariance blocks {self.K_xx.shape}/{self.K_xy.shape}/{self.K_yy.shape} "
                f"do not conform with mean sizes {nx}/{ny}"
            )
        _require_psd(np.block([[self.K_xx, self.K_xy], [self.K_xy.T, self.K_yy]]),
                     "joint covariance")


def quartic_expectation(mu, second, p, q):
    """E[x^T P x * x^T Q x] for Gaussian x with mean mu and second moment E[x x^T]."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    s = _square_symmetric(second, "second moment")
    p = _square_symmetric(p, "P")
    q = _square_symmetric(q, "Q")
    if s.shape[0] != mu.size or p.shape != s.shape or q.shape != s.shape:
        raise DimensionError("mu, second moment, P and Q sizes do not conform")
    _require_psd(s - np.outer(mu, mu), "second moment - mu mu^T")
    sp = s @ p
    sq = s @ q
    return (
        np.trace(sp) * np.trace(sq)
        + 2.0 * np.trace(sp @ sq)
        - 2.0 * (mu @ p @ mu) * (mu @ q @ mu)
    )


def joint_quartic_expectation(jg: JointGaussian, p, q):
    """E[x^T P x * y^T Q y] for the jointly Gaussian pair ``jg``."""
    p = _square_symmetric(p, "P")
    q = _square_symmetric(q, "Q")
    nx, ny = jg.mu_x.size, jg.mu_y.size
    if p.shape != (nx, nx) or q.shape != (ny, ny):
        raise DimensionError(f"P must be {nx}x{nx} and Q {ny}x{ny}, got {p.shape}, {q.shape}")
    s_xx = jg.K_xx + np.outer(jg.mu_x, jg.mu_x)
    s_yy = jg.K_yy + np.outer(jg.mu_y, jg.mu_y)
    s_xy = jg.K_xy + np.outer(jg.mu_x, jg.mu_y)
    s_yx = s_xy.T
    return (
        np.trace(s_xx @ p) * np.trace(s_yy @ q)
        + 2.0 * np.trace(s_yx @ p @ s_xy @ q)
        - 2.0 * (jg.mu_x @ p @ jg.mu_x) * (jg.mu_y @ q @ jg.mu_y)
    )
