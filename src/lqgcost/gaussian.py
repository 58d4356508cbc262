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

from .linalg import _as_matrix, _as_symmetric, _as_vector, _require_finite, _require_psd
from .systems import _Value

__all__ = [
    "JointGaussian",
    "quartic_expectation",
    "joint_quartic_expectation",
]


@dataclass(frozen=True, eq=False)
class JointGaussian(_Value):
    """Jointly Gaussian pair (x, y): means and covariance blocks (K_yx = K_xy^T),
    an immutable value whose arrays are read-only copies."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    K_xx: np.ndarray
    K_xy: np.ndarray
    K_yy: np.ndarray

    def __post_init__(self):
        mu_x = _as_vector(self.mu_x, "mu_x")
        mu_y = _as_vector(self.mu_y, "mu_y")
        nx, ny = mu_x.size, mu_y.size
        k_xx = _as_symmetric(self.K_xx, "K_xx", nx)
        k_yy = _as_symmetric(self.K_yy, "K_yy", ny)
        k_xy = _as_matrix(self.K_xy, "K_xy", (nx, ny))
        _require_psd(np.block([[k_xx, k_xy], [k_xy.T, k_yy]]), "joint covariance")
        self._set(mu_x=mu_x, mu_y=mu_y, K_xx=k_xx, K_xy=k_xy, K_yy=k_yy)


def quartic_expectation(mu, second, p, q):
    """E[x^T P x * x^T Q x] for Gaussian x with mean mu and second moment E[x x^T]."""
    mu = _as_vector(mu, "mu")
    s = _as_symmetric(second, "second moment", mu.size)
    p = _as_symmetric(p, "P", mu.size)
    q = _as_symmetric(q, "Q", mu.size)
    # an overflow leaves a value that is not finite, which _require_finite refuses
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _require_finite("second moment - mu mu^T", s - np.outer(mu, mu))
        _require_psd(cov, "second moment - mu mu^T")
        sp = s @ p
        sq = s @ q
        value = (
            np.trace(sp) * np.trace(sq)
            + 2.0 * np.trace(sp @ sq)
            - 2.0 * (mu @ p @ mu) * (mu @ q @ mu)
        )
    return _require_finite("the quartic expectation", value)


def joint_quartic_expectation(jg: JointGaussian, p, q):
    """E[x^T P x * y^T Q y] for the jointly Gaussian pair ``jg``."""
    p = _as_symmetric(p, "P", jg.mu_x.size)
    q = _as_symmetric(q, "Q", jg.mu_y.size)
    with np.errstate(over="ignore", invalid="ignore"):
        s_xx = jg.K_xx + np.outer(jg.mu_x, jg.mu_x)
        s_yy = jg.K_yy + np.outer(jg.mu_y, jg.mu_y)
        s_xy = jg.K_xy + np.outer(jg.mu_x, jg.mu_y)
        s_yx = s_xy.T
        value = (
            np.trace(s_xx @ p) * np.trace(s_yy @ q)
            + 2.0 * np.trace(s_yx @ p @ s_xy @ q)
            - 2.0 * (jg.mu_x @ p @ jg.mu_x) * (jg.mu_y @ q @ jg.mu_y)
        )
    return _require_finite("the joint quartic expectation", value)
