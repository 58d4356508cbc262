"""Reference values computed with NumPy and SciPy alone, independent of ``lqgcost``.

Nothing here imports the library under test: the infinite-horizon formulas
are derived afresh and every matrix equation goes through SciPy's
Bartels-Stewart Lyapunov solver or its Riccati solver, and the finite-horizon
values come from this module's own extended-precision exponential, so a
fault in the library's own kernels or algebra cannot cancel out of a
comparison.

Infinite-horizon cost of dx = A x dt + dv, E[dv dv^T] = V dt, x0 Gaussian
with mean mu0 and second moment Sigma0, J = int_0^inf e^{2 alpha t} x^T Q x dt:

* mean.  The discounted value function is e^{2 alpha t} (x^T Y x + c) with
  A1^T Y + Y A1 + Q = 0 (A1 = A + alpha I) and c = tr(V Y) / (-2 alpha), so
  E J = tr(Sigma0 Y) + tr(V Y) / (-2 alpha).
* variance.  M(t) = int_0^t (cost) + e^{2 alpha t} (x^T Y x + c) is a
  martingale with dM = 2 e^{2 alpha t} x^T Y dv, hence, by the Ito isometry,
  Var(J | x0) = 4 int_0^inf e^{4 alpha t} E[x^T Y V Y x | x0] dt and
  Var J = Var(x0^T Y x0) + 4 tr((Sigma0 - V / (4 alpha)) Z)
  with A2^T Z + Z A2 + Y V Y = 0 (A2 = A + 2 alpha I) and
  Var(x0^T Y x0) = 2 tr((Y Sigma0)^2) - 2 (mu0^T Y mu0)^2.

The library evaluates the same quantities with a different arrangement
(two forward solves at A2 instead of one transposed solve of Y V Y), so
agreement to rounding is a genuine cross-check.

Finite horizon T: the paper's 5n x 5n block exponential (the formula of
``lqgcost.cost_expm``, rebuilt here), evaluated in NumPy's 80-bit extended
precision by Taylor series with scaling and squaring, so it carries about
three more digits than any double-precision route it checks.
"""

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

__all__ = [
    "infinite_cost_stats",
    "finite_cost_stats_extended",
    "riccati_gain",
    "kalman_gain",
    "closed_loop_state_feedback",
    "closed_loop_output_feedback",
]


def _solve_transposed(a, w):
    """X with A^T X + X A + W = 0."""
    return solve_continuous_lyapunov(a.T, -w)


def infinite_cost_stats(a, v, mu0, sigma0, q, alpha):
    """(mean, variance) of the infinite-horizon discounted cost; needs alpha < 0
    and A + alpha I stable."""
    a, v, q, sigma0 = (np.asarray(m, dtype=float) for m in (a, v, q, sigma0))
    mu0 = np.asarray(mu0, dtype=float)
    if not alpha < 0.0:
        raise ValueError("the infinite-horizon reference needs alpha < 0")
    eye = np.eye(a.shape[0])
    if np.linalg.eigvals(a + alpha * eye).real.max() >= 0.0:
        raise ValueError("the infinite-horizon reference needs A + alpha I stable")
    y = _solve_transposed(a + alpha * eye, q)
    y = 0.5 * (y + y.T)
    mean = np.trace(sigma0 @ y) + np.trace(v @ y) / (-2.0 * alpha)
    z = _solve_transposed(a + 2.0 * alpha * eye, y @ v @ y)
    ys = y @ sigma0
    variance = (
        2.0 * np.trace(ys @ ys)
        - 2.0 * (mu0 @ y @ mu0) ** 2
        + 4.0 * np.trace((sigma0 - v / (4.0 * alpha)) @ z)
    )
    return float(mean), float(variance)


#: Extended precision (x86's 80-bit format: eps 1.1e-19).
_EXT = np.longdouble
#: Taylor degree after scaling the argument to 1-norm <= 1/4: 0.25^19 / 19! < 1e-30.
_TAYLOR_DEGREE = 18
#: Powers of the argument the Paterson-Stockmeyer evaluation keeps.
_PS_POWERS = 4


def _expm_extended(m):
    """e^M by Taylor series with scaling and squaring, in extended precision;
    the polynomial is evaluated by the Paterson-Stockmeyer scheme."""
    m = np.asarray(m, dtype=_EXT)
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.0 else 0
    x = m / _EXT(2.0) ** squarings
    powers = [np.eye(m.shape[0], dtype=_EXT), x]
    for _ in range(_PS_POWERS - 1):
        powers.append(powers[-1] @ x)
    coef = [_EXT(1.0)]
    for k in range(1, _TAYLOR_DEGREE + 1):
        coef.append(coef[-1] / _EXT(k))
    out = None
    for j in range(_TAYLOR_DEGREE // _PS_POWERS, -1, -1):
        terms = range(j * _PS_POWERS, min((j + 1) * _PS_POWERS, _TAYLOR_DEGREE + 1))
        chunk = sum(coef[k] * powers[k - j * _PS_POWERS] for k in terms)
        out = chunk if out is None else out @ powers[_PS_POWERS] + chunk
    for _ in range(squarings):
        out = out @ out
    return out


def finite_cost_stats_extended(a, v, mu0, sigma0, q, alpha, horizon):
    """(mean, variance) of the cost over [0, T], from the block exponential
    in extended precision."""
    a, v, q, sigma0 = (np.asarray(m, dtype=float) for m in (a, v, q, sigma0))
    mu0 = np.asarray(mu0, dtype=_EXT)
    n = a.shape[0]
    eye = np.eye(n)
    z = np.zeros((n, n))
    a2 = a + 2.0 * alpha * eye
    block = np.block([
        [-a2.T, q, z, z, z],
        [z, a, v, z, z],
        [z, z, -a.T, q, z],
        [z, z, z, a2, v],
        [z, z, z, z, -(a - 2.0 * alpha * eye).T],
    ])
    e = _expm_extended(block * horizon)
    # The (4,4) block is e^{A_2 T}; from its own exponential it keeps its
    # relative accuracy however small it is.
    e44 = _expm_extended(a2 * horizon)
    b = {j: e[0:n, (j - 1) * n:j * n] for j in (2, 3, 4, 5)}
    s0 = sigma0.astype(_EXT)
    m = e44.T @ (b[2] @ s0 + b[3])
    mean = np.trace(m)
    variance = (2.0 * np.trace(m @ m - 2.0 * e44.T @ (b[4] @ s0 + b[5]))
                - 2.0 * (mu0 @ e44.T @ b[2] @ mu0) ** 2)
    return float(mean), float(variance)


def riccati_gain(a, b, q, r, alpha):
    """Mean-optimal state-feedback gain R^-1 B^T X on the shifted drift A + alpha I."""
    a = np.asarray(a, dtype=float)
    x = solve_continuous_are(a + alpha * np.eye(a.shape[0]), b, q, r)
    return np.linalg.solve(r, np.asarray(b, dtype=float).T @ x)


def kalman_gain(a, c, v, w):
    """Steady-state observer gain E C^T W^-1 from the dual Riccati equation."""
    e = solve_continuous_are(np.asarray(a, dtype=float).T, np.asarray(c, dtype=float).T, v, w)
    return np.linalg.solve(w, np.asarray(c, dtype=float) @ e).T


def closed_loop_state_feedback(a, b, q, r, f):
    """(drift, weight) of the loop closed by u = -F x: A - B F and Q + F^T R F."""
    return a - b @ f, q + f.T @ r @ f


def closed_loop_output_feedback(a, b, c, q, r, v, w, f, k):
    """(drift, noise, weight) of u = -F xhat with the observer of gain K, in the
    stacked state [x; xhat]."""
    n = a.shape[0]
    zero = np.zeros((n, n))
    drift = np.block([[a, -b @ f], [k @ c, a - b @ f - k @ c]])
    noise = np.block([[v, zero], [zero, k @ w @ k.T]])
    weight = np.block([[q, zero], [zero, f.T @ r @ f]])
    return drift, noise, weight
