"""Reduction of a controlled, observed LQG plant to autonomous form.

State feedback u = -F x with the Riccati-optimal gain

    F = R^{-1} B^T X,    A_s^T X + X A_s + Q - X B R^{-1} B^T X = 0,

(where A_s is the exponent-shifted drift A + alpha I) turns the plant into
dx/dt = (A - B F) x + v with cost weight Q + F^T R F.  With a noisy output
y = C x + w, the observer gain K = E C^T W^{-1} (E the filter Riccati
solution) and control from the estimate give the doubled-up autonomous
system in the stacked state [x; xhat]:

    [   A         -BF      ]         [ v  ]
    [  KC     A - BF - KC  ]  driven [ Kw ].

The feedback acts on the physical state only through u = -F xhat, so the
(1,1) block is the open-loop drift; the closed-loop spectrum is the union
of eig(A - BF) and eig(A - KC), as the separation principle demands.

Each algebraic Riccati equation is solved from one ordered real Schur form
of its Hamiltonian matrix (Laub's method), refined by one Newton step, a
single Lyapunov solve through :mod:`lqgcost.linalg` (Kleinman).  Its one
stability test reads ``classify_spectrum(m).is_stable`` (Re lambda <
-DEFAULT_SPECTRAL_TOL) on the closed loop A - B R^{-1} B^T X, which for the
two gains is A + alpha I - B F and A - K C.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .exceptions import ConditionError, NumericalError, SynthesisError
from .linalg import (_as_matrix, _as_square, _as_symmetric, _require_pd, classify_spectrum,
                     solve_lyapunov_transposed, symmetrize)
from .systems import CostSpec, LqgPlant, LtiSystem, INFINITE_HORIZON, _with_gain_terms

__all__ = [
    "GainPair",
    "solve_riccati",
    "optimal_gain",
    "kalman_gain",
    "synthesize_gains",
    "close_loop_full_state",
    "close_loop_output_feedback",
]

RICCATI_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class GainPair:
    """Feedback gain F and (optional) observer gain K."""

    F: np.ndarray
    K: np.ndarray = None


def solve_riccati(a, b, q, r):
    """Stabilizing solution of A^T X + X A + Q - X G X = 0, G = B R^{-1} B^T.

    Laub's method: the real Schur form of the Hamiltonian [[A, -G], [-Q, -A^T]],
    ordered so that its n left-half-plane eigenvalues lead, spans the stable
    invariant subspace [U_11; U_21], and X = U_21 U_11^{-1} (A. J. Laub, IEEE
    Trans. Automat. Control 24(6), 1979).  One Newton step from it, the
    Lyapunov solve (A - B F)^T X' + X' (A - B F) + Q + F^T R F = 0 with
    F = R^{-1} B^T X, restores the digits the subspace loses to rounding
    (D. L. Kleinman, IEEE Trans. Automat. Control 13(1), 1968).

    Raises :class:`DimensionError` naming a mis-shaped argument,
    :class:`ConditionError` unless Q and R are symmetric and R is positive
    definite (at ``linalg.PSD_TOL``, as :class:`~lqgcost.systems.LqgPlant`
    checks them), and :class:`SynthesisError` when not exactly n eigenvalues
    lie in the left half-plane, U_11 is singular, the Newton step fails, the
    residual exceeds ``RICCATI_RESIDUAL_RTOL`` relative, or A - G X is not
    stable.
    """
    a = _as_square(a, "A")
    n = len(a)
    b = _as_matrix(b, "B", (n, None))
    q = _as_symmetric(q, "Q", n)
    r = _as_symmetric(r, "R", b.shape[1])
    _require_pd(r, "R")
    gain_term = b @ np.linalg.solve(r, b.T)
    _, u, stable_dim = schur(np.block([[a, -gain_term], [-q, -a.T]]),
                             output="real", sort="lhp")
    if stable_dim != n:
        raise SynthesisError(
            f"the Hamiltonian has {stable_dim} eigenvalues in the left half-plane, not {n}: "
            "(A, B) is not stabilizable or (A, Q) has a mode on the imaginary axis")
    try:
        x = np.linalg.solve(u[:n, :n].T, u[n:, :n].T)   # (U_21 U_11^{-1})^T
    except np.linalg.LinAlgError:
        raise SynthesisError("the stable invariant subspace of the Hamiltonian is not a graph")
    f = np.linalg.solve(r, b.T @ symmetrize(x))
    try:
        x = symmetrize(solve_lyapunov_transposed(a - b @ f, q + f.T @ r @ f))
    except (ConditionError, NumericalError) as exc:
        raise SynthesisError(f"Newton step from the Schur solution failed: {exc}") from exc
    residual = np.linalg.norm(a.T @ x + x @ a + q - x @ gain_term @ x)
    scale = 1.0 + np.linalg.norm(x) ** 2 * np.linalg.norm(gain_term)
    if residual > RICCATI_RESIDUAL_RTOL * scale:
        raise SynthesisError(
            f"Riccati residual {residual:.3e} exceeds the tolerance "
            f"{RICCATI_RESIDUAL_RTOL * scale:.3e}"
        )
    if not classify_spectrum(a - gain_term @ x).is_stable:
        raise SynthesisError("the Riccati solution does not stabilize A - B R^{-1} B^T X")
    return x


def optimal_gain(plant: LqgPlant):
    """Mean-cost-optimal state feedback gain F = R^{-1} B^T X on the shifted drift."""
    x = solve_riccati(plant.shifted_drift(), plant.B, plant.Q, plant.R)
    return np.linalg.solve(plant.R, plant.B.T @ x)


def kalman_gain(plant: LqgPlant):
    """Observer gain K = E C^T W^{-1} with A E + E A^T + V - E C^T W^{-1} C E = 0.

    The dual Riccati equation (drift transposed, B -> C^T, Q -> V, R -> W);
    note the *unshifted* drift: the estimator runs on the physical dynamics
    regardless of the cost exponent.
    """
    e = solve_riccati(plant.A.T, plant.C.T, plant.V, plant.W)
    return np.linalg.solve(plant.W, plant.C @ e).T


def synthesize_gains(plant: LqgPlant, full_state=False):
    """Both gains for the plant; skips the observer when ``full_state``."""
    f = optimal_gain(plant)
    k = None if full_state else kalman_gain(plant)
    return GainPair(F=f, K=k)


def close_loop_full_state(plant: LqgPlant, f, mu0, sigma0, horizon=INFINITE_HORIZON):
    """Close the loop with u = -F x (state fully measured).

    Returns the autonomous system (A - B F, V, mu0, Sigma0) and the cost
    spec whose weight Q + F^T R F accounts for the input penalty u^T R u
    under the feedback law.
    """
    f = _as_matrix(f, "F", (plant.n_inputs, plant.n_states))
    # no check depends on the gain: validate the plant's parts, then swap in F's
    sys = LtiSystem(A=plant.A, V=plant.V, mu0=mu0, Sigma0=sigma0)
    cost = CostSpec(Q=plant.Q, alpha=plant.alpha, horizon=horizon)
    return _regain_full_state(plant, sys, cost, f)


def _regain_full_state(plant, sys, cost, f):
    """Copies of a validated loop of ``plant`` with the gain-dependent A - B F and
    Q + F^T R F of ``f`` (a finite float array of the gain's shape) swapped in;
    the copied system factors its own drift."""
    return _with_gain_terms(sys, cost, plant.A - plant.B @ f,
                            symmetrize(plant.Q + f.T @ plant.R @ f))


def close_loop_output_feedback(plant: LqgPlant, f, k, mu0, sigma0,
                               horizon=INFINITE_HORIZON):
    """Close the loop with u = -F xhat, xhat from the observer with gain K.

    The autonomous state is the stacked [x; xhat] (dimension 2n).  The two
    noise sources v and w are independent, so the stacked noise [v; K w] has
    block-diagonal intensity diag(V, K W K^T).  The cost integrand
    x^T Q x + u^T R u with u = -F xhat becomes the block-diagonal weight
    diag(Q, F^T R F) on the stacked state.

    ``mu0`` and ``sigma0`` describe the stacked initial state.
    """
    n = plant.n_states
    f = _as_matrix(f, "F", (plant.n_inputs, n))
    k = _as_matrix(k, "K", (n, plant.n_outputs))
    bf = plant.B @ f
    kc = k @ plant.C
    # row 1 is dx/dt = A x - B F xhat + v: the physical state sees the input
    # only through the estimate, so its own drift block stays A
    drift = np.block([[plant.A, -bf], [kc, plant.A - bf - kc]])
    noise = np.zeros((2 * n, 2 * n))
    noise[:n, :n] = plant.V
    noise[n:, n:] = symmetrize(k @ plant.W @ k.T)
    weight = np.zeros((2 * n, 2 * n))
    weight[:n, :n] = plant.Q
    weight[n:, n:] = symmetrize(f.T @ plant.R @ f)
    sys = LtiSystem(A=drift, V=noise, mu0=mu0, Sigma0=sigma0)
    return sys, CostSpec(Q=weight, alpha=plant.alpha, horizon=horizon)
