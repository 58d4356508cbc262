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

The algebraic Riccati equations are solved by Newton's method, where each
step is one Lyapunov solve through :mod:`lqgcost.linalg`; the iteration is
started from a stabilizing gain constructed by the eigenvalue-shift
(Bass) trick, which is itself one more Lyapunov solve.  Every stability
test reads ``classify_spectrum(m).is_stable`` (Re lambda < -DEFAULT_SPECTRAL_TOL).
"""

import copy
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, SynthesisError
from .linalg import _as_matrix, classify_spectrum, symmetrize
from .linalg import solve_lyapunov, solve_lyapunov_transposed
from .systems import CostSpec, LqgPlant, LtiSystem, INFINITE_HORIZON

__all__ = [
    "GainPair",
    "solve_riccati",
    "optimal_gain",
    "kalman_gain",
    "synthesize_gains",
    "close_loop_full_state",
    "close_loop_output_feedback",
]

RICCATI_STEP_TOL = 1e-12
RICCATI_MAX_ITER = 100
RICCATI_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class GainPair:
    """Feedback gain F and (optional) observer gain K."""

    F: np.ndarray
    K: np.ndarray = None


def _stabilizing_init(a, b):
    """Initial gain F0 with A - B F0 stable, by the eigenvalue-shift construction.

    Shift beta makes A + beta I anti-stable; the Lyapunov solution P of
    (A + beta I) P + P (A + beta I)^T = 2 B B^T is then positive definite for
    a controllable pair, and F0 = B^T P^{-1} stabilizes A
    (since (A - B F0) P + P (A - B F0)^T = -2 beta P < 0).
    """
    if classify_spectrum(a).is_stable:
        return np.zeros((b.shape[1], a.shape[0]))
    beta = 1.0 + np.linalg.norm(a, 2)
    shifted = a + beta * np.eye(a.shape[0])
    p = solve_lyapunov(shifted, -2.0 * b @ b.T)
    try:
        f0 = np.linalg.solve(p.T, b).T
    except np.linalg.LinAlgError:
        raise SynthesisError(
            "cannot construct a stabilizing initial gain: the pair (A, B) "
            "appears uncontrollable along an unstable mode"
        )
    if not classify_spectrum(a - b @ f0).is_stable:
        raise SynthesisError(
            "stabilizing-gain construction failed; (A, B) is likely not stabilizable"
        )
    return f0


def solve_riccati(a, b, q, r, max_iter=RICCATI_MAX_ITER, step_tol=RICCATI_STEP_TOL):
    """Stabilizing solution of A^T X + X A + Q - X B R^{-1} B^T X = 0.

    Newton iteration: given the k-th gain F_k, solve the Lyapunov equation

        (A - B F_k)^T X + X (A - B F_k) + Q + F_k^T R F_k = 0

    and update F_{k+1} = R^{-1} B^T X.  Quadratically convergent from a
    stabilizing start; monotone in the PSD order.

    Raises :class:`SynthesisError` when no stabilizing start exists or the
    iteration fails to push the residual below the acceptance tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = symmetrize(np.asarray(q, dtype=float))
    r = symmetrize(np.asarray(r, dtype=float))
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise DimensionError(f"B must be {a.shape[0]}xm, got {b.shape}")
    f = _stabilizing_init(a, b)
    x = None
    history = []
    for _ in range(max_iter):
        acl = a - b @ f
        x_new = solve_lyapunov_transposed(acl, q + f.T @ r @ f)
        x_new = symmetrize(x_new)
        f = np.linalg.solve(r, b.T @ x_new)
        if x is not None:
            step = np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x_new))
            history.append(step)
            if step < step_tol:
                x = x_new
                break
        x = x_new
    gain_term = b @ np.linalg.solve(r, b.T)
    residual = np.linalg.norm(a.T @ x + x @ a + q - x @ gain_term @ x)
    scale = 1.0 + np.linalg.norm(x) ** 2 * np.linalg.norm(gain_term)
    if residual > RICCATI_RESIDUAL_RTOL * scale:
        raise SynthesisError(
            f"Riccati iteration did not converge: residual {residual:.3e} "
            f"(tolerance {RICCATI_RESIDUAL_RTOL * scale:.3e}); "
            f"step history {['%.2e' % s for s in history[-5:]]}"
        )
    if not classify_spectrum(a - gain_term @ x).is_stable:
        raise SynthesisError("Riccati iteration converged to a non-stabilizing solution")
    return x


def optimal_gain(plant: LqgPlant):
    """Mean-cost-optimal state feedback gain F = R^{-1} B^T X on the shifted drift."""
    x = solve_riccati(plant.shifted_drift(), plant.B, plant.Q, plant.R)
    f = np.linalg.solve(plant.R, plant.B.T @ x)
    if not classify_spectrum(plant.shifted_drift() - plant.B @ f).is_stable:
        raise SynthesisError("optimal gain does not stabilize the shifted drift")
    return f


def kalman_gain(plant: LqgPlant):
    """Observer gain K = E C^T W^{-1} with A E + E A^T + V - E C^T W^{-1} C E = 0.

    The dual Riccati equation (drift transposed, B -> C^T, Q -> V, R -> W);
    note the *unshifted* drift: the estimator runs on the physical dynamics
    regardless of the cost exponent.
    """
    e = solve_riccati(plant.A.T, plant.C.T, plant.V, plant.W)
    k = np.linalg.solve(plant.W, plant.C @ e).T
    if not classify_spectrum(plant.A - k @ plant.C).is_stable:
        raise SynthesisError("observer gain does not stabilize the error dynamics")
    return k


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
    f = _as_matrix(f, "F")
    if f.shape != (plant.n_inputs, plant.n_states):
        raise DimensionError(
            f"F must be {plant.n_inputs}x{plant.n_states}, got {f.shape}"
        )
    # no check depends on the gain: validate the plant's parts, then swap in F's
    sys = LtiSystem(A=plant.A, V=plant.V, mu0=mu0, Sigma0=sigma0)
    cost = CostSpec(Q=plant.Q, alpha=plant.alpha, horizon=horizon)
    return _regain_full_state(plant, sys, cost, f)


def _regain_full_state(plant, sys, cost, f):
    """Copies of a validated loop of ``plant`` with the gain-dependent A - B F and
    Q + F^T R F of ``f`` (a finite float array of the gain's shape) swapped in."""
    sys, cost = copy.copy(sys), copy.copy(cost)
    sys.A = plant.A - plant.B @ f
    cost.Q = symmetrize(plant.Q + f.T @ plant.R @ f)
    return sys, cost


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
    f = np.asarray(f, dtype=float)
    k = np.asarray(k, dtype=float)
    n = plant.n_states
    if f.shape != (plant.n_inputs, n):
        raise DimensionError(f"F must be {plant.n_inputs}x{n}, got {f.shape}")
    if k.shape != (n, plant.n_outputs):
        raise DimensionError(f"K must be {n}x{plant.n_outputs}, got {k.shape}")
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
