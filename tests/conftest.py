"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the closed-form code paths they are used
to check: Lyapunov solutions are cross-checked by adaptive quadrature of the
defining integral, and cost variances by two-dimensional trapezoidal
quadrature of the quartic-moment integrand built from the (separately
tested) state moments and Gaussian quartic expectation formulas.
"""

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.linalg import expm

import lqgcost.linalg
from lqgcost import (
    CostSpec,
    JointGaussian,
    LqgPlant,
    LtiSystem,
    joint_quartic_expectation,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20230417)


@pytest.fixture
def expm_calls(monkeypatch):
    """The shapes of the matrices ``lqgcost.linalg`` exponentiates, in order."""
    calls = []
    real = lqgcost.linalg.expm

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(lqgcost.linalg, "expm", counting)
    return calls


# ---------------------------------------------------------------------------
# random-instance samplers
# ---------------------------------------------------------------------------

def random_stable(n, rng, margin=0.3, spread=1.0):
    """Random stable drift with all eigenvalue real parts < -margin.

    A random slack keeps the leading eigenvalue off the exact margin (a
    matrix with a real eigenvalue pinned at -margin turns singular under a
    drift shift of +margin).
    """
    a = rng.normal(scale=spread, size=(n, n))
    shift = np.linalg.eigvals(a).real.max() + margin + rng.uniform(0.02, 0.5) * max(spread, 0.3)
    return a - shift * np.eye(n)


def min_pair_sum(a):
    """min over eigenvalue pairs (i, j), i <= j, of |lam_i + lam_j|."""
    lam = np.linalg.eigvals(a)
    s = np.abs(lam[:, None] + lam[None, :])
    return s[np.triu_indices_from(s)].min()


def random_stable_sylvester(n, rng, alpha_shifts=(), margin=0.3, separation=0.05,
                            spread=1.0, max_tries=5000):
    """Random stable drift keeping A + s*I comfortably sylvester for each shift.

    Rejection sampling: a shifted conjugate pair near real part -s sums to
    nearly zero, so draws whose shifted pair sums come within ``separation``
    of zero are discarded.
    """
    for _ in range(max_tries):
        a = random_stable(n, rng, margin=margin, spread=spread)
        eye = np.eye(n)
        if all(min_pair_sum(a + s * eye) > separation for s in (0.0, *alpha_shifts)):
            return a
    raise RuntimeError("could not sample a suitable drift")


def random_spd(n, rng, scale=1.0):
    m = rng.normal(size=(n, n))
    return scale * (m @ m.T) + 1e-3 * np.eye(n)


def random_system(n, rng, alpha_shifts=(), margin=0.3, spread=1.0, zero_mean=False):
    """Random LtiSystem with a well-conditioned stable drift."""
    a = random_stable_sylvester(n, rng, alpha_shifts=alpha_shifts, margin=margin,
                                spread=spread)
    v = random_spd(n, rng)
    mu0 = np.zeros(n) if zero_mean else rng.normal(size=n)
    sigma0 = random_spd(n, rng) + np.outer(mu0, mu0)
    return LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)


def recipe_plant(n, rng, m=3, p=4):
    """Random n-state plant drawn from ``rng``: A ~ N(0, 1/n), then B, C, G_Q,
    G_V ~ N(0, 1); Q = G_Q G_Q^T/n + 0.1 I, V likewise, R = I, W = 0.1 I and
    alpha = -0.2.  Its Riccati equations grow ill-conditioned with n."""
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    b = rng.normal(size=(n, m))
    c = rng.normal(size=(p, n))
    g_q = rng.normal(size=(n, n))
    g_v = rng.normal(size=(n, n))
    return LqgPlant(A=a, B=b, C=c, Q=g_q @ g_q.T / n + 0.1 * np.eye(n), R=np.eye(m),
                    V=g_v @ g_v.T / n + 0.1 * np.eye(n), W=0.1 * np.eye(p), alpha=-0.2)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def lyapunov_by_quadrature(a, q, rtol=1e-10):
    """integral_0^inf e^{A t} Q e^{A^T t} dt by adaptive quadrature (stable A only)."""
    decay = -np.linalg.eigvals(a).real.max()
    assert decay > 0, "quadrature oracle needs a stable A"
    t_stop = 60.0 / decay
    val, _ = quad_vec(lambda t: expm(a * t) @ q @ expm(a * t).T, 0.0, t_stop,
                      epsrel=rtol, epsabs=1e-13)
    return val


def finite_integral_by_quadrature(a, q, t1, t2, rtol=1e-10):
    """integral_{t1}^{t2} e^{A t} Q e^{A^T t} dt by adaptive quadrature."""
    val, _ = quad_vec(lambda t: expm(a * t) @ q @ expm(a * t).T, t1, t2,
                      epsrel=rtol, epsabs=1e-13)
    return val


def _moments_on_grid(sys, ts):
    """Exact mu(t), Sigma(t) on a grid, from first principles (no Lyapunov solve).

    Sigma(t) = e^{A t} Sigma0 e^{A^T t} + G(t) with G accumulated step by
    step through the same van-Loan-style block exponential identity the
    library uses, but recomputed locally to stay independent of the module
    under test.
    """
    n = sys.dim
    dt = ts[1] - ts[0]
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = -sys.A
    big[:n, n:] = sys.V
    big[n:, n:] = sys.A.T
    eb = expm(big * dt)
    phi = expm(sys.A * dt)
    g_step = phi @ eb[:n, n:]          # integral over one step of e^{A s} V e^{A^T s}
    mus, sigmas, trans = [], [], []
    e_t = np.eye(n)
    g_t = np.zeros((n, n))
    for _ in ts:
        mus.append(e_t @ sys.mu0)
        sigmas.append(e_t @ sys.Sigma0 @ e_t.T + g_t)
        trans.append(e_t)
        g_t = phi @ g_t @ phi.T + g_step
        e_t = phi @ e_t
    return mus, sigmas, trans


def mean_by_quadrature(sys, cost, rtol=1e-10):
    """Mean of the finite-horizon cost by adaptive quadrature of the
    weighted second-moment trace (independent of the closed-form cost path)."""
    from lqgcost import second_moment

    def integrand(t):
        return math.exp(2.0 * cost.alpha * t) * np.trace(second_moment(sys, t) @ cost.Q)

    val, _ = quad(integrand, 0.0, cost.horizon, epsrel=rtol, epsabs=1e-13, limit=200)
    return val


def cost_moments_by_quadrature(sys, cost, n_grid=320):
    """(mean, variance) of the finite-horizon cost by 2-d trapezoid quadrature.

    Builds E[x(t1)^T Q x(t1) x(t2)^T Q x(t2)] from the Gaussian quartic
    expectation and the exact state moments, one row of t2 >= t1 at a time,
    then integrates.  On a fixed set of grid pairs the row's value is checked
    against :func:`lqgcost.joint_quartic_expectation`.
    """
    t_end = cost.horizon
    q = cost.Q
    ts = np.linspace(0.0, t_end, n_grid + 1)
    w = np.full(n_grid + 1, t_end / n_grid)
    w[0] *= 0.5
    w[-1] *= 0.5
    mus, sigmas, trans = map(np.array, _moments_on_grid(sys, ts))
    wd = w * np.exp(2.0 * cost.alpha * ts)
    tr_sq = np.einsum("kab,ba->k", sigmas, q)          # tr(S(t) Q)
    mqm = np.einsum("ka,ab,kb->k", mus, q, mus)        # mu(t)^T Q mu(t)

    mean = wd @ tr_sq

    spot = {(0, 0), (0, 1), (0, n_grid), (n_grid // 3, n_grid // 3),
            (n_grid // 3, 2 * n_grid // 3), (n_grid - 1, n_grid), (n_grid, n_grid)}
    total = 0.0
    for i in range(n_grid + 1):
        # x(t2) = Phi(t2-t1) x(t1) + independent noise for t1 <= t2, hence the
        # cross second moment E[x(t1) x(t2)^T] = Sigma(t1) Phi(t2-t1)^T, with
        # Phi(t2-t1) = trans[j-i] for t2 = ts[j]
        cross = sigmas[i] @ trans[:n_grid + 1 - i].transpose(0, 2, 1)
        # E[x^T Q x y^T Q y] = tr(S_xx Q) tr(S_yy Q) + 2 tr(S_yx Q S_xy Q)
        #                      - 2 mu_x^T Q mu_x mu_y^T Q mu_y
        quartic = (tr_sq[i] * tr_sq[i:]
                   + 2.0 * np.einsum("kab,kab->k", q @ cross, cross @ q)
                   - 2.0 * mqm[i] * mqm[i:])
        for j in sorted(j for k, j in spot if k == i):
            jg = JointGaussian(
                mu_x=mus[i], mu_y=mus[j],
                K_xx=sigmas[i] - np.outer(mus[i], mus[i]),
                K_xy=cross[j - i] - np.outer(mus[i], mus[j]),
                K_yy=sigmas[j] - np.outer(mus[j], mus[j]),
            )
            np.testing.assert_allclose(quartic[j - i], joint_quartic_expectation(jg, q, q),
                                       rtol=1e-12)
        row = wd[i] * wd[i:] * quartic
        total += row[0] + 2.0 * row[1:].sum()
    return mean, total - mean ** 2


def scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=1.0):
    return LtiSystem(A=[[a]], V=[[v]], mu0=[mu0], Sigma0=[[sigma0]])


def scalar_cost(q=1.0, alpha=-0.5, horizon=np.inf):
    return CostSpec(Q=[[q]], alpha=alpha, horizon=horizon)


def set_usable_cpus(monkeypatch, count):
    """Make the simulator see ``count`` usable CPUs, so its default worker count follows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
