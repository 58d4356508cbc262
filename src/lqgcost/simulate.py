"""Monte Carlo oracle: sample paths of the noisy linear system and empirical
statistics of the discounted quadratic cost.

Two time-stepping schemes are available:

``euler``
    Euler-Maruyama, x_{k+1} = x_k + A x_k dt + L xi_k sqrt(dt) with
    L L^T = V.  Weak order 1: expect O(dt) bias in the moments.
``exact``
    Exact one-step Gaussian discretization of the linear system,
    x_{k+1} = e^{A dt} x_k + L_d xi_k with L_d L_d^T = integral_0^dt
    e^{A s} V e^{A^T s} ds.  The sampled state marginals are exact for any
    dt; only the trapezoidal quadrature of the cost integral contributes
    O(dt^2) bias.  Use this when tight agreement with the analytic values
    is needed at an affordable step count.

Both schemes share one step loop.  A batch keeps its states as a
(state, path) array, so a step is two small matrix products: the transition
matrix times the states plus the noise factor times the step's normals.  The
cost is evaluated in the eigenbasis of the symmetric weight,
Q = U diag(lam) U^T, as x^T Q x = sum_i lam_i (u_i^T x)^2: one more product
and a weighted sum of squares.  No factor of Q is needed, so indefinite and
singular weights are sampled like any other.

Determinism: paths are processed in fixed-size batches and every batch draws
from its own counter-based random stream (Philox keyed by the seed, counter
offset by the batch index).  Each step draws one (path, state) block of
standard normals, initial state first.  Results are therefore bit-identical
for a given (seed, n_paths, dt, T, scheme) no matter how many worker threads
execute the batches.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg import mat_exp, psd_factor
from .moments import noise_gramian_finite
from .systems import CostSpec, LtiSystem

__all__ = ["SimConfig", "EmpiricalCostStats", "simulate_costs", "exceedance_probability"]

#: Paths per random stream; fixed so that results never depend on threading.
BATCH_SIZE = 16384

THREADS_ENV_VAR = "LQGCOST_THREADS"


@dataclass
class SimConfig:
    """Simulation parameters.

    ``threshold`` enables exceedance counting.  ``threads`` defaults to the
    LQGCOST_THREADS environment variable (1 if unset); it only distributes
    batches over workers and never changes the results.
    """

    dt: float
    T: float
    n_paths: int
    seed: int = 0
    threshold: float = None
    scheme: str = "euler"
    threads: int = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ValueError(f"n_paths must be a positive integer, got {self.n_paths}")
        self.n_paths = int(self.n_paths)
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.scheme not in ("euler", "exact"):
            raise ValueError(f"scheme must be 'euler' or 'exact', got {self.scheme!r}")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def n_steps(self):
        return max(1, int(round(self.T / self.dt)))

    def resolved_threads(self):
        if self.threads is not None:
            return int(self.threads)
        env = os.environ.get(THREADS_ENV_VAR, "")
        try:
            return max(1, int(env))
        except ValueError:
            return 1


@dataclass
class EmpiricalCostStats:
    """Moment estimates of the sampled cost with their standard errors."""

    mean: float
    variance: float
    mean_stderr: float
    variance_stderr: float
    n_paths: int
    exceed_prob: float = None
    exceed_count: int = None
    exceed_stderr: float = None
    second_moment_final: np.ndarray = None


def _step_operators(sys, cfg):
    """Transition matrix and noise factor for one time step."""
    n = sys.dim
    if cfg.scheme == "euler":
        phi = np.eye(n) + sys.A * cfg.dt
        noise_factor = psd_factor(sys.V) * math.sqrt(cfg.dt)
    else:
        phi = mat_exp(sys.A, cfg.dt)
        noise_factor = psd_factor(noise_gramian_finite(sys.A, sys.V, cfg.dt))
    return phi, noise_factor


def _cost_weights(cfg, alpha):
    """Trapezoidal quadrature weights of exp(2 alpha t) dt on the step grid."""
    steps = cfg.n_steps
    t = cfg.dt * np.arange(steps + 1)
    w = np.full(steps + 1, cfg.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w * np.exp(2.0 * alpha * t)


def _run_batch(batch_index, count, sys, lam, u_t, phi, noise_factor, init_factor, weights,
               seed):
    rng = Generator(Philox(key=seed, counter=batch_index << 128))
    n = sys.dim
    x = sys.mu0[:, None] + init_factor @ rng.standard_normal((count, n)).T
    x_next = np.empty_like(x)
    z = np.empty_like(x)    # scratch: the noise term, then the state in Q's eigenbasis
    costs = np.zeros(count)
    for k, w in enumerate(weights):
        if k:
            np.matmul(phi, x, out=x_next)
            np.matmul(noise_factor, rng.standard_normal((count, n)).T, out=z)
            x_next += z
            x, x_next = x_next, x
        np.matmul(u_t, x, out=z)
        costs += w * (lam @ np.square(z, out=z))
    return costs, x @ x.T


def simulate_costs(sys: LtiSystem, cost: CostSpec, cfg: SimConfig):
    """Sample ``cfg.n_paths`` paths and estimate mean and variance of the cost.

    The integration horizon is ``cfg.T`` (rounded to a whole number of steps);
    for an infinite-horizon ``cost`` this truncates the integral, so choose
    T with exp(2 alpha T) negligible.  Populates the exceedance fields when
    ``cfg.threshold`` is set.
    """
    steps = cfg.n_steps
    if abs(cfg.T / cfg.dt - steps) > 1e-6:
        warnings.warn(
            f"T/dt = {cfg.T / cfg.dt:.6g} is not an integer; "
            f"simulating {steps} steps = {steps * cfg.dt:.6g} time units",
            RuntimeWarning,
            stacklevel=2,
        )
    phi, noise_factor = _step_operators(sys, cfg)
    init_factor = psd_factor(sys.initial_covariance())
    weights = _cost_weights(cfg, cost.alpha)
    lam, u = np.linalg.eigh(cost.Q)

    n_batches = (cfg.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    sizes = [min(BATCH_SIZE, cfg.n_paths - b * BATCH_SIZE) for b in range(n_batches)]

    def task(b):
        return _run_batch(b, sizes[b], sys, lam, u.T, phi, noise_factor,
                          init_factor, weights, cfg.seed)

    threads = cfg.resolved_threads()
    if threads > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, range(n_batches)))
    else:
        results = [task(b) for b in range(n_batches)]

    costs = np.concatenate([r[0] for r in results])
    second_final = sum(r[1] for r in results) / cfg.n_paths

    n = cfg.n_paths
    mean = float(costs.mean())
    if n > 1:
        if np.ptp(costs) == 0.0:
            # identical samples (deterministic system); numpy's blocked mean
            # can be an ulp off, which would leak through the squares below
            mean = float(costs[0])
            variance = 0.0
        else:
            variance = float(costs.var(ddof=1))
        centered = costs - mean
        m4 = float(np.mean(centered ** 4))
        mean_stderr = math.sqrt(variance / n)
        var_of_var = max(0.0, (m4 - (n - 3) / (n - 1) * variance ** 2) / n)
        variance_stderr = math.sqrt(var_of_var)
    else:
        variance = 0.0
        mean_stderr = float("inf")
        variance_stderr = float("inf")

    stats = EmpiricalCostStats(
        mean=mean,
        variance=variance,
        mean_stderr=mean_stderr,
        variance_stderr=variance_stderr,
        n_paths=n,
        second_moment_final=second_final,
    )
    if cfg.threshold is not None:
        count = int(np.count_nonzero(costs > cfg.threshold))
        p = count / n
        stats.exceed_count = count
        stats.exceed_prob = p
        stats.exceed_stderr = math.sqrt(p * (1.0 - p) / n)
    return stats


def exceedance_probability(sys: LtiSystem, cost: CostSpec, cfg: SimConfig):
    """Like :func:`simulate_costs`, but requires ``cfg.threshold`` to be set."""
    if cfg.threshold is None:
        raise ValueError("cfg.threshold must be set for exceedance estimation")
    return simulate_costs(sys, cost, cfg)
