"""Monte Carlo oracle: sample paths of the noisy linear system and empirical
statistics of the discounted quadratic cost.

Two time-stepping schemes are available:

``euler``
    Euler-Maruyama, x_{k+1} = x_k + A x_k dt + L xi_k sqrt(dt) with
    L L^T = V.  Weak order 1: expect O(dt) bias in the moments.
``exact`` (the default)
    Exact one-step Gaussian discretization of the linear system,
    x_{k+1} = e^{A dt} x_k + L_d xi_k with L_d L_d^T = integral_0^dt
    e^{A s} V e^{A^T s} ds.  The sampled state marginals are exact for any
    dt; only the trapezoidal quadrature of the cost integral contributes
    O(dt^2) bias.  Use this when tight agreement with the analytic values
    is needed at an affordable step count.

Both schemes share one step loop, run in the eigenbasis of the symmetric
weight Q = U diag(lam) U^T.  A batch keeps z = U^T x as a (state, path)
array stacked on top of the step's standard normals xi, so a step is one
product, z' = [U^T Phi U | U^T L] [z; xi], with Phi the transition matrix and
L the noise factor.  The normals are drawn straight into their rows of the
stacked buffer.  The cost x^T Q x = sum_i lam_i z_i^2 is accumulated as
sum_k w_k z_k^2 per coordinate, and lam is applied once at the end: a step is
one draw, one product and three elementwise operations.  No factor of Q is
needed, so indefinite and singular weights are sampled like any other.  The
final second moment is formed from x = U z.  One function, ``_chain``, builds
Phi, L, the initial covariance's factor L0 and the weights w_k.

Determinism: paths are processed in fixed-size batches, and batch b draws
from its own stream, SFC64 seeded by ``SeedSequence(seed, spawn_key=(b,))``
(the same as ``SeedSequence(seed).spawn(n)[b]``), so a stream depends only on
the seed and the batch index.  The batch first draws an (n, count) block for
the initial state, then one (n, count) block per step, coordinate-major.
Results are therefore bit-identical for a given (seed, n_paths, dt, T,
scheme) no matter how many workers of the run's one thread pool execute the
batches: by default one per CPU this process may use, up to one per batch.
Overflow follows the one rule of :mod:`lqgcost.linalg`, set again in each
worker: a step, cost, moment or second moment that is not finite raises.
"""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .cost_expm import auto_cost_stats
from .exceptions import LqgCostError
from .linalg import _real_number, _require_finite, _require_shape, _whole_number, psd_factor
from .moments import _propagate
from .systems import CostSpec, LtiSystem, _Value

__all__ = ["SimConfig", "EmpiricalCostStats", "simulate_costs", "simulation_report"]

#: Paths per random stream; fixed so that results never depend on threading.
BATCH_SIZE = 16384

#: Most paths one run samples: it keeps every path's cost, 8 GB at this bound.
MAX_PATHS = 10 ** 9

#: Most steps one run takes: its trapezoid weights are built at once, 0.8 GB at this bound.
MAX_STEPS = 10 ** 8


@dataclass(frozen=True)
class SimConfig(_Value):
    """Simulation parameters, an immutable value.

    ``n_paths`` is at most ``MAX_PATHS`` (10**9), and T/dt rounds to at most
    ``MAX_STEPS`` (10**8) steps.  ``threshold`` (not NaN) enables exceedance
    counting.  ``threads`` (by default one per usable CPU) only distributes
    batches over workers and never changes the results.
    """

    dt: float
    T: float
    n_paths: int
    seed: int = 0
    threshold: float = None
    scheme: str = "exact"
    threads: int = None

    def __post_init__(self):
        dt = _real_number("dt", self.dt, 0.0, strict=True)
        t = _real_number("T", self.T, 0.0, strict=True)
        if round(_real_number("T/dt", t / dt)) > MAX_STEPS:
            raise ValueError(f"T/dt must round to at most {MAX_STEPS} steps, "
                             f"got T = {t:g}, dt = {dt:g}")
        n_paths = _whole_number("n_paths", self.n_paths, 1, MAX_PATHS)
        seed = _whole_number("seed", self.seed, 0)
        threshold = (None if self.threshold is None
                     else _real_number("threshold", self.threshold, infinite=True))
        if self.scheme not in ("euler", "exact"):
            raise ValueError(f"scheme must be 'euler' or 'exact', got {self.scheme!r}")
        threads = None if self.threads is None else _whole_number("threads", self.threads, 1)
        self._set(dt=dt, T=t, n_paths=n_paths, seed=seed, threshold=threshold, threads=threads)

    @property
    def n_steps(self):
        return max(1, int(round(self.T / self.dt)))

    @property
    def horizon(self):
        """The simulated horizon, ``n_steps * dt``: ``T`` rounded to a whole number of steps."""
        return self.n_steps * self.dt


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


def _chain(sys, cost, cfg):
    """The sampled chain in the model's basis: the step's transition matrix Phi
    and noise factor L, the initial covariance's factor L0 and the trapezoid
    weights w_k e^{2 alpha t_k} on the step grid t_k = k dt."""
    if cfg.scheme == "euler":
        phi, noise = np.eye(sys.dim) + sys.A * cfg.dt, psd_factor(sys.V) * math.sqrt(cfg.dt)
    else:
        phi, w = _propagate(sys.A, sys.V, cfg.dt)
        # psd_factor refuses a non-finite W as the caller's error
        _require_finite(f"the exact step at dt = {cfg.dt:g}", phi, w)
        noise = psd_factor(w)
    t = cfg.dt * np.arange(cfg.n_steps + 1)
    weights = np.full(t.size, cfg.dt)
    weights[[0, -1]] *= 0.5
    weights *= np.exp(2.0 * cost.alpha * t)
    return phi, noise, psd_factor(sys.initial_covariance()), weights


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity interface on this platform
        return os.cpu_count() or 1


def _batch_stream(seed, batch_index):
    """Random stream of one batch; it depends only on the seed and the batch index."""
    return Generator(SFC64(SeedSequence(seed, spawn_key=(batch_index,))))


def _run_batch(batch_index, count, seed, z_mean0, z_init, step_ops, lam, u, weights):
    """Costs of ``count`` paths and the sum of x x^T over them at the horizon.

    The state is z = U^T x; ``z_mean0`` and ``z_init`` are U^T mu0 and U^T L0,
    ``step_ops`` are [U^T Phi U | U^T L] and [U^T L | U^T Phi U].
    """
    rng = _batch_stream(seed, batch_index)
    n = lam.size
    # One allocation of four (n, count) blocks: a state, the step's normals
    # (then scratch for the squares), the next state and sum_k w_k z_k^2.  A
    # step reads two adjacent blocks, [z; xi] or [xi; z], and writes the
    # third, so the state alternates between the outer two and is never
    # copied.
    buf = np.empty((4 * n, count))
    xi, acc = buf[n:2 * n], buf[3 * n:]
    acc.fill(0.0)
    down = (step_ops[0], buf[:2 * n], buf[2 * n:3 * n])
    up = (step_ops[1], buf[n:3 * n], buf[:n])
    z = buf[:n]
    rng.standard_normal(out=xi)
    np.matmul(z_init, xi, out=z)
    z += z_mean0[:, None]
    for k, w in enumerate(weights):
        if k:
            op, window, z = down if k % 2 else up
            rng.standard_normal(out=xi)
            np.matmul(op, window, out=z)
        np.square(z, out=xi)
        xi *= w
        acc += xi
    costs = lam @ acc
    np.matmul(u, z, out=xi)
    return costs, xi @ xi.T


def simulate_costs(sys: LtiSystem, cost: CostSpec, cfg: SimConfig):
    """Sample ``cfg.n_paths`` paths and estimate mean and variance of the cost.

    The integration horizon is ``cfg.T`` (rounded to a whole number of steps);
    for an infinite-horizon ``cost`` this truncates the integral, so choose
    T with exp(2 alpha T) negligible.  Populates the exceedance fields when
    ``cfg.threshold`` is set.  AccuracyError on overflow (module docstring).
    """
    _require_shape(cost.Q, sys.A.shape, "Q")
    steps = cfg.n_steps
    if abs(cfg.T / cfg.dt - steps) > 1e-6:
        warnings.warn(
            f"T/dt = {cfg.T / cfg.dt:.6g} is not an integer; "
            f"simulating {steps} steps = {cfg.horizon:.6g} time units",
            RuntimeWarning,
            stacklevel=2,
        )
    n = cfg.n_paths
    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    # an overflow leaves a value that is not finite, which _require_finite refuses
    with np.errstate(over="ignore", invalid="ignore"):
        phi, noise_factor, init_factor, weights = _chain(sys, cost, cfg)
        # the chain in Q's eigenbasis, z = U^T x, and its two stacked step operators
        lam, u = np.linalg.eigh(cost.Q)
        state_op, noise_op = u.T @ phi @ u, u.T @ noise_factor
        step_ops = np.hstack((state_op, noise_op)), np.hstack((noise_op, state_op))
        z_mean0, z_init = u.T @ sys.mu0, u.T @ init_factor

        def task(b):
            # errstate is a context variable, which a pool thread does not inherit
            with np.errstate(over="ignore", invalid="ignore"):
                return _run_batch(b, min(BATCH_SIZE, n - b * BATCH_SIZE), cfg.seed, z_mean0,
                                  z_init, step_ops, lam, u, weights)

        with ThreadPoolExecutor(max_workers=min(n_batches, cfg.threads or _usable_cpus())) as pool:
            results = list(pool.map(task, range(n_batches)))

        costs = np.concatenate([r[0] for r in results])
        second_final = sum(r[1] for r in results) / n
        mean, variance, excess = costs.mean(), 0.0, 0.0
        if n > 1:
            if np.ptp(costs) == 0.0:
                # identical samples (deterministic system); numpy's blocked mean
                # can be an ulp off, which would leak through the squares below
                mean = costs[0]
            else:
                variance = costs.var(ddof=1)
            m4 = np.mean((costs - mean) ** 4)
            excess = (m4 - (n - 3) / (n - 1) * variance ** 2) / n
    _require_finite("the sampled costs, their moments or the final second moment",
                    costs, second_final, mean, variance, excess)
    stats = EmpiricalCostStats(
        mean=float(mean),
        variance=float(variance),
        mean_stderr=math.sqrt(variance / n) if n > 1 else math.inf,
        variance_stderr=math.sqrt(max(0.0, excess)) if n > 1 else math.inf,
        n_paths=n,
        second_moment_final=second_final,
    )
    if cfg.threshold is not None:
        count = int(np.count_nonzero(costs > cfg.threshold))
        p = count / n
        stats.exceed_count = count
        stats.exceed_prob = p
        stats.exceed_stderr = math.sqrt(p * (1.0 - p) / n) if n > 1 else math.inf
    return stats


def _z_score(gap, stderr):
    """|gap| in standard errors; a zero standard error admits only a zero gap."""
    if stderr == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return abs(gap) / stderr


def simulation_report(sys: LtiSystem, cost: CostSpec, cfg: SimConfig):
    """Simulate ``cfg`` and judge ``auto_cost_stats`` at the simulated horizon against it.

    Returns ``empirical`` (the estimates but the final second moment),
    ``analytic`` (None, with ``analytic_error``, when no route applies) and
    ``agreement`` (|z| of mean and variance and whether both are at most 4;
    None without an analytic value or with fewer than two paths).
    """
    empirical = simulate_costs(sys, cost, cfg)
    analytic = analytic_error = agreement = None
    try:
        stats = auto_cost_stats(sys, replace(cost, horizon=cfg.horizon))
    except LqgCostError as exc:
        analytic_error = str(exc)
    else:
        analytic = {"mean": stats.mean, "variance": stats.variance, "std": stats.std,
                    "method": stats.method, "horizon": cfg.horizon}
        if empirical.n_paths > 1:
            mean_z = _z_score(empirical.mean - stats.mean, empirical.mean_stderr)
            variance_z = _z_score(empirical.variance - stats.variance, empirical.variance_stderr)
            agreement = {"mean_z": mean_z, "variance_z": variance_z,
                         "within_4_stderr": bool(mean_z <= 4.0 and variance_z <= 4.0)}
    return {"empirical": {k: v for k, v in vars(empirical).items() if k != "second_moment_final"},
            "analytic": analytic, "analytic_error": analytic_error, "agreement": agreement}
