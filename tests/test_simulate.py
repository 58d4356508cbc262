import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from numpy.testing import assert_allclose

from lqgcost import (
    CostSpec,
    LtiSystem,
    SimConfig,
    exceedance_probability,
    expected_cost_finite,
    psd_factor,
    second_moment,
    simulate_costs,
    variance_cost_finite,
)
from lqgcost.simulate import BATCH_SIZE, _cost_weights, _step_operators
from conftest import random_spd, random_system, scalar_cost, scalar_system


def reference_case():
    sys = scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=1.0)
    cost = scalar_cost(alpha=-0.5, horizon=4.0)
    return sys, cost


def path_major_costs(sys, cost, cfg):
    """Reference step loop: states as (path, state) rows, cost x^T Q x by einsum.

    Same step operators, weights, batches and random streams as
    :func:`simulate_costs`; returns every path's cost and the final second
    moment.
    """
    phi, noise_factor = _step_operators(sys, cfg)
    init_factor = psd_factor(sys.initial_covariance())
    weights = _cost_weights(cfg, cost.alpha)
    q, n = cost.Q, sys.dim
    costs, second = [], np.zeros((n, n))
    for b, start in enumerate(range(0, cfg.n_paths, BATCH_SIZE)):
        count = min(BATCH_SIZE, cfg.n_paths - start)
        rng = Generator(Philox(key=cfg.seed, counter=b << 128))
        x = sys.mu0 + rng.standard_normal((count, n)) @ init_factor.T
        c = weights[0] * np.einsum("ij,jk,ik->i", x, q, x)
        for k in range(1, len(weights)):
            x = x @ phi.T + rng.standard_normal((count, n)) @ noise_factor.T
            c += weights[k] * np.einsum("ij,jk,ik->i", x, q, x)
        costs.append(c)
        second += x.T @ x
    return np.concatenate(costs), second / cfg.n_paths


def two_state_system():
    mu0 = np.array([1.0, -0.5])
    return LtiSystem(A=[[-1.0, 0.8], [-0.3, -2.0]], V=[[1.0, 0.2], [0.2, 0.5]], mu0=mu0,
                     Sigma0=np.eye(2) + np.outer(mu0, mu0))


class TestSimConfig:
    def test_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=1.0, n_paths=0)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=1.0, n_paths=10, scheme="heun")

    def test_thread_env_default(self, monkeypatch):
        monkeypatch.setenv("LQGCOST_THREADS", "3")
        assert SimConfig(dt=0.1, T=1.0, n_paths=10).resolved_threads() == 3
        monkeypatch.delenv("LQGCOST_THREADS")
        assert SimConfig(dt=0.1, T=1.0, n_paths=10).resolved_threads() == 1

    def test_non_integer_step_count_warns(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.3, T=1.0, n_paths=100, seed=1)
        with pytest.warns(RuntimeWarning, match="not an integer"):
            simulate_costs(sys, cost, cfg)


class TestSimulateCosts:
    def test_deterministic_system(self):
        # no noise, deterministic start: zero variance, mean equals the
        # deterministic quadrature of the damped squared trajectory
        mu0 = 1.5
        sys = scalar_system(a=-1.0, v=0.0, mu0=mu0, sigma0=mu0 ** 2)
        cost = scalar_cost(alpha=-0.5, horizon=2.0)
        cfg = SimConfig(dt=1e-3, T=2.0, n_paths=64, seed=5, scheme="exact")
        out = simulate_costs(sys, cost, cfg)
        assert out.variance == 0.0
        # integral of e^{-t} (mu0 e^{-t})^2 over [0,2] = mu0^2 (1 - e^{-6}) / 3
        exact = mu0 ** 2 * (1.0 - math.exp(-6.0)) / 3.0
        assert abs(out.mean - exact) < 1e-5 * exact

    def test_euler_matches_analytic_within_statistics(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=1e-3, T=4.0, n_paths=100_000, seed=11, scheme="euler")
        out = simulate_costs(sys, cost, cfg)
        mean = expected_cost_finite(sys, cost)
        var = variance_cost_finite(sys, cost)
        assert abs(out.mean - mean) < 4.0 * out.mean_stderr
        assert abs(out.variance - var) < 4.0 * out.variance_stderr

    def test_exact_scheme_matches_analytic_within_statistics(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=4.0, n_paths=100_000, seed=12, scheme="exact")
        out = simulate_costs(sys, cost, cfg)
        mean = expected_cost_finite(sys, cost)
        var = variance_cost_finite(sys, cost)
        assert abs(out.mean - mean) < 4.0 * out.mean_stderr
        assert abs(out.variance - var) < 4.0 * out.variance_stderr

    def test_same_seed_bit_identical(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.01, T=2.0, n_paths=40_000, seed=7, scheme="euler")
        a = simulate_costs(sys, cost, cfg)
        b = simulate_costs(sys, cost, cfg)
        assert a.mean == b.mean and a.variance == b.variance
        assert a.mean_stderr == b.mean_stderr and a.variance_stderr == b.variance_stderr
        assert np.array_equal(a.second_moment_final, b.second_moment_final)

    def test_thread_count_does_not_change_results(self):
        sys, cost = reference_case()
        one = simulate_costs(sys, cost, SimConfig(dt=0.01, T=2.0, n_paths=50_000,
                                                  seed=7, threads=1))
        four = simulate_costs(sys, cost, SimConfig(dt=0.01, T=2.0, n_paths=50_000,
                                                   seed=7, threads=4))
        assert one.mean == four.mean and one.variance == four.variance
        assert np.array_equal(one.second_moment_final, four.second_moment_final)

    def test_dt_convergence(self):
        sys, cost = reference_case()
        coarse = simulate_costs(sys, cost, SimConfig(dt=0.02, T=4.0, n_paths=50_000, seed=21))
        fine = simulate_costs(sys, cost, SimConfig(dt=0.01, T=4.0, n_paths=50_000, seed=22))
        assert abs(coarse.mean - fine.mean) < 4.0 * math.hypot(coarse.mean_stderr,
                                                               fine.mean_stderr) + 0.02

    def test_final_second_moment_matches_analytic(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.01, T=2.0, n_paths=100_000, seed=9, scheme="exact")
        out = simulate_costs(sys, cost, cfg)
        expected = second_moment(sys, 2.0)
        stderr = math.sqrt(2.0) * expected[0, 0] / math.sqrt(cfg.n_paths)
        assert abs(out.second_moment_final[0, 0] - expected[0, 0]) < 4.0 * stderr

    def test_multidimensional_moment_sanity(self, rng):
        a = np.array([[-1.0, 0.8], [0.0, -2.0]])
        v = np.array([[1.0, 0.2], [0.2, 0.5]])
        sys = LtiSystem(A=a, V=v, mu0=[1.0, -1.0],
                        Sigma0=np.eye(2) + np.outer([1.0, -1.0], [1.0, -1.0]))
        cost = CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.5)
        cfg = SimConfig(dt=0.01, T=1.5, n_paths=100_000, seed=13, scheme="exact")
        out = simulate_costs(sys, cost, cfg)
        expected = second_moment(sys, 1.5)
        for i in range(2):
            stderr = math.sqrt(2.0) * expected[i, i] / math.sqrt(cfg.n_paths)
            assert abs(out.second_moment_final[i, i] - expected[i, i]) < 5.0 * stderr

    def test_non_psd_initial_condition_rejected(self):
        with pytest.raises(Exception):
            LtiSystem(A=[[-1.0]], V=[[1.0]], mu0=[2.0], Sigma0=[[1.0]])


class TestStepMatchesPathMajorLoop:
    """The simulator's step against :func:`path_major_costs` on the same streams."""

    @staticmethod
    def cases(rng):
        sys4 = random_system(4, rng)
        yield "4 states, non-zero mu0, two batches", sys4, \
            CostSpec(Q=random_spd(4, rng), alpha=-0.2, horizon=0.5), BATCH_SIZE + 1000
        yield "rank-deficient Q", two_state_system(), \
            CostSpec(Q=np.diag([1.0, 0.0]), alpha=0.1, horizon=0.5), 3000
        yield "indefinite Q", two_state_system(), \
            CostSpec(Q=np.diag([1.0, -0.5]), alpha=-0.3, horizon=0.5), 3000

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_matches_reference_to_rounding(self, rng, scheme):
        for label, sys, cost, paths in self.cases(rng):
            cfg = SimConfig(dt=0.05, T=0.5, n_paths=paths, seed=31, scheme=scheme)
            costs, second = path_major_costs(sys, cost, cfg)
            cfg.threshold = float(np.median(costs))
            out = simulate_costs(sys, cost, cfg)
            assert out.mean == pytest.approx(costs.mean(), rel=1e-12), label
            assert out.variance == pytest.approx(costs.var(ddof=1), rel=1e-12), label
            assert_allclose(out.second_moment_final, second, rtol=1e-12,
                            atol=1e-12 * np.abs(second).max(), err_msg=label)
            assert out.exceed_count == np.count_nonzero(costs > cfg.threshold), label


class TestExceedance:
    def test_infinite_threshold(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=2.0, n_paths=5_000, seed=3, threshold=math.inf)
        out = exceedance_probability(sys, cost, cfg)
        assert out.exceed_prob == 0.0 and out.exceed_count == 0

    def test_zero_threshold(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=2.0, n_paths=5_000, seed=3, threshold=0.0)
        out = exceedance_probability(sys, cost, cfg)
        assert out.exceed_prob == 1.0

    def test_threshold_required(self):
        sys, cost = reference_case()
        with pytest.raises(ValueError):
            exceedance_probability(sys, cost, SimConfig(dt=0.02, T=2.0, n_paths=100))

    def test_binomial_stderr(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=4.0, n_paths=20_000, seed=3, threshold=2.0)
        out = exceedance_probability(sys, cost, cfg)
        p = out.exceed_prob
        assert out.exceed_stderr == pytest.approx(math.sqrt(p * (1 - p) / 20_000))
        assert out.exceed_prob == out.exceed_count / 20_000
