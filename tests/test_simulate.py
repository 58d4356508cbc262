import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence
from numpy.testing import assert_allclose

from lqgcost import (
    AccuracyError,
    CostSpec,
    EmpiricalCostStats,
    LtiSystem,
    SimConfig,
    auto_cost_stats,
    benchmark_plant,
    close_loop_full_state,
    evaluate_gain,
    expected_cost_finite,
    optimal_gain,
    second_moment,
    simulate_costs,
    variance_cost_finite,
)
from lqgcost import simulate as simulate_module
from lqgcost.demo import _gain_report
from lqgcost.moments import _doubling_count, _propagate
from lqgcost.simulate import BATCH_SIZE, _batch_stream, _chain, simulation_report
from conftest import random_spd, random_system, scalar_cost, scalar_system, set_usable_cpus


def reference_case():
    sys = scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=1.0)
    cost = scalar_cost(alpha=-0.5, horizon=4.0)
    return sys, cost


def path_major_costs(sys, cost, cfg):
    """Reference step loop: states as (path, state) rows, cost x^T Q x by einsum.

    Same chain (:func:`_chain`) and batches as :func:`simulate_costs`, and
    its random streams written out: batch b draws from SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(b,))``, first an (n, count) block for the
    initial state, then one (n, count) block per step, coordinate-major.
    Returns every path's cost and the final second moment.
    """
    phi, noise_factor, init_factor, weights = _chain(sys, cost, cfg)
    q, n = cost.Q, sys.dim
    costs, second = [], np.zeros((n, n))
    for b, start in enumerate(range(0, cfg.n_paths, BATCH_SIZE)):
        count = min(BATCH_SIZE, cfg.n_paths - start)
        rng = Generator(SFC64(SeedSequence(cfg.seed, spawn_key=(b,))))
        x = sys.mu0 + rng.standard_normal((n, count)).T @ init_factor.T
        c = weights[0] * np.einsum("ij,jk,ik->i", x, q, x)
        for k in range(1, len(weights)):
            x = x @ phi.T + rng.standard_normal((n, count)).T @ noise_factor.T
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

    @pytest.mark.parametrize("field,value", [("n_paths", 10.5), ("n_paths", math.nan),
                                             ("seed", 1.7), ("seed", -1),
                                             ("threads", 1.5), ("threads", 0)])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"dt": 0.01, "T": 1.0, "n_paths": 10, field: value})

    @pytest.mark.parametrize("field,value", [("dt", math.inf), ("T", math.inf), ("T", math.nan),
                                             ("dt", 1e-320)])     # T / dt = inf
    def test_rejects_non_finite_step_or_horizon(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"dt": 0.01, "T": 1.0, "n_paths": 10, field: value})

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SimConfig(dt=0.01, T=1.0, n_paths=10, threshold=math.nan)

    @pytest.mark.parametrize("n_paths", [1e300, 10 ** 9 + 1], ids=["1e300", "bound + 1"])
    def test_path_count_bounded(self, n_paths):
        # refused when the config is built; nothing is simulated
        with pytest.raises(ValueError,
                           match=r"^n_paths must be an integer >= 1 and <= 1000000000, got "):
            SimConfig(dt=0.1, T=1.0, n_paths=n_paths)
        assert SimConfig(dt=0.1, T=1.0, n_paths=10 ** 9).n_paths == 10 ** 9

    def test_whole_float_counts_become_int(self):
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=10.0, seed=3.0, threads=2.0)
        assert (cfg.n_paths, cfg.seed, cfg.threads) == (10, 3, 2)
        assert all(type(v) is int for v in (cfg.n_paths, cfg.seed, cfg.threads))

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=1.0, n_paths=10, scheme="heun")

    def test_default_worker_count_follows_usable_cpus(self, monkeypatch):
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", Pool)
        sys, cost = two_state_system(), CostSpec(Q=np.eye(2), alpha=-0.2, horizon=0.5)
        three_batches = dict(dt=0.05, T=0.5, n_paths=2 * BATCH_SIZE + 500, seed=17)
        for cpus, threads in ((1, None), (2, None), (8, None), (8, 1), (1, 2)):
            set_usable_cpus(monkeypatch, cpus)
            simulate_costs(sys, cost, SimConfig(threads=threads, **three_batches))
        assert pools == [1, 2, 3, 1, 2]

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
        coarse = simulate_costs(sys, cost, SimConfig(dt=0.02, T=4.0, n_paths=50_000, seed=21,
                                                     scheme="euler"))
        fine = simulate_costs(sys, cost, SimConfig(dt=0.01, T=4.0, n_paths=50_000, seed=22,
                                                   scheme="euler"))
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


class TestExactStep:
    def test_one_exponential_at_the_base_step(self, rng, expm_calls):
        # at ||A||_1 dt <= 1 the step's Phi and noise Gramian come from one
        # stacked exponential of the Van Loan block, once per run
        sys = random_system(3, rng)
        cfg = SimConfig(dt=0.05, T=0.5, n_paths=8, seed=1)
        cost = CostSpec(Q=random_spd(3, rng), alpha=-0.1, horizon=0.5)
        assert _doubling_count(sys.A, cfg.dt) == 0
        simulate_costs(sys, cost, cfg)
        assert expm_calls == [(1, 6, 6)]
        phi, noise_factor, _, _ = _chain(sys, cost, cfg)
        expected_phi, gramian = _propagate(sys.A, sys.V, cfg.dt)
        assert np.array_equal(phi, expected_phi)
        assert_allclose(noise_factor @ noise_factor.T, gramian, rtol=1e-12,
                        atol=1e-14 * np.abs(gramian).max())

    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_overflow_named(self, v):
        # e^{800} overflows; without noise only Phi does
        sys = LtiSystem(A=[[1.0]], V=[[v]], mu0=[1.0], Sigma0=[[1.0]])
        cfg = SimConfig(dt=800.0, T=1600.0, n_paths=10)
        with pytest.raises(AccuracyError, match="the exact step at dt = 800 overflows"):
            simulate_costs(sys, CostSpec(Q=[[1.0]], alpha=-1.0), cfg)


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
            cfg = replace(cfg, threshold=float(np.median(costs)))
            out = simulate_costs(sys, cost, cfg)
            assert out.mean == pytest.approx(costs.mean(), rel=1e-12), label
            assert out.variance == pytest.approx(costs.var(ddof=1), rel=1e-12), label
            assert_allclose(out.second_moment_final, second, rtol=1e-12,
                            atol=1e-12 * np.abs(second).max(), err_msg=label)
            assert out.exceed_count == np.count_nonzero(costs > cfg.threshold), label


class TestBatchStreams:
    def test_keyed_by_seed_and_batch_index(self):
        # additive keying such as SFC64(seed + batch) would give batch 1 of
        # seed s the stream of batch 0 of seed s + 1
        def draws(seed, batch):
            return _batch_stream(seed, batch).standard_normal(64)

        s = 31
        assert not np.array_equal(draws(s, 1), draws(s, 0))
        assert not np.array_equal(draws(s, 1), draws(s + 1, 0))

    def test_partial_last_batch_identical_at_any_thread_count(self):
        sys = two_state_system()
        cost = CostSpec(Q=np.diag([1.0, 0.5]), alpha=-0.2, horizon=0.5)
        runs = [simulate_costs(sys, cost, SimConfig(dt=0.05, T=0.5, n_paths=2 * BATCH_SIZE + 500,
                                                    seed=17, threshold=1.0, scheme="exact",
                                                    threads=threads))
                for threads in (1, 2, 3)]
        for out in runs[1:]:
            for field in fields(EmpiricalCostStats):
                assert np.array_equal(getattr(out, field.name), getattr(runs[0], field.name)), \
                    field.name


class TestExceedance:
    def test_infinite_threshold(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=2.0, n_paths=5_000, seed=3, threshold=math.inf)
        out = simulate_costs(sys, cost, cfg)
        assert out.exceed_prob == 0.0 and out.exceed_count == 0

    def test_zero_threshold(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=2.0, n_paths=5_000, seed=3, threshold=0.0)
        out = simulate_costs(sys, cost, cfg)
        assert out.exceed_prob == 1.0

    def test_threshold_required(self):
        sys, cost = reference_case()
        out = simulate_costs(sys, cost, SimConfig(dt=0.02, T=2.0, n_paths=100))
        assert out.exceed_prob is out.exceed_count is out.exceed_stderr is None

    def test_binomial_stderr(self):
        sys, cost = reference_case()
        cfg = SimConfig(dt=0.02, T=4.0, n_paths=20_000, seed=3, threshold=2.0)
        out = simulate_costs(sys, cost, cfg)
        p = out.exceed_prob
        assert out.exceed_stderr == pytest.approx(math.sqrt(p * (1 - p) / 20_000))
        assert out.exceed_prob == out.exceed_count / 20_000

    def test_single_path_not_assessable(self):
        sys, cost = reference_case()
        out = simulate_costs(sys, cost, SimConfig(dt=0.02, T=2.0, n_paths=1, threshold=2.0))
        assert out.mean_stderr == out.exceed_stderr == math.inf


class TestSimulationReport:
    def test_stiff_drift_at_a_large_step(self):
        # the exact scheme's noise Gramian at dt = 2 on a drift with a mode
        # at -30: one Van Loan block at dt holds e^{60}
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        sys = LtiSystem(A=q @ np.diag([-0.1, -30.0]) @ q.T, V=np.eye(2), mu0=np.zeros(2),
                        Sigma0=np.eye(2))
        cfg = SimConfig(dt=2.0, T=20.0, n_paths=20_000, seed=20)
        report = simulation_report(sys, CostSpec(Q=np.eye(2), alpha=0.0, horizon=20.0), cfg)
        assert report["agreement"]["within_4_stderr"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_analytic_route_refused(self):
        # Sigma0 = 1e160 squares past the largest double in the variance, but
        # one sampled path stays finite: the report keeps the sample and says
        # why it has no analytic value
        sys = scalar_system(a=-1.0, v=1.0, mu0=0.0, sigma0=1e160)
        cfg = SimConfig(dt=0.1, T=1.0, n_paths=1)
        report = simulation_report(sys, scalar_cost(alpha=0.0, horizon=1.0), cfg)
        assert report["analytic"] is None and report["agreement"] is None
        assert "block exponential lost the variance" in report["analytic_error"]
        assert report["empirical"]["n_paths"] == 1

    def test_study_row_at_simulated_horizon(self):
        # both study loops are open-loop unstable, so the cost over [20, inf)
        # still weighs: the simulation is judged at T = 20, the tuner's
        # infinite-horizon objective is reported beside it
        plant, mu0, sigma0 = benchmark_plant(), np.zeros(2), np.zeros((2, 2))
        f = optimal_gain(plant)
        cfg = SimConfig(dt=0.01, T=20.0, n_paths=200, seed=1, threshold=1500.0,
                        scheme="exact")
        row = _gain_report(plant, f, mu0, sigma0, cfg)
        sys, cost = close_loop_full_state(plant, f, mu0, sigma0)
        at_t = auto_cost_stats(sys, CostSpec(Q=cost.Q, alpha=cost.alpha,
                                             horizon=cfg.n_steps * cfg.dt))
        assert row["analytic"]["mean"] == at_t.mean
        assert row["analytic"]["mean"] == pytest.approx(152.46809102437012, rel=1e-12)
        assert row["analytic"]["horizon"] == 20.0
        objective = evaluate_gain(plant, f, mu0, sigma0)
        assert row["objective"]["mean"] == objective.mean
        assert row["objective"]["mean"] == pytest.approx(152.56202000659397, rel=1e-12)
        assert row["objective"]["horizon"] == math.inf
        assert row["agreement"]["within_4_stderr"] is True
