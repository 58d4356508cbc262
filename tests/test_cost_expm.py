import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqgcost import (
    AccuracyError,
    CostSpec,
    LtiSystem,
    SimConfig,
    auto_cost_stats,
    block_exponential,
    build_block_matrix,
    cost_stats_expm,
    cost_stats_lyapunov,
    mat_exp,
    simulate_costs,
)
import lqgcost.cost_expm
from conftest import random_spd, random_system, scalar_cost, scalar_system

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBuildBlockMatrix:
    def test_scalar_diagonal_pattern(self):
        a, q, v, alpha = -1.3, 0.7, 2.0, 0.4
        sys = LtiSystem(A=[[a]], V=[[v]], mu0=[0.0], Sigma0=[[1.0]])
        c = build_block_matrix(sys, CostSpec(Q=[[q]], alpha=alpha, horizon=1.0))
        assert_allclose(np.diag(c),
                        [-a - 2 * alpha, a, -a, a + 2 * alpha, -a + 2 * alpha],
                        rtol=1e-14)
        assert c[0, 1] == q and c[1, 2] == v and c[2, 3] == q and c[3, 4] == v

    def test_zero_inputs_give_zero_matrix(self):
        sys = LtiSystem(A=np.zeros((2, 2)), V=np.zeros((2, 2)),
                        mu0=np.zeros(2), Sigma0=np.zeros((2, 2)))
        c = build_block_matrix(sys, CostSpec(Q=np.zeros((2, 2)), alpha=0.0, horizon=1.0))
        assert np.array_equal(c, np.zeros((10, 10)))

    def test_weight_and_noise_blocks(self, rng):
        sys = random_system(3, rng)
        q = random_spd(3, rng)
        c = build_block_matrix(sys, CostSpec(Q=q, alpha=-0.2, horizon=1.0))
        assert np.array_equal(c[0:3, 3:6], q)
        assert np.array_equal(c[9:12, 12:15], sys.V)

    def test_transition_block_identity(self, rng):
        # the (4,4) block of the raw big exponential equals e^{A_2 T}
        from scipy.linalg import expm
        sys = random_system(3, rng, spread=0.5)
        cost = CostSpec(Q=random_spd(3, rng), alpha=-0.3, horizon=1.5)
        big = expm(build_block_matrix(sys, cost) * cost.horizon)
        expected = mat_exp(sys.A + 2 * cost.alpha * np.eye(3), cost.horizon)
        assert_allclose(big[9:12, 9:12], expected, rtol=1e-10)
        assert_allclose(block_exponential(sys, cost).C44, expected, rtol=1e-12)


class TestCostStatsExpm:
    def test_zero_weight(self, rng):
        sys = random_system(2, rng)
        stats = cost_stats_expm(sys, CostSpec(Q=np.zeros((2, 2)), alpha=0.1, horizon=1.0))
        assert stats.mean == pytest.approx(0.0)
        assert stats.variance == pytest.approx(0.0)

    def test_agrees_with_lyapunov_route(self, rng):
        # moderate spectra: at T * (spectral range) >> 20 the exponential route
        # genuinely loses accuracy, which is the documented method crossover
        for alpha in (-0.8, 0.0, 0.3):
            for t in (0.5, 1.0, 5.0):
                sys = random_system(3, rng, spread=0.5,
                                    alpha_shifts=(-alpha, alpha, 2 * alpha, 3 * alpha))
                cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=t)
                via_expm = cost_stats_expm(sys, cost)
                via_lyap = cost_stats_lyapunov(sys, cost)
                assert abs(via_expm.mean - via_lyap.mean) <= 1e-8 * (1 + abs(via_lyap.mean))
                assert abs(via_expm.variance - via_lyap.variance) <= \
                    1e-8 * (1 + abs(via_lyap.variance))

    def test_non_sylvester_drift_against_simulation(self):
        # double integrator: the Lyapunov route cannot touch this one
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        cost = CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0)
        stats = cost_stats_expm(sys, cost)
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=300_000, seed=42, scheme="exact")
        emp = simulate_costs(sys, cost, cfg)
        assert abs(emp.mean - stats.mean) < 4.0 * emp.mean_stderr
        assert abs(emp.variance - stats.variance) < 4.0 * emp.variance_stderr

    def test_growth_guard(self):
        sys = scalar_system(a=-30.0)
        with pytest.raises(AccuracyError):
            cost_stats_expm(sys, scalar_cost(alpha=-0.5, horizon=10.0))

    def test_frozen_high_precision_reference(self):
        # reference values computed once with 60-digit arithmetic for this
        # exact instance; anchors both routes near machine precision
        mu0 = np.array([0.6, -0.3])
        sys = LtiSystem(
            A=[[-0.7, 0.9], [-0.4, -1.1]],
            V=[[1.3, 0.4], [0.4, 0.8]],
            mu0=mu0,
            Sigma0=np.array([[0.9, 0.1], [0.1, 0.5]]) + np.outer(mu0, mu0),
        )
        cost = CostSpec(Q=[[1.1, -0.2], [-0.2, 0.7]], alpha=-0.35, horizon=2.5)
        mean_ref = 1.757762513489323086379828
        var_ref = 1.922175182928627403062113
        for stats in (cost_stats_expm(sys, cost), cost_stats_lyapunov(sys, cost)):
            assert stats.mean == pytest.approx(mean_ref, rel=1e-12)
            assert stats.variance == pytest.approx(var_ref, rel=1e-12)

    def test_mean_monotone_in_horizon_for_psd_weight(self, rng):
        sys = random_system(2, rng)
        q = random_spd(2, rng)
        values = [cost_stats_expm(sys, CostSpec(Q=q, alpha=-0.2, horizon=t)).mean
                  for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestGrowthExponent:
    @pytest.fixture
    def growth_calls(self, monkeypatch):
        calls = []
        real = lqgcost.cost_expm._growth_exponent

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lqgcost.cost_expm, "_growth_exponent", counting)
        return calls

    def test_block_exponential_carries_growth(self, rng):
        sys = random_system(3, rng)
        cost = CostSpec(Q=random_spd(3, rng), alpha=-0.3, horizon=2.0)
        blocks = block_exponential(sys, cost)
        re = np.linalg.eigvals(sys.A).real
        rate = max(np.abs(re).max(), np.abs(re - 0.6).max(), np.abs(re + 0.6).max())
        assert blocks.growth == pytest.approx(2.0 * rate, rel=1e-12)

    def test_expm_route_computes_it_once(self, rng, growth_calls):
        sys = random_system(2, rng)
        cost_stats_expm(sys, CostSpec(Q=random_spd(2, rng), alpha=-0.3, horizon=1.0))
        assert len(growth_calls) == 1

    @pytest.mark.parametrize("horizon", [1.0, 30.0])     # expm, then Lyapunov route
    def test_auto_computes_it_once(self, horizon, rng, growth_calls):
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, -0.6))
        stats = auto_cost_stats(sys, CostSpec(Q=random_spd(2, rng), alpha=-0.3,
                                              horizon=horizon))
        assert stats.method == ("expm" if horizon < 10.0 else "lyapunov")
        assert len(growth_calls) == 1

    def test_fallback_warning_reports_growth(self, growth_calls):
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        cost = CostSpec(Q=np.eye(2), alpha=-0.5, horizon=30.0)
        with pytest.warns(RuntimeWarning, match=r"T \* max\|Re eig\| = 30,"):
            stats = auto_cost_stats(sys, cost)
        assert len(growth_calls) == 1
        assert "= 30 <=" in stats.conditions_checked[1].detail


def _variance_lost_by_expm():
    """n = 40, alpha = -0.3, T = 2 (growth 29.3), where the Lyapunov route's
    variance is 3.392e7.  The draw of
    ``_route_case(40, (), (-0.3, 0.2), np.random.default_rng(1))`` in
    ``perfbench/workloads.py``, with the same rejection shifts."""
    rng = np.random.default_rng(1)
    shifts = sorted({k * alpha for alpha in (-0.3, 0.2) for k in range(-2, 4)})
    sys = random_system(40, rng, alpha_shifts=shifts)
    return sys, CostSpec(Q=random_spd(40, rng), alpha=-0.3, horizon=2.0)


LOST_VARIANCE_CHILD = """
import json
import lqgcost.cost_expm as ce
from lqgcost import AccuracyError, cost_stats_lyapunov
from test_cost_expm import _variance_lost_by_expm

system, cost = _variance_lost_by_expm()
try:
    ce.cost_stats_expm(system, cost)
    expm = "returned"
except AccuracyError as exc:
    expm = "AccuracyError: " + str(exc)
lyap = cost_stats_lyapunov(system, cost)
auto = {}
for switch in (20.0, 50.0):      # Lyapunov route first, exponential route first
    ce.AUTO_GROWTH_SWITCH = switch
    stats = ce.auto_cost_stats(system, cost)
    auto[switch] = [stats.method, (stats.mean, stats.variance) == (lyap.mean, lyap.variance)]
print(json.dumps({"expm": expm, "lyapunov": lyap.variance, "auto": list(auto.values())}))
"""


def test_expm_lost_variance_is_accuracy_error():
    # The exponential route's raw variance here is rounding noise whose sign
    # depends on how BLAS splits the 200 x 200 products: about -6.4e8 on one
    # OpenBLAS thread, +3.2e8 on two.  The child process pins one thread, so
    # the route takes its negative-variance path.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]),
               **{name: "1" for name in BLAS_THREADS})
    done = subprocess.run([sys.executable, "-c", LOST_VARIANCE_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    out = json.loads(done.stdout)
    assert out["expm"].startswith("AccuracyError: block exponential lost the variance")
    assert out["lyapunov"] == pytest.approx(3.392e7, rel=1e-3)
    assert out["auto"] == [["lyapunov", True], ["lyapunov", True]]


class TestAutoCostStats:
    def test_infinite_horizon_uses_lyapunov(self):
        stats = auto_cost_stats(scalar_system(), scalar_cost())
        assert stats.method == "lyapunov"

    def test_non_sylvester_finite_uses_expm(self):
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        stats = auto_cost_stats(sys, CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0))
        assert stats.method == "expm"

    def test_large_growth_prefers_lyapunov(self):
        sys = scalar_system(a=-30.0)
        stats = auto_cost_stats(sys, scalar_cost(alpha=-0.5, horizon=10.0))
        assert stats.method == "lyapunov"

    def test_non_sylvester_beyond_comfort_zone_warns(self):
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        cost = CostSpec(Q=np.eye(2), alpha=-0.5, horizon=30.0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            stats = auto_cost_stats(sys, cost)
        assert stats.method == "expm"

    def test_routes_agree(self, rng):
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, 0.6, 0.9))
        cost = CostSpec(Q=random_spd(2, rng), alpha=0.3, horizon=1.0)
        auto = auto_cost_stats(sys, cost)
        lyap = cost_stats_lyapunov(sys, cost)
        assert abs(auto.mean - lyap.mean) <= 1e-8 * (1 + abs(lyap.mean))
        assert abs(auto.variance - lyap.variance) <= 1e-8 * (1 + abs(lyap.variance))
