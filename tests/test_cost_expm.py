import json
import math
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
import lqgcost.cost_expm as ce
from lqgcost.moments import _compose, _doubling_count, _propagate
from conftest import random_spd, random_system, scalar_cost, scalar_system

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _step_segment(sys, cost, h):
    """The record of one step h of ``cost``, from the route's kernel at h."""
    step = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=h)
    return ce._segment(sys, cost, block_exponential(sys, step), h)


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

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.3])
    def test_same_matrix_as_hand_placed_blocks(self, n, alpha, rng):
        # the reference places each block at its own offsets
        sys = random_system(n, rng)
        q = random_spd(n, rng)
        a, v, eye = sys.A, sys.V, np.eye(n)
        a2p = a + 2.0 * alpha * eye
        a2m = a - 2.0 * alpha * eye
        ref = np.zeros((5 * n, 5 * n))
        ref[0:n, 0:n] = -a2p.T
        ref[0:n, n:2 * n] = q
        ref[n:2 * n, n:2 * n] = a
        ref[n:2 * n, 2 * n:3 * n] = v
        ref[2 * n:3 * n, 2 * n:3 * n] = -a.T
        ref[2 * n:3 * n, 3 * n:4 * n] = q
        ref[3 * n:4 * n, 3 * n:4 * n] = a2p
        ref[3 * n:4 * n, 4 * n:5 * n] = v
        ref[4 * n:5 * n, 4 * n:5 * n] = -a2m.T
        c = build_block_matrix(sys, CostSpec(Q=q, alpha=alpha, horizon=1.0))
        assert np.array_equal(c, ref)

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
        # growth 310 is past BLOCK_GROWTH: the block at T / 2^k, doubled k times
        sys = scalar_system(a=-30.0)
        cost = scalar_cost(alpha=-0.5, horizon=10.0)
        stats = cost_stats_expm(sys, cost)
        lyap = cost_stats_lyapunov(sys, cost)
        assert stats.branch.endswith("T * max|Re eig| = 310, 9 doublings")
        assert_allclose([stats.mean, stats.variance], [lyap.mean, lyap.variance], rtol=1e-12)

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

    def test_frozen_reference_doubled(self, monkeypatch):
        # the same instance with the block at T / 2^3, doubled three times
        monkeypatch.setattr(ce, "BLOCK_GROWTH", 0.0)
        mu0 = np.array([0.6, -0.3])
        sys = LtiSystem(
            A=[[-0.7, 0.9], [-0.4, -1.1]],
            V=[[1.3, 0.4], [0.4, 0.8]],
            mu0=mu0,
            Sigma0=np.array([[0.9, 0.1], [0.1, 0.5]]) + np.outer(mu0, mu0),
        )
        stats = cost_stats_expm(sys, CostSpec(Q=[[1.1, -0.2], [-0.2, 0.7]], alpha=-0.35,
                                              horizon=2.5))
        assert stats.branch.endswith(", 3 doublings")
        assert stats.mean == pytest.approx(1.757762513489323086379828, rel=1e-12)
        assert stats.variance == pytest.approx(1.922175182928627403062113, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3])
    def test_compose_matches_the_longer_step(self, alpha, rng):
        # every field of two composed steps of h against one step of 2h; the
        # composed P, G and v read H and K
        sys = random_system(3, rng)
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=1.0)
        h = 0.1
        step = _step_segment(sys, cost, h)
        longer = _step_segment(sys, cost, 2 * h)
        composed = _compose(step, step, np.exp(2 * alpha * h))
        for name in ("phi", "W", "P", "c", "G", "v", "H", "K"):
            assert_allclose(getattr(composed, name), getattr(longer, name), rtol=1e-12,
                            atol=1e-14 * np.abs(getattr(longer, name)).max(), err_msg=name)

    @pytest.mark.parametrize("alpha", [-0.5, 0.3])
    def test_step_matches_the_state_propagation(self, alpha, rng):
        # the segment's Phi and W at the step h are the moments' base step at
        # h, to the bit: one Van Loan formulation serves both
        sys = random_system(3, rng)
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=1.0)
        h = 0.1
        step = _step_segment(sys, cost, h)
        phi, w = _propagate(sys.A, sys.V, h)
        assert np.array_equal(step.phi, phi) and np.array_equal(step.W, w)

    @pytest.mark.parametrize("doublings", range(3, 10))
    def test_doubled_step_matches_the_state_propagation(self, doublings, rng):
        # at alpha = 0 the route's doublings of its base segment are
        # _propagate's doublings of (Phi, W), to the bit
        sys = random_system(3, rng)
        cost = CostSpec(Q=random_spd(3, rng), alpha=0.0, horizon=1.0)
        t = 0.75 * math.ldexp(1.0, doublings) / np.abs(sys.A).sum(axis=0).max()
        assert _doubling_count(sys.A, t) == doublings
        seg = _step_segment(sys, cost, math.ldexp(t, -doublings))
        for _ in range(doublings):
            seg = _compose(seg, seg, 1.0)
        phi, w = _propagate(sys.A, sys.V, t)
        assert np.array_equal(seg.phi, phi) and np.array_equal(seg.W, w)

    @pytest.mark.parametrize("horizon", [1.0, 30.0])     # one block, then doubling
    def test_one_block_exponential_per_call(self, horizon, rng, monkeypatch):
        # the route reads the public kernel once, at T or at the base step
        steps = []
        real = ce.block_exponential

        def counting(sys, cost):
            steps.append(cost.horizon)
            return real(sys, cost)

        monkeypatch.setattr(ce, "block_exponential", counting)
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, -0.6))
        stats = cost_stats_expm(sys, CostSpec(Q=random_spd(2, rng), alpha=-0.3,
                                              horizon=horizon))
        k = int(stats.branch.rsplit(", ", 1)[1].split()[0])
        assert (k == 0) == (horizon < 10.0)
        assert steps == [math.ldexp(horizon, -k)]

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
        real = ce._growth_exponent

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(ce, "_growth_exponent", counting)
        return calls

    def test_block_exponential_carries_growth(self, rng):
        sys = random_system(3, rng)
        cost = CostSpec(Q=random_spd(3, rng), alpha=-0.3, horizon=2.0)
        re = np.linalg.eigvals(sys.A).real
        rate = max(np.abs(re).max(), np.abs(re - 0.6).max(), np.abs(re + 0.6).max())
        assert ce._growth_exponent(sys, cost) == pytest.approx(2.0 * rate, rel=1e-12)
        assert cost_stats_expm(sys, cost).branch == (
            f"finite horizon, block exponential, T * max|Re eig| = {2.0 * rate:.3g}, 0 doublings")

    def test_expm_route_computes_it_once(self, rng, growth_calls):
        sys = random_system(2, rng)
        cost_stats_expm(sys, CostSpec(Q=random_spd(2, rng), alpha=-0.3, horizon=1.0))
        assert len(growth_calls) == 1

    @pytest.mark.parametrize("horizon", [1.0, 30.0])     # one block, then doubling
    def test_auto_computes_it_once(self, horizon, rng, growth_calls):
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, -0.6))
        stats = auto_cost_stats(sys, CostSpec(Q=random_spd(2, rng), alpha=-0.3,
                                              horizon=horizon))
        assert stats.method == "expm"
        assert stats.branch.endswith(" 0 doublings") == (horizon < 10.0)
        assert len(growth_calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_branch_reports_growth_past_the_block(self, growth_calls):
        # growth 30 on the double integrator: reported once, on the branch
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        cost = CostSpec(Q=np.eye(2), alpha=-0.5, horizon=30.0)
        assert ce._growth_exponent(sys, cost) == pytest.approx(30.0, rel=1e-12)
        growth_calls.clear()
        stats = auto_cost_stats(sys, cost)
        assert len(growth_calls) == 1
        assert stats.branch == ("finite horizon, block exponential, "
                                "T * max|Re eig| = 30, 6 doublings")
        assert [(c.name, c.passed, c.detail) for c in stats.conditions_checked] == [
            ("finite horizon", True, "T = 30")]


def _growth_29_cases():
    """n = 40 at alpha = -0.3 and 0.2, seeds 0-2, each at the horizon that
    makes T * max|Re eig(C)| = 29.3; then seed 1 at alpha = -0.3, T = 2, where
    one block at T returns a variance that depends on the BLAS thread count
    (3.2e8 on two OpenBLAS threads, a negative one on one; the value is
    3.392e7).  The draws of ``_route_case(40, (), (-0.3, 0.2), default_rng(seed))``
    in ``perfbench/workloads.py``, with the same rejection shifts."""
    alphas = (-0.3, 0.2)
    shifts = sorted({k * alpha for alpha in alphas for k in range(-2, 4)})
    cases = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sys = random_system(40, rng, alpha_shifts=shifts)
        q = random_spd(40, rng)
        re = np.linalg.eigvals(sys.A).real
        for alpha in alphas:
            rate = max(np.abs(re).max(), np.abs(re + 2 * alpha).max(),
                       np.abs(re - 2 * alpha).max())
            cases.append((sys, CostSpec(Q=q, alpha=alpha, horizon=29.3 / rate)))
    cases.append((cases[2][0], CostSpec(Q=cases[2][1].Q, alpha=-0.3, horizon=2.0)))
    return cases


GROWTH_29_CHILD = """
import json
from lqgcost import auto_cost_stats, cost_stats_expm, cost_stats_lyapunov
from test_cost_expm import _growth_29_cases

rows = []
for system, cost in _growth_29_cases():
    expm, lyap, auto = (route(system, cost) for route in
                        (cost_stats_expm, cost_stats_lyapunov, auto_cost_stats))
    rows.append([expm.mean, expm.variance, lyap.mean, lyap.variance, expm.branch,
                 auto.method, (auto.mean, auto.variance) == (expm.mean, expm.variance)])
print(json.dumps(rows))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_growth_29_against_lyapunov(threads):
    # Past BLOCK_GROWTH one block at T multiplies blocks growing like e^{29.3}
    # by blocks decaying like e^{-29.3}; the doubled route must match the
    # Lyapunov route whatever the BLAS thread count, which each child process
    # pins before NumPy loads.
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]),
               **{name: threads for name in BLAS_THREADS})
    done = subprocess.run([sys.executable, "-c", GROWTH_29_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = json.loads(done.stdout)
    assert len(rows) == 7
    assert rows[-1][3] == pytest.approx(3.392e7, rel=1e-3)
    for expm_mean, expm_var, lyap_mean, lyap_var, branch, method, same in rows:
        assert branch.endswith(" 7 doublings"), branch
        assert expm_mean == pytest.approx(lyap_mean, rel=1e-12)
        assert expm_var == pytest.approx(lyap_var, rel=1e-12)
        assert method == "expm" and same


def _double_integrator_moments(alpha, horizon):
    """Mean and variance of the cost of dx = [[0, 1], [0, 0]] x dt + dv with
    V = Q = Sigma0 = I and mu0 = 0, by composite Gauss-Legendre rules on its
    closed-form state moments: Sigma(t) = [[1 + t + t^2 + t^3/3, t + t^2/2],
    [t + t^2/2, 1 + t]] and E[x(s) x(t)^T] = Sigma(s) [[1, 0], [t - s, 1]]
    for s <= t.  Var = 4 int_0^T int_0^t e^{2 alpha (s + t)}
    ||E[x(s) x(t)^T]||_F^2 ds dt."""
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, 1.0, 41)
    half = 0.5 * np.diff(edges)[:, None]
    u = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * x).ravel()
    wu = (half * w).ravel()                                   # a rule on [0, 1]

    def sigma(t):
        return 1 + t + t ** 2 + t ** 3 / 3, t + t ** 2 / 2, 1 + t

    t = horizon * u
    a, b, c = sigma(t)
    mean = horizon * np.sum(wu * np.exp(2 * alpha * t) * (a + c))
    s = t[:, None] * u[None, :]                               # s = t u' <= t
    d = t[:, None] - s
    a, b, c = sigma(s)
    frob = (a + b * d) ** 2 + b ** 2 + (b + c * d) ** 2 + c ** 2
    inner = t * np.sum(wu * np.exp(2 * alpha * (s + t[:, None])) * frob, axis=1)
    return mean, 4.0 * horizon * np.sum(wu * inner)


class TestAutoCostStats:
    def test_infinite_horizon_uses_lyapunov(self):
        stats = auto_cost_stats(scalar_system(), scalar_cost())
        assert stats.method == "lyapunov"

    def test_non_sylvester_finite_uses_expm(self):
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        stats = auto_cost_stats(sys, CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0))
        assert stats.method == "expm"

    @pytest.mark.filterwarnings("error")
    def test_non_sylvester_past_the_block_growth(self):
        # growth 30 on a drift whose Lyapunov equations are all singular
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2))
        stats = auto_cost_stats(sys, CostSpec(Q=np.eye(2), alpha=-0.5, horizon=30.0))
        assert stats.method == "expm"
        assert_allclose([stats.mean, stats.variance], _double_integrator_moments(-0.5, 30.0),
                        rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_variance_overflow_is_named(self):
        # growth 0, but Sigma0 = 1e160 squares the variance past the largest double
        sys = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                        mu0=np.zeros(2), Sigma0=np.eye(2) * 1e160)
        cost = CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0)
        with pytest.raises(AccuracyError, match="^block exponential lost the variance.*overflows"):
            auto_cost_stats(sys, cost)

    def test_stiff_and_neutral_drift(self):
        # growth 750; the Lyapunov route refuses the mode at 0.  The modes are
        # independent: an Ornstein-Uhlenbeck one, and a Brownian one whose cost
        # has mean q2 (s2 T + T^2 / 2) and variance
        # (4 q2^2 / 3) [((s2 + T)^4 - s2^4) / 4 - s2^3 T].
        q1, q2, s1, s2, t = 2.0, 0.7, 1.3, 0.4, 25.0
        sys = LtiSystem(A=np.diag([-30.0, 0.0]), V=np.eye(2), mu0=np.zeros(2),
                        Sigma0=np.diag([s1, s2]))
        stats = auto_cost_stats(sys, CostSpec(Q=np.diag([q1, q2]), alpha=0.0, horizon=t))
        decay = -np.expm1(-60.0 * t)
        mean = q1 * (s1 * decay / 60.0 + t / 60.0 - decay / 3600.0) + q2 * (s2 * t + t * t / 2.0)
        ou = cost_stats_lyapunov(LtiSystem(A=[[-30.0]], V=[[1.0]], mu0=[0.0], Sigma0=[[s1]]),
                                 CostSpec(Q=[[q1]], alpha=0.0, horizon=t))
        brownian = 4.0 * q2 ** 2 / 3.0 * (((s2 + t) ** 4 - s2 ** 4) / 4.0 - s2 ** 3 * t)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(ou.variance + brownian, rel=1e-12)

    @pytest.mark.parametrize("horizon", [2.0, 25.0])
    def test_rotated_stiff_drift(self, horizon):
        # growth 60 and 750 on U diag(-0.1, -30) U^T
        u, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        mu0 = np.array([1.0, -0.5])
        sys = LtiSystem(A=u @ np.diag([-0.1, -30.0]) @ u.T, V=np.eye(2), mu0=mu0,
                        Sigma0=np.eye(2) + np.outer(mu0, mu0))
        cost = CostSpec(Q=np.eye(2), alpha=0.0, horizon=horizon)
        expm, lyap = cost_stats_expm(sys, cost), cost_stats_lyapunov(sys, cost)
        assert_allclose([expm.mean, expm.variance], [lyap.mean, lyap.variance], rtol=1e-12)
        auto = auto_cost_stats(sys, cost)
        assert (auto.method, auto.mean, auto.variance) == ("expm", expm.mean, expm.variance)

    def test_routes_agree(self, rng):
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, 0.6, 0.9))
        cost = CostSpec(Q=random_spd(2, rng), alpha=0.3, horizon=1.0)
        auto = auto_cost_stats(sys, cost)
        lyap = cost_stats_lyapunov(sys, cost)
        assert abs(auto.mean - lyap.mean) <= 1e-8 * (1 + abs(lyap.mean))
        assert abs(auto.variance - lyap.variance) <= 1e-8 * (1 + abs(lyap.variance))
