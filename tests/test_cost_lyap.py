import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqgcost import (
    AccuracyError,
    ConditionError,
    CostSpec,
    LqgPlant,
    LtiSystem,
    auto_cost_stats,
    close_loop_output_feedback,
    cost_stats_expm,
    cost_stats_lyapunov,
    kalman_gain,
    optimal_gain,
    expected_cost_finite,
    expected_cost_infinite,
    variance_cost_finite,
    variance_cost_infinite,
    variance_cost_infinite_unreduced,
)
from conftest import (
    cost_moments_by_quadrature,
    mean_by_quadrature,
    random_spd,
    random_system,
    scalar_cost,
    scalar_system,
)


class TestExpectedCostFinite:
    def test_zero_weight(self, rng):
        sys = random_system(3, rng)
        assert expected_cost_finite(sys, CostSpec(Q=np.zeros((3, 3)), alpha=-0.3,
                                                  horizon=2.0)) == pytest.approx(0.0)

    def test_vanishing_interval(self, rng):
        sys = random_system(3, rng)
        q = random_spd(3, rng)
        value = expected_cost_finite(sys, CostSpec(Q=q, alpha=-0.3, horizon=1e-8))
        assert abs(value) <= 1e-6 * np.trace(sys.Sigma0 @ q)

    def test_scalar_stationary(self):
        # Sigma(t) stays at 1, so the mean is integral_0^3 e^{-t} dt = 1 - e^{-3}
        sys = scalar_system(a=-1.0, v=2.0, mu0=1.0, sigma0=1.0)
        value = expected_cost_finite(sys, scalar_cost(alpha=-0.5, horizon=3.0))
        assert_allclose(value, 1.0 - math.exp(-3.0), rtol=1e-12)

    def test_condition_error_names_failures(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])   # not sylvester
        sys = LtiSystem(A=a, V=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        with pytest.raises(ConditionError) as err:
            expected_cost_finite(sys, CostSpec(Q=np.eye(2), alpha=-0.4, horizon=1.0))
        names = [c.name for c in err.value.conditions if not c.passed]
        assert "A sylvester" in names

    def test_matches_quadrature(self, rng):
        sys = random_system(2, rng, alpha_shifts=(-0.4,))
        cost = CostSpec(Q=random_spd(2, rng), alpha=-0.4, horizon=1.2)
        assert_allclose(expected_cost_finite(sys, cost),
                        mean_by_quadrature(sys, cost), rtol=1e-8)


class TestExpectedCostInfinite:
    def test_scalar_reference(self):
        sys = scalar_system()
        assert_allclose(expected_cost_infinite(sys, scalar_cost()), 1.0, rtol=1e-12)

    def test_empty_system(self):
        sys = LtiSystem(A=[[-1.0]], V=[[0.0]], mu0=[0.0], Sigma0=[[0.0]])
        assert expected_cost_infinite(sys, scalar_cost()) == pytest.approx(0.0)

    def test_requires_negative_alpha(self, rng):
        sys = random_system(2, rng)
        with pytest.raises(ConditionError):
            expected_cost_infinite(sys, CostSpec(Q=np.eye(2), alpha=0.0))

    def test_requires_stable_shifted_drift(self):
        sys = LtiSystem(A=[[0.5]], V=[[1.0]], mu0=[0.0], Sigma0=[[1.0]])
        with pytest.raises(ConditionError):
            expected_cost_infinite(sys, scalar_cost(alpha=-0.2))

    def test_finite_horizon_limit(self, rng):
        for alpha in (-0.8, -0.25):
            sys = random_system(3, rng, alpha_shifts=(alpha, 2 * alpha))
            q = random_spd(3, rng)
            inf_value = expected_cost_infinite(sys, CostSpec(Q=q, alpha=alpha))
            fin_value = expected_cost_finite(
                sys, CostSpec(Q=q, alpha=alpha, horizon=60.0 / abs(alpha)))
            assert_allclose(fin_value, inf_value, rtol=1e-6)


class TestVarianceCostFinite:
    def test_zero_weight(self, rng):
        sys = random_system(3, rng)
        assert variance_cost_finite(sys, CostSpec(Q=np.zeros((3, 3)), alpha=0.2,
                                                  horizon=1.5)) == pytest.approx(0.0)

    def test_deterministic_system(self, rng):
        # no noise and a deterministic start: the cost has zero variance
        a = np.array([[-1.0, 0.4], [0.0, -2.0]])
        mu0 = np.array([1.0, -2.0])
        sys = LtiSystem(A=a, V=np.zeros((2, 2)), mu0=mu0, Sigma0=np.outer(mu0, mu0))
        value = variance_cost_finite(sys, CostSpec(Q=np.eye(2), alpha=-0.3, horizon=2.0))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_matches_quadrature(self, rng):
        for alpha in (-0.4, 0.25):
            sys = random_system(2, rng, alpha_shifts=(-alpha, alpha, 2 * alpha, 3 * alpha))
            cost = CostSpec(Q=random_spd(2, rng), alpha=alpha, horizon=1.2)
            mean_q, var_q = cost_moments_by_quadrature(sys, cost)
            assert_allclose(variance_cost_finite(sys, cost), var_q, rtol=1e-4)

    def test_matches_quadrature_deterministic_start(self, rng):
        mu0 = np.array([0.8, -0.5])
        sys = LtiSystem(A=np.array([[-1.0, 0.3], [0.1, -1.6]]),
                        V=random_spd(2, rng), mu0=mu0, Sigma0=np.outer(mu0, mu0))
        cost = CostSpec(Q=random_spd(2, rng), alpha=0.0, horizon=0.8)
        _, var_q = cost_moments_by_quadrature(sys, cost)
        assert_allclose(expected_cost_finite(sys, cost),
                        mean_by_quadrature(sys, cost), rtol=1e-8)
        assert_allclose(variance_cost_finite(sys, cost), var_q, rtol=1e-4)


class TestVarianceCostInfinite:
    def test_scalar_reference(self):
        sys = scalar_system()
        assert_allclose(variance_cost_infinite(sys, scalar_cost()), 2.0 / 3.0,
                        rtol=1e-12)

    def test_deterministic_is_zero(self):
        mu0 = np.array([1.0, 2.0])
        sys = LtiSystem(A=np.diag([-1.0, -2.0]), V=np.zeros((2, 2)),
                        mu0=mu0, Sigma0=np.outer(mu0, mu0))
        value = variance_cost_infinite(sys, CostSpec(Q=np.eye(2), alpha=-0.3))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_systems(self, rng):
        for _ in range(100):
            sys = random_system(2, rng, margin=0.4)
            cost = CostSpec(Q=random_spd(2, rng), alpha=-0.3)
            assert variance_cost_infinite(sys, cost) >= 0.0

    def test_unreduced_equivalence(self, rng):
        for _ in range(10):
            sys = random_system(3, rng, alpha_shifts=(-0.35, -0.7))
            cost = CostSpec(Q=random_spd(3, rng), alpha=-0.35)
            assert_allclose(variance_cost_infinite_unreduced(sys, cost),
                            variance_cost_infinite(sys, cost), rtol=1e-9)

    def test_finite_horizon_limit(self, rng):
        alpha = -0.5
        sys = random_system(2, rng, alpha_shifts=(alpha, -alpha, 2 * alpha))
        cost_inf = CostSpec(Q=random_spd(2, rng), alpha=alpha)
        cost_fin = CostSpec(Q=cost_inf.Q, alpha=alpha, horizon=60.0 / abs(alpha))
        assert_allclose(variance_cost_finite(sys, cost_fin),
                        variance_cost_infinite(sys, cost_inf), rtol=1e-6)


class TestMonteCarloAgreement:
    def test_random_small_systems(self, rng):
        # analytic mean and variance vs the simulation oracle, 2 and 3 states
        from lqgcost import SimConfig, simulate_costs

        for n in (2, 3):
            alpha = -0.4
            sys = random_system(n, rng, alpha_shifts=(-alpha, alpha, 2 * alpha),
                                spread=0.7)
            cost = CostSpec(Q=random_spd(n, rng), alpha=alpha, horizon=3.0)
            mean = expected_cost_finite(sys, cost)
            var = variance_cost_finite(sys, cost)
            cfg = SimConfig(dt=0.02, T=3.0, n_paths=150_000, seed=100 + n,
                            scheme="exact")
            emp = simulate_costs(sys, cost, cfg)
            assert abs(emp.mean - mean) < 4.0 * emp.mean_stderr
            assert abs(emp.variance - var) < 4.0 * emp.variance_stderr


class TestAlphaContinuity:
    def test_mean_and_variance(self, rng):
        for _ in range(5):
            sys = random_system(3, rng, alpha_shifts=(-0.01, 0.01))
            q = random_spd(3, rng)
            t = 1.4
            eps = 1e-6
            for func in (expected_cost_finite, variance_cost_finite):
                at_zero = func(sys, CostSpec(Q=q, alpha=0.0, horizon=t))
                for eps_signed in (eps, -eps):
                    near = func(sys, CostSpec(Q=q, alpha=eps_signed, horizon=t))
                    assert abs(near - at_zero) / abs(at_zero) < 1e-4

    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("alpha_t", [5e-10, -5e-10, 2e-9, -2e-9, 1e-8, -1e-8,
                                         1e-6, -1e-6])
    def test_small_alpha_t_matches_expm(self, n, alpha_t, rng):
        # nothing divides by alpha, so no digits are lost as alpha T -> 0
        sys = random_system(n, rng)
        t = 1.5
        cost = CostSpec(Q=random_spd(n, rng), alpha=alpha_t / t, horizon=t)
        lyap = cost_stats_lyapunov(sys, cost)
        expm = cost_stats_expm(sys, cost)
        assert_allclose([lyap.mean, lyap.variance], [expm.mean, expm.variance], rtol=1e-10)


class TestCostStatsLyapunov:
    def test_combined_infinite(self):
        stats = cost_stats_lyapunov(scalar_system(), scalar_cost())
        assert stats.method == "lyapunov"
        assert stats.branch == "infinite horizon"
        assert_allclose(stats.mean, 1.0, rtol=1e-12)
        assert_allclose(stats.variance, 2.0 / 3.0, rtol=1e-12)
        assert all(c.passed for c in stats.conditions_checked)

    def test_combined_finite_conditions_recorded(self, rng):
        sys = random_system(2, rng, alpha_shifts=(-0.3, 0.3, 0.6))
        stats = cost_stats_lyapunov(sys, CostSpec(Q=np.eye(2), alpha=0.3, horizon=1.0))
        names = {c.name for c in stats.conditions_checked}
        assert {"A sylvester", "A+1a sylvester", "A-1a sylvester", "A+2a sylvester"} <= names

    def test_variance_clamp(self):
        # an exactly deterministic cost can round to a tiny negative variance
        mu0 = np.array([3.0])
        sys = LtiSystem(A=[[-1.0]], V=[[0.0]], mu0=mu0, Sigma0=[[9.0]])
        stats = cost_stats_lyapunov(sys, scalar_cost(alpha=-0.5))
        assert stats.variance >= 0.0


def _output_feedback_loop_with_near_singular_shift():
    """40-state output-feedback loop whose drift A - alpha I has an eigenvalue
    pair summing to about 7e-4: Y[Q; A_-1] is huge, while its finite-horizon
    version over the short horizon below is not."""
    rng = np.random.default_rng(11)
    n, m, p = 20, 3, 4
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    b = rng.normal(size=(n, m))
    c = rng.normal(size=(p, n))
    g_q = rng.normal(size=(n, n))
    g_v = rng.normal(size=(n, n))
    plant = LqgPlant(A=a, B=b, C=c, Q=g_q @ g_q.T / n + 0.1 * np.eye(n), R=np.eye(m),
                     V=g_v @ g_v.T / n + 0.1 * np.eye(n), W=0.1 * np.eye(p), alpha=-0.2)
    sigma0 = np.zeros((2 * n, 2 * n))
    sigma0[:n, :n] = np.eye(n)
    sys, cost = close_loop_output_feedback(plant, optimal_gain(plant), kalman_gain(plant),
                                           np.zeros(2 * n), sigma0)
    horizon = 8.0 / np.abs(np.linalg.eigvals(sys.A).real).max()
    return sys, CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon)


class TestCancellationGuard:
    def test_cancelling_identity_raises_and_auto_uses_expm(self):
        # the Lyapunov route used to return a variance about 1300x too large here
        sys, cost = _output_feedback_loop_with_near_singular_shift()
        with pytest.raises(AccuracyError, match="Y_T of A-1a"):
            cost_stats_lyapunov(sys, cost)
        with pytest.raises(AccuracyError):
            variance_cost_finite(sys, cost)
        auto = auto_cost_stats(sys, cost)
        expm = cost_stats_expm(sys, cost)
        assert auto.method == "expm"
        assert (auto.mean, auto.variance) == (expm.mean, expm.variance)

    @pytest.mark.parametrize("alpha", [0.0, -0.3])
    def test_state_covariance_identity_raises(self, alpha):
        # X[V; A] = 5e6 while Sigma_T over T = 1 is about 2
        sys = LtiSystem(A=[[-1e-7]], V=[[1.0]], mu0=[0.0], Sigma0=[[1.0]])
        cost = CostSpec(Q=[[1.0]], alpha=alpha, horizon=1.0)
        with pytest.raises(AccuracyError, match="Sigma_T"):
            expected_cost_finite(sys, cost)
        assert auto_cost_stats(sys, cost).method == "expm"

    def test_auto_falls_back_to_expm_beyond_switch(self):
        # A - alpha I has the eigenvalue -1e-7: Y[Q; A_-1] is about 5e6 while
        # its integral over T = 1 is about 1; growth 30 makes auto try Lyapunov first
        sys = LtiSystem(A=np.diag([-0.2 - 1e-7, -30.0]), V=np.eye(2),
                        mu0=np.array([1.0, -1.0]), Sigma0=np.eye(2) * 2.0)
        cost = CostSpec(Q=np.eye(2), alpha=-0.2, horizon=1.0)
        with pytest.raises(AccuracyError):
            cost_stats_lyapunov(sys, cost)
        with pytest.warns(RuntimeWarning, match="accuracy check failed.*falling back"):
            auto = auto_cost_stats(sys, cost)
        expm = cost_stats_expm(sys, cost)
        assert auto.method == "expm"
        assert (auto.mean, auto.variance) == (expm.mean, expm.variance)
        assert any(c.name == "lyapunov fallback" and not c.passed
                   for c in auto.conditions_checked)
