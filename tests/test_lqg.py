import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_are

from lqgcost import (
    ConditionCheck,
    ConditionError,
    CostSpec,
    LqgPlant,
    SimConfig,
    SynthesisError,
    close_loop_full_state,
    close_loop_output_feedback,
    evaluate_gain,
    expected_cost_finite,
    expected_cost_infinite,
    kalman_gain,
    optimal_gain,
    simulate_costs,
    solve_lyapunov_transposed,
    solve_riccati,
    synthesize_gains,
)
from conftest import random_spd, random_stable


def benchmark_plant():
    return LqgPlant(
        A=[[1.0, 0.0], [0.05, 1.0]],
        B=[[1.0], [0.0]],
        C=np.eye(2),
        Q=np.eye(2),
        R=np.eye(1),
        V=np.eye(2),
        W=0.01 * np.eye(2),
        alpha=-0.8,
    )


class TestSolveRiccati:
    def test_scalar_closed_form(self):
        x = solve_riccati(np.array([[1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]), np.array([[1.0]]))
        assert_allclose(x, [[1.0 + math.sqrt(2.0)]], rtol=1e-12)

    def test_no_control_reduces_to_lyapunov(self, rng):
        a = random_stable(3, rng)
        q = random_spd(3, rng)
        x = solve_riccati(a, np.zeros((3, 1)), q, np.eye(1))
        assert_allclose(x, solve_lyapunov_transposed(a, q), rtol=1e-10)

    def test_zero_state_weight(self, rng):
        a = random_stable(3, rng)
        x = solve_riccati(a, rng.normal(size=(3, 2)), np.zeros((3, 3)), np.eye(2))
        assert_allclose(x, np.zeros((3, 3)), atol=1e-12)

    def test_residual_invariant(self, rng):
        for _ in range(5):
            n, m = 4, 2
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, m))
            q = random_spd(n, rng)
            r = random_spd(m, rng)
            x = solve_riccati(a, b, q, r)
            gain_term = b @ np.linalg.solve(r, b.T)
            res = np.linalg.norm(a.T @ x + x @ a + q - x @ gain_term @ x)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(x) ** 2 * np.linalg.norm(gain_term))

    def test_matches_scipy(self, rng):
        for _ in range(5):
            n, m = 3, 2
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, m))
            q = random_spd(n, rng)
            r = random_spd(m, rng)
            assert_allclose(solve_riccati(a, b, q, r),
                            solve_continuous_are(a, b, q, r), rtol=1e-8, atol=1e-10)

    def test_uncontrollable_unstable_raises(self):
        with pytest.raises(SynthesisError):
            solve_riccati(np.array([[1.0]]), np.zeros((1, 1)),
                          np.array([[1.0]]), np.array([[1.0]]))


class TestOptimalGain:
    def test_benchmark_matches_published_rounding(self):
        f = optimal_gain(benchmark_plant())
        assert f.shape == (1, 2)
        assert abs(f[0, 0] - 1.6) <= 0.05
        assert abs(f[0, 1] - 9.9) <= 0.05

    def test_scalar_zero_exponent(self):
        plant = LqgPlant(A=[[1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=0.0)
        assert_allclose(optimal_gain(plant), [[1.0 + math.sqrt(2.0)]], rtol=1e-12)

    def test_no_actuation_stable_shifted_drift(self):
        plant = LqgPlant(A=[[1.0]], B=[[0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=-2.0)
        assert_allclose(optimal_gain(plant), [[0.0]], atol=1e-14)

    def test_no_actuation_unstable_raises(self):
        plant = LqgPlant(A=[[1.0]], B=[[0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=-0.8)
        with pytest.raises(SynthesisError):
            optimal_gain(plant)

    def test_ill_conditioned_newton_start(self):
        # the second draw of this 20-state recipe has a stabilizing start gain
        # of norm about 2e6, whose Lyapunov solves must stay accurate for the
        # Newton iteration to reach the stabilizing solution
        rng = np.random.default_rng(11)
        n, m, p = 20, 3, 4
        for _ in range(2):
            a = rng.normal(size=(n, n)) / math.sqrt(n)
            b = rng.normal(size=(n, m))
            c = rng.normal(size=(p, n))
            g_q = rng.normal(size=(n, n))
            g_v = rng.normal(size=(n, n))
        plant = LqgPlant(A=a, B=b, C=c, Q=g_q @ g_q.T / n + 0.1 * np.eye(n), R=np.eye(m),
                         V=g_v @ g_v.T / n + 0.1 * np.eye(n), W=0.1 * np.eye(p), alpha=-0.2)
        x = solve_continuous_are(plant.shifted_drift(), plant.B, plant.Q, plant.R)
        expected = plant.B.T @ x
        assert_allclose(optimal_gain(plant), expected, rtol=1e-9,
                        atol=1e-9 * np.abs(expected).max())

    def test_first_order_optimality(self):
        # the Riccati gain is a stationary point of the mean cost
        plant = benchmark_plant()
        mu0, sigma0 = np.zeros(2), np.zeros((2, 2))
        f_opt = optimal_gain(plant)
        base = evaluate_gain(plant, f_opt, mu0, sigma0).mean
        for i in range(2):
            for sign in (+1.0, -1.0):
                f = f_opt.copy()
                f[0, i] *= 1.0 + sign * 1e-3
                assert evaluate_gain(plant, f, mu0, sigma0).mean >= base - 1e-9


class TestKalmanGain:
    def test_scalar_closed_form(self):
        plant = LqgPlant(A=[[-1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=0.0)
        assert_allclose(kalman_gain(plant), [[math.sqrt(2.0) - 1.0]], rtol=1e-10)

    def test_no_process_noise(self, rng):
        a = random_stable(2, rng)
        plant = LqgPlant(A=a, B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2),
                         V=np.zeros((2, 2)), W=np.eye(2), alpha=0.0)
        assert_allclose(kalman_gain(plant), np.zeros((2, 2)), atol=1e-12)

    def test_duality_with_riccati(self, rng):
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 3))
        v = random_spd(3, rng)
        w = random_spd(2, rng)
        plant = LqgPlant(A=a, B=np.eye(3), C=c, Q=np.eye(3), R=np.eye(3),
                         V=v, W=w, alpha=0.0)
        e = solve_riccati(a.T, c.T, v, w)
        assert_allclose(kalman_gain(plant), np.linalg.solve(w, c @ e).T, rtol=1e-9)

    def test_observer_stabilizes(self, rng):
        a = rng.normal(size=(3, 3))
        plant = LqgPlant(A=a, B=np.eye(3), C=np.eye(3), Q=np.eye(3), R=np.eye(3),
                         V=random_spd(3, rng), W=random_spd(3, rng), alpha=0.0)
        k = kalman_gain(plant)
        assert np.linalg.eigvals(a - k @ plant.C).real.max() < 0

    @pytest.mark.parametrize("name, matrix", [
        ("W", -0.01 * np.eye(2)),
        ("W", np.zeros((2, 2))),
        ("W", np.diag([0.01, -0.01])),
        ("R", np.zeros((1, 1))),
    ])
    def test_noise_and_input_weights_must_be_positive_definite(self, name, matrix):
        # kalman_gain inverts W: a singular or indefinite one is refused by
        # the plant, not deep inside the Riccati iteration
        parts = dict(A=[[1.0, 0.0], [0.05, 1.0]], B=[[1.0], [0.0]], C=np.eye(2),
                     Q=np.eye(2), R=np.eye(1), V=np.eye(2), W=0.01 * np.eye(2),
                     alpha=-0.8)
        parts[name] = matrix
        with pytest.raises(ConditionError) as info:
            LqgPlant(**parts)
        assert info.value.conditions == [ConditionCheck(f"{name} > 0", False)]


class TestCloseLoopFullState:
    def test_zero_gain_identity(self):
        plant = benchmark_plant()
        sys, cost = close_loop_full_state(plant, np.zeros((1, 2)),
                                          np.zeros(2), np.zeros((2, 2)))
        assert_allclose(sys.A, plant.A, rtol=1e-14)
        assert_allclose(cost.Q, plant.Q, rtol=1e-14)

    def test_benchmark_gain_stabilizes_shifted_loop(self):
        plant = benchmark_plant()
        f = optimal_gain(plant)
        sys, _ = close_loop_full_state(plant, f, np.zeros(2), np.zeros((2, 2)))
        assert np.linalg.eigvals(sys.A).real.max() < 0.8

    def test_vanishing_input_weight(self):
        # as R -> 0 the loop weight reduces to the state weight alone
        plant = LqgPlant(A=[[-1.0, 0.0], [0.0, -2.0]], B=[[1.0], [1.0]], C=np.eye(2),
                         Q=np.eye(2), R=[[1e-6]], V=np.eye(2), W=np.eye(2), alpha=0.0)
        f = np.array([[0.3, -0.2]])
        _, cost = close_loop_full_state(plant, f, np.zeros(2), np.zeros((2, 2)))
        assert_allclose(cost.Q, plant.Q, atol=1e-6)


class TestCloseLoopOutputFeedback:
    def test_zero_observer_gain_pattern(self):
        # with K = 0 the estimator runs open loop and only feeds the input
        plant = benchmark_plant()
        f = optimal_gain(plant)
        sys, _ = close_loop_output_feedback(plant, f, np.zeros((2, 2)),
                                            np.zeros(4), np.zeros((4, 4)))
        assert_allclose(sys.A[:2, :2], plant.A, rtol=1e-14)
        assert_allclose(sys.A[:2, 2:], -plant.B @ f, rtol=1e-14)
        assert_allclose(sys.A[2:, :2], np.zeros((2, 2)), atol=0)
        assert_allclose(sys.A[2:, 2:], plant.A - plant.B @ f, rtol=1e-14)

    def test_separation_principle_spectrum(self):
        plant = benchmark_plant()
        gains = synthesize_gains(plant)
        sys, _ = close_loop_output_feedback(plant, gains.F, gains.K,
                                            np.zeros(4), np.zeros((4, 4)))
        expected = np.sort(np.concatenate([
            np.linalg.eigvals(plant.A - plant.B @ gains.F),
            np.linalg.eigvals(plant.A - gains.K @ plant.C),
        ]).real)
        assert_allclose(np.sort(np.linalg.eigvals(sys.A).real), expected, rtol=1e-8)

    def test_all_zero_gains_block_diagonal(self):
        plant = benchmark_plant()
        sys, cost = close_loop_output_feedback(plant, np.zeros((1, 2)), np.zeros((2, 2)),
                                               np.zeros(4), np.zeros((4, 4)))
        assert_allclose(sys.A[:2, :2], plant.A, rtol=1e-14)
        assert_allclose(sys.A[2:, 2:], plant.A, rtol=1e-14)
        assert np.abs(sys.A[:2, 2:]).max() == 0 and np.abs(sys.A[2:, :2]).max() == 0
        assert_allclose(cost.Q[:2, :2], plant.Q, rtol=1e-14)
        assert np.abs(cost.Q[2:, 2:]).max() == 0

    def test_noise_blocks(self):
        plant = benchmark_plant()
        gains = synthesize_gains(plant)
        sys, _ = close_loop_output_feedback(plant, gains.F, gains.K,
                                            np.zeros(4), np.zeros((4, 4)))
        assert_allclose(sys.V[:2, :2], plant.V, rtol=1e-14)
        assert_allclose(sys.V[2:, 2:], gains.K @ plant.W @ gains.K.T, rtol=1e-12)
        assert np.abs(sys.V[:2, 2:]).max() == 0

    def test_analytic_matches_simulation(self):
        # the state loop is only shift-stabilized (eigenvalues up to +0.66),
        # so the infinite-horizon integral converges slowly; compare the
        # simulation against the analytic value at the simulated horizon
        plant = benchmark_plant()
        gains = synthesize_gains(plant)
        sys, cost = close_loop_output_feedback(plant, gains.F, gains.K,
                                               np.zeros(4), np.zeros((4, 4)))
        horizon = 12.0
        finite = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon)
        mean = expected_cost_finite(sys, finite)
        cfg = SimConfig(dt=0.01, T=horizon, n_paths=40_000, seed=3, scheme="exact")
        emp = simulate_costs(sys, cost, cfg)
        assert abs(emp.mean - mean) < 4.0 * emp.mean_stderr

    def test_matches_raw_loop_simulation(self):
        # ground-truth oracle: integrate the loop from its defining equations
        # (state, measurement, estimator) without the augmented-system form
        plant = benchmark_plant()
        f = optimal_gain(plant)
        k = kalman_gain(plant)
        sys, cost = close_loop_output_feedback(plant, f, k,
                                               np.zeros(4), np.zeros((4, 4)))
        horizon, dt, n = 8.0, 0.002, 50_000
        finite = CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon)
        mean = expected_cost_finite(sys, finite)

        a, b, c = plant.A, plant.B, plant.C
        steps = round(horizon / dt)
        g = np.random.default_rng(99)
        lv = np.linalg.cholesky(plant.V)
        lw = math.sqrt(0.01)
        x = np.zeros((n, 2))
        xh = np.zeros((n, 2))
        costs = np.zeros(n)
        w = np.full(steps + 1, dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        for kk in range(steps + 1):
            u = -(xh @ f.T)
            damp = math.exp(2.0 * plant.alpha * kk * dt)
            costs += w[kk] * damp * (np.einsum("ij,ij->i", x @ plant.Q, x) + u[:, 0] ** 2)
            if kk == steps:
                break
            dv = g.standard_normal((n, 2)) @ lv.T * math.sqrt(dt)
            dw = g.standard_normal((n, 2)) * (lw * math.sqrt(dt))
            dy = (x @ c.T) * dt + dw
            x_next = x + (x @ a.T + u @ b.T) * dt + dv
            xh = xh + (xh @ a.T + u @ b.T) * dt + (dy - (xh @ c.T) * dt) @ k.T
            x = x_next
        stderr = costs.std(ddof=1) / math.sqrt(n)
        # allowance for the oracle's own O(dt) discretization bias
        assert abs(costs.mean() - mean) < 4.0 * stderr + 0.015 * mean

    def test_full_state_limit_consistency(self):
        # with perfect measurements (W -> 0) the output-feedback loop's cost
        # approaches the full-state cost when the estimate starts at the state
        plant_w0 = LqgPlant(A=[[1.0, 0.0], [0.05, 1.0]], B=[[1.0], [0.0]], C=np.eye(2),
                            Q=np.eye(2), R=np.eye(1), V=np.eye(2), W=1e-6 * np.eye(2),
                            alpha=-0.8)
        f = optimal_gain(plant_w0)
        k = kalman_gain(plant_w0)
        mu0 = np.zeros(2)
        sigma0 = np.zeros((2, 2))
        sys_fs, cost_fs = close_loop_full_state(plant_w0, f, mu0, sigma0)
        mean_fs = expected_cost_infinite(sys_fs, cost_fs)
        sys_of, cost_of = close_loop_output_feedback(plant_w0, f, k,
                                                     np.zeros(4), np.zeros((4, 4)))
        mean_of = expected_cost_infinite(sys_of, cost_of)
        assert abs(mean_of - mean_fs) / mean_fs < 1e-2


class TestSynthesizeGains:
    def test_full_state_skips_observer(self):
        gains = synthesize_gains(benchmark_plant(), full_state=True)
        assert gains.K is None
        assert gains.F.shape == (1, 2)

    def test_both_gains(self):
        gains = synthesize_gains(benchmark_plant())
        assert gains.K.shape == (2, 2)
