import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, solve_continuous_are

from lqgcost import (
    AccuracyError,
    ConditionCheck,
    ConditionError,
    CostSpec,
    DimensionError,
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
from lqgcost import linalg, lqg
from conftest import random_spd, random_stable, recipe_plant


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
    def test_singular_r_refused(self):
        with pytest.raises(ConditionError, match="^R must be positive definite"):
            solve_riccati(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))

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

    def test_hamiltonian_imaginary_axis_raises(self):
        # no input and an undamped oscillator: every Hamiltonian eigenvalue is +-i
        with pytest.raises(SynthesisError):
            solve_riccati(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)),
                          np.eye(2), np.eye(1))

    @pytest.mark.parametrize("name, index, bad", [
        ("A", 0, np.ones((2, 3))),
        ("B", 1, np.ones((3, 1))),
        ("B", 1, np.ones(2)),
        ("Q", 2, np.eye(3)),
        ("Q", 2, np.ones((2, 3))),
        ("R", 3, np.eye(2)),
    ])
    def test_misshaped_argument_named(self, name, index, bad):
        args = [np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(1)]
        args[index] = bad
        with pytest.raises(DimensionError, match=f"^{name} must be"):
            solve_riccati(*args)

    def test_one_schur_one_solve_one_check(self, monkeypatch):
        # one Hamiltonian factor, one drift factor (the Newton step's) and one
        # stability check per gain; no eigenvalue-shift start
        counts = {"hamiltonian": 0, "drift": 0, "check": 0}

        def counting(key, real):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lqg, "schur", counting("hamiltonian", lqg.schur))
        monkeypatch.setattr(linalg, "schur", counting("drift", linalg.schur))
        monkeypatch.setattr(lqg, "classify_spectrum",
                            counting("check", lqg.classify_spectrum))
        for gain in (optimal_gain, kalman_gain):
            for key in counts:
                counts[key] = 0
            gain(benchmark_plant())
            assert counts["hamiltonian"] == 1 and counts["drift"] <= 1
            assert counts["check"] == 1


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
        # the second draw of this 20-state recipe is ill-conditioned: its
        # eigenvalue-shift (Bass) stabilizing gain has norm about 2e6
        rng = np.random.default_rng(11)
        recipe_plant(20, rng)
        plant = recipe_plant(20, rng)
        x = solve_continuous_are(plant.shifted_drift(), plant.B, plant.Q, plant.R)
        expected = plant.B.T @ x
        assert_allclose(optimal_gain(plant), expected, rtol=1e-9,
                        atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("n", [30, 40])
    def test_recipe_plants_match_scipy(self, n):
        # a Newton iteration from the eigenvalue-shift (Bass) start fails on
        # 87 (n = 30) and 100 (n = 40) of seeds 0-99 of this recipe
        for seed in range(5):
            plant = recipe_plant(n, np.random.default_rng(seed))
            x = solve_continuous_are(plant.shifted_drift(), plant.B, plant.Q, plant.R)
            e = solve_continuous_are(plant.A.T, plant.C.T, plant.V, plant.W)
            for gain, expected in ((optimal_gain(plant), plant.B.T @ x),
                                   (kalman_gain(plant), np.linalg.solve(plant.W, plant.C @ e).T)):
                assert_allclose(gain, expected, rtol=0,
                                atol=1e-8 * max(1.0, np.abs(expected).max()))

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


class TestLqgPlant:
    def test_caller_arrays_are_copied(self):
        arrays = {name: np.array(m, dtype=float) for name, m in
                  (("A", [[1.0, 0.0], [0.05, 1.0]]), ("B", [[1.0], [0.0]]), ("C", np.eye(2)),
                   ("Q", np.eye(2)), ("R", np.eye(1)), ("V", np.eye(2)), ("W", np.eye(2)))}
        plant = LqgPlant(**arrays, alpha=-0.8)
        pristine = {name: m.copy() for name, m in arrays.items()}
        for m in arrays.values():
            m *= 2.0
        for name, m in pristine.items():
            assert np.array_equal(getattr(plant, name), m), name


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_loop_named(self):
        # a stabilizing gain whose weight F^T R F = 1e314 passes the largest double
        with pytest.raises(AccuracyError, match="^the closed loop .* overflows double precision"):
            close_loop_full_state(benchmark_plant(), [[1e155, 1e157]], np.zeros(2),
                                  np.zeros((2, 2)))


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

    def test_same_block_diagonals_as_hand_placed_blocks(self):
        # the reference places each diagonal block at its own offsets
        plant = benchmark_plant()
        gains = synthesize_gains(plant)
        sys, cost = close_loop_output_feedback(plant, gains.F, gains.K,
                                               np.zeros(4), np.zeros((4, 4)))
        noise, weight = np.zeros((4, 4)), np.zeros((4, 4))
        noise[:2, :2] = plant.V
        noise[2:, 2:] = linalg.symmetrize(gains.K @ plant.W @ gains.K.T)
        weight[:2, :2] = plant.Q
        weight[2:, 2:] = linalg.symmetrize(gains.F.T @ plant.R @ gains.F)
        assert np.array_equal(sys.V, noise) and np.array_equal(cost.Q, weight)

    @pytest.mark.parametrize("name", ["F", "K"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gain_named(self, name, bad):
        plant = benchmark_plant()
        gains = {"F": np.zeros((1, 2)), "K": np.zeros((2, 2))}
        gains[name][0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
                close_loop_output_feedback(plant, gains["F"], gains["K"],
                                           np.zeros(4), np.zeros((4, 4)))

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

    def test_matches_raw_loop_euler_chain(self):
        # ground-truth oracle from the loop's defining equations (state,
        # measurement, estimator), not from the augmented system the library
        # forms.  Their Euler steps
        #   x' = x + (A x - B F xh) dt + dv,           dv ~ N(0, V dt)
        #   xh' = xh + (A xh - B F xh) dt + K (C x dt + dw - C xh dt),  dw ~ N(0, W dt)
        # are the linear Gaussian chain z' = M z + noise in z = (x, xh), so the
        # trapezoidal sum of e^{2 alpha t} (x^T Q x + u^T R u) has an exact
        # mean; two Richardson steps over dt remove its O(dt) and O(dt^2) bias
        plant = benchmark_plant()
        f, k = optimal_gain(plant), kalman_gain(plant)
        sys, cost = close_loop_output_feedback(plant, f, k, np.zeros(4), np.zeros((4, 4)))
        horizon = 8.0
        mean = expected_cost_finite(sys, CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=horizon))

        a, b, c = plant.A, plant.B, plant.C
        drift = np.block([[a, -b @ f], [k @ c, a - b @ f - k @ c]])
        noise = block_diag(plant.V, k @ plant.W @ k.T)
        weight = block_diag(plant.Q, f.T @ plant.R @ f)

        def chain_mean(dt):
            steps = round(horizon / dt)
            step = np.eye(4) + dt * drift
            second_moment = np.zeros((4, 4))          # z starts at 0
            total = 0.0
            for kk in range(steps + 1):
                trapezoid = 0.5 if kk in (0, steps) else 1.0
                total += (trapezoid * dt * math.exp(2.0 * plant.alpha * kk * dt)
                          * np.vdot(weight, second_moment))
                second_moment = step @ second_moment @ step.T + dt * noise
            return total

        coarse, mid, fine = (chain_mean(dt) for dt in (0.004, 0.002, 0.001))
        once = (2.0 * mid - coarse, 2.0 * fine - mid)
        twice = (4.0 * once[1] - once[0]) / 3.0
        assert abs(fine - mean) > 1e-3 * mean           # the bias the extrapolation removes
        assert twice == pytest.approx(mean, rel=1e-6)

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
