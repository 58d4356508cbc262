import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqgcost import (
    AccuracyError,
    ConditionError,
    InfeasibleGainError,
    LtiSystem,
    LqgPlant,
    TuneOptions,
    cost_stats_lyapunov,
    evaluate_gain,
    expected_cost_infinite,
    finite_difference_gradient,
    minimize_variance,
    objective_value,
    optimal_gain,
    variance_cost_infinite,
)
from lqgcost import linalg, tune
from lqgcost.lqg import close_loop_full_state
from conftest import recipe_plant


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


ZERO2 = np.zeros(2)
ZERO22 = np.zeros((2, 2))
#: The variance minimizer of the benchmark plant (Nelder-Mead reaches the same variance).
MINIMIZER = np.array([[4.455, 30.459]])


class TestEvaluateGain:
    def test_destabilizing_gain_rejected(self):
        # without feedback the shifted drift has an eigenvalue at +0.2
        with pytest.raises(InfeasibleGainError):
            evaluate_gain(benchmark_plant(), np.zeros((1, 2)), ZERO2, ZERO22)

    def test_zero_gain_equals_open_loop(self):
        plant = LqgPlant(A=[[-2.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=-0.5)
        stats = evaluate_gain(plant, [[0.0]], [0.0], [[0.0]])
        sys, cost = close_loop_full_state(plant, np.zeros((1, 1)), [0.0], [[0.0]])
        assert_allclose(stats.mean, expected_cost_infinite(sys, cost), rtol=1e-12)

    def test_benchmark_gain_value(self):
        # documented assumption V = I, mu0 = 0, Sigma0 = 0; the published
        # round value 154.4 for this mean is conditional on an unstated
        # noise model, so we log the computed value instead of asserting it
        plant = benchmark_plant()
        stats = evaluate_gain(plant, optimal_gain(plant), ZERO2, ZERO22)
        print(f"mean cost at the Riccati gain: {stats.mean:.4f} (published ~154.4)")
        assert 100.0 < stats.mean < 220.0
        assert stats.variance > 0.0


class TestStabilityThreshold:
    """Every candidate reads the Lyapunov route's one stability check."""

    # max Re eig(A + alpha I - B F) = -5.0e-10: stable by eigvals' sign, but
    # not below the route's -DEFAULT_SPECTRAL_TOL
    BAND_GAIN = np.array([[1.0, 3.2 + 6e-9]])

    def test_band_gain_is_infeasible(self):
        plant = benchmark_plant()
        max_re = np.linalg.eigvals(plant.shifted_drift() - plant.B @ self.BAND_GAIN).real.max()
        assert -1e-9 < max_re < 0.0
        for objective in ("mean", "variance"):
            assert objective_value(plant, self.BAND_GAIN, ZERO2, ZERO22, objective) == math.inf
        with pytest.raises(InfeasibleGainError):
            evaluate_gain(plant, self.BAND_GAIN, ZERO2, ZERO22)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_loop_is_infeasible():
    # stabilizing, but F^T R F = 1e314 passes the largest double
    plant, f = benchmark_plant(), np.array([[1e155, 1e157]])
    assert np.linalg.eigvals(plant.shifted_drift() - plant.B @ f).real.max() < 0.0
    for objective in ("mean", "variance"):
        assert objective_value(plant, f, ZERO2, ZERO22, objective) == math.inf
    with pytest.raises(AccuracyError, match="^the closed loop .* overflows double precision"):
        evaluate_gain(plant, f, ZERO2, ZERO22)


class TestDivergingCost:
    """alpha >= 0 diverges for every gain: a ConditionError, never an infeasible gain."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_alpha_not_negative_raises(self, alpha, monkeypatch):
        # F = 0 stabilizes A + alpha I - B F = -2 + alpha
        plant = LqgPlant(A=[[-2.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         V=[[1.0]], W=[[1.0]], alpha=alpha)
        f = np.zeros((1, 1))
        for call in (lambda: objective_value(plant, f, [0.0], [[0.0]], "variance"),
                     lambda: objective_value(plant, f, [0.0], [[0.0]], "mean"),
                     lambda: evaluate_gain(plant, f, [0.0], [[0.0]])):
            with pytest.raises(ConditionError) as info:
                call()
            assert not isinstance(info.value, InfeasibleGainError)
            assert [c.name for c in info.value.conditions if not c.passed] == ["alpha < 0"]

        def no_gradient(*args, **kwargs):
            original(*args, **kwargs)     # must raise before any adjoint solve
            raise AssertionError("minimize_variance computed a gradient")

        original = tune._infinite_objective_gradient
        monkeypatch.setattr(tune, "_infinite_objective_gradient", no_gradient)
        with pytest.raises(ConditionError) as info:
            minimize_variance(plant, [0.0], [[0.0]], TuneOptions(f0=f, max_iter=10))
        assert not isinstance(info.value, InfeasibleGainError)


class TestValidateOnce:
    def test_loop_validated_once_and_same_numbers(self, monkeypatch):
        plant = benchmark_plant()
        f0 = optimal_gain(plant)
        counts = []
        original = LtiSystem.__post_init__

        def counting(self):
            counts[-1] += 1
            original(self)

        monkeypatch.setattr(LtiSystem, "__post_init__", counting)
        # both budgets stop the search before it converges (17 iterations)
        for max_iter in (5, 15):
            counts.append(0)
            result = minimize_variance(plant, ZERO2, ZERO22, TuneOptions(
                f0=f0, objective="variance", grad_tol=1e-2, max_iter=max_iter))
            assert result.iterations == max_iter
            assert result.stop_reason == "max_iter" and not result.converged
        assert counts[0] == counts[1] <= 2
        assert objective_value(plant, result.F, ZERO2, ZERO22, "variance") == result.objective_value

    def test_swapped_copies_factor_their_own_drift(self, monkeypatch):
        # the loop's factor is built before the search; no copy inherits it
        plant = benchmark_plant()
        f0 = optimal_gain(plant)
        opts = TuneOptions(f0=f0, objective="variance", grad_tol=1e-2)
        fresh = minimize_variance(plant, ZERO2, ZERO22, opts)
        loop = close_loop_full_state(plant, f0, ZERO2, ZERO22)
        cost_stats_lyapunov(*loop)
        copies = []
        real = tune._regain_full_state

        def recording(plant, sys, cost, f):
            assert sys is loop[0] and "factor" in vars(sys)
            new_sys, new_cost = real(plant, sys, cost, f)
            assert "factor" not in vars(new_sys)
            copies.append((new_sys, f))
            return new_sys, new_cost

        monkeypatch.setattr(tune, "close_loop_full_state", lambda *args: loop)
        monkeypatch.setattr(tune, "_regain_full_state", recording)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert np.array_equal(result.F, fresh.F) and result.variance_at_F == fresh.variance_at_F
        assert len(copies) > result.iterations
        for sys, f in copies:
            assert "factor" in vars(sys) and sys.factor is not loop[0].factor
            assert np.array_equal(sys.factor.a, plant.A - plant.B @ f)


class TestTuneOptions:
    def test_zero_max_iter_rejected(self):
        with pytest.raises(ValueError):
            TuneOptions(f0=np.zeros((1, 2)), max_iter=0)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError):
            TuneOptions(f0=np.zeros((1, 2)), objective="median")

    @pytest.mark.parametrize("field", ["step_tol", "grad_tol"])
    def test_infinite_tolerance_rejected(self, field):
        # an infinite grad_tol would report convergence before the first step
        with pytest.raises(ValueError, match=f"^{field} must be a finite number > 0"):
            TuneOptions(f0=np.zeros((1, 2)), **{field: math.inf})

    def test_infinite_max_iter_rejected(self):
        with pytest.raises(ValueError, match="^max_iter must be an integer >= 1"):
            TuneOptions(f0=np.zeros((1, 2)), max_iter=math.inf)


def random_plant(n, m, rng):
    """Seeded n-state, m-input plant with a stabilizing gain away from the mean optimum,
    and a non-zero initial mean and second moment."""
    g = rng.normal(size=(n, n))
    plant = LqgPlant(A=rng.normal(size=(n, n)) / math.sqrt(n), B=rng.normal(size=(n, m)),
                     C=np.eye(n), Q=g @ g.T / n + 0.1 * np.eye(n), R=np.eye(m),
                     V=np.eye(n) + 0.1 * np.ones((n, n)), W=np.eye(n), alpha=-0.3)
    f = optimal_gain(plant) + 0.1 * rng.normal(size=(m, n))
    mu0 = rng.normal(size=n)
    h = rng.normal(size=(n, n))
    return plant, f, mu0, np.outer(mu0, mu0) + h @ h.T / n


def adjoint_gradient(plant, f, mu0, sigma0, objective):
    loop = close_loop_full_state(plant, f, mu0, sigma0)
    value, grad, _ = tune._value_and_gradient(plant, loop, f, objective)
    route = expected_cost_infinite if objective == "mean" else variance_cost_infinite
    assert value == route(*loop)
    return value, grad


class TestGradient:
    @pytest.mark.parametrize("objective", ["mean", "variance"])
    @pytest.mark.parametrize("case", ["riccati", "riccati x 1.3", "minimizer", "4x2 plant"])
    def test_adjoint_matches_five_point(self, case, objective):
        if case == "4x2 plant":
            plant, f, mu0, sigma0 = random_plant(4, 2, np.random.default_rng(20240611))
            assert f.shape == (2, 4) and np.abs(mu0).min() > 0
        else:
            plant, mu0, sigma0 = benchmark_plant(), ZERO2, ZERO22
            f = {"riccati": optimal_gain(plant), "riccati x 1.3": 1.3 * optimal_gain(plant),
                 "minimizer": MINIMIZER}[case]
        value, grad = adjoint_gradient(plant, f, mu0, sigma0, objective)

        def func(x):
            return objective_value(plant, x, mu0, sigma0, objective)

        fd = finite_difference_gradient(func, f, 1e-4, stencil=4)
        # the floor covers the mean's zero gradient at the Riccati gain
        floor = 1e-6 * abs(value) / (1.0 + np.abs(f).max())
        assert_allclose(grad, fd, rtol=1e-6, atol=floor)

    def test_infeasible_gain_has_no_gradient(self):
        plant = benchmark_plant()
        loop = close_loop_full_state(plant, optimal_gain(plant), ZERO2, ZERO22)
        for objective in ("mean", "variance"):
            assert tune._value_and_gradient(plant, loop, np.zeros((1, 2)), objective) == (
                math.inf, None, None)

    def test_two_point_matches_four_point(self):
        plant = benchmark_plant()
        f0 = optimal_gain(plant) * 1.3

        def func(f):
            return objective_value(plant, f, ZERO2, ZERO22, "variance")

        g2 = finite_difference_gradient(func, f0, 1e-4, stencil=2)
        g4 = finite_difference_gradient(func, f0, 1e-4, stencil=4)
        assert_allclose(g2, g4, rtol=1e-4)


class TestMinimizeVariance:
    def test_mean_objective_recovers_riccati_gain(self):
        plant = benchmark_plant()
        f_opt = optimal_gain(plant)
        f0 = f_opt + np.array([[0.4, -0.6]])
        opts = TuneOptions(f0=f0, objective="mean", grad_tol=1e-5,
                           step_tol=1e-3, max_iter=4000)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert np.abs(result.F - f_opt).max() < 0.05

    def test_variance_objective_beats_riccati_gain(self):
        plant = benchmark_plant()
        f_opt = optimal_gain(plant)
        base = evaluate_gain(plant, f_opt, ZERO2, ZERO22)
        opts = TuneOptions(f0=f_opt, objective="variance", grad_tol=1e-2,
                           max_iter=3000)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert result.converged
        assert result.variance_at_F <= base.variance
        assert result.mean_at_F >= base.mean - 1e-9   # the Riccati gain is mean-optimal
        print(f"variance-minimizing gain {np.round(result.F, 3).tolist()} "
              f"(published rounding [4.4, 30.0]); variance "
              f"{result.variance_at_F:.1f} vs {base.variance:.1f} at the Riccati gain")

    def test_study_gain_is_stationary(self, monkeypatch):
        # perfbench's tune-plant settings: threshold_study's step_tol and budget,
        # stopping at grad_tol 1e-2
        plant = benchmark_plant()
        calls = []
        original = tune._infinite_objective_gradient

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(tune, "_infinite_objective_gradient", counting)
        opts = TuneOptions(f0=optimal_gain(plant), objective="variance", grad_tol=1e-2,
                           step_tol=1e-10, max_iter=3000)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert result.converged is True and result.stop_reason == "gradient"
        assert result.gradient_norm < opts.grad_tol
        assert len(calls) <= 100

        def func(f):
            return objective_value(plant, f, ZERO2, ZERO22, "variance")

        grad = finite_difference_gradient(func, result.F, 1e-4, stencil=4)
        assert np.linalg.norm(grad) < opts.grad_tol
        assert result.variance_at_F <= 32393.94

    def test_study_tune_evaluation_count(self, monkeypatch):
        # the benchmark tune (grad_tol 1e-2); interpolating backtracking takes
        # the first step from 1 to its accepted length in fewer trials than
        # halving
        plant = benchmark_plant()
        calls = []
        original = tune._value_and_gradient

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(tune, "_value_and_gradient", counting)
        opts = TuneOptions(f0=optimal_gain(plant), objective="variance", grad_tol=1e-2,
                           step_tol=1e-10, max_iter=3000)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert result.stop_reason == "gradient"
        assert len(calls) <= 20
        assert result.variance_at_F <= 32393.930379289493

    def test_study_tune_one_factor_per_evaluation(self, monkeypatch):
        # the benchmark tune (grad_tol 1e-2); the statistics at F come from the
        # last accepted evaluation, so the final gain is not factored again
        plant = benchmark_plant()
        opts = TuneOptions(f0=optimal_gain(plant), objective="variance", grad_tol=1e-2,
                           step_tol=1e-10, max_iter=3000)
        counts = {"schur": 0, "evaluations": 0}
        real_schur, real_evaluation = linalg.schur, tune._value_and_gradient

        def counting_schur(*args, **kwargs):
            counts["schur"] += 1
            return real_schur(*args, **kwargs)

        def counting_evaluation(*args):
            counts["evaluations"] += 1
            return real_evaluation(*args)

        monkeypatch.setattr(linalg, "schur", counting_schur)
        monkeypatch.setattr(tune, "_value_and_gradient", counting_evaluation)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        assert result.stop_reason == "gradient" and result.iterations == 17
        assert counts == {"schur": 20, "evaluations": 20}

    @pytest.mark.parametrize("objective,offset,grad_tol,max_iter,stop", [
        ("variance", [0.0, 0.0], 1e-2, 3000, "gradient"),
        ("variance", [0.0, 0.0], 1e-2, 3, "max_iter"),
        ("mean", [0.4, -0.6], 1e-5, 4000, "gradient"),
        ("mean", [0.4, -0.6], 1e-300, 500, "rounding_floor"),
    ])
    def test_final_statistics_equal_evaluate_gain(self, objective, offset, grad_tol, max_iter,
                                                  stop):
        # on a "rounding_floor" stop the last evaluation is a rejected trial; the
        # statistics must still be those of the accepted F
        plant, mu0, sigma0 = benchmark_plant(), np.array([0.3, -0.2]), 0.5 * np.eye(2)
        opts = TuneOptions(f0=optimal_gain(plant) + np.array([offset]), objective=objective,
                           grad_tol=grad_tol, max_iter=max_iter)
        result = minimize_variance(plant, mu0, sigma0, opts)
        assert result.stop_reason == stop
        stats = evaluate_gain(plant, result.F, mu0, sigma0)
        assert (result.mean_at_F, result.variance_at_F) == (stats.mean, stats.variance)
        assert result.objective_value == getattr(stats, objective)

    def _first_line_search(self, monkeypatch, infeasible_first_trial):
        """(value, slope, [(trial step length, trial value)]) of the first line search on
        the benchmark plant, optionally with the first trial reported infeasible."""
        plant = benchmark_plant()
        f0 = optimal_gain(plant)
        seen = []
        original = tune._value_and_gradient

        def recording(plant_, loop, f, objective):
            out = original(plant_, loop, f, objective)
            if len(seen) == 1 and infeasible_first_trial:
                out = (math.inf, None, None)
            seen.append((float(np.linalg.norm(f - f0)), out[0], out[1]))
            return out

        monkeypatch.setattr(tune, "_value_and_gradient", recording)
        minimize_variance(plant, ZERO2, ZERO22, TuneOptions(
            f0=f0, objective="variance", grad_tol=1e-2, max_iter=1))
        _, value, grad = seen[0]
        return value, -float(np.linalg.norm(grad)), [(d, v) for d, v, _ in seen[1:]]

    def test_finite_rejected_trial_interpolates(self, monkeypatch):
        value, slope, trials = self._first_line_search(monkeypatch, False)
        (step, new_value), (next_step, _) = trials[0], trials[1]
        assert step == pytest.approx(1.0, rel=1e-12) and new_value > value
        quadratic_min = -slope * step ** 2 / (2.0 * (new_value - value - slope * step))
        expected = min(max(quadratic_min, 0.1 * step), 0.5 * step)
        assert expected != 0.5 * step
        assert next_step == pytest.approx(expected, rel=1e-12)

    def test_infeasible_trial_halves(self, monkeypatch):
        _, _, trials = self._first_line_search(monkeypatch, True)
        assert trials[0] == (pytest.approx(1.0, rel=1e-12), math.inf)
        assert trials[1][0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("objective,shifts", [("variance", 2), ("mean", 1)])
    def test_one_classification_per_shift(self, objective, shifts, monkeypatch):
        # A+1a, and A+2a for the variance, each classified once by the forward
        # and adjoint solves together
        plant = benchmark_plant()
        f = optimal_gain(plant)
        loop = close_loop_full_state(plant, f, ZERO2, ZERO22)
        calls = []
        real = linalg._classify

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(linalg, "_classify", counting)
        tune._value_and_gradient(plant, loop, f, objective)
        assert len(calls) == shifts

    def test_line_search_stop_below_rounding(self):
        # a gradient tolerance below what rounding of the mean (about 150)
        # resolves; the start moved by up to 3 ulps in one entry, which moves
        # where rounding swamps the Armijo decrease
        plant = benchmark_plant()
        f_opt = optimal_gain(plant)
        for ulps in range(-3, 4):
            f0 = f_opt + np.array([[0.4, -0.6]])
            f0[0, 1] += ulps * np.spacing(f0[0, 1])
            opts = TuneOptions(f0=f0, objective="mean", grad_tol=1e-300, max_iter=500)
            result = minimize_variance(plant, ZERO2, ZERO22, opts)
            assert result.stop_reason == "rounding_floor" and not result.converged
            assert opts.grad_tol <= result.gradient_norm < 1e-6
            assert result.iterations < opts.max_iter
            assert np.abs(result.F - f_opt).max() < 1e-6

    def test_coarse_step_tol_stop_is_not_the_rounding_floor(self):
        # the first trial, one unit along the steepest descent, is rejected and
        # already shorter than step_tol: the search fails far from any stationary point
        plant = benchmark_plant()
        result = minimize_variance(plant, ZERO2, ZERO22,
                                   TuneOptions(f0=optimal_gain(plant), step_tol=1.5))
        assert result.stop_reason == "line_search" and not result.converged
        assert result.iterations == 0
        assert result.gradient_norm > 0.1 * result.objective_value

    @pytest.mark.parametrize("abscissa", [-1e-6, -1e-8, -2e-9])
    def test_near_boundary_start_restarts_to_stationary_point(self, abscissa):
        # s F_ric puts the complex pair of A + alpha I - B F, whose real part is
        # half the trace, at ``abscissa``.  The first steps cross many orders of
        # magnitude of the objective, so a later BFGS direction fails its line
        # search; the search then restarts from steepest descent
        plant = benchmark_plant()
        f_ric = optimal_gain(plant)
        f0 = (np.trace(plant.shifted_drift()) - 2.0 * abscissa) / f_ric[0, 0] * f_ric
        assert np.linalg.eigvals(plant.shifted_drift() - plant.B @ f0).real.max() == (
            pytest.approx(abscissa, rel=1e-6))
        result = minimize_variance(plant, ZERO2, ZERO22,
                                   TuneOptions(f0=f0, objective="variance", grad_tol=1e-8))
        assert result.stop_reason == "gradient" and result.converged
        assert result.variance_at_F == pytest.approx(32393.9303792, rel=1e-11)
        assert np.abs(result.F - MINIMIZER).max() < 1e-3

    @pytest.mark.parametrize("n", [3, 5])
    def test_seeded_sweep_ends_at_a_stationary_point(self, n):
        # recipe plants from the Riccati gain and from s F_ric with max Re eig of
        # A + alpha I - B F at -1e-5 (bisection on s; skipped where F = 0
        # already lies left of it): every run ends on "gradient" or on
        # "rounding_floor", with |g| / |J| <= 1e-5 either way
        for seed in range(10):
            rng = np.random.default_rng(seed)
            plant = recipe_plant(n, rng, m=2, p=2)
            mu0 = rng.normal(size=n)
            sigma0 = np.outer(mu0, mu0) + np.eye(n)
            f_ric = optimal_gain(plant)
            starts = [f_ric]

            def abscissa(s):
                return np.linalg.eigvals(plant.shifted_drift() - s * plant.B @ f_ric).real.max()

            if abscissa(0.0) > -1e-5:
                lo, hi = 0.0, 1.0       # abscissa(lo) > -1e-5 >= abscissa(hi)
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if abscissa(mid) <= -1e-5 else (mid, hi)
                starts.append(hi * f_ric)
            for f0 in starts:
                result = minimize_variance(plant, mu0, sigma0,
                                           TuneOptions(f0=f0, objective="variance",
                                                       grad_tol=1e-6))
                assert result.stop_reason in ("gradient", "rounding_floor"), (seed, result)
                assert result.gradient_norm <= 1e-5 * abs(result.objective_value), seed

    def test_monotone_trace(self):
        plant = benchmark_plant()
        opts = TuneOptions(f0=optimal_gain(plant), objective="variance",
                           grad_tol=1e-2, max_iter=200)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_stationarity_at_mean_minimizer(self):
        plant = benchmark_plant()
        f_opt = optimal_gain(plant)
        opts = TuneOptions(f0=f_opt + 0.01, objective="mean", grad_tol=2e-3,
                           step_tol=5e-5, max_iter=6000)
        result = minimize_variance(plant, ZERO2, ZERO22, opts)

        def func(f):
            return objective_value(plant, f, ZERO2, ZERO22, "mean")

        grad = finite_difference_gradient(func, result.F, 1e-4)
        assert np.linalg.norm(grad) < opts.grad_tol
        assert np.abs(result.F - f_opt).max() < 10 * opts.step_tol

    def test_infeasible_start_rejected(self):
        plant = benchmark_plant()
        with pytest.raises(InfeasibleGainError):
            minimize_variance(plant, ZERO2, ZERO22,
                              TuneOptions(f0=np.zeros((1, 2)), max_iter=10))
