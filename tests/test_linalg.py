import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_lyapunov

import lqgcost.cost_lyap
import lqgcost.linalg
from lqgcost import tune
from lqgcost import (
    ConditionCheck,
    ConditionError,
    CostSpec,
    DimensionError,
    DriftFactor,
    LqgPlant,
    LtiSystem,
    NumericalError,
    SingularLyapunovError,
    auto_cost_stats,
    classify_spectrum,
    cost_stats_expm,
    cost_stats_lyapunov,
    cross_moment,
    mat_exp,
    noise_gramian_finite,
    optimal_gain,
    psd_factor,
    second_moment,
    solve_lyapunov,
    solve_lyapunov_transposed,
    van_loan_integral,
    variance_cost_finite,
    variance_cost_infinite,
)
from lqgcost.lqg import close_loop_full_state
from conftest import (
    lyapunov_by_quadrature,
    random_spd,
    random_stable,
    random_stable_sylvester,
    random_system,
)


class TestMatExp:
    def test_zero_time_is_identity(self, rng):
        a = rng.normal(size=(4, 4))
        assert np.array_equal(mat_exp(a, 0.0), np.eye(4))

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(mat_exp(a, 1.0), [[1.0, 1.0], [0.0, 1.0]], rtol=1e-14)

    def test_diagonal(self):
        a = np.diag([math.log(2.0), math.log(3.0)])
        assert_allclose(mat_exp(a, 1.0), np.diag([2.0, 3.0]), rtol=1e-14)

    def test_semigroup(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            s, t = rng.uniform(0.1, 1.5, size=2)
            assert_allclose(mat_exp(a, s + t), mat_exp(a, s) @ mat_exp(a, t),
                            rtol=1e-10, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mat_exp([[np.nan, 0.0], [0.0, 1.0]], 1.0)


class TestClassifySpectrum:
    def test_stable_diagonal(self):
        rep = classify_spectrum(-np.eye(2))
        assert rep.is_stable and rep.is_sylvester

    def test_rotation_is_not_sylvester(self):
        rep = classify_spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not rep.is_sylvester
        assert not rep.is_stable

    def test_mirror_pair(self):
        rep = classify_spectrum(np.diag([1.0, -1.0]))
        assert not rep.is_sylvester
        assert not rep.is_stable

    def test_stable_implies_sylvester(self, rng):
        for _ in range(50):
            rep = classify_spectrum(random_stable(3, rng))
            assert not rep.is_stable or rep.is_sylvester

    def test_sylvester_agrees_with_pair_list(self, rng):
        # stable spectra with small margins and large imaginary parts, where
        # the margin alone can or cannot rule every pair out
        tol = 1e-9
        lams = [np.array([-1e-8 + 1e3j, -1e-8 - 1e3j]),       # stable, not sylvester
                np.array([-2e-6 + 1e3j, -2e-6 - 1e3j, -0.5]),  # just past the margin bound
                np.array([-1.0, -2.0])]
        for _ in range(200):
            re = -np.exp(rng.uniform(-22.0, 1.0, size=3))
            im = np.exp(rng.uniform(-3.0, 8.0))
            lams.append(np.array([re[0] + 1j * im, re[0] - 1j * im, re[1], re[2]]))
        shortcut = 0
        for lam in lams:
            rep = lqgcost.linalg._classify(lam, tol)
            sylvester = rep.is_sylvester
            shortcut += "degenerate_pairs" not in rep.__dict__
            assert sylvester == (not rep.degenerate_pairs)
        assert 0 < shortcut < len(lams)
        assert not lqgcost.linalg._classify(lams[0], tol).is_sylvester

    def test_degenerate_pairs_in_pair_loop_order(self, rng):
        # mirrored eigenvalues +-1, +-2 and a conjugate pair on the imaginary
        # axis, conjugated by a random basis change
        d = np.zeros((7, 7))
        d[:5, :5] = np.diag([1.0, -2.0, -1.0, 2.0, -3.0])
        d[5:, 5:] = [[0.0, 1.5], [-1.5, 0.0]]
        s = rng.normal(size=(7, 7))
        rep = lqgcost.linalg._classify(np.linalg.eigvals(s @ d @ np.linalg.inv(s)), 1e-7)
        lam, tol = rep.eigenvalues, rep.tolerance_used
        expected = [(i, j) for i in range(7) for j in range(i, 7)
                    if abs(lam[i] + lam[j]) <= tol * (1.0 + abs(lam[i]) + abs(lam[j]))]
        assert len(expected) == 3
        assert rep.degenerate_pairs == expected
        assert not rep.is_sylvester


PLANT = dict(A=[[1.0, 0.0], [0.05, 1.0]], B=[[1.0], [0.0]], C=np.eye(2), Q=np.eye(2),
             R=np.eye(1), V=np.eye(2), W=0.01 * np.eye(2))


@pytest.mark.parametrize("build, failed", [
    pytest.param(lambda: LtiSystem(A=-np.eye(2), V=[[1.0, 0.5], [0.0, 1.0]], mu0=[0.0, 0.0],
                                   Sigma0=np.eye(2)), "V symmetric", id="LtiSystem-V"),
    pytest.param(lambda: LtiSystem(A=-np.eye(2), V=np.eye(2), mu0=[2.0, 0.0],
                                   Sigma0=np.eye(2)), "Sigma0 - mu0 mu0^T >= 0",
                 id="LtiSystem-Sigma0"),
    pytest.param(lambda: CostSpec(Q=[[1.0, 2.0], [0.0, 1.0]]), "Q symmetric", id="CostSpec-Q"),
    pytest.param(lambda: LqgPlant(**{**PLANT, "Q": np.diag([1.0, -1.0])}), "Q >= 0",
                 id="LqgPlant-Q"),
    pytest.param(lambda: LqgPlant(**{**PLANT, "W": np.zeros((2, 2))}), "W > 0",
                 id="LqgPlant-W"),
    pytest.param(lambda: solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2)), "lyapunov solve",
                 id="solve_lyapunov"),
    pytest.param(lambda: DriftFactor(-np.eye(2)).solve(np.eye(2), shift=1.0),
                 "lyapunov solve", id="DriftFactor.solve"),
])
def test_condition_errors_carry_condition_checks(build, failed):
    with pytest.raises(ConditionError) as info:
        build()
    conditions = info.value.conditions
    assert all(isinstance(c, ConditionCheck) for c in conditions)
    assert [c.name for c in conditions if not c.passed] == [failed]


class TestSolveLyapunov:
    def test_decoupled_diagonal(self):
        x = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert_allclose(x, np.diag([0.5, 0.25]), rtol=1e-12)

    def test_singular_names_offending_pair(self):
        with pytest.raises(SingularLyapunovError, match="sum to"):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_matches_quadrature_oracle(self, rng):
        a = random_stable(4, rng)
        q = random_spd(4, rng)
        x = solve_lyapunov(a, q)
        assert_allclose(a @ x + x @ a.T + q, np.zeros((4, 4)), atol=1e-10)
        assert_allclose(x, lyapunov_by_quadrature(a, q), rtol=1e-8, atol=1e-10)

    def test_symmetric_output_for_symmetric_q(self, rng):
        a = random_stable(5, rng)
        q = random_spd(5, rng)
        x = solve_lyapunov(a, q)
        assert np.array_equal(x, x.T)

    def test_nonsymmetric_q_supported(self, rng):
        a = random_stable(3, rng)
        q = rng.normal(size=(3, 3))
        x = solve_lyapunov(a, q)
        assert_allclose(a @ x + x @ a.T + q, np.zeros((3, 3)), atol=1e-10)

    def test_linearity_with_commuting_factor(self, rng):
        # X solving with weight C Q + V equals C X_Q + X_V when C commutes with A
        for _ in range(5):
            a = random_stable_sylvester(3, rng)
            c = 0.7 * np.eye(3) + 0.3 * a + 0.1 * a @ a
            q = rng.normal(size=(3, 3))
            v = rng.normal(size=(3, 3))
            lhs = solve_lyapunov(a, c @ q + v)
            rhs = c @ solve_lyapunov(a, q) + solve_lyapunov(a, v)
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_trace_interchange(self, rng):
        # tr(Q F X_V G) = tr(Y_Q F V G) for F commuting with A, G with A^T
        for _ in range(5):
            a = random_stable_sylvester(3, rng)
            f = np.eye(3) + 0.2 * a
            g = np.eye(3) + 0.1 * a.T + 0.05 * (a.T @ a.T)
            q = random_spd(3, rng)
            v = random_spd(3, rng)
            xv = solve_lyapunov(a, v)
            yq = solve_lyapunov_transposed(a, q)
            assert_allclose(np.trace(q @ f @ xv @ g), np.trace(yq @ f @ v @ g),
                            rtol=1e-10)

    def test_difference_identity(self, rng):
        # X_s[X_Q] = (X_s[Q] - X[Q]) / (2 s) = X[X_s[Q]] for shifted drift A + s I
        for shift in (-0.5, 0.3):
            for _ in range(5):
                a = random_stable_sylvester(3, rng, alpha_shifts=(shift,))
                q = random_spd(3, rng)
                eye = np.eye(3)
                x0 = solve_lyapunov(a, q)
                xs = solve_lyapunov(a + shift * eye, q)
                mid = (xs - x0) / (2.0 * shift)
                assert_allclose(solve_lyapunov(a + shift * eye, x0), mid, rtol=1e-10)
                assert_allclose(solve_lyapunov(a, xs), mid, rtol=1e-10)


class TestSolveLyapunovTransposed:
    def test_symmetric_drift_matches_untransposed(self, rng):
        a = -random_spd(3, rng)
        q = random_spd(3, rng)
        assert_allclose(solve_lyapunov_transposed(a, q), solve_lyapunov(a, q),
                        rtol=1e-10)

    def test_diagonal(self):
        x = solve_lyapunov_transposed(np.diag([-1.0, -2.0]), np.eye(2))
        assert_allclose(x, np.diag([0.5, 0.25]), rtol=1e-12)

    def test_residual(self, rng):
        a = random_stable(3, rng)
        q = random_spd(3, rng)
        x = solve_lyapunov_transposed(a, q)
        assert_allclose(a.T @ x + x @ a + q, np.zeros((3, 3)), atol=1e-10)


def _drift_with_complex_pairs(n, alpha, rng):
    shifts = [k * alpha for k in range(-2, 4)]
    while True:
        a = random_stable_sylvester(n, rng, alpha_shifts=shifts)
        if np.iscomplexobj(np.linalg.eigvals(a)):
            return a, shifts


class TestDriftFactor:
    @pytest.mark.parametrize("n", [2, 10, 40])
    def test_shifted_solves_match_scipy(self, n, rng):
        a, shifts = _drift_with_complex_pairs(n, 0.3, rng)
        fac = DriftFactor(a)
        assert np.any(np.diag(fac.t, -1) != 0.0)          # T has 2x2 blocks
        w = random_spd(n, rng)
        eye = np.eye(n)
        for s in shifts:
            x = fac.solve(w, shift=s)
            ref = solve_continuous_lyapunov(a + s * eye, -w)
            assert_allclose(x, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
            y = fac.solve(w, shift=s, transposed=True)
            ref = solve_continuous_lyapunov((a + s * eye).T, -w)
            assert_allclose(y, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [2, 10, 40])
    def test_eigenvalues_from_schur_blocks(self, n, rng):
        a, _ = _drift_with_complex_pairs(n, 0.3, rng)
        lam = DriftFactor(a).eigenvalues
        assert_allclose(np.sort_complex(lam), np.sort_complex(np.linalg.eigvals(a)),
                        rtol=1e-10, atol=1e-12)

    def test_near_degenerate_shift_names_pair(self):
        fac = DriftFactor([[-1.0, 2.0], [-2.0, -1.0]])     # eigenvalues -1 +- 2i
        x = fac.solve(np.eye(2), shift=0.5)
        assert_allclose(x, np.eye(2), rtol=1e-12)
        with pytest.raises(SingularLyapunovError, match=r"lambda\[0\].*lambda\[1\].*sum to"):
            fac.solve(np.eye(2), shift=1.0 + 1e-13)
        with pytest.raises(SingularLyapunovError, match="sum to"):
            fac.solve(np.eye(2), shift=1.0 + 1e-13, transposed=True)

    def test_sylvester_failure_raises(self, monkeypatch):
        monkeypatch.setattr(lqgcost.linalg, "dtrsyl", lambda a, b, c, **kw: (c, 1.0, 1))
        with pytest.raises(SingularLyapunovError, match="info = 1"):
            solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))

    def test_divides_by_scale(self, monkeypatch):
        real = lqgcost.linalg.dtrsyl

        def scaled(a, b, c, **kw):
            z, scale, info = real(a, b, c, **kw)
            return 0.25 * z, 0.25 * scale, info

        monkeypatch.setattr(lqgcost.linalg, "dtrsyl", scaled)
        x = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert_allclose(x, np.diag([0.5, 0.25]), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DriftFactor(-np.eye(2)).solve(np.eye(3))

    def test_degenerate_shift_raises_after_spectrum_read(self):
        fac = DriftFactor([[-1.0, 2.0], [-2.0, -1.0]])     # eigenvalues -1 +- 2i
        assert not fac.spectrum(1.0 + 1e-13).is_sylvester
        for transposed in (False, True):
            with pytest.raises(SingularLyapunovError, match="sum to"):
                fac.solve(np.eye(2), shift=1.0 + 1e-13, transposed=transposed)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_residual_check(self, symmetric, transposed, rng, monkeypatch):
        a, _ = _drift_with_complex_pairs(4, 0.3, rng)
        w = random_spd(4, rng) if symmetric else rng.normal(size=(4, 4))
        real = lqgcost.linalg.dtrsyl
        noise = rng.normal(size=(4, 4))

        def perturbed(rel):
            def solve(t_a, t_b, c, **kw):
                z, scale, info = real(t_a, t_b, c, **kw)
                return z + rel * np.abs(z).max() * noise, scale, info
            return solve

        monkeypatch.setattr(lqgcost.linalg, "dtrsyl", perturbed(1e-13))
        DriftFactor(a).solve(w, shift=0.3, transposed=transposed)
        monkeypatch.setattr(lqgcost.linalg, "dtrsyl", perturbed(1e-6))
        with pytest.raises(NumericalError, match="residual"):
            DriftFactor(a).solve(w, shift=0.3, transposed=transposed)


class TestSchurCoordinates:
    """The factor test and the residual test of the Schur-coordinate core."""

    @pytest.mark.parametrize("n", [2, 10])
    def test_perturbed_factor_refused(self, n, rng, monkeypatch):
        a, _ = _drift_with_complex_pairs(n, 0.3, rng)
        real = lqgcost.linalg.dgees
        noise = rng.normal(size=(n, n))

        def perturbed(rel):
            def factor(*args, **kw):
                t, *rest = real(*args, **kw)
                return (t + rel * np.abs(t).max() * noise, *rest)
            return factor

        monkeypatch.setattr(lqgcost.linalg, "dgees", perturbed(1e-13))
        DriftFactor(a)
        monkeypatch.setattr(lqgcost.linalg, "dgees", perturbed(1e-6))
        with pytest.raises(NumericalError, match="Schur factor residual"):
            DriftFactor(a)

    @pytest.mark.parametrize("call", ["cost_stats_lyapunov", "tune mean", "tune variance"])
    def test_infinite_horizon_residual_check(self, call, rng, monkeypatch):
        # the infinite-horizon route and the tuner solve in Schur coordinates
        # only; a perturbed triangular solve must still be refused there
        if call == "cost_stats_lyapunov":
            sys = random_system(4, rng, alpha_shifts=(-0.4, -0.8))
            cost = CostSpec(Q=random_spd(4, rng), alpha=-0.4)

            def run():
                return cost_stats_lyapunov(sys, cost)
        else:
            plant = LqgPlant(**PLANT, alpha=-0.8)
            f = optimal_gain(plant)
            loop = close_loop_full_state(plant, f, [1.0, -0.5], 2.0 * np.eye(2))

            def run():
                return tune._value_and_gradient(plant, loop, f, call.split()[1])
        _assert_perturbed_solve_refused(run, monkeypatch)

    @pytest.mark.parametrize("alpha", [0.3, 0.0])
    def test_finite_horizon_residual_check(self, alpha, rng, monkeypatch):
        # the finite horizon, at alpha = 0 too, solves in Schur coordinates only
        sys = random_system(4, rng, alpha_shifts=(-0.3, 0.3, 0.6))
        cost = CostSpec(Q=random_spd(4, rng), alpha=alpha, horizon=1.2)
        _assert_perturbed_solve_refused(lambda: cost_stats_lyapunov(sys, cost), monkeypatch)

    def test_frobenius_norm_does_not_overflow(self):
        # the residual tests and the cancellation guard take this norm of
        # matrices whose squared entries may pass the largest double
        assert lqgcost.linalg._fro(np.full((3, 3), 1e300)) == 3e300
        strided = np.arange(12.0).reshape(3, 4).T
        assert lqgcost.linalg._fro(strided) == pytest.approx(np.linalg.norm(strided), rel=1e-15)


def _assert_perturbed_solve_refused(run, monkeypatch):
    """``run()`` passes with ``dtrsyl`` perturbed by 1e-13 and raises its
    residual error with ``dtrsyl`` perturbed by 1e-6."""
    real = lqgcost.linalg.dtrsyl

    def perturbed(rel):
        def solve(t_a, t_b, c, **kw):
            z, scale, info = real(t_a, t_b, c, **kw)
            noise = np.random.default_rng(7).normal(size=z.shape)
            return z + rel * np.abs(z).max() * noise, scale, info
        return solve

    monkeypatch.setattr(lqgcost.linalg, "dtrsyl", perturbed(1e-13))
    run()
    monkeypatch.setattr(lqgcost.linalg, "dtrsyl", perturbed(1e-6))
    with pytest.raises(NumericalError, match="residual"):
        run()


class TestOneFactorPerEvaluation:
    @pytest.fixture
    def schur_calls(self, monkeypatch):
        calls = []
        real = lqgcost.linalg.dgees

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lqgcost.linalg, "dgees", counting)
        return calls

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []
        real = DriftFactor.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(DriftFactor, "solve", counting)
        return calls

    @pytest.mark.parametrize("alpha,horizon", [(0.3, 1.2), (-0.4, 1.2), (0.0, 1.2),
                                               (-0.4, math.inf)])
    def test_one_schur_per_evaluation(self, alpha, horizon, rng, schur_calls, solve_calls):
        # one path at both horizons: every solve runs in Schur coordinates, none
        # through the validated DriftFactor.solve, and the second evaluation
        # reads the system's factor
        sys = random_system(3, rng, alpha_shifts=(-0.4, 0.3, -0.3, 0.4, -0.8, 0.6, 0.9))
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=horizon)
        cost_stats_lyapunov(sys, cost)
        assert (len(schur_calls), len(solve_calls)) == (1, 0)
        variance = variance_cost_infinite if cost.is_infinite else variance_cost_finite
        variance(sys, cost)
        assert (len(schur_calls), len(solve_calls)) == (1, 0)

    def test_one_schur_per_system(self, rng, schur_calls, monkeypatch):
        # every route and both horizons at two alphas read one factor, the
        # exponential route reads its eigenvalues, and the state moments need
        # neither
        eig_calls = []
        real_eigvals = np.linalg.eigvals

        def counting_eigvals(*args, **kwargs):
            eig_calls.append(1)
            return real_eigvals(*args, **kwargs)

        sys = random_system(3, rng, alpha_shifts=(-0.4, 0.3, -0.3, 0.4, -0.8, 0.6, 0.9))
        q = random_spd(3, rng)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        for alpha in (-0.4, 0.3):
            finite = CostSpec(Q=q, alpha=alpha, horizon=1.2)
            cost_stats_lyapunov(sys, finite)
            if alpha < 0:
                cost_stats_lyapunov(sys, CostSpec(Q=q, alpha=alpha))
            expm_stats = cost_stats_expm(sys, finite)
            assert auto_cost_stats(sys, finite).variance == expm_stats.variance
        second_moment(sys, 0.7)
        assert (len(schur_calls), len(eig_calls)) == (1, 0)

    def test_state_moments_factor_nothing(self, schur_calls):
        # a stiff and a neutral mode: the Lyapunov equation is singular and a
        # Van Loan block at t = 25 would overflow
        sys = LtiSystem(A=np.diag([-30.0, 0.0]), V=np.eye(2), mu0=np.ones(2),
                        Sigma0=2.0 * np.eye(2))
        noise_gramian_finite(sys.A, sys.V, 25.0)
        second_moment(sys, 25.0)
        cross_moment(sys, 20.0, 25.0)
        assert schur_calls == []

    @pytest.mark.parametrize("alpha,horizon,shifts", [(0.3, 1.2, 4), (-0.4, 1.2, 4),
                                                      (0.0, 1.2, 1), (-0.4, math.inf, 2)])
    def test_one_classification_per_shift(self, alpha, horizon, shifts, rng, monkeypatch):
        # A, A+1a, A-1a and A+2a at a finite horizon, one shift at alpha = 0 where
        # they coincide; A+1a and A+2a at the infinite horizon
        sys = random_system(3, rng, alpha_shifts=(-0.4, 0.3, -0.3, 0.4, -0.8, 0.6, 0.9))
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=horizon)
        calls = []
        real = lqgcost.linalg._classify

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lqgcost.linalg, "_classify", counting)
        cost_stats_lyapunov(sys, cost)
        assert len(calls) == shifts
        # a second evaluation of the system finds every shift classified
        cost_stats_lyapunov(sys, cost)
        assert len(calls) == shifts

    @pytest.mark.parametrize("alpha", [0.3, -0.4])
    def test_one_exponential_on_general_branch(self, alpha, rng, monkeypatch):
        sys = random_system(3, rng, alpha_shifts=(-0.4, 0.3, -0.3, 0.4, -0.8, 0.6, 0.9))
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=1.2)
        calls = []
        real = lqgcost.cost_lyap.expm

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lqgcost.cost_lyap, "expm", counting)
        stats = cost_stats_lyapunov(sys, cost)
        # one exponential per shift of R the route reads: alpha and -alpha,
        # which are one shift at alpha = 0
        assert len(calls) == 2 and stats.branch == "finite horizon"
        cost_stats_lyapunov(sys, CostSpec(Q=cost.Q, horizon=1.2))
        assert len(calls) == 3

    @pytest.mark.parametrize("alpha,horizon", [(0.25, 1.5), (0.0, 0.8), (-0.4, math.inf)])
    def test_variance_functions_match_combined_exactly(self, alpha, horizon, rng):
        sys = random_system(3, rng, alpha_shifts=(-0.25, 0.25, 0.5, 0.75, -0.4, -0.8))
        cost = CostSpec(Q=random_spd(3, rng), alpha=alpha, horizon=horizon)
        variance = variance_cost_infinite if cost.is_infinite else variance_cost_finite
        assert variance(sys, cost) == cost_stats_lyapunov(sys, cost).variance


class TestVanLoanIntegral:
    def test_constant_integrand(self):
        out = van_loan_integral(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), 2.0)
        assert_allclose(out, 2.0 * np.eye(2), rtol=1e-13)

    def test_zero_horizon(self, rng):
        a = rng.normal(size=(2, 2))
        assert np.array_equal(van_loan_integral(a, np.eye(2), a, 0.0), np.zeros((2, 2)))

    def test_scalar_value(self):
        out = van_loan_integral(np.array([[-1.0]]), np.array([[1.0]]),
                                np.array([[-2.0]]), 1.0)
        assert_allclose(out, [[math.exp(-1.0) - math.exp(-2.0)]], rtol=1e-12)

    def test_matches_the_noise_gramian(self, rng):
        # integral_0^t e^{A s} Q e^{A^T s} ds is e^{A t} times the block with
        # A1 = -A, A2 = A^T
        a = random_stable_sylvester(3, rng)
        q = random_spd(3, rng)
        t = 1.3
        via_block = mat_exp(a, t) @ van_loan_integral(-a, q, a.T, t)
        assert_allclose(via_block, noise_gramian_finite(a, q, t), rtol=1e-9, atol=1e-11)

    def test_same_block_as_the_hand_placed_matrix(self, rng):
        a1, a2 = random_stable(2, rng), random_stable(3, rng)
        q = rng.normal(size=(2, 3))
        block = np.zeros((5, 5))
        block[:2, :2] = a1
        block[:2, 2:] = q
        block[2:, 2:] = a2
        from scipy.linalg import expm
        assert np.array_equal(van_loan_integral(a1, q, a2, 1.1), expm(block * 1.1)[:2, 2:])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            van_loan_integral(np.eye(2), np.ones((3, 2)), np.eye(2), 1.0)

    def test_rectangular_weight(self, rng):
        a1 = random_stable(2, rng)
        a2 = random_stable(3, rng)
        q = rng.normal(size=(2, 3))
        out = van_loan_integral(a1, q, a2, 1.1)
        from scipy.integrate import quad_vec
        from scipy.linalg import expm
        ref, _ = quad_vec(lambda s: expm(a1 * (1.1 - s)) @ q @ expm(a2 * s), 0.0, 1.1,
                          epsrel=1e-11)
        assert_allclose(out, ref, rtol=1e-9, atol=1e-12)


class TestPsdFactor:
    def test_reconstructs(self, rng):
        m = random_spd(4, rng)
        f = psd_factor(m)
        assert_allclose(f @ f.T, m, rtol=1e-10, atol=1e-12)

    def test_singular_ok(self):
        m = np.diag([1.0, 0.0])
        f = psd_factor(m)
        assert_allclose(f @ f.T, m, atol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(ConditionError):
            psd_factor(np.diag([1.0, -0.5]))

    def test_one_decomposition(self, monkeypatch):
        # the semidefiniteness check reads the eigenvalues of the factor's own eigh
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(a):
                calls.append(name)
                return real(a)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        psd_factor(np.diag([1.0, 0.0]))
        with pytest.raises(ConditionError, match="min eigenvalue -5.000e-01"):
            psd_factor(np.diag([1.0, -0.5]))
        assert calls == ["eigh", "eigh"]
