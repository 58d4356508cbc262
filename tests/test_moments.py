import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from lqgcost import (
    AccuracyError,
    ConditionError,
    DimensionError,
    LtiSystem,
    cross_moment,
    mean_state,
    noise_gramian_finite,
    second_moment,
    solve_lyapunov,
)
from lqgcost.moments import _doubling_count, _propagate, _van_loan_steps
from conftest import finite_integral_by_quadrature, random_spd, random_system, scalar_system


class TestMeanState:
    def test_time_zero(self, rng):
        sys = random_system(3, rng)
        assert_allclose(mean_state(sys, 0.0), sys.mu0, rtol=1e-14)

    def test_zero_mean_stays_zero(self, rng):
        sys = random_system(3, rng, zero_mean=True)
        assert np.array_equal(mean_state(sys, 2.7), np.zeros(3))

    def test_scalar_decay(self):
        sys = scalar_system(a=-1.0, v=2.0, mu0=2.0, sigma0=5.0)
        assert_allclose(mean_state(sys, 1.0), [2.0 * math.exp(-1.0)], rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflow_named(self):
        sys = LtiSystem(A=[[1.0]], V=[[1.0]], mu0=[1.0], Sigma0=[[1.0]])
        with pytest.raises(AccuracyError, match="mu\\(t\\) at t = 800 overflows"):
            mean_state(sys, 800.0)


class TestSecondMoment:
    def test_time_zero(self, rng):
        sys = random_system(3, rng)
        assert_allclose(second_moment(sys, 0.0), sys.Sigma0, rtol=1e-14)

    def test_noiseless_decay(self, rng):
        sys = random_system(3, rng)
        quiet = LtiSystem(A=sys.A, V=np.zeros((3, 3)), mu0=sys.mu0, Sigma0=sys.Sigma0)
        assert np.abs(second_moment(quiet, 80.0)).max() < 1e-12

    def test_scalar_closed_form(self):
        sys = scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=3.0)
        expected = math.exp(-2.0) * (3.0 - 1.0) + 1.0
        assert_allclose(second_moment(sys, 1.0), [[expected]], rtol=1e-12)

    def test_exactly_symmetric(self, rng):
        sys = random_system(4, rng)
        s = second_moment(sys, 0.9)
        assert np.array_equal(s, s.T)

    def test_non_sylvester_fallback_matches_quadrature(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])   # double integrator: not sylvester
        v = np.diag([0.3, 0.7])
        sys = LtiSystem(A=a, V=v, mu0=[1.0, -1.0], Sigma0=np.eye(2) + np.outer([1, -1], [1, -1]))
        t = 1.7
        e = np.array([[1.0, t], [0.0, 1.0]])
        expected = e @ sys.Sigma0 @ e.T + finite_integral_by_quadrature(a, v, 0.0, t)
        assert_allclose(second_moment(sys, t), expected, rtol=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_overflow_named(self):
        # the e^{2t} term of A = diag(1, -1) passes the largest double by t = 400
        sys = LtiSystem(A=np.diag([1.0, -1.0]), V=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        assert np.all(np.isfinite(second_moment(sys, 300.0)))
        with pytest.raises(AccuracyError, match="t = 400 overflows double precision"):
            second_moment(sys, 400.0)

    def test_differential_identity(self, rng):
        # d Sigma / dt = A Sigma + Sigma A^T + V, by central differences
        for _ in range(3):
            sys = random_system(3, rng)
            t, h = 0.8, 1e-4
            lhs = (second_moment(sys, t + h) - second_moment(sys, t - h)) / (2.0 * h)
            s = second_moment(sys, t)
            rhs = sys.A @ s + s @ sys.A.T + sys.V
            assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-7)

    def test_covariance_stays_psd(self, rng):
        sys = random_system(3, rng)
        for t in (0.0, 0.3, 1.0, 4.0):
            mu = mean_state(sys, t)
            cov = second_moment(sys, t) - np.outer(mu, mu)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_stationary_limit(self, rng):
        sys = random_system(3, rng)
        x = solve_lyapunov(sys.A, sys.V)
        decay = -np.linalg.eigvals(sys.A).real.max()
        t = 30.0 / decay     # ||e^{A t}|| well below 1e-12
        assert_allclose(second_moment(sys, t), x, atol=1e-10 * max(1.0, np.abs(x).max()))


class TestNoiseGramianFinite:
    def test_matches_quadrature(self, rng):
        a = rng.normal(size=(3, 3))
        v = random_spd(3, rng)
        assert_allclose(noise_gramian_finite(a, v, 0.9),
                        finite_integral_by_quadrature(a, v, 0.0, 0.9),
                        rtol=1e-9, atol=1e-11)

    @pytest.mark.filterwarnings("error")
    def test_stiff_and_neutral_drift(self):
        # one Van Loan block at t = 25 would hold e^{750}, past the largest
        # double, and the zero mode makes the Lyapunov equation singular
        a = np.diag([-30.0, 0.0])
        sys = LtiSystem(A=a, V=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        for t in (20.0, 25.0):
            gramian = np.diag([-math.expm1(-60.0 * t) / 60.0, t])
            assert_allclose(noise_gramian_finite(a, np.eye(2), t), gramian, rtol=1e-12)
            assert_allclose(second_moment(sys, t),
                            gramian + np.diag([math.exp(-60.0 * t), 1.0]), rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [20.0, 25.0])
    def test_stiff_drift_past_the_van_loan_overflow(self, t):
        # one Van Loan block at t = 25 would overflow; the Gramian is about
        # diag(5, 1/60)
        a = np.diag([-0.1, -30.0])
        assert_allclose(noise_gramian_finite(a, np.eye(2), t),
                        np.diag([(1.0 - math.exp(-0.2 * t)) / 0.2,
                                 (1.0 - math.exp(-60.0 * t)) / 60.0]), rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_stiff_and_slow_drift(self):
        # X - e^{A t} X e^{A^T t} cancels here: the slow mode's X is 5e8
        # where its Gramian is about 25
        a = np.array([-30.0, -1e-9])
        assert_allclose(noise_gramian_finite(np.diag(a), np.eye(2), 25.0),
                        np.diag(np.expm1(50.0 * a) / (2.0 * a)), rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0, 10.0])
    def test_rotated_stiff_drift(self, t):
        # one Van Loan block at t holds e^{30 t} against a Gramian of order
        # one, so its digits are gone by t = 2
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(2, 2)))
        a = q @ np.diag([-0.1, -30.0]) @ q.T
        gramian = np.diag([-math.expm1(-0.2 * t) / 0.2, -math.expm1(-60.0 * t) / 60.0])
        assert_allclose(noise_gramian_finite(a, np.eye(2), t), q @ gramian @ q.T, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_doubling_count_from_logs(self):
        # ||A||_1 t = 1e310 is past the largest double
        assert_allclose(noise_gramian_finite([[-1e300]], [[1.0]], 1e10), [[5e-301]],
                        rtol=1e-12)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_time_checked(self, t):
        with pytest.raises(ValueError, match="^t must be a finite number >= 0"):
            noise_gramian_finite(np.eye(2), np.eye(2), t)

    @pytest.mark.parametrize("v,error,message", [
        ([[1.0, 2.0], [0.0, 1.0]], ConditionError, "V must be symmetric"),
        ([[1.0, math.nan], [math.nan, 1.0]], ValueError, "V contains non-finite entries"),
        (np.eye(3), DimensionError, "V must be 2x2, got \\(3, 3\\)"),
        ([1.0, 1.0], DimensionError, "V must be 2-dimensional"),
        (np.ones((2, 3)), DimensionError, "V must be square"),
    ])
    def test_noise_intensity_checked(self, v, error, message):
        # as LtiSystem checks V; a non-symmetric V was symmetrized in silence
        with pytest.raises(error, match=f"^{message}"):
            noise_gramian_finite(-np.eye(2), v, 1.0)


class TestPropagate:
    @pytest.mark.parametrize("t,doublings", [(0.3, 0), (7.0, 4)])
    def test_one_exponential_per_base_step(self, t, doublings, rng, expm_calls):
        # ||A||_1 = 2 puts t = 0.3 at the base step and t = 7 four doublings above it
        a = rng.normal(size=(3, 3))
        a *= 2.0 / np.abs(a).sum(axis=0).max()
        assert _doubling_count(a, t) == doublings
        phi, _ = _propagate(a, random_spd(3, rng), t)
        assert expm_calls == [(1, 6, 6)]
        assert_allclose(phi, expm(a * t), rtol=1e-12)


class TestVanLoanSteps:
    def test_same_exponentials_as_the_hand_placed_block(self, rng):
        sys = random_system(3, rng)
        a, v = sys.A, sys.V
        s = np.array([0.05, 0.1, 0.3])
        ref = expm(s[:, None, None] * np.block([[a, v], [np.zeros((3, 3)), -a.T]]))
        w = ref[:, :3, 3:] @ ref[:, :3, :3].transpose(0, 2, 1)
        phis, ws = _van_loan_steps(a, v, s)
        assert np.array_equal(phis, ref[:, :3, :3])
        assert np.array_equal(ws, 0.5 * (w + w.transpose(0, 2, 1)))


class TestCrossMoment:
    def test_equal_times_match_second_moment(self, rng):
        sys = random_system(3, rng)
        assert_allclose(cross_moment(sys, 0.7, 0.7), second_moment(sys, 0.7),
                        rtol=1e-12)

    def test_stationary_start(self, rng):
        sys = random_system(3, rng, zero_mean=True)
        x = solve_lyapunov(sys.A, sys.V)
        stationary = LtiSystem(A=sys.A, V=sys.V, mu0=np.zeros(3), Sigma0=x)
        from lqgcost import mat_exp
        expected = x @ mat_exp(sys.A.T, 0.5)
        assert_allclose(cross_moment(stationary, 0.2, 0.7), expected, rtol=1e-11)

    def test_scalar_value(self):
        sys = scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=3.0)
        expected = 2.0 * math.exp(-1.5) + math.exp(-0.5)
        assert_allclose(cross_moment(sys, 0.5, 1.0), [[expected]], rtol=1e-12)

    def test_transpose_symmetry(self, rng):
        sys = random_system(3, rng)
        assert np.array_equal(cross_moment(sys, 1.2, 0.4), cross_moment(sys, 0.4, 1.2).T)

    def test_double_integrator_closed_form(self):
        # A is nilpotent, so its Lyapunov equation is singular; for t1 <= t2
        # Sigma(t1, t2) = Sigma(t1) e^{A^T d} with d = t2 - t1
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        sys = LtiSystem(A=a, V=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        for t1, t2 in ((0.2, 0.5), (1.5, 4.0), (0.0, 2.0), (3.0, 3.0)):
            sigma = np.array([[1.0 + t1 + t1 ** 2 + t1 ** 3 / 3.0, t1 + t1 ** 2 / 2.0],
                              [t1 + t1 ** 2 / 2.0, 1.0 + t1]])
            expected = sigma @ np.array([[1.0, 0.0], [t2 - t1, 1.0]])
            assert_allclose(cross_moment(sys, t1, t2), expected, rtol=1e-12)
            assert_allclose(cross_moment(sys, t2, t1), expected.T, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflow_named(self):
        sys = LtiSystem(A=[[1.0]], V=[[1.0]], mu0=[1.0], Sigma0=[[1.0]])
        with pytest.raises(AccuracyError, match="at t1 = 1, t2 = 800 overflows"):
            cross_moment(sys, 1.0, 800.0)

    @pytest.mark.parametrize("t1,t2", [(0.3, 1.1), (1.1, 0.3), (0.0, 0.8)])
    def test_matches_diagonal_drift_closed_form(self, t1, t2):
        # A = diag(a) with correlated noise: X_ij = -V_ij / (a_i + a_j) and, for
        # t1 <= t2, E[x_i(t1) x_j(t2)] = e^{a_i t1} (Sigma0 - X)_ij e^{a_j t2}
        # + X_ij e^{a_j (t2 - t1)}; for t1 > t2 the lag decays at the rate a_i
        a = np.array([-0.7, -1.9])
        v = np.array([[1.0, 0.6], [0.6, 2.0]])
        sigma0 = np.array([[1.5, -0.4], [-0.4, 0.8]])
        sys = LtiSystem(A=np.diag(a), V=v, mu0=np.zeros(2), Sigma0=sigma0)
        x = -v / (a[:, None] + a[None, :])
        lag = np.exp(a[None, :] * max(t2 - t1, 0.0) + a[:, None] * max(t1 - t2, 0.0))
        expected = (np.exp(a[:, None] * t1) * (sigma0 - x) * np.exp(a[None, :] * t2)
                    + x * lag)
        assert_allclose(cross_moment(sys, t1, t2), expected, rtol=1e-12, atol=0.0)
