import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lqgcost import (
    ConditionError,
    JointGaussian,
    joint_quartic_expectation,
    quartic_expectation,
)
from conftest import random_spd


class TestQuarticExpectation:
    def test_standard_normal_fourth_moment(self):
        assert quartic_expectation([0.0], [[1.0]], [[1.0]], [[1.0]]) == pytest.approx(3.0)

    def test_shifted_scalar(self):
        # x ~ N(1, 1): E[x^4] = mu^4 + 6 mu^2 s^2 + 3 s^4 = 10; second moment = 2
        assert quartic_expectation([1.0], [[2.0]], [[1.0]], [[1.0]]) == pytest.approx(10.0)

    def test_zero_weight(self, rng):
        s = random_spd(3, rng)
        assert quartic_expectation(np.zeros(3), s, np.zeros((3, 3)), random_spd(3, rng)) == 0.0

    def test_asymmetric_weight_rejected(self, rng):
        with pytest.raises(ConditionError):
            quartic_expectation(np.zeros(2), np.eye(2),
                                np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_bilinearity(self, rng):
        mu = rng.normal(size=3)
        s = random_spd(3, rng) + np.outer(mu, mu)
        p1, p2, q = random_spd(3, rng), random_spd(3, rng), random_spd(3, rng)
        a, b = 1.7, -0.4
        lhs = quartic_expectation(mu, s, a * p1 + b * p2, q)
        rhs = a * quartic_expectation(mu, s, p1, q) + b * quartic_expectation(mu, s, p2, q)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_zero_mean_reduction(self, rng):
        y = random_spd(3, rng)
        p, q = random_spd(3, rng), random_spd(3, rng)
        expected = np.trace(y @ p) * np.trace(y @ q) + 2.0 * np.trace(y @ p @ y @ q)
        assert_allclose(quartic_expectation(np.zeros(3), y, p, q), expected, rtol=1e-12)

    def test_matches_sampling(self, rng):
        mu = np.array([0.4, -0.7])
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        p, q = random_spd(2, rng), random_spd(2, rng)
        analytic = quartic_expectation(mu, cov + np.outer(mu, mu), p, q)
        g = np.random.default_rng(11)
        x = mu + g.standard_normal((2_000_000, 2)) @ np.linalg.cholesky(cov).T
        vals = np.einsum("ij,jk,ik->i", x, p, x) * np.einsum("ij,jk,ik->i", x, q, x)
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - analytic) < 4.0 * stderr


class TestNonFiniteMean:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_quartic_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="^mu contains non-finite entries"):
            quartic_expectation([bad, 0.0], np.eye(2), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("name", ["mu_x", "mu_y"])
    def test_joint_mean_rejected(self, name):
        means = {"mu_x": [0.0, 0.0], "mu_y": [0.0, 0.0]}
        means[name][0] = math.nan
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
            JointGaussian(**means, K_xx=np.eye(2), K_xy=np.zeros((2, 2)), K_yy=np.eye(2))


class TestJointQuarticExpectation:
    def test_independent_factorization(self, rng):
        kxx, kyy = random_spd(2, rng), random_spd(3, rng)
        p, q = random_spd(2, rng), random_spd(3, rng)
        jg = JointGaussian(mu_x=np.zeros(2), mu_y=np.zeros(3),
                           K_xx=kxx, K_xy=np.zeros((2, 3)), K_yy=kyy)
        assert_allclose(joint_quartic_expectation(jg, p, q),
                        np.trace(kxx @ p) * np.trace(kyy @ q), rtol=1e-12)

    def test_identical_blocks_reduce_to_single_vector(self, rng):
        mu = rng.normal(size=2)
        k = random_spd(2, rng)
        p, q = random_spd(2, rng), random_spd(2, rng)
        jg = JointGaussian(mu_x=mu, mu_y=mu, K_xx=k, K_xy=k, K_yy=k)
        assert_allclose(joint_quartic_expectation(jg, p, q),
                        quartic_expectation(mu, k + np.outer(mu, mu), p, q),
                        rtol=1e-12)

    def test_swap_symmetry(self, rng):
        mu_x, mu_y = rng.normal(size=2), rng.normal(size=2)
        k = random_spd(4, rng)
        jg = JointGaussian(mu_x=mu_x, mu_y=mu_y,
                           K_xx=k[:2, :2], K_xy=k[:2, 2:], K_yy=k[2:, 2:])
        swapped = JointGaussian(mu_x=mu_y, mu_y=mu_x,
                                K_xx=k[2:, 2:], K_xy=k[2:, :2], K_yy=k[:2, :2])
        p, q = random_spd(2, rng), random_spd(2, rng)
        assert_allclose(joint_quartic_expectation(jg, p, q),
                        joint_quartic_expectation(swapped, q, p), rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        jg = JointGaussian(mu_x=np.zeros(2), mu_y=np.zeros(2),
                           K_xx=np.eye(2), K_xy=np.zeros((2, 2)), K_yy=np.eye(2))
        with pytest.raises(Exception):
            joint_quartic_expectation(jg, np.eye(3), np.eye(2))

    def test_matches_sampling(self, rng):
        mu = np.array([0.2, -0.1, 0.5, 0.0])
        k = random_spd(4, rng, scale=0.5)
        jg = JointGaussian(mu_x=mu[:2], mu_y=mu[2:],
                           K_xx=k[:2, :2], K_xy=k[:2, 2:], K_yy=k[2:, 2:])
        p, q = random_spd(2, rng), random_spd(2, rng)
        analytic = joint_quartic_expectation(jg, p, q)
        g = np.random.default_rng(13)
        z = mu + g.standard_normal((2_000_000, 4)) @ np.linalg.cholesky(k).T
        vals = (np.einsum("ij,jk,ik->i", z[:, :2], p, z[:, :2])
                * np.einsum("ij,jk,ik->i", z[:, 2:], q, z[:, 2:]))
        stderr = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - analytic) < 4.0 * stderr

