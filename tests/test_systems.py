"""Systems and costs are immutable values: each owns read-only copies of its
arrays, and a system owns the one factor of its drift."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from lqgcost import CostSpec, LtiSystem, auto_cost_stats, cost_stats_lyapunov
from lqgcost.linalg import SHIFTS_KEPT
from conftest import random_spd, random_stable_sylvester


def _inputs(rng):
    a = random_stable_sylvester(3, rng, alpha_shifts=(-0.4, -0.8))
    mu0 = rng.normal(size=3)
    return a, random_spd(3, rng), mu0, random_spd(3, rng) + np.outer(mu0, mu0), random_spd(3, rng)


class TestImmutable:
    def test_arrays_are_read_only(self, rng):
        a, v, mu0, sigma0, q = _inputs(rng)
        sys, cost = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0), CostSpec(Q=q, alpha=-0.4)
        for arr in (sys.A, sys.V, sys.Sigma0, cost.Q):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sys.mu0[0] = 1.0

    def test_fields_cannot_be_reassigned(self, rng):
        a, v, mu0, sigma0, q = _inputs(rng)
        sys, cost = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0), CostSpec(Q=q, alpha=-0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.A = np.eye(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cost.alpha = 0.3

    def test_caller_arrays_are_copied(self, rng):
        a, v, mu0, sigma0, q = _inputs(rng)
        pristine = [m.copy() for m in (a, v, mu0, sigma0, q)]
        sys, cost = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0), CostSpec(Q=q, alpha=-0.4)
        for m in (a, v, mu0, sigma0, q):
            m *= 2.0
        assert np.array_equal(sys.A, pristine[0]) and np.array_equal(sys.mu0, pristine[2])
        a0, v0, mu00, sigma00, q0 = pristine
        fresh = LtiSystem(A=a0, V=v0, mu0=mu00, Sigma0=sigma00), CostSpec(Q=q0, alpha=-0.4)
        assert cost_stats_lyapunov(sys, cost) == cost_stats_lyapunov(*fresh)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))])
    def test_copies_are_rebuilt(self, clone, rng):
        # a copy is read-only too and builds its own factor, so it cannot be
        # mutated under a factor it carried over
        a, v, mu0, sigma0, q = _inputs(rng)
        sys, cost = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0), CostSpec(Q=q, alpha=-0.4)
        stats = cost_stats_lyapunov(sys, cost)
        sys2, cost2 = clone(sys), clone(cost)
        assert "factor" not in vars(sys2)
        for arr in (sys2.A, sys2.V, sys2.mu0, sys2.Sigma0, cost2.Q):
            assert not arr.flags.writeable
        assert cost_stats_lyapunov(sys2, cost2) == stats


class TestFactor:
    def test_built_once_and_kept(self, rng):
        a, v, mu0, sigma0, q = _inputs(rng)
        sys = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
        assert "factor" not in vars(sys)
        fac = sys.factor
        assert sys.factor is fac and np.array_equal(fac.a, sys.A)

    def test_shared_factor_gives_the_fresh_numbers(self, rng):
        # an evaluation on a system whose factor has served other alphas and
        # horizons equals, bit for bit, one on a new system
        a, v, mu0, sigma0, q = _inputs(rng)
        sys = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
        costs = [CostSpec(Q=q, alpha=alpha, horizon=horizon)
                 for alpha in (-0.4, -0.8) for horizon in (1.3, np.inf)]
        for cost in costs:
            auto_cost_stats(sys, cost)
        for cost in costs:
            fresh = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
            assert auto_cost_stats(sys, cost) == auto_cost_stats(fresh, cost)

    def test_keeps_a_bounded_number_of_shifts(self, rng):
        # an alpha sweep on one system neither grows the factor without bound
        # nor changes a number when an evicted shift is built again
        a, v, mu0, sigma0, q = _inputs(rng)
        sys = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
        costs = [CostSpec(Q=q, alpha=alpha) for alpha in np.linspace(-0.9, -0.5, 2 * SHIFTS_KEPT)]
        first = cost_stats_lyapunov(sys, costs[0])
        for cost in costs[1:]:
            cost_stats_lyapunov(sys, cost)
        assert len(sys.factor._shifted) == SHIFTS_KEPT
        assert cost_stats_lyapunov(sys, costs[0]) == first
