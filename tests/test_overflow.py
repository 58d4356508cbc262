"""One overflow rule: every public analytic entry point computes, then refuses
a value that is not finite with :class:`AccuracyError`, and none lets a
RuntimeWarning or a bare OverflowError through.

Two kinds of overflow are covered.  Exponential growth: the scalar state
grows as e^{t}, so at t = 800 every moment and cost passes the largest
double.  The data's scale: the cost of Sigma0 = 1e300 weighed by Q = 1e10 on
a decaying state, and the moments of a drift with no growth at all,
e^{A t} = I + A t with A's one entry 1e200.  An infinite-horizon cost needs
a stable shifted drift, which forms no exponential, so only the data's scale
can overflow it.  The quartic expectations overflow on the data's scale
alone.  The input boundary neither overflows on data near the largest double
nor lets an overflowed initial covariance through.
"""

import numpy as np
import pytest

from lqgcost import (
    AccuracyError,
    CostSpec,
    JointGaussian,
    LtiSystem,
    SimConfig,
    auto_cost_stats,
    cost_stats_expm,
    cost_stats_lyapunov,
    cross_moment,
    expected_cost_finite,
    expected_cost_infinite,
    joint_quartic_expectation,
    mean_state,
    noise_gramian_finite,
    quartic_expectation,
    second_moment,
    simulate_costs,
    variance_cost_finite,
    variance_cost_infinite,
)

GROWING = LtiSystem(A=[[1.0]], V=[[1.0]], mu0=[1.0], Sigma0=[[2.0]])
HEAVY = LtiSystem(A=[[-1.0]], V=[[1.0]], mu0=[0.0], Sigma0=[[1e300]])
SHEAR = LtiSystem(A=[[0.0, 1e200], [0.0, 0.0]], V=np.eye(2), mu0=[0.0, 1e150],
                  Sigma0=np.diag([1.0, 1e300]))

#: Per kind: the system and finite-horizon cost, the infinite-horizon cost
#: (None where none overflows), the system and time of the moments, and the
#: simulation.
KINDS = {
    "growth": (GROWING, CostSpec(Q=[[1.0]], horizon=800.0), None, GROWING, 800.0,
               SimConfig(dt=1.0, T=800.0, n_paths=4)),
    "data scale": (HEAVY, CostSpec(Q=[[1e10]], horizon=1.0), CostSpec(Q=[[1e10]], alpha=-0.5),
                   SHEAR, 1.0, SimConfig(dt=0.1, T=1.0, n_paths=4)),
}

FINITE = {
    "expected_cost_finite": expected_cost_finite,
    "variance_cost_finite": variance_cost_finite,
    "cost_stats_lyapunov": cost_stats_lyapunov,
    "cost_stats_expm": cost_stats_expm,
    "auto_cost_stats": auto_cost_stats,
}
INFINITE = {
    "expected_cost_infinite": expected_cost_infinite,
    "variance_cost_infinite": variance_cost_infinite,
    "cost_stats_lyapunov": cost_stats_lyapunov,
    "auto_cost_stats": auto_cost_stats,
}
MOMENTS = {
    "mean_state": lambda sys, t: mean_state(sys, t),
    "second_moment": lambda sys, t: second_moment(sys, t),
    "cross_moment": lambda sys, t: cross_moment(sys, t, t + 1.0),
    "noise_gramian_finite": lambda sys, t: noise_gramian_finite(sys.A, sys.V, t),
}

#: Each quartic expectation's call on its two first arguments, which overflow:
#: a second moment whose square passes the largest double, a mean whose square
#: does, leaving second - mu mu^T = -inf, and a joint pair's such mean.
QUARTIC = {
    "quartic_expectation-second moment": (
        lambda mu, second: quartic_expectation(mu, second, [[1.0]], [[1.0]]), [0.0], [[1e200]]),
    "quartic_expectation-mean": (
        lambda mu, second: quartic_expectation(mu, second, [[1.0]], [[1.0]]), [1e200], [[1e300]]),
    "joint_quartic_expectation-mean": (
        lambda jg, p: joint_quartic_expectation(jg, p, [[1.0]]),
        JointGaussian([1e200], [0.0], [[1.0]], [[0.0]], [[1.0]]), [[1.0]]),
}


def _calls():
    for kind, (sys, finite, infinite, moment_sys, t, cfg) in KINDS.items():
        for name, route in FINITE.items():
            yield pytest.param(route, sys, finite, id=f"{kind}-{name}-finite")
        for name, route in INFINITE.items() if infinite is not None else ():
            yield pytest.param(route, sys, infinite, id=f"{kind}-{name}-infinite")
        for name, moment in MOMENTS.items():
            yield pytest.param(moment, moment_sys, t, id=f"{kind}-{name}")
        yield pytest.param(lambda sys, cost, cfg=cfg: simulate_costs(sys, cost, cfg), sys, finite,
                           id=f"{kind}-simulate_costs")
    for name, (call, first, second) in QUARTIC.items():
        yield pytest.param(call, first, second, id=name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,first,second", _calls())
def test_overflow_raises_accuracy_error(call, first, second):
    with pytest.raises(AccuracyError, match="overflows double precision"):
        call(first, second)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build,field", [
    (lambda: LtiSystem(A=[[-1.0]], V=[[1e308]], mu0=[0.0], Sigma0=[[1.0]]), "V"),
    (lambda: CostSpec(Q=np.full((2, 2), 1e308)), "Q"),
], ids=["LtiSystem V", "CostSpec Q"])
def test_largest_doubles_stored(build, field):
    # symmetrizing halves before it adds, so entries past half the largest
    # double stay finite
    assert (getattr(build(), field) == 1e308).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_initial_covariance_overflow_named():
    # Sigma0 - mu0 mu0^T = 1e300 - 1e400 is negative, not an -inf to check
    with pytest.raises(AccuracyError, match=r"^Sigma0 - mu0 mu0\^T overflows double precision"):
        LtiSystem(A=[[-1.0]], V=[[1.0]], mu0=[1e200], Sigma0=[[1e300]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulated_moments_overflow():
    # costs near 1e80 are finite, but the square of their variance, which its
    # standard error needs, passes the largest double
    sys = LtiSystem(A=[[-1.0]], V=[[1.0]], mu0=[0.0], Sigma0=[[1e80]])
    cfg = SimConfig(dt=0.1, T=1.0, n_paths=64)
    with pytest.raises(AccuracyError, match="their moments .* overflows double precision"):
        simulate_costs(sys, CostSpec(Q=[[1.0]], alpha=0.0), cfg)
