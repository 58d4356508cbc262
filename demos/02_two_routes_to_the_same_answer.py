"""Two independent evaluation routes and where each one shines.

The finite-horizon cost moments can be computed either from Lyapunov-equation
solutions or from the paper's block matrix exponential.  The Lyapunov route
needs the (shifted) drifts to have no eigenvalue pair summing to zero; the
exponential route works for any drift, and once T * (spectral range) passes
10 it takes the block on a short step and doubles it up to T.
`auto_cost_stats` takes the exponential route at every finite horizon.
"""

import numpy as np

from lqgcost import (
    CostSpec,
    LtiSystem,
    auto_cost_stats,
    cost_stats_expm,
    cost_stats_lyapunov,
)

rng = np.random.default_rng(3)

# --- agreement on a well-behaved system ------------------------------------

a = rng.normal(size=(3, 3)) * 0.5
a -= (np.linalg.eigvals(a).real.max() + 0.5) * np.eye(3)
m = rng.normal(size=(3, 3))
sys = LtiSystem(A=a, V=m @ m.T, mu0=rng.normal(size=3) * 0,
                Sigma0=np.eye(3))
cost = CostSpec(Q=np.eye(3), alpha=-0.3, horizon=2.0)

lyap = cost_stats_lyapunov(sys, cost)
expo = cost_stats_expm(sys, cost)
print("well-behaved system, T = 2")
print(f"  lyapunov route: mean = {lyap.mean:.12f}, variance = {lyap.variance:.12f}")
print(f"  expm route:     mean = {expo.mean:.12f}, variance = {expo.variance:.12f}")
print(f"  rel gap: mean {abs(lyap.mean - expo.mean) / lyap.mean:.2e}, "
      f"variance {abs(lyap.variance - expo.variance) / lyap.variance:.2e}")

# --- a drift the Lyapunov route cannot touch --------------------------------

# the double integrator has eigenvalues {0, 0}: 0 + 0 = 0, so the Lyapunov
# equation A X + X A^T + Q = 0 has no unique solution
integrator = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], V=np.eye(2),
                       mu0=np.zeros(2), Sigma0=np.eye(2))
cost_i = CostSpec(Q=np.eye(2), alpha=0.0, horizon=1.0)

auto = auto_cost_stats(integrator, cost_i)
print("\ndouble integrator (Lyapunov equation singular), T = 1")
print(f"  method chosen:  {auto.method}")
print(f"  mean = {auto.mean:.10f}, variance = {auto.variance:.10f}")

try:
    cost_stats_lyapunov(integrator, cost_i)
except Exception as exc:
    print(f"  lyapunov route refuses, as it must: {type(exc).__name__}: {exc}")
