"""Mean and variance of the finite-horizon cost through one block matrix exponential.

A single exponential of the 5n x 5n upper block-triangular matrix

        [ -A_2^T   Q     0     0      0     ]
        [   0      A     V     0      0     ]
    C = [   0      0   -A^T    Q      0     ]        (A_k = A + k*alpha*I)
        [   0      0     0    A_2     V     ]
        [   0      0     0     0   -A_-2^T  ]

evaluates all the nested convolution integrals the cost moments are made of.
With E = e^{C T} partitioned into n x n blocks E_ij:

    mean = tr(E_44^T (E_12 Sigma0 + E_13)),
    var  = 2 tr((E_44^T (E_12 Sigma0 + E_13))^2 - 2 E_44^T (E_14 Sigma0 + E_15))
           - 2 (mu0^T E_44^T E_12 mu0)^2.

No spectral conditions on A or alpha are needed, which is the point of this
route: it covers drifts whose Lyapunov equations are singular.  The price is
accuracy decay for large T * (spectral range), hence the crossover policy in
:func:`auto_cost_stats`.  A variance that decay pushes below zero raises
:class:`AccuracyError`, as an exponent past ``EXPM_GROWTH_LIMIT`` does.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .exceptions import AccuracyError, ConditionCheck, ConditionError, NumericalError
from .cost_lyap import CostStats, _finalize_variance, cost_stats_lyapunov
from .systems import CostSpec, LtiSystem

__all__ = [
    "BlockExpResult",
    "build_block_matrix",
    "block_exponential",
    "cost_stats_expm",
    "auto_cost_stats",
]

#: Hard limit on T * max |Re eig(C)| beyond which the exponential is refused.
#: Past e^{50} the double-precision exponential retains no usable accuracy
#: for the small blocks the formulas consume.
EXPM_GROWTH_LIMIT = 50.0

#: The automatic method choice prefers the exponential route below this growth.
AUTO_GROWTH_SWITCH = 20.0


@dataclass(frozen=True)
class BlockExpResult:
    """The five blocks of e^{C T} the cost statistics consume, and the
    exponent T * max|Re eig(C)| the accuracy guard judged them by."""

    C12: np.ndarray
    C13: np.ndarray
    C14: np.ndarray
    C15: np.ndarray
    C44: np.ndarray
    growth: float


def build_block_matrix(sys: LtiSystem, cost: CostSpec):
    """Assemble the 5n x 5n block matrix C for the given system and cost."""
    a, v, q = sys.A, sys.V, cost.Q
    n = sys.dim
    eye = np.eye(n)
    a2p = a + 2.0 * cost.alpha * eye
    a2m = a - 2.0 * cost.alpha * eye
    c = np.zeros((5 * n, 5 * n))
    c[0:n, 0:n] = -a2p.T
    c[0:n, n:2 * n] = q
    c[n:2 * n, n:2 * n] = a
    c[n:2 * n, 2 * n:3 * n] = v
    c[2 * n:3 * n, 2 * n:3 * n] = -a.T
    c[2 * n:3 * n, 3 * n:4 * n] = q
    c[3 * n:4 * n, 3 * n:4 * n] = a2p
    c[3 * n:4 * n, 4 * n:5 * n] = v
    c[4 * n:5 * n, 4 * n:5 * n] = -a2m.T
    return c


def _growth_exponent(sys, cost):
    """T * max |Re eig(C)|, computed from the spectrum of A and the shifts."""
    re = np.linalg.eigvals(sys.A).real
    alpha = cost.alpha
    rate = max(
        np.abs(re).max(),
        np.abs(re + 2.0 * alpha).max(),
        np.abs(re - 2.0 * alpha).max(),
    )
    return cost.horizon * rate


def block_exponential(sys: LtiSystem, cost: CostSpec):
    """e^{C T} partitioned into the blocks used by :func:`cost_stats_expm`."""
    if cost.is_infinite:
        raise ValueError("the block-exponential route needs a finite horizon")
    return _block_exponential(sys, cost, _growth_exponent(sys, cost))


def _block_exponential(sys, cost, growth):
    if growth > EXPM_GROWTH_LIMIT:
        raise AccuracyError(
            f"T * max|Re eig| = {growth:.3g} exceeds {EXPM_GROWTH_LIMIT:g}; the block "
            "exponential would overflow or lose all accuracy -- use the Lyapunov method"
        )
    e = expm(build_block_matrix(sys, cost) * cost.horizon)
    if not np.all(np.isfinite(e)):
        raise AccuracyError(
            "block matrix exponential overflowed -- use the Lyapunov method"
        )
    n = sys.dim
    # The (4,4) block equals e^{A_2 T} analytically.  Numerically the big
    # exponential carries absolute errors on the scale of its largest block,
    # which wrecks this exponentially small one; the products C44^T C1k are
    # well scaled, so evaluating C44 from its own n x n exponential restores
    # full accuracy while the C1k blocks' errors are contracted by C44^T.
    c44 = expm((sys.A + 2.0 * cost.alpha * np.eye(n)) * cost.horizon)
    return BlockExpResult(
        C12=e[0:n, n:2 * n],
        C13=e[0:n, 2 * n:3 * n],
        C14=e[0:n, 3 * n:4 * n],
        C15=e[0:n, 4 * n:5 * n],
        C44=c44,
        growth=growth,
    )


def cost_stats_expm(sys: LtiSystem, cost: CostSpec):
    """Finite-horizon mean and variance from the block exponential."""
    return _stats_from_blocks(sys, cost, block_exponential(sys, cost))


def _stats_from_blocks(sys, cost, blocks):
    sigma0, mu0 = sys.Sigma0, sys.mu0
    m = blocks.C44.T @ (blocks.C12 @ sigma0 + blocks.C13)
    mean = float(np.trace(m))
    raw = float(
        2.0 * np.trace(m @ m - 2.0 * blocks.C44.T @ (blocks.C14 @ sigma0 + blocks.C15))
        - 2.0 * (mu0 @ blocks.C44.T @ blocks.C12 @ mu0) ** 2
    )
    try:
        variance = _finalize_variance(raw, mean)
    except NumericalError as exc:
        raise AccuracyError(
            f"block exponential lost the variance: it came out {raw:.6e} < 0 beyond the "
            f"rounding allowance at T * max|Re eig| = {blocks.growth:.3g} -- use the "
            "Lyapunov method"
        ) from exc
    checks = [
        ConditionCheck("finite horizon", True, f"T = {cost.horizon:g}"),
        ConditionCheck("exponent range", True,
                       f"T * max|Re eig| = {blocks.growth:.3g} <= {EXPM_GROWTH_LIMIT:g}"),
    ]
    return CostStats(
        mean=mean,
        variance=variance,
        method="expm",
        conditions_checked=checks,
        branch="finite horizon, block exponential",
        raw_variance=raw,
    )


def auto_cost_stats(sys: LtiSystem, cost: CostSpec):
    """Choose the numerically preferable route.

    Infinite horizon: only the Lyapunov route applies.  Finite horizon: the
    exponential route wins for small T * (spectral range), the Lyapunov route
    for large; if the Lyapunov route's solvability conditions fail, or its
    finite-horizon identities cancel beyond their accuracy limit, fall back
    to the exponential route (with a warning when outside its comfort zone).
    """
    if cost.is_infinite:
        return cost_stats_lyapunov(sys, cost)
    growth = _growth_exponent(sys, cost)
    if growth <= AUTO_GROWTH_SWITCH:
        try:
            return _stats_from_blocks(sys, cost, _block_exponential(sys, cost, growth))
        except AccuracyError:
            return cost_stats_lyapunov(sys, cost)
    try:
        return cost_stats_lyapunov(sys, cost)
    except (ConditionError, AccuracyError) as lyap_err:
        reason = ("validity conditions failed" if isinstance(lyap_err, ConditionError)
                  else "accuracy check failed")
        warnings.warn(
            f"Lyapunov {reason} ({lyap_err}); falling back to the block-exponential route "
            f"at T * max|Re eig| = {growth:.3g}, expect reduced accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
        try:
            stats = _stats_from_blocks(sys, cost, _block_exponential(sys, cost, growth))
        except AccuracyError as expm_err:
            raise ConditionError(
                f"neither method applies: Lyapunov {reason} "
                f"({lyap_err}) and the exponential route refused ({expm_err})",
                conditions=getattr(lyap_err, "conditions", []),
            )
        stats.conditions_checked.append(
            ConditionCheck("lyapunov fallback", False, str(lyap_err))
        )
        return stats
