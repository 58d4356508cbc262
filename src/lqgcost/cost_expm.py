"""Mean and variance of the finite-horizon cost through the paper's block matrix exponential.

The exponential E = e^{C h} of the 5n x 5n block chain (``linalg._block_chain``)

        [ -A_2^T   Q     0     0      0     ]
        [   0      A     V     0      0     ]
    C = [   0      0   -A^T    Q      0     ]        (A_k = A + k*alpha*I)
        [   0      0     0    A_2     V     ]
        [   0      0     0     0   -A_-2^T  ]

gives the cost J = integral_0^h e^{2 alpha s} x^T Q x ds of a segment started
at a fixed x0: with E_ij its n x n blocks, C44 = e^{A_2 h} and D = C44^T E_13,
E[J | x0] = x0^T P x0 + c and Var[J | x0] = 4 x0^T G x0 + v, where
P = sym(C44^T E_12), c = tr D, G = sym(D P - C44^T E_14) and
v = 2 tr(D^2) - 4 tr(C44^T E_15).  Over the initial state, with
C0 = Sigma0 - mu0 mu0^T,

    mean = tr(P Sigma0) + c,
    var  = 4 tr(G Sigma0) + v + 2 tr((P C0)^2) + 4 mu0^T P C0 P mu0.

No spectral condition on A or alpha is needed.  One block at h = T multiplies
blocks growing like e^{+growth} by blocks decaying like e^{-growth}, with the
growth T * max|Re eig(C)|, so it is the route (k = 0) only up to
``BLOCK_GROWTH``.  Past it, h = T / 2^k with k the least count for which
(||A||_1 + 2|alpha|) h <= 1, and the segment is doubled k times in closed form
(scaling and squaring: C. F. Van Loan, IEEE Trans. Automat. Control 23(3),
1978).  The route's kernel, :func:`block_exponential`, takes the one
exponential, at T or at the base step h.  Doubling also reads
x_h | x0 ~ N(Phi x0, W), and H and K in
Cov(J, x_h^T B x_h | x0) = 2 tr(B K) + 4 x0^T H B Phi x0 for symmetric B:
H = D Phi^T and K = integral_0^h e^{2 alpha s} Phi_{h-s} W(s) Q W(s) Phi_{h-s}^T ds,
by 6-point Gauss-Legendre.  At k = 0 the final formulas read only P, c, G and
v, so the route forms no Phi, W, H or K there.  A variance negative beyond
rounding, or a mean or variance that overflows, raises :class:`AccuracyError`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .cost_lyap import CostStats, _finalize_variance, _require_horizon, cost_stats_lyapunov
from .exceptions import ConditionCheck
from .linalg import _block_chain, _require_shape, symmetrize
from .moments import _compose, _doubling_count, _Segment, _van_loan_steps
from .systems import CostSpec, LtiSystem

__all__ = [
    "BlockExpResult",
    "build_block_matrix",
    "block_exponential",
    "cost_stats_expm",
    "auto_cost_stats",
]

#: Largest growth T * max|Re eig(C)| at which the route is one block at T.
#: On random n = 40 drifts that block's variance is within 5.5e-12 of the
#: doubled value at growth 10, and 4.4e-8 off at growth 15.
BLOCK_GROWTH = 10.0

#: 6-point Gauss-Legendre nodes and weights on [-1, 1], for K.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class BlockExpResult:
    """The five blocks of e^{C h} the cost statistics consume."""

    C12: np.ndarray
    C13: np.ndarray
    C14: np.ndarray
    C15: np.ndarray
    C44: np.ndarray


def build_block_matrix(sys: LtiSystem, cost: CostSpec):
    """The 5n x 5n block chain C for the given system and cost."""
    a, v, q = sys.A, sys.V, _require_shape(cost.Q, sys.A.shape, "Q")
    shift = 2.0 * cost.alpha * np.eye(sys.dim)
    a2p = a + shift
    return _block_chain([-a2p.T, a, -a.T, a2p, -(a - shift).T], [q, v, q, v])


def _growth_exponent(sys, cost):
    """T * max |Re eig(C)| = T (max |Re eig(A)| + 2|alpha|), from the
    eigenvalues of the system's factor (``sys.factor``), which the Lyapunov
    route shares."""
    rate = float(np.abs(sys.factor.eigenvalues.real).max()) + 2.0 * abs(cost.alpha)
    return cost.horizon * rate


def block_exponential(sys: LtiSystem, cost: CostSpec):
    """e^{C T}, T the cost's horizon, partitioned into the blocks the route reads.

    This is the kernel of :func:`cost_stats_expm`, which calls it once: with
    its own cost when T is the step (no doubling), or with a cost whose
    horizon is the base step h = T / 2^k.
    """
    _require_horizon(cost, infinite=False)
    h = cost.horizon
    e = expm(build_block_matrix(sys, cost) * h)
    n = sys.dim
    # The (4,4) block equals e^{A_2 h} analytically.  Numerically the big
    # exponential carries absolute errors on the scale of its largest block,
    # which wrecks this exponentially small one; the products C44^T C1k are
    # well scaled, so evaluating C44 from its own n x n exponential restores
    # full accuracy while the C1k blocks' errors are contracted by C44^T.
    c44 = expm((sys.A + 2.0 * cost.alpha * np.eye(n)) * h)
    return BlockExpResult(
        C12=e[0:n, n:2 * n],
        C13=e[0:n, 2 * n:3 * n],
        C14=e[0:n, 3 * n:4 * n],
        C15=e[0:n, 4 * n:5 * n],
        C44=c44,
    )


def _segment(sys, cost, blocks, h=None):
    """The record of one segment from the blocks of e^{C h}; with the step h
    also its Phi, W, H and K, which only doubling reads."""
    c44t = blocks.C44.T
    p = c44t @ blocks.C12
    d = c44t @ blocks.C13
    # D P - C44^T E_14 cancels: its terms' rounding errors are correlated
    # while P is not symmetrized (symmetrizing first left variances at
    # growth 8 up to 7 times further off)
    g = symmetrize(d @ p - c44t @ blocks.C14)
    p = symmetrize(p)
    v = 2.0 * np.trace(d @ d) - 4.0 * np.trace(c44t @ blocks.C15)
    if h is None:
        return _Segment(None, None, p, np.trace(d), g, v, None, None)
    # Phi_s and W(s) at the six nodes s_i and at h; the nodes are symmetric,
    # so Phi_{h - s_i} is the reversed stack
    s = np.append(0.5 * h * (1.0 + _GL_NODES), h)
    phis, ws = _van_loan_steps(sys.A, sys.V, s)
    m = phis[5::-1] @ ws[:6]
    weights = 0.5 * h * _GL_WEIGHTS * np.exp(2.0 * cost.alpha * s[:6])
    k = symmetrize(np.tensordot(weights, m @ cost.Q @ m.transpose(0, 2, 1), axes=1))
    return _Segment(phis[6], ws[6], p, np.trace(d), g, v, d @ phis[6].T, k)


def cost_stats_expm(sys: LtiSystem, cost: CostSpec):
    """Finite-horizon mean and variance from the block exponential at
    h = T / 2^k, doubled k times (module docstring)."""
    _require_horizon(cost, infinite=False)
    growth = _growth_exponent(sys, cost)
    k = 0 if growth <= BLOCK_GROWTH else _doubling_count(sys.A, cost.horizon,
                                                         2.0 * abs(cost.alpha))
    h = math.ldexp(cost.horizon, -k)
    step = cost if k == 0 else CostSpec(Q=cost.Q, alpha=cost.alpha, horizon=h)
    mu0, sigma0 = sys.mu0, sys.Sigma0
    # an overflow leaves a non-finite value, which _finalize_variance refuses
    with np.errstate(over="ignore", invalid="ignore"):
        seg = _segment(sys, cost, block_exponential(sys, step), h if k else None)
        for j in range(k):
            seg = _compose(seg, seg, np.exp(2.0 * cost.alpha * math.ldexp(h, j)))
        pc0 = seg.P @ (sigma0 - np.outer(mu0, mu0))
        mean = float(np.trace(seg.P @ sigma0) + seg.c)
        raw = float(4.0 * np.trace(seg.G @ sigma0) + seg.v + 2.0 * np.trace(pc0 @ pc0)
                    + 4.0 * (mu0 @ pc0 @ seg.P @ mu0))
    variance = _finalize_variance(raw, mean, "block exponential")
    return CostStats(
        mean=mean,
        variance=variance,
        method="expm",
        conditions_checked=[ConditionCheck("finite horizon", True, f"T = {cost.horizon:g}")],
        branch=(f"finite horizon, block exponential, T * max|Re eig| = {growth:.3g}, "
                f"{k} doublings"),
        raw_variance=raw,
    )


def auto_cost_stats(sys: LtiSystem, cost: CostSpec):
    """The Lyapunov route at the infinite horizon, the block-exponential
    route at a finite one."""
    if cost.is_infinite:
        return cost_stats_lyapunov(sys, cost)
    return cost_stats_expm(sys, cost)
