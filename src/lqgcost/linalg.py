"""Dense linear-algebra kernels: matrix exponential, Lyapunov solvers,
spectral classification and block-exponential integrals.

Everything downstream (state moments, cost statistics, gain synthesis)
reduces to the handful of operations in this module.  All functions are pure
and operate on plain ``numpy`` arrays of float64; :class:`DriftFactor` holds
the real Schur form of one drift so that every shifted or transposed Lyapunov
equation on it reuses a single factorization.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import dtrsyl

from .exceptions import ConditionCheck, DimensionError, NumericalError, SingularLyapunovError

__all__ = [
    "SpectrumReport",
    "DriftFactor",
    "mat_exp",
    "classify_spectrum",
    "solve_lyapunov",
    "solve_lyapunov_transposed",
    "lyap_finite",
    "van_loan_integral",
    "psd_factor",
    "symmetrize",
    "is_symmetric",
]

#: Default relative tolerance separating genuine spectral degeneracy from rounding.
DEFAULT_SPECTRAL_TOL = 1e-9

#: Default relative residual tolerance for Lyapunov solves.
DEFAULT_RESIDUAL_RTOL = 1e-8


def _as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a finite 2-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_square(a, name="matrix"):
    arr = _as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def is_symmetric(a, rtol=1e-10, atol=1e-12):
    """``np.allclose(a, a.T, rtol, atol)`` for a square finite ``a``, without its overhead."""
    a = np.asarray(a, dtype=float)
    return a.shape[0] == a.shape[1] and bool(
        np.all(np.abs(a - a.T) <= atol + rtol * np.abs(a.T)))


def symmetrize(a):
    """Return the symmetric part (a + a^T) / 2."""
    return 0.5 * (a + a.T)


def mat_exp(a, t=1.0):
    """Matrix exponential e^{A t}.

    Uses scaling-and-squaring with a diagonal Pade approximant (via
    ``scipy.linalg.expm``).  Exact identity for ``t == 0``.
    """
    a = _as_square(a, "A")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0.0:
        return np.eye(a.shape[0])
    return expm(a * t)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue classification of a square matrix.

    ``is_sylvester`` is False when some eigenvalue pair (i, j), possibly
    i == j, satisfies |lam_i + lam_j| <= tol * (1 + |lam_i| + |lam_j|) -- the
    condition under which A X + X A^T + Q = 0 has no unique solution.
    ``is_stable`` is True when every eigenvalue has real part < -tol.

    ``degenerate_pairs`` lists those pairs, i <= j, in row-major order.  It
    and ``is_sylvester`` are computed on first access, so a caller that only
    reads ``is_stable`` never builds the n x n pair matrix.

    Note the implication "stable => sylvester" is exact mathematics; with a
    finite tolerance a barely-stable matrix with large imaginary eigenvalue
    pairs can still be flagged non-sylvester, which is the desired behaviour
    (the Lyapunov equation is then numerically near-singular).
    """

    eigenvalues: np.ndarray
    is_stable: bool
    tolerance_used: float

    @cached_property
    def degenerate_pairs(self):
        lam, tol = self.eigenvalues, self.tolerance_used
        mag = np.abs(lam)
        bad = np.abs(lam[:, None] + lam) <= tol * (1.0 + mag[:, None] + mag)
        return [tuple(p) for p in np.argwhere(np.triu(bad)).tolist()] if bad.any() else []

    @property
    def is_sylvester(self):
        return not self.degenerate_pairs


def _classify(lam, tol):
    """SpectrumReport of the eigenvalues ``lam``."""
    return SpectrumReport(eigenvalues=lam, is_stable=bool((lam.real < -tol).all()),
                          tolerance_used=tol)


def classify_spectrum(a, tol=DEFAULT_SPECTRAL_TOL):
    """Classify the spectrum of ``a`` for stability and Lyapunov solvability."""
    a = _as_square(a, "A")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue computation failed for {a.shape} matrix: {exc}")
    return _classify(lam, tol)


def _schur_eigenvalues(t):
    """Eigenvalues of a real quasi-triangular T from its 1x1 and 2x2 diagonal blocks."""
    lam = np.diag(t).astype(complex)
    top = np.flatnonzero(np.diag(t, -1))        # each 2x2 block starts at such an index
    if top.size:
        bot = top + 1
        a, d = t[top, top], t[bot, bot]
        half = 0.5 * (a - d)
        disc = half * half + t[top, bot] * t[bot, top]
        root = np.sqrt(disc.astype(complex))
        lam[top] = 0.5 * (a + d) + root
        lam[bot] = 0.5 * (a + d) - root
    return lam


class DriftFactor:
    """Real Schur form A = U T U^T of a drift, shared by all its shifted Lyapunov solves.

    ``A + s I = U (T + s I) U^T`` for every shift s, so each equation
    ``(A + s I) X + X (A + s I)^T + W = 0`` and its transpose
    ``(A + s I)^T Y + Y (A + s I) + W = 0`` costs one quasi-triangular
    Sylvester solve (LAPACK ``dtrsyl``) and four n x n products; the
    eigenvalues are read off the diagonal blocks of T.
    """

    def __init__(self, a):
        self.a = _as_square(a, "A")
        try:
            self.t, self.u = schur(self.a, output="real", check_finite=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"Schur factorization failed for {self.a.shape} matrix: {exc}")
        self.eigenvalues = _schur_eigenvalues(self.t)

    def spectrum(self, shift=0.0, tol=DEFAULT_SPECTRAL_TOL):
        """SpectrumReport of A + shift * I."""
        return _classify(self.eigenvalues + shift, tol)

    def solve(self, w, shift=0.0, transposed=False, tol=DEFAULT_SPECTRAL_TOL,
              rtol=DEFAULT_RESIDUAL_RTOL):
        """Solve (A+sI) X + X (A+sI)^T + W = 0, or with ``transposed`` the
        equation (A+sI)^T Y + Y (A+sI) + W = 0, for s = ``shift``.

        Checks and errors as :func:`solve_lyapunov`.
        """
        w = _as_square(w, "Q")
        if w.shape != self.a.shape:
            raise DimensionError(
                f"A and Q must have equal shapes, got {self.a.shape} and {w.shape}")
        report = self.spectrum(shift, tol)
        if not report.is_sylvester:
            i, j = report.degenerate_pairs[0]
            lam = report.eigenvalues
            raise SingularLyapunovError(
                f"lyapunov solve: no unique solution, eigenvalues lambda[{i}] = {lam[i]:.6g} "
                f"and lambda[{j}] = {lam[j]:.6g} sum to (nearly) zero",
                conditions=[ConditionCheck("lyapunov solve", False)],
            )
        u = self.u
        t_s = self.t + shift * np.eye(len(self.a))
        z, scale, info = dtrsyl(t_s, t_s, -(u.T @ w @ u),
                                trana="T" if transposed else "N",
                                tranb="N" if transposed else "T")
        if info != 0:
            raise SingularLyapunovError(
                f"lyapunov solve: quasi-triangular Sylvester solve failed (info = {info})",
                conditions=[ConditionCheck("lyapunov solve", False)],
            )
        x = u @ (z / scale) @ u.T
        if is_symmetric(w):
            x = symmetrize(x)
        a_s = self.a + shift * np.eye(len(self.a))
        if transposed:
            a_s = a_s.T
        residual = np.linalg.norm(a_s @ x + x @ a_s.T + w)
        bound = np.linalg.norm(a_s) * np.linalg.norm(x) + np.linalg.norm(w)
        if residual > rtol * max(bound, 1e-300):
            raise NumericalError(
                f"lyapunov solution residual {residual:.3e} exceeds {rtol:.1e} * {bound:.3e}; "
                "the equation is too ill-conditioned for the dense solver"
            )
        return x


def solve_lyapunov(a, q, tol=DEFAULT_SPECTRAL_TOL, rtol=DEFAULT_RESIDUAL_RTOL):
    """Solve A X + X A^T + Q = 0 for X.

    Parameters
    ----------
    a, q : array_like, square, same size
        Coefficient and constant matrices.
    tol : float
        Relative spectral tolerance for the unique-solvability check.
    rtol : float
        Relative residual tolerance; the solution must satisfy
        ``||A X + X A^T + Q||_F <= rtol * (||A||_F ||X||_F + ||Q||_F)``.

    Returns
    -------
    X : ndarray
        The unique solution.  Symmetrized exactly when ``q`` is symmetric
        (the solution of a symmetric equation is symmetric; downstream
        formulas rely on that holding to the last bit).

    Raises
    ------
    SingularLyapunovError
        If some eigenvalue pair of ``a`` sums to zero (no unique solution).
    NumericalError
        If the solution fails the residual test.

    Notes
    -----
    Bartels-Stewart: the real Schur form A = U T U^T turns the equation into
    T Z + Z T^T = -U^T Q U with X = U Z U^T, solved by back-substitution over
    the quasi-triangular T (LAPACK ``dtrsyl``).  O(n^3) in time and O(n^2)
    in memory.  The Schur factor depends only on A, and A + s I has the
    factor U (T + s I) U^T, so callers that need several shifts or the
    transposed equation of one drift should factor it once with
    :class:`DriftFactor` and call :meth:`DriftFactor.solve`.

    References: R. H. Bartels and G. W. Stewart, "Solution of the matrix
    equation AX + XB = C", Comm. ACM 15(9), 1972; G. H. Golub, S. Nash and
    C. Van Loan, "A Hessenberg-Schur method for the problem AX + XB = C",
    IEEE Trans. Automat. Control 24(6), 1979.
    """
    return DriftFactor(a).solve(q, tol=tol, rtol=rtol)


def solve_lyapunov_transposed(a, q, tol=DEFAULT_SPECTRAL_TOL, rtol=DEFAULT_RESIDUAL_RTOL):
    """Solve A^T X + X A + Q = 0 for X (the transposed companion equation)."""
    return DriftFactor(a).solve(q, transposed=True, tol=tol, rtol=rtol)


def lyap_finite(a, q, t1, t2, solution=None, tol=DEFAULT_SPECTRAL_TOL):
    """Integral of e^{A t} Q e^{A^T t} over [t1, t2] via the Lyapunov closed form.

    Equals ``e^{A t1} X e^{A^T t1} - e^{A t2} X e^{A^T t2}`` where X solves
    A X + X A^T + Q = 0.  Requires that equation to be uniquely solvable;
    callers facing a degenerate spectrum should integrate through
    :func:`van_loan_integral` instead.

    ``solution`` may pass a precomputed X to avoid re-solving.
    """
    a = _as_square(a, "A")
    q = _as_square(q, "Q")
    if not (np.isfinite(t1) and np.isfinite(t2)):
        raise ValueError("t1 and t2 must be finite")
    if t1 > t2:
        raise ValueError(f"need t1 <= t2, got t1={t1}, t2={t2}")
    if t1 == t2:
        return np.zeros_like(a)
    x = solve_lyapunov(a, q, tol=tol) if solution is None else solution
    e1 = mat_exp(a, t1)
    e2 = mat_exp(a, t2)
    out = e1 @ x @ e1.T - e2 @ x @ e2.T
    if is_symmetric(q):
        out = symmetrize(out)
    return out


def van_loan_integral(a1, q, a2, horizon):
    """Integral of e^{A1 (T-t)} Q e^{A2 t} over [0, T], quadrature-free.

    Computed exactly as the upper-right block of
    ``expm([[A1, Q], [0, A2]] * T)``; no spectral conditions on A1 or A2.
    """
    a1 = _as_square(a1, "A1")
    a2 = _as_square(a2, "A2")
    q = _as_matrix(q, "Q")
    n1, n2 = a1.shape[0], a2.shape[0]
    if q.shape != (n1, n2):
        raise DimensionError(f"Q must be {n1}x{n2} to conform with A1, A2; got {q.shape}")
    if not np.isfinite(horizon) or horizon < 0:
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    if horizon == 0.0:
        return np.zeros((n1, n2))
    block = np.zeros((n1 + n2, n1 + n2))
    block[:n1, :n1] = a1
    block[:n1, n1:] = q
    block[n1:, n1:] = a2
    return expm(block * horizon)[:n1, n1:]


def psd_factor(m, tol=1e-12):
    """Factor L with L L^T = M for symmetric PSD M.

    Uses the symmetric eigendecomposition; eigenvalues below ``-tol * scale``
    raise, tiny negatives are clamped to zero.  Robust for singular M where a
    Cholesky factorization would fail.
    """
    m = _as_square(m, "M")
    m = symmetrize(m)
    w, u = np.linalg.eigh(m)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -tol * scale:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    return u * np.sqrt(np.clip(w, 0.0, None))
