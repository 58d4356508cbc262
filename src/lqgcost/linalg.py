"""Dense linear-algebra kernels: matrix exponential, Lyapunov solvers,
spectral classification and block-exponential integrals.

Everything downstream (state moments, cost statistics, gain synthesis)
reduces to the handful of operations in this module.  All functions are pure
and operate on plain ``numpy`` arrays of float64; :class:`DriftFactor` holds
the real Schur form of one drift so that every shifted or transposed Lyapunov
equation on it reuses a single factorization.

The kernels' tolerances are constants of this module, with no per-call
override, and symmetry and (semi)definiteness are decided only here, at
``PSD_TOL``.

Every input check of the package lives here too: ``_real_number`` and
``_whole_number`` for settings (a bool, a string, NaN or an int past the
largest double is no number), the ``_as_*`` array checks, each to an
expected shape and holding such numbers only, and ``_require_shape`` for a
cost's Q against its system.  Model files pass the same checks;
:mod:`lqgcost.models` checks only the file's structure.

So does the one overflow rule: compute under ``np.errstate(over="ignore",
invalid="ignore")``, then ``_require_finite`` refuses what is not finite.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dtrsyl

from .exceptions import (AccuracyError, ConditionCheck, ConditionError, DimensionError,
                         NumericalError, SingularLyapunovError)

__all__ = [
    "SpectrumReport",
    "DriftFactor",
    "mat_exp",
    "classify_spectrum",
    "solve_lyapunov",
    "solve_lyapunov_transposed",
    "van_loan_integral",
    "psd_factor",
    "symmetrize",
    "is_symmetric",
]

#: Relative tolerance separating genuine spectral degeneracy from rounding.
DEFAULT_SPECTRAL_TOL = 1e-9

#: Relative residual tolerance of every Lyapunov solve and Schur factor.
DEFAULT_RESIDUAL_RTOL = 1e-8

#: Slack, relative to max(largest magnitude, 1), within which a matrix counts
#: as symmetric and its smallest eigenvalue as nonnegative.
PSD_TOL = 1e-8

#: Most shifts a DriftFactor keeps; past it the oldest goes.  One evaluation
#: uses at most four (0, alpha, -alpha, 2 alpha), and a system evaluated at
#: many alphas would otherwise hold an n x n matrix for each.
SHIFTS_KEPT = 16

#: Largest ||term||_F / ||result||_F allowed in a finite-horizon identity
#: that subtracts one term from another.  Each factor of ten past it costs
#: the result a digit on top of the terms' own rounding.
CANCELLATION_LIMIT = 1e6


def _as_float(value):
    """``value`` as a float, or NaN unless it is a real number (not a bool)
    that a float holds: an int past the largest double is NaN too."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def _shown(value):
    """repr of a refused ``value`` for a message; an int of more than 20 digits
    shows its first 20 and its digit count."""
    if not isinstance(value, int) or -10 ** 20 < value < 10 ** 20:
        return repr(value)
    v = abs(value)
    # the bit length puts the digit count within one; Python refuses str() of
    # an int past 4300 digits, so it is not counted from the text
    digits = int(v.bit_length() * math.log10(2.0)) + 1
    digits += (v >= 10 ** digits) - (v < 10 ** (digits - 1))
    return f"{'-' if value < 0 else ''}{v // 10 ** (digits - 20)}... ({digits} digits)"


def _whole_number(name, value, least):
    """``value`` as an int; ValueError unless it is a whole number >= ``least``
    (a bool is not) that a float holds."""
    if not (math.isfinite(_as_float(value)) and int(value) == value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")
    return int(value)


def _real_number(name, value, least=-math.inf, strict=False, infinite=False):
    """``value`` as a float; ValueError unless it is a real number (not a bool,
    a string, NaN or an int past the largest double) above ``least`` when
    ``strict``, else at least ``least``, and finite unless ``infinite``."""
    x = _as_float(value)
    if (x > least if strict else x >= least) and (infinite or math.isfinite(x)):
        return x
    bound = "" if least == -math.inf else f" {'>' if strict else '>='} {least:g}"
    kind = "a number" if infinite else "a finite number"
    raise ValueError(f"{name} must be {kind}{bound}, got {_shown(value)}")


def _require_finite(what, value, *more):
    """``value``, or AccuracyError ("``what`` overflows double precision") when an
    entry of ``value`` or ``more`` (numbers or arrays) is not finite."""
    for v in (value, *more):
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise AccuracyError(f"{what} overflows double precision")
    return value


def _require_shape(arr, shape, name):
    """``arr``, of as many dimensions as ``shape``; DimensionError unless its
    lengths are those of ``shape``, where a None length matches any."""
    if arr.shape != shape and any(k not in (None, got) for k, got in zip(shape, arr.shape)):
        want = "x".join("?" if k is None else str(k) for k in shape)
        if len(shape) == 1:
            want = f"of length {want}"
        raise DimensionError(f"{name} must be {want}, got {arr.shape}")
    return arr


def _finite_array(a, name):
    """``a`` as a float array; ValueError unless it is a regular (not ragged)
    array of finite entries, each a real number by :func:`_as_float`'s rule:
    a bool, a string or an int past the largest double is none.  An int or
    float ndarray passes by its dtype, its entries unread."""
    if isinstance(a, np.ndarray) and a.dtype.kind in "iuf":
        arr = np.asarray(a, dtype=float)
    else:
        try:
            np.shape(a)
        except ValueError:
            raise ValueError(f"{name} must be a rectangular array, got a ragged one") from None
        entries = np.array(a, dtype=object)
        arr = np.array([_as_float(x) for x in entries.flat]).reshape(entries.shape)
        for x, f in zip(entries.flat, arr.flat):
            if f != f and x == x:       # NaN from no number, not from a NaN
                raise ValueError(f"{name} must hold real numbers, got {_shown(x)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_array(a, name, shape):
    """:func:`_finite_array` of ``a``, non-empty, with as many dimensions as
    ``shape`` and its lengths, where a None length matches any."""
    arr = _finite_array(a, name)
    if arr.ndim != len(shape):
        raise DimensionError(f"{name} must be {len(shape)}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must not be empty, got shape {arr.shape}")
    return _require_shape(arr, shape, name)


def _as_vector(v, name, n=None):
    """:func:`_as_array` of a 1-d ``v`` (of length ``n``)."""
    return _as_array(v, name, (n,))


def _as_matrix(a, name="matrix", shape=None):
    """:func:`_as_array` of a 2-d ``a`` (of ``shape``)."""
    return _as_array(a, name, shape or (None, None))


def _as_square(a, name="matrix", n=None):
    """:func:`_as_matrix` of a square ``a`` (n x n when ``n`` is given)."""
    arr = _as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if n is not None:
        _require_shape(arr, (n, n), name)
    return arr


def is_symmetric(a):
    """The package's symmetry test: square, max|a - a^T| <= PSD_TOL * max(max|a|, 1)."""
    a = np.asarray(a, dtype=float)
    return a.shape[0] == a.shape[1] and bool(
        np.abs(a - a.T).max() <= PSD_TOL * max(np.abs(a).max(), 1.0))


def _as_symmetric(m, name, n=None):
    """The symmetric part of :func:`_as_square` of ``m``; ConditionError unless
    ``m`` is symmetric."""
    m = _as_square(m, name, n)
    if not is_symmetric(m):
        raise ConditionError(f"{name} must be symmetric",
                             conditions=[ConditionCheck(f"{name} symmetric", False)])
    return symmetrize(m)


def _require_psd(m, name, w=None):
    w = np.linalg.eigvalsh(symmetrize(m)) if w is None else w    # ascending eigenvalues
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -PSD_TOL * scale:
        raise ConditionError(
            f"{name} must be positive semidefinite (min eigenvalue {w[0]:.3e})",
            conditions=[ConditionCheck(f"{name} >= 0", False, f"min eigenvalue {w[0]:.3e}")],
        )


def _require_pd(m, name):
    w = np.linalg.eigvalsh(m)
    if w[0] <= PSD_TOL * max(abs(w[-1]), 1.0):
        raise ConditionError(f"{name} must be positive definite",
                             conditions=[ConditionCheck(f"{name} > 0", False)])


def _fro(m):
    """Frobenius norm of a real matrix, by BLAS ``dnrm2``: it scales as it sums,
    so entries near the largest double do not overflow."""
    return dnrm2(m.ravel())


def _difference(first, second, name):
    """symmetrize(first - second), refused (AccuracyError) when it cancels
    beyond CANCELLATION_LIMIT."""
    out = symmetrize(first - second)
    ratio = max(_fro(first), _fro(second)) / max(_fro(out), 1e-300)
    if ratio > CANCELLATION_LIMIT:
        raise AccuracyError(
            f"finite-horizon identity for {name} cancels: its terms are {ratio:.3g} times "
            f"the result (limit {CANCELLATION_LIMIT:g})"
        )
    return out


def symmetrize(a):
    """Return the symmetric part (a + a^T) / 2, halved before it is summed so
    that entries near the largest double do not overflow."""
    return 0.5 * a + 0.5 * a.T


def mat_exp(a, t=1.0):
    """Matrix exponential e^{A t}.

    Uses scaling-and-squaring with a diagonal Pade approximant (via
    ``scipy.linalg.expm``).  Exact identity for ``t == 0``.
    """
    a = _as_square(a, "A")
    t = _real_number("t", t)
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
    is computed on first access, so a caller that only reads ``is_stable``
    never builds the n x n pair matrix; nor does ``is_sylvester`` on a stable
    spectrum whose margin alone rules every pair out.

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

    @cached_property
    def is_sylvester(self):
        lam, tol = self.eigenvalues, self.tolerance_used
        # every pair of a stable spectrum has |lam_i + lam_j| >= 2 min |Re lam|,
        # and its threshold is at most tol * (1 + 2 max |lam|)
        if self.is_stable and -2.0 * lam.real.max() > tol * (1.0 + 2.0 * np.abs(lam).max()):
            return True
        return not self.degenerate_pairs


def _classify(lam, tol):
    """SpectrumReport of the eigenvalues ``lam``."""
    return SpectrumReport(eigenvalues=lam, is_stable=bool((lam.real < -tol).all()),
                          tolerance_used=tol)


def classify_spectrum(a):
    """Classify the spectrum of ``a`` at ``DEFAULT_SPECTRAL_TOL``."""
    a = _as_square(a, "A")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue computation failed for {a.shape} matrix: {exc}")
    return _classify(lam, DEFAULT_SPECTRAL_TOL)


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


class _Shifted(NamedTuple):
    """What every use of A + s I needs, built once per shift s."""

    report: SpectrumReport
    t_s: np.ndarray          # T + s I
    t_s_norm: float          # ||T + s I||_F = ||A + s I||_F


class DriftFactor:
    """Real Schur form A = U T U^T of a drift, shared by all its shifted Lyapunov solves.

    ``A + s I = U (T + s I) U^T`` for every shift s, so each equation
    ``(A + s I) X + X (A + s I)^T + W = 0`` and its transpose
    ``(A + s I)^T Y + Y (A + s I) + W = 0`` is, in the basis U, one
    quasi-triangular Sylvester solve (LAPACK ``dtrsyl``) on T + s I; the
    eigenvalues are read off the diagonal blocks of T.

    The factor is tested once, when it is built: ||A - U T U^T||_F must not
    exceed ``DEFAULT_RESIDUAL_RTOL * ||A||_F``.  After that every solve is
    checked in Schur coordinates, where U being orthogonal leaves the
    Frobenius norms, and so the residual test, as they are in A's basis.

    Every :class:`~lqgcost.systems.LtiSystem` owns the factor of its drift
    (``sys.factor``), built the first time it is read, so each route, alpha
    and horizon evaluated on that system reads one factorization.

    :meth:`solve` is the validated boundary of :func:`solve_lyapunov` and
    :func:`solve_lyapunov_transposed`: it checks W, maps it into the basis
    (U^T W U), solves there and maps X back out (U Z U^T).  Callers that keep
    their whole computation in the basis -- every evaluation of
    :mod:`lqgcost.cost_lyap`, at a finite or the infinite horizon, and the
    tuner's gradient -- map their inputs in once and call :meth:`_solve_schur`
    directly, which skips W's validation and the two mappings but keeps the
    Sylvester refusal and the residual test.

    Each shift's :class:`SpectrumReport` (at ``DEFAULT_SPECTRAL_TOL``,
    degenerate pairs included), T + s I and ||T + s I||_F are built the first
    time :meth:`spectrum`, :meth:`solve` or :meth:`_solve_schur` asks for that
    shift and kept with the factor, up to the last ``SHIFTS_KEPT`` shifts, so
    checking a shift and then solving on it classifies it once, and so do
    later evaluations of the same system at that shift.
    """

    def __init__(self, a):
        self.a = _as_square(a, "A")
        try:
            self.t, self.u = schur(self.a, output="real", check_finite=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise NumericalError(f"Schur factorization failed for {self.a.shape} matrix: {exc}")
        residual = _fro(self.a - self.u @ self.t @ self.u.T)
        bound = _fro(self.a)
        if residual > DEFAULT_RESIDUAL_RTOL * bound:
            raise NumericalError(
                f"Schur factor residual {residual:.3e} exceeds "
                f"{DEFAULT_RESIDUAL_RTOL:.1e} * {bound:.3e}"
            )
        self.eigenvalues = _schur_eigenvalues(self.t)
        self._shifted = {}

    def _at(self, shift):
        data = self._shifted.get(shift)
        if data is None:
            t_s = self.t + shift * np.eye(len(self.t))
            data = self._shifted[shift] = _Shifted(
                _classify(self.eigenvalues + shift, DEFAULT_SPECTRAL_TOL), t_s, _fro(t_s))
            # trimmed after every insert, so racing inserts cannot outgrow the bound
            for old in list(self._shifted)[:-SHIFTS_KEPT]:
                self._shifted.pop(old, None)
        return data

    def spectrum(self, shift=0.0):
        """SpectrumReport of A + shift * I."""
        return self._at(shift).report

    def _solve_schur(self, w, shift=0.0, transposed=False, symmetric=True):
        """Solve T_s Z + Z T_s^T + W = 0, or with ``transposed``
        T_s^T Z + Z T_s + W = 0, for T_s = T + ``shift`` I and a W already in
        the Schur basis; W is not validated.  A ``symmetric`` W has a
        symmetric Z, returned as the symmetric part of the computed one.

        Refuses a shift whose eigenvalues pair up to (nearly) zero, and a Z
        with ||residual||_F > DEFAULT_RESIDUAL_RTOL * (||T_s||_F ||Z||_F + ||W||_F).
        """
        report, t_s, t_s_norm = self._at(shift)
        if not report.is_sylvester:
            i, j = report.degenerate_pairs[0]
            lam = report.eigenvalues
            raise SingularLyapunovError(
                f"lyapunov solve: no unique solution, eigenvalues lambda[{i}] = {lam[i]:.6g} "
                f"and lambda[{j}] = {lam[j]:.6g} sum to (nearly) zero",
                conditions=[ConditionCheck("lyapunov solve", False)],
            )
        z, scale, info = dtrsyl(t_s, t_s, -w, trana="T" if transposed else "N",
                                tranb="N" if transposed else "T")
        if info != 0:
            raise SingularLyapunovError(
                f"lyapunov solve: quasi-triangular Sylvester solve failed (info = {info})",
                conditions=[ConditionCheck("lyapunov solve", False)],
            )
        z = z / scale
        if transposed:
            t_s = t_s.T
        if symmetric:
            # Z is exactly symmetric, so Z T_s^T = (T_s Z)^T
            z = symmetrize(z)
            r = t_s @ z
            residual = _fro(r + r.T + w)
        else:
            residual = _fro(t_s @ z + z @ t_s.T + w)
        bound = t_s_norm * _fro(z) + _fro(w)
        if residual > DEFAULT_RESIDUAL_RTOL * max(bound, 1e-300):
            raise NumericalError(
                f"lyapunov solution residual {residual:.3e} exceeds "
                f"{DEFAULT_RESIDUAL_RTOL:.1e} * {bound:.3e}; "
                "the equation is too ill-conditioned for the dense solver"
            )
        return z

    def solve(self, w, shift=0.0, transposed=False):
        """Solve (A+sI) X + X (A+sI)^T + W = 0, or with ``transposed`` the
        equation (A+sI)^T Y + Y (A+sI) + W = 0, for s = ``shift``.

        Checks and errors as :func:`solve_lyapunov`.
        """
        w = _as_square(w, "Q", len(self.a))
        u = self.u
        z = self._solve_schur(u.T @ w @ u, shift, transposed, symmetric=False)
        x = u @ z @ u.T
        # the solution of a symmetric equation is symmetric; here its symmetric
        # part is taken in A's basis
        return symmetrize(x) if is_symmetric(w) else x


def solve_lyapunov(a, q):
    """Solve A X + X A^T + Q = 0 for X.

    Parameters
    ----------
    a, q : array_like, square, same size
        Coefficient and constant matrices.

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
        If the Schur factor or the solution fails its residual test, which
        asks ``||A X + X A^T + Q||_F <= DEFAULT_RESIDUAL_RTOL * (||A||_F ||X||_F + ||Q||_F)``.

    Notes
    -----
    Bartels-Stewart: the real Schur form A = U T U^T turns the equation into
    T Z + Z T^T = -U^T Q U with X = U Z U^T, solved by back-substitution over
    the quasi-triangular T (LAPACK ``dtrsyl``).  O(n^3) in time and O(n^2)
    in memory.  The residual tested is that of Z on T: U is orthogonal, so
    its norms equal those of X on A once the factor itself has passed
    ||A - U T U^T||_F <= DEFAULT_RESIDUAL_RTOL * ||A||_F.  The Schur factor
    depends only on A, and A + s I has the factor U (T + s I) U^T, so callers
    that need several shifts or the transposed equation of one drift should
    factor it once with :class:`DriftFactor` (a system's ``factor``) and call
    :meth:`DriftFactor.solve`.

    References: R. H. Bartels and G. W. Stewart, "Solution of the matrix
    equation AX + XB = C", Comm. ACM 15(9), 1972; G. H. Golub, S. Nash and
    C. Van Loan, "A Hessenberg-Schur method for the problem AX + XB = C",
    IEEE Trans. Automat. Control 24(6), 1979.
    """
    return DriftFactor(a).solve(q)


def solve_lyapunov_transposed(a, q):
    """Solve A^T X + X A + Q = 0 for X (the transposed companion equation)."""
    return DriftFactor(a).solve(q, transposed=True)


def van_loan_integral(a1, q, a2, horizon):
    """Integral of e^{A1 (T-t)} Q e^{A2 t} over [0, T], quadrature-free.

    Computed exactly as the upper-right block of
    ``expm([[A1, Q], [0, A2]] * T)``; no spectral conditions on A1 or A2.
    """
    a1 = _as_square(a1, "A1")
    a2 = _as_square(a2, "A2")
    n1, n2 = a1.shape[0], a2.shape[0]
    q = _as_matrix(q, "Q", (n1, n2))
    horizon = _real_number("horizon", horizon, 0.0)
    if horizon == 0.0:
        return np.zeros((n1, n2))
    block = np.zeros((n1 + n2, n1 + n2))
    block[:n1, :n1] = a1
    block[:n1, n1:] = q
    block[n1:, n1:] = a2
    return expm(block * horizon)[:n1, n1:]


def psd_factor(m):
    """Factor L with L L^T = M for a symmetric positive semidefinite M.

    M passes the checks :class:`~lqgcost.systems.LtiSystem` makes on V and
    Sigma0 - mu0 mu0^T, or ConditionError is raised; the negative eigenvalues
    they admit are clamped to zero.  Uses the symmetric eigendecomposition,
    robust for singular M where a Cholesky factorization would fail.
    """
    m = _as_symmetric(m, "M")
    w, u = np.linalg.eigh(m)
    _require_psd(m, "M", w)
    return u * np.sqrt(np.clip(w, 0.0, None))
