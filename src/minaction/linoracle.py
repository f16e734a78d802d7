"""Closed-form ground truth for symmetric linear drift b(x) = A x.

Diagonalizing A = Q diag(lambda) Q^T decouples the stationarity system of the
fixed-horizon problem into scalar two-point boundary value problems
c'' = (mu T)^2 c with mu = |lambda|, solved by sinh ratios.  This module
provides the spectral problem container, the matrix exponential, exact
fixed-horizon minimizers and action values, and dense flow-trajectory
polylines - the reference data for the convergence studies.

There is one decomposition, ``_spectrum``: it raises ``ValueError`` for a
non-finite, non-square or nonsymmetric A and for an eigendecomposition that
does not reconstruct A (tolerances 1e-10 * max(1, max|A_ij|)).

sinh/cosh ratios are evaluated in exp-difference form so horizons with
mu*T > 700 do not overflow (the stiff, boundary-layer regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pathcore import Polyline, _count_at_least, _finite_positive, _is_real

__all__ = [
    "SpectralLinearProblem",
    "matrix_exp_apply",
    "exact_fixed_T_minimizer",
    "exact_fixed_T_minimizer_deriv",
    "exact_fixed_T_action",
    "trajectory_times_points",
    "trajectory_polyline",
]

_MATRIX_TOL = 1e-10
_TINY_RATE = 1e-12
_DECAYED = 1e-10


class _SamplingError(ValueError):
    """A sampling input the oracle cannot use; the message starts with the input's name."""


def _spectrum(matrix):
    """Checked eigendecomposition (A, eigenvalues, eigenvectors) of a symmetric A."""
    a_mat = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(a_mat)):
        raise ValueError("matrix must be finite")
    if a_mat.ndim != 2 or a_mat.shape[0] != a_mat.shape[1]:
        raise ValueError("matrix must be square")
    tol = _MATRIX_TOL * max(1.0, float(np.max(np.abs(a_mat))))
    if float(np.max(np.abs(a_mat - a_mat.T))) > tol:
        raise ValueError("matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(a_mat)
    if float(np.max(np.abs(eigvecs @ np.diag(eigvals) @ eigvecs.T - a_mat))) > tol:
        raise ValueError("eigendecomposition failed to reconstruct the matrix")
    return a_mat, eigvals, eigvecs


def _flow(eigvals, eigvecs, x, times) -> np.ndarray:
    """Rows e^{tA} x for t in ``times``; a t = 0 row is x itself."""
    times = np.asarray(times, dtype=float)
    scaled = np.exp(times[:, None] * eigvals) * (eigvecs.T @ x)
    # a stack of m matrix-vector products has the bits of ``eigvecs @ row`` for
    # each row; the (m, n) @ (n, n) product ``scaled @ eigvecs.T`` moves last bits
    pts = np.matmul(eigvecs[None], scaled[:, :, None])[:, :, 0]
    pts[times == 0.0] = x
    return pts


def _finite_flow(eigvals, eigvecs, x, times) -> np.ndarray:
    """``_flow`` rows, raising ``ValueError`` instead of returning overflowed ones."""
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _flow(eigvals, eigvecs, x, times)
    if not np.all(np.isfinite(pts)):
        raise ValueError("e^{tA} x overflows at this horizon")
    return pts


@dataclass(frozen=True)
class SpectralLinearProblem:
    """Symmetric linear transition problem with its eigendecomposition.

    ``matrix`` is the signed drift matrix (b(x) = matrix @ x); a stable
    problem has negative eigenvalues.  ``T`` is the fixed horizon, a finite
    positive number stored as a float.
    """

    matrix: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    T: float

    def __post_init__(self):
        a_mat, eigvals, eigvecs = _spectrum(self.matrix)
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(self.x2, dtype=float))
        if x1.shape != (a_mat.shape[0],) or x2.shape != (a_mat.shape[0],):
            raise ValueError("endpoints must match the matrix dimension")
        object.__setattr__(self, "T", _finite_positive(self.T, "T"))
        for name, arr in (("matrix", a_mat), ("x1", x1), ("x2", x2),
                          ("eigenvalues", eigvals), ("eigenvectors", eigvecs)):
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def matrix_exp_apply(matrix, t: float, x) -> np.ndarray:
    """e^{tA} x for symmetric A, via the spectral decomposition.

    ``t`` is any finite real number other than a bool: t = 0 returns x and a
    negative t runs the flow backwards.  Raises ``ValueError`` for another
    ``t`` and when the result overflows.
    """
    if not _is_real(t) or not math.isfinite(t):
        raise ValueError("t must be a finite number")
    _, eigvals, eigvecs = _spectrum(matrix)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (eigvals.size,):
        raise ValueError("vector must match the matrix dimension")
    return _finite_flow(eigvals, eigvecs, x, [t])[0]


def _sinh_ratio(a: np.ndarray, b: float) -> np.ndarray:
    """sinh(a)/sinh(b) for 0 <= a <= b, overflow-free for large b."""
    a = np.asarray(a, dtype=float)
    return np.exp(a - b) * np.expm1(-2.0 * a) / math.expm1(-2.0 * b)


def _cosh_over_sinh(a: np.ndarray, b: float) -> np.ndarray:
    """cosh(a)/sinh(b) for 0 <= a <= b, overflow-free for large b."""
    a = np.asarray(a, dtype=float)
    return -np.exp(a - b) * (1.0 + np.exp(-2.0 * a)) / math.expm1(-2.0 * b)


def _overflow_error(prob: SpectralLinearProblem, y1, y2, what: str) -> ValueError:
    """The ``ValueError`` for a closed form ``what`` that is not finite, naming the input to blame.

    An endpoint whose squared norm overflows is named first; otherwise the
    horizon is, since at a fixed matrix and endpoints only a tiny or huge T
    takes the sinh ratios and the 1/T terms out of range.
    """
    with np.errstate(over="ignore"):
        for name, y in (("x1", y1), ("x2", y2)):
            if not np.isfinite(y.dot(y)):
                return ValueError(f"{name} is too large for a finite {what}")
    return ValueError(f"T = {prob.T!r} is out of range for a finite {what}")


def _exact(prob: SpectralLinearProblem, s, deriv: bool) -> np.ndarray:
    """Exact minimizer, or its s-derivative when ``deriv``, at scaled time(s) s in [0, 1].

    Raises ``ValueError`` naming T, x1 or x2 when a value is not finite.
    """
    T = prob.T
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s_arr >= 0.0) & (s_arr <= 1.0)):
        raise ValueError("scaled time s must be finite and in [0, 1]")
    ratio, sign = (_cosh_over_sinh, -1.0) if deriv else (_sinh_ratio, 1.0)
    coords = np.empty((s_arr.size, prob.dim))
    # checked once the values are made, so a finite result keeps its bits
    with np.errstate(over="ignore", invalid="ignore"):
        y1, y2 = prob.eigenvectors.T @ prob.x1, prob.eigenvectors.T @ prob.x2
        for i, lam in enumerate(prob.eigenvalues):
            b = abs(float(lam)) * T
            if b < _TINY_RATE:
                coords[:, i] = y2[i] - y1[i] if deriv else y1[i] * (1.0 - s_arr) + y2[i] * s_arr
            else:
                blend = sign * y1[i] * ratio(b * (1.0 - s_arr), b) + y2[i] * ratio(b * s_arr, b)
                coords[:, i] = b * blend if deriv else blend
        out = coords @ prob.eigenvectors.T
    if not np.all(np.isfinite(out)):
        raise _overflow_error(prob, y1, y2, "exact minimizer derivative" if deriv else "exact minimizer")
    return out[0] if np.isscalar(s) or np.ndim(s) == 0 else out


def exact_fixed_T_minimizer(prob: SpectralLinearProblem, s) -> np.ndarray:
    """Exact fixed-horizon minimizer sampled at scaled time(s) s in [0, 1].

    Per eigencomponent with rate magnitude mu = |lambda|:
    c(s) = y1 sinh(mu T (1-s))/sinh(mu T) + y2 sinh(mu T s)/sinh(mu T),
    degenerating to the straight line when mu = 0.  Returns shape (n,) for a
    scalar s, (m, n) for an array.
    """
    return _exact(prob, s, deriv=False)


def exact_fixed_T_minimizer_deriv(prob: SpectralLinearProblem, s) -> np.ndarray:
    """d/ds of the exact fixed-horizon minimizer at scaled time(s) s."""
    return _exact(prob, s, deriv=True)


def _coth(b: float) -> float:
    return -(1.0 + math.exp(-2.0 * b)) / math.expm1(-2.0 * b)


def _csch(b: float) -> float:
    return -2.0 * math.exp(-b) / math.expm1(-2.0 * b)


def exact_fixed_T_action(prob: SpectralLinearProblem) -> float:
    """Exact fixed-horizon action value at the exact minimizer.

    Integrating |c' - lambda c|^2 along the sinh solution reduces, via
    integration by parts against the stationarity equation, to boundary
    terms: per component

    S_i = (mu/2) [ (y1^2 + y2^2) coth(mu T) - 2 y1 y2 / sinh(mu T) ]
          - (lambda/2) (y2^2 - y1^2),

    with limit (y2 - y1)^2 / (2 T) when mu = 0.  Raises ``ValueError``
    naming T, x1 or x2 when the value is not finite.
    """
    T = prob.T
    total = 0.0
    # checked once the sum is made, so a finite value keeps its bits
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y1, y2 = prob.eigenvectors.T @ prob.x1, prob.eigenvectors.T @ prob.x2
        for i, lam in enumerate(prob.eigenvalues):
            lam = float(lam)
            mu = abs(lam)
            if mu * T < _TINY_RATE:
                total += (y2[i] - y1[i]) ** 2 / (2.0 * T)
                continue
            b = mu * T
            boundary = (y1[i] ** 2 + y2[i] ** 2) * _coth(b) - 2.0 * y1[i] * y2[i] * _csch(b)
            total += 0.5 * mu * boundary - 0.5 * lam * (y2[i] ** 2 - y1[i] ** 2)
    if not math.isfinite(total):
        raise _overflow_error(prob, y1, y2, "exact action")
    return float(total)


def trajectory_times_points(matrix, x, t_end: float, samples: int):
    """Times and points of the flow trajectory e^{tA} x on log-spaced times.

    The first sample is t = 0 (point x); the remaining times are
    geometrically spaced up to the horizon so the fast initial transient is
    densely sampled.  With ``t_end = inf`` the horizon is extended until
    |e^{tA} x| < 1e-10 and the equilibrium 0 is appended as a final row (its
    time entry is inf).  The infinite horizon is rejected when x has a part
    of norm >= 1e-10 on eigenvalues >= 0, which never decays, and when the
    norm overflows before it falls below 1e-10; a finite horizon is rejected
    when a sample overflows or t_end * 1e-4 underflows to 0.  That t_end,
    a t_end that is not a real number above 0 (or is a bool), and a sample
    count numpy cannot make an array of, raise a ``ValueError`` whose
    message starts with ``t_end`` or ``samples``.
    """
    samples = _count_at_least(samples, "samples", 2)
    _, eigvals, eigvecs = _spectrum(matrix)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    if not _is_real(t_end) or not t_end > 0.0:
        raise ValueError("t_end must be positive or inf")
    infinite = t_end == math.inf
    if infinite:
        if np.linalg.norm((eigvecs.T @ x)[eigvals >= 0.0]) >= _DECAYED:
            raise ValueError("trajectory does not decay; infinite horizon invalid")
        t_hi = 1.0
        # a part below 1e-10 on an eigenvalue > 0 grows until e^{tA} x overflows
        with np.errstate(over="ignore", invalid="ignore"):
            while not (norm := np.linalg.norm(_flow(eigvals, eigvecs, x, [t_hi])[0])) < _DECAYED:
                t_hi *= 2.0
                if not np.isfinite(norm) or t_hi > 1e9:
                    raise ValueError("trajectory does not decay; infinite horizon invalid")
    else:
        t_hi = _finite_positive(t_end, "t_end")  # an int past the float range has no float

    if samples == 2:
        times = np.array([0.0, t_hi])
    else:
        t_lo = t_hi * 1e-4
        if t_lo == 0.0:  # geomspace's own error would read as a sizing failure below
            raise _SamplingError(f"t_end = {t_hi!r} is too small for log-spaced samples")
        try:
            grid = np.geomspace(t_lo, t_hi, samples - 1)
        except (ValueError, IndexError, MemoryError) as err:  # samples - 1 times numpy cannot hold
            raise _SamplingError(f"samples is too large for a time array: {err}") from err
        times = np.concatenate([[0.0], grid])
    pts = _finite_flow(eigvals, eigvecs, x, times)
    if infinite:
        times = np.concatenate([times, [math.inf]])
        pts = np.vstack([pts, np.zeros(x.size)])
    return times, pts


def trajectory_polyline(matrix, x, t_end: float, samples: int) -> Polyline:
    """Flow trajectory e^{tA} x as a polyline (see trajectory_times_points)."""
    _, pts = trajectory_times_points(matrix, x, t_end, samples)
    return Polyline(pts)
