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
from typing import Optional

import numpy as np

from .pathcore import Polyline

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
    # one product per row: a single stacked (m, n) @ (n, n) product moves last bits
    return np.array([x if t == 0.0 else eigvecs @ row for t, row in zip(times, scaled)])


@dataclass(frozen=True)
class SpectralLinearProblem:
    """Symmetric linear transition problem with its eigendecomposition.

    ``matrix`` is the signed drift matrix (b(x) = matrix @ x); a stable
    problem has negative eigenvalues.  ``T`` is the fixed horizon, optional
    because the trajectory helpers do not need one.
    """

    matrix: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    T: Optional[float] = None

    def __post_init__(self):
        a_mat, eigvals, eigvecs = _spectrum(self.matrix)
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(self.x2, dtype=float))
        if x1.shape != (a_mat.shape[0],) or x2.shape != (a_mat.shape[0],):
            raise ValueError("endpoints must match the matrix dimension")
        if self.T is not None and not self.T > 0.0:
            raise ValueError("T must be positive when given")
        for name, arr in (("matrix", a_mat), ("x1", x1), ("x2", x2),
                          ("eigenvalues", eigvals), ("eigenvectors", eigvecs)):
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _require_T(self) -> float:
        if self.T is None:
            raise ValueError("this operation needs the fixed horizon T")
        return float(self.T)


def matrix_exp_apply(matrix, t: float, x) -> np.ndarray:
    """e^{tA} x for symmetric A, via the spectral decomposition."""
    _, eigvals, eigvecs = _spectrum(matrix)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (eigvals.size,):
        raise ValueError("vector must match the matrix dimension")
    return _flow(eigvals, eigvecs, x, [t])[0]


def _sinh_ratio(a: np.ndarray, b: float) -> np.ndarray:
    """sinh(a)/sinh(b) for 0 <= a <= b, overflow-free for large b."""
    a = np.asarray(a, dtype=float)
    return np.exp(a - b) * np.expm1(-2.0 * a) / math.expm1(-2.0 * b)


def _cosh_over_sinh(a: np.ndarray, b: float) -> np.ndarray:
    """cosh(a)/sinh(b) for 0 <= a <= b, overflow-free for large b."""
    a = np.asarray(a, dtype=float)
    return -np.exp(a - b) * (1.0 + np.exp(-2.0 * a)) / math.expm1(-2.0 * b)


def _exact(prob: SpectralLinearProblem, s, deriv: bool) -> np.ndarray:
    """Exact minimizer, or its s-derivative when ``deriv``, at scaled time(s) s."""
    T = prob._require_T()
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    y1, y2 = prob.eigenvectors.T @ prob.x1, prob.eigenvectors.T @ prob.x2
    ratio, sign = (_cosh_over_sinh, -1.0) if deriv else (_sinh_ratio, 1.0)
    coords = np.empty((s_arr.size, prob.dim))
    for i, lam in enumerate(prob.eigenvalues):
        b = abs(float(lam)) * T
        if b < _TINY_RATE:
            coords[:, i] = y2[i] - y1[i] if deriv else y1[i] * (1.0 - s_arr) + y2[i] * s_arr
        else:
            blend = sign * y1[i] * ratio(b * (1.0 - s_arr), b) + y2[i] * ratio(b * s_arr, b)
            coords[:, i] = b * blend if deriv else blend
    out = coords @ prob.eigenvectors.T
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

    with limit (y2 - y1)^2 / (2 T) when mu = 0.
    """
    T = prob._require_T()
    y1, y2 = prob.eigenvectors.T @ prob.x1, prob.eigenvectors.T @ prob.x2
    total = 0.0
    for i, lam in enumerate(prob.eigenvalues):
        lam = float(lam)
        mu = abs(lam)
        if mu * T < _TINY_RATE:
            total += (y2[i] - y1[i]) ** 2 / (2.0 * T)
            continue
        b = mu * T
        boundary = (y1[i] ** 2 + y2[i] ** 2) * _coth(b) - 2.0 * y1[i] * y2[i] * _csch(b)
        total += 0.5 * mu * boundary - 0.5 * lam * (y2[i] ** 2 - y1[i] ** 2)
    return float(total)


def trajectory_times_points(matrix, x, t_end: float, samples: int):
    """Times and points of the flow trajectory e^{tA} x on log-spaced times.

    The first sample is t = 0 (point x); the remaining times are
    geometrically spaced up to the horizon so the fast initial transient is
    densely sampled.  With ``t_end = inf`` the horizon is extended until
    |e^{tA} x| < 1e-10 and the equilibrium 0 is appended as a final row (its
    time entry is inf).  The infinite horizon is rejected when x has a part
    of norm >= 1e-10 on eigenvalues >= 0, which never decays.
    """
    if samples < 2:
        raise ValueError("at least two samples required")
    _, eigvals, eigvecs = _spectrum(matrix)
    x = np.atleast_1d(np.asarray(x, dtype=float))

    infinite = t_end == math.inf
    if infinite:
        if np.linalg.norm((eigvecs.T @ x)[eigvals >= 0.0]) >= _DECAYED:
            raise ValueError("trajectory does not decay; infinite horizon invalid")
        t_hi = 1.0
        # "not <" also keeps doubling past a NaN norm from an overflowed e^{tA}
        while not np.linalg.norm(_flow(eigvals, eigvecs, x, [t_hi])[0]) < _DECAYED:
            t_hi *= 2.0
            if t_hi > 1e9:
                raise ValueError("trajectory does not decay; infinite horizon invalid")
    else:
        if not t_end > 0.0:
            raise ValueError("t_end must be positive or inf")
        t_hi = float(t_end)

    if samples == 2:
        times = np.array([0.0, t_hi])
    else:
        times = np.concatenate([[0.0], np.geomspace(t_hi * 1e-4, t_hi, samples - 1)])
    pts = _flow(eigvals, eigvecs, x, times)
    if infinite:
        times = np.concatenate([times, [math.inf]])
        pts = np.vstack([pts, np.zeros(x.size)])
    return times, pts


def trajectory_polyline(matrix, x, t_end: float, samples: int) -> Polyline:
    """Flow trajectory e^{tA} x as a polyline (see trajectory_times_points)."""
    _, pts = trajectory_times_points(matrix, x, t_end, samples)
    return Polyline(pts)
