"""Drift vector fields b(x) with Jacobian access and confinement metadata.

Every field carries an exact or finite-difference Jacobian so the variational
layer can always assemble gradients and Euler-Lagrange residuals.  Built-in
constructors cover general linear drift, a two-time-scale 2-D symmetric linear
benchmark, and the Maier-Stein non-gradient benchmark.  Fields are immutable
and reentrant; evaluation is vectorized over batches of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DriftField",
    "InwardReport",
    "linear_field",
    "two_scale_field",
    "maier_stein_field",
    "field_from_callable",
    "field_from_config",
    "check_inward_condition",
]

FD_JACOBIAN_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class DriftField:
    """Vector field b: R^n -> R^n with Jacobian db_i/dx_j.

    Metadata (all optional): ``lipschitz`` is a Lipschitz constant K,
    ``beta``/``r2`` parametrize the inward-drift condition
    <b(x), x> <= -beta |x|^2 for |x| >= r2, and ``linear_matrix`` carries A
    when b(x) = A x exactly.
    """

    dim: int
    _eval_many: Callable[[np.ndarray], np.ndarray]
    _jac_many: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    beta: Optional[float] = None
    r2: Optional[float] = None
    linear_matrix: Optional[np.ndarray] = None
    jacobian_fd: bool = False

    def __call__(self, x) -> np.ndarray:
        """b(x) at a single point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._eval_many(x[None, :])[0]

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """b at a batch of points, shape (m, n) -> (m, n)."""
        return self._eval_many(np.asarray(pts, dtype=float))

    def jacobian(self, x) -> np.ndarray:
        """Jacobian matrix at a single point, entry (i, j) = db_i/dx_j."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._jac_many(x[None, :])[0]

    def jacobian_many(self, pts: np.ndarray) -> np.ndarray:
        """Jacobians at a batch of points, shape (m, n) -> (m, n, n)."""
        return self._jac_many(np.asarray(pts, dtype=float))


@dataclass(frozen=True)
class InwardReport:
    """Outcome of a sampled inward-drift check."""

    ok: bool
    checked: int
    worst_margin: float
    first_violation: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.ok


def linear_field(matrix, beta: Optional[float] = None, r2: Optional[float] = None) -> DriftField:
    """Linear drift b(x) = A x for a square matrix A of either sign convention.

    The Lipschitz constant is recorded as the spectral norm of A.
    """
    a_mat = np.asarray(matrix, dtype=float)
    if a_mat.ndim != 2 or a_mat.shape[0] != a_mat.shape[1]:
        raise ValueError("drift matrix must be square")
    if not np.all(np.isfinite(a_mat)):
        raise ValueError("drift matrix must be finite")
    a_mat = a_mat.copy()
    a_mat.flags.writeable = False
    n = a_mat.shape[0]

    def eval_many(pts):
        return pts @ a_mat.T

    def jac_many(pts):
        return np.broadcast_to(a_mat, (pts.shape[0], n, n))

    return DriftField(
        dim=n,
        _eval_many=eval_many,
        _jac_many=jac_many,
        lipschitz=float(np.linalg.norm(a_mat, 2)),
        beta=beta,
        r2=r2,
        linear_matrix=a_mat,
    )


def two_scale_field() -> DriftField:
    """Symmetric 2-D linear benchmark with well-separated stable rates.

    b(x) = A x with A = [[-26/9, 16*sqrt(2)/9], [16*sqrt(2)/9, -82/9]]:
    orthogonally diagonalizable with direction cosines (1/3, sqrt(8)/3),
    eigenvalues -10 and -2 (eigenvectors (a, -b) and (b, a)), giving a stable
    node at the origin with a 5:1 time-scale split.
    """
    a, b = 1.0 / 3.0, np.sqrt(8.0) / 3.0
    rot = np.array([[a, b], [-b, a]])
    matrix = rot @ np.diag([-10.0, -2.0]) @ rot.T
    return linear_field(matrix, beta=2.0, r2=1.0)


def maier_stein_field(gamma: float = 10.0) -> DriftField:
    """Maier-Stein non-gradient benchmark on R^2.

    b1 = u - u^3 - gamma*u*v^2, b2 = -(1 + u^2)*v.  Equilibria at (0, 0) and
    (+-1, 0); the field is not a gradient for gamma != 1.
    """
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")

    def eval_many(pts):
        u, v = pts[:, 0], pts[:, 1]
        out = np.empty_like(pts)
        out[:, 0] = u - u**3 - gamma * u * v**2
        out[:, 1] = -(1.0 + u**2) * v
        return out

    def jac_many(pts):
        u, v = pts[:, 0], pts[:, 1]
        jac = np.empty((pts.shape[0], 2, 2))
        jac[:, 0, 0] = 1.0 - 3.0 * u**2 - gamma * v**2
        jac[:, 0, 1] = -2.0 * gamma * u * v
        jac[:, 1, 0] = -2.0 * u * v
        jac[:, 1, 1] = -(1.0 + u**2)
        return jac

    return DriftField(dim=2, _eval_many=eval_many, _jac_many=jac_many, beta=1.0, r2=1.5)


def _fd_jacobian_many(func: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    m, n = pts.shape
    jac = np.empty((m, n, n))
    scale = FD_JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(pts, axis=1))
    for j in range(n):
        shift = np.zeros((m, n))
        shift[:, j] = scale
        jac[:, :, j] = (func(pts + shift) - func(pts - shift)) / (2.0 * scale)[:, None]
    return jac


def field_from_callable(
    dim: int,
    func: Callable[[np.ndarray], np.ndarray],
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    **metadata,
) -> DriftField:
    """Wrap a pointwise drift function; missing Jacobians fall back to
    central finite differences with step 1e-6 * max(1, |x|), flagged as
    approximate.

    ``func`` maps a single point to a single vector; batching is added here.
    """

    def eval_many(pts):
        return np.stack([np.asarray(func(p), dtype=float) for p in pts])

    if jac is None:
        jac_many = lambda pts: _fd_jacobian_many(eval_many, pts)
        fd = True
    else:
        jac_many = lambda pts: np.stack([np.asarray(jac(p), dtype=float) for p in pts])
        fd = False
    return DriftField(dim=dim, _eval_many=eval_many, _jac_many=jac_many, jacobian_fd=fd, **metadata)


def check_inward_condition(field: DriftField, samples: int, radius: float) -> InwardReport:
    """Sampled check of <b(x), x> <= -beta |x|^2 on the shell r2 <= |x| <= radius.

    Directions and radii come from a fixed-seed generator so repeated runs
    are deterministic.  Reports the first violating point, if any, together
    with the worst margin <b(x), x> + beta |x|^2 seen (<= 0 means satisfied).
    """
    if field.beta is None or field.r2 is None:
        raise ValueError("field is missing beta/r2 metadata for the inward check")
    if samples < 1:
        raise ValueError("at least one sample required")
    if radius < field.r2:
        raise ValueError("radius must be >= the field's r2")
    rng = np.random.default_rng(20210317)
    dirs = rng.standard_normal((samples, field.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = field.r2 + (radius - field.r2) * rng.random(samples)
    pts = dirs * radii[:, None]
    vals = field.eval_many(pts)
    margins = np.einsum("ij,ij->i", vals, pts) + field.beta * radii**2
    tol = 1e-12 * np.maximum(1.0, radii**2)
    bad = np.nonzero(margins > tol)[0]
    worst = float(np.max(margins))
    if bad.size:
        return InwardReport(False, samples, worst, first_violation=pts[bad[0]].copy())
    return InwardReport(True, samples, worst)


def field_from_config(spec: dict) -> DriftField:
    """Decode a field from its config encoding.

    Accepted forms: ``{"type": "linear", "matrix": [[...], ...]}``,
    ``{"type": "two_scale"}``, ``{"type": "maier_stein"}``.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("field config must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "linear":
        if "matrix" not in spec:
            raise ValueError("linear field config requires 'matrix'")
        extra = set(spec) - {"type", "matrix"}
        if extra:
            raise ValueError(f"unknown field config key: {sorted(extra)[0]}")
        return linear_field(spec["matrix"])
    if kind == "two_scale":
        if set(spec) - {"type"}:
            raise ValueError("two_scale field config takes no extra keys")
        return two_scale_field()
    if kind == "maier_stein":
        extra = set(spec) - {"type", "gamma"}
        if extra:
            raise ValueError(f"unknown field config key: {sorted(extra)[0]}")
        gamma = spec.get("gamma", 10.0)
        if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
            raise ValueError("maier_stein gamma must be a number")
        return maier_stein_field(gamma)
    raise ValueError(f"unknown field type: {kind!r}")
