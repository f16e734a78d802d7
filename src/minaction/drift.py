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

from .pathcore import _count_at_least, _finite_float, _finite_positive, _int_at_least, _is_real

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

# The central difference's step is FD_JACOBIAN_STEP * max(1, |x|_2): near
# eps^(1/3) of float64 (Nocedal & Wright, Numerical Optimization, 2nd ed.,
# sec. 8.1), where its truncation and roundoff errors balance.  The same step
# serves the second differences of the reduced Newton Hessian, which
# ``action._Assembly`` takes from the Jacobian's own side values.
FD_JACOBIAN_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class DriftField:
    """Vector field b: R^n -> R^n with Jacobian db_i/dx_j.

    Metadata (all optional): ``beta``/``r2`` parametrize the inward-drift
    condition <b(x), x> <= -beta |x|^2 for |x| >= r2, which
    ``check_inward_condition`` reads, and ``linear_matrix`` carries A when
    b(x) = A x exactly.  Each given ``beta`` and ``r2`` must be a finite
    real number, not a bool; another value raises a ``ValueError`` that
    names it.  ``fd_jacobian`` is True exactly when the Jacobian is the
    central finite difference of the field's own values, as
    ``field_from_callable`` makes it without ``jac``; the action's assembly
    then differences the values itself (``_central_stencil``), and the
    reduced solver takes Newton steps on a Hessian whose second differences
    reuse those side values (``optimize._preconditioner``).  It must be a
    bool.
    """

    dim: int
    _eval_many: Callable[[np.ndarray], np.ndarray]
    _jac_many: Callable[[np.ndarray], np.ndarray]
    beta: Optional[float] = None
    r2: Optional[float] = None
    linear_matrix: Optional[np.ndarray] = None
    fd_jacobian: bool = False

    def __post_init__(self):
        for key in ("beta", "r2"):
            value = getattr(self, key)
            if value is not None and _finite_float(value) is None:
                raise ValueError(f"{key} must be a finite real number")
        if not isinstance(self.fd_jacobian, bool):
            raise ValueError("fd_jacobian must be a bool")

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
    """Linear drift b(x) = A x for a square matrix A of either sign convention."""
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
    (+-1, 0); the field is not a gradient for gamma != 1.  ``gamma`` must be
    a finite real number, not a bool or a string.

    The cube is the product ``u * u * u``: numpy's ``u**3`` is a general
    ``pow`` that is many times slower on negative bases, and neither is
    correctly rounded (they differ by at most 1 ulp).
    """
    if not _is_real(gamma):
        raise ValueError("maier_stein gamma must be a number")
    gamma = _finite_float(gamma)
    if gamma is None:
        raise ValueError("gamma must be finite")

    def eval_many(pts):
        u, v = pts[:, 0], pts[:, 1]
        out = np.empty_like(pts)
        out[:, 0] = u - u * u * u - gamma * u * v**2
        out[:, 1] = -(1.0 + u**2) * v
        return out

    def jac_many(pts):
        u, v = pts[:, 0], pts[:, 1]
        jac = np.empty((2, 2, pts.shape[0]))   # a contiguous plane per entry
        jac[0, 0] = 1.0 - 3.0 * u**2 - gamma * v**2
        jac[0, 1] = -2.0 * gamma * u * v
        jac[1, 0] = -2.0 * u * v
        jac[1, 1] = -(1.0 + u**2)
        return jac.transpose(2, 0, 1)

    return DriftField(dim=2, _eval_many=eval_many, _jac_many=jac_many, beta=1.0, r2=1.5)


def _central_stencil(func: Callable[[np.ndarray], np.ndarray], pts: np.ndarray):
    """(jac, sides, step): the central-difference Jacobian of ``func`` at ``pts`` (m, n), and its stencil.

    ``step`` (m,) is FD_JACOBIAN_STEP * max(1, |x|_2) per point, and
    ``sides`` (n, 2, n, m) holds component i of func at the points moved by
    +step and by -step along each axis j at [i, 0, j] and [i, 1, j]: 2n
    batched calls.  ``jac`` is the (m, n, n) view of (n, n, m) planes, plane
    (i, j) the difference of component i over the sides of axis j by 2 step.
    """
    m, n = pts.shape
    planes = np.empty((n, n, m))
    sides = np.empty((n, 2, n, m))
    step = FD_JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(pts, axis=1))
    for j in range(n):
        shift = np.zeros((m, n))
        shift[:, j] = step
        sides[:, 0, j] = func(pts + shift).T
        sides[:, 1, j] = func(pts - shift).T
        planes[:, j] = (sides[:, 0, j] - sides[:, 1, j]) / (2.0 * step)
    return planes.transpose(2, 0, 1), sides, step


def _fd_jacobian_many(func: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    return _central_stencil(func, pts)[0]


def field_from_callable(
    dim: int,
    func: Callable[[np.ndarray], np.ndarray],
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    **metadata,
) -> DriftField:
    """Wrap a pointwise drift function; a missing Jacobian falls back to
    central finite differences with step 1e-5 * max(1, |x|_2).

    The step sits near eps^(1/3), where a central difference's truncation
    and roundoff errors balance (``FD_JACOBIAN_STEP``); the reduced solver
    takes the second differences of its Newton Hessian from the same side
    values.

    ``func`` maps a single point to a single vector of ``dim`` entries, and
    ``jac`` to a ``dim`` x ``dim`` matrix; batching is added here.  A batch of
    another shape raises ``ValueError``; an empty batch gives an empty array
    of the right shape, as for the built-in fields.  Only the fallback sets
    ``fd_jacobian``; passing it in ``metadata`` raises ``TypeError``.
    """
    dim = _int_at_least(dim, "dim", 1)

    def batched(fn, name, shape):
        def many(pts):
            # one copy, so that each point is a C-contiguous row whatever the batch's layout
            rows = [fn(p) for p in np.ascontiguousarray(pts)]
            out = np.array(rows, dtype=float) if rows else np.empty((0, *shape))
            if out.shape != (len(pts), *shape):
                raise ValueError(
                    f"{name} must return shape {shape} per point for dim={dim}; "
                    f"got a batch of shape {out.shape} for {len(pts)} points"
                )
            return out

        return many

    eval_many = batched(func, "func", (dim,))
    if jac is None:
        jac_many = lambda pts: _fd_jacobian_many(eval_many, pts)
    else:
        jac_many = batched(jac, "jac", (dim, dim))
    return DriftField(dim=dim, _eval_many=eval_many, _jac_many=jac_many, fd_jacobian=jac is None,
                      **metadata)


def check_inward_condition(field: DriftField, samples: int, radius: float) -> InwardReport:
    """Sampled check of <b(x), x> <= -beta |x|^2 on the shell r2 <= |x| <= radius.

    Directions and radii come from a fixed-seed generator so repeated runs
    are deterministic.  Reports the first violating point, if any, together
    with the worst margin <b(x), x> + beta |x|^2 seen (<= 0 means satisfied).
    """
    if field.beta is None or field.r2 is None:
        raise ValueError("field is missing beta/r2 metadata for the inward check")
    samples = _count_at_least(samples, "samples", 1)
    radius = _finite_positive(radius, "radius")
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
        matrix = spec["matrix"]
        if not isinstance(matrix, list) or not all(
            isinstance(row, list) and all(map(_is_real, row)) for row in matrix
        ):
            raise ValueError("linear field matrix must be a list of rows of numbers")
        if any(_finite_float(x) is None for row in matrix for x in row):
            raise ValueError("drift matrix must be finite")
        return linear_field(matrix)
    if kind == "two_scale":
        if set(spec) - {"type"}:
            raise ValueError("two_scale field config takes no extra keys")
        return two_scale_field()
    if kind == "maier_stein":
        extra = set(spec) - {"type", "gamma"}
        if extra:
            raise ValueError(f"unknown field config key: {sorted(extra)[0]}")
        return maier_stein_field(spec.get("gamma", 10.0))
    raise ValueError(f"unknown field type: {kind!r}")
