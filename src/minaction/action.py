"""Action functionals on scaled time, their gradients, and stationarity diagnostics.

For a path written on the unit interval with scaled time s = t/T, the rate
functional of the small-noise transition problem is

    S(T, p) = (T/2) * int_0^1 | p'(s)/T - b(p(s)) |^2 ds.

For a fixed path shape, S(T, .) has a unique minimizer in T,

    T_opt(p) = |p'|_L2 / |b(p)|_L2,

and substituting it gives the reduced, time-free functional

    S_opt(p) = |p'|_L2 * |b(p)|_L2 - <p', b(p)>_L2,

which is nonnegative by Cauchy-Schwarz and vanishes exactly when p' is a
positive multiple of b(p) almost everywhere (a rescaled flow trajectory).

The gradient of S_opt is the fixed-T gradient evaluated at T = T_opt(p)
(envelope identity): S_opt(p) = S(T_opt(p), p) and dS/dT vanishes at T_opt,
so the chain-rule term through T_opt drops out.  This holds exactly for the
discrete functionals too, because the quadrature expands the squared residual
term by term into |p'|^2 / (2T) - <p', b(p)> + (T/2) |b(p)|^2, whose minimizer
in T is exactly |p'| / |b(p)|.  One residual-form gradient therefore serves
both functionals.

Everything here evaluates these quantities and their exact gradients with
respect to the interior nodal values of a piecewise-linear path, using
Gauss-Legendre quadrature per element (exact for linear drift when the rule
has >= 2 points per element).  Each functional has one public call, which
returns its value and gradient from one assembly: ``fixed_t_value_grad`` for
S(T, .) and ``tmam_value_grad`` for S_opt.  Each is a thin wrapper of a
staged evaluation, ``_fixed_t_staged`` and ``_tmam_staged``, which returns
the value with a callable that finishes the gradient from the same assembly;
only that call evaluates the drift's Jacobian, so the optimizer's line search
skips it for a trial it rejects on the value.  The other public functions are
post-solve diagnostics.  The assembly holds one length-N row per component
and quadrature point, so its sums run over contiguous rows (``_Assembly``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import DriftField
from .pathcore import FePath, Mesh, _count_at_least, _finite_positive

__all__ = [
    "Quadrature",
    "ActionError",
    "DegeneratePathError",
    "DriftVanishesError",
    "EPS_DEGENERATE",
    "fixed_t_value_grad",
    "tmam_value_grad",
    "optimal_time",
    "hamiltonian_violation",
    "el_residual",
]

# Degeneracy guard on the L2 seminorms |p'| and |b(p)|; below this the
# optimal-time ratio is meaningless and a typed error is raised instead.
EPS_DEGENERATE = 1e-14

# Largest Gauss-Legendre rule ``Quadrature`` accepts (see its docstring).
MAX_POINTS_PER_ELEMENT = 100


class ActionError(ValueError):
    """Typed numeric failure; ``code`` is the stable machine-readable name."""

    code = "ActionError"


class DegeneratePathError(ActionError):
    """|p'|_L2 vanished: the path is (numerically) constant."""

    code = "DegeneratePath"


class DriftVanishesError(ActionError):
    """|b(p)|_L2 vanished: the drift is zero along the whole path."""

    code = "DriftVanishes"


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule mapped to each element.

    ``points_per_element`` q integrates polynomials of degree <= 2q - 1
    exactly; q = 2 is exact for quadratic integrands, hence for every
    functional here when the drift is linear.  Default used by the solvers
    is q = 3.  q runs from 1 to ``MAX_POINTS_PER_ELEMENT`` (100): a P1
    element gains nothing from more points, and the bound caps the dense
    q x q eigenproblem that computes the rule and each mesh's (q, N) planes.
    """

    points_per_element: int = 3

    def __post_init__(self):
        x, w = np.polynomial.legendre.leggauss(_count_at_least(
            self.points_per_element, "points_per_element", 1, MAX_POINTS_PER_ELEMENT
        ))
        xi = 0.5 * (x + 1.0)
        wts = 0.5 * w
        xi.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "xi", xi)      # nodes in (0, 1)
        object.__setattr__(self, "w", wts)      # weights summing to 1


# ---------------------------------------------------------------------------
# assembly internals (shared by the public functions and the optimizer)
# ---------------------------------------------------------------------------


class _Geometry:
    """Mesh-only quadrature data of one (mesh, rule) pair, as read-only (q, N) planes.

    Row k, column e of ``hw``, ``left`` and ``right`` holds h_e w_k,
    h_e w_k (1 - xi_k) and h_e w_k xi_k: the weight of point k of element
    e, alone and times the hat function of the element's left and right
    node.  One instance serves every assembly on its mesh (see ``_geometry``).
    """

    __slots__ = ("h", "hw", "left", "right")

    def __init__(self, widths: np.ndarray, quad: Quadrature):
        self.h = widths                              # (N,)
        self.hw = quad.w[:, None] * widths           # (q, N)
        self.left = self.hw * (1.0 - quad.xi)[:, None]
        self.right = self.hw * quad.xi[:, None]
        for plane in (self.hw, self.left, self.right):
            plane.flags.writeable = False


def _geometry(mesh: Mesh, quad: Quadrature) -> _Geometry:
    """The mesh's geometry for ``quad``, built on first use and kept with the mesh.

    The key is the rule itself: equal rules have equal nodes and weights.
    """
    geo = mesh._per_rule.get(quad)
    if geo is None:
        geo = mesh._per_rule[quad] = _Geometry(mesh.widths, quad)
    return geo


class _Assembly:
    """Quadrature data of one (path, field, rule) triple, on node-last planes.

    Row i of every array is component i of the path: ``delta`` and
    ``deriv`` are (n, N), the quadrature points and the drift ``b_quad``
    are (n, q, N) with point k of element e at [:, k, e].  The field gets
    the points as ``points``, their (q N, n) transposed view, so every sum
    below runs over contiguous length-N rows.  An array the field returns
    is read, never written.
    """

    __slots__ = ("geo", "delta", "deriv", "points", "b_quad", "w", "field")

    def __init__(self, mesh: Mesh, values: np.ndarray, field: DriftField, quad: Quadrature):
        self.geo = _geometry(mesh, quad)
        nodes = np.ascontiguousarray(values.T)       # (n, N + 1)
        self.delta = nodes[:, 1:] - nodes[:, :-1]    # (n, N)
        self.deriv = self.delta / self.geo.h         # (n, N), constant per element
        xi = quad.xi[:, None]
        x_quad = nodes[:, None, :-1] * (1.0 - xi) + nodes[:, None, 1:] * xi     # (n, q, N)
        self.points = x_quad.reshape(x_quad.shape[0], -1).T                    # (q N, n) view
        self.w = quad.w[:, None]
        self.field = field
        self.b_quad = np.ascontiguousarray(field.eval_many(self.points).T).reshape(x_quad.shape)

    def jac_quad(self) -> np.ndarray:
        """(n, n, q, N) planes of the Jacobian; [j, i] holds db_j/dx_i."""
        jac = self.field.jacobian_many(self.points)
        return jac.transpose(1, 2, 0).reshape(jac.shape[1:] + self.b_quad.shape[1:])

    # int |f|^2 ds from f's (n, q, N) values at the quadrature points
    def weighted_sq(self, planes: np.ndarray) -> float:
        return float(np.vdot(planes, self.geo.hw * planes))

    def residual(self, t_scale: float) -> np.ndarray:
        return self.deriv[:, None, :] / t_scale - self.b_quad     # (n, q, N)

    def fixed_t_grad(self, t_scale: float, resid: np.ndarray) -> np.ndarray:
        """Interior gradient (N - 1, n) of the fixed-T value from its residual planes.

        Element e adds -wr_e - T left_e to its left node and wr_e - T right_e
        to its right node, where wr_e = sum_k w_k r_ek and left_e, right_e
        are the hat-weighted sums over k of (Db^T r)_ek.
        """
        jac = self.jac_quad()
        jtr = jac[0] * resid[0]                      # (n, q, N): (Db^T r)_i
        for j in range(1, resid.shape[0]):
            jtr += jac[j] * resid[j]
        wr = np.sum(self.w * resid, axis=1)          # (n, N)
        to_left = -wr - t_scale * np.sum(self.geo.left * jtr, axis=1)
        to_right = wr - t_scale * np.sum(self.geo.right * jtr, axis=1)
        return np.ascontiguousarray((to_left[:, 1:] + to_right[:, :-1]).T)


def _assemble(path: FePath, field: DriftField, quad: Quadrature) -> _Assembly:
    if field.dim != path.dim:
        raise ValueError("path and drift field dimensions differ")
    return _Assembly(path.mesh, path.values, field, quad)


def _horizon(asm: _Assembly):
    """(t_hat, |p'|, |b(p)|) with degeneracy guards and t_hat = |p'| / |b(p)|.

    A ratio that is not finite and positive, as when |b(p)|^2 overflows to
    inf and t_hat underflows to 0, raises a typed error.
    """
    alpha = math.sqrt(float(np.vdot(asm.delta, asm.deriv)))
    beta = math.sqrt(asm.weighted_sq(asm.b_quad))
    if alpha <= EPS_DEGENERATE:
        raise DegeneratePathError("path derivative seminorm is numerically zero")
    if beta <= EPS_DEGENERATE:
        raise DriftVanishesError(
            "drift vanishes along the path; the optimal time is unbounded"
        )
    t_hat = alpha / beta
    if not 0.0 < t_hat < math.inf:
        raise ActionError(f"optimal horizon |p'|/|b(p)| = {t_hat!r} is not finite and positive")
    return t_hat, alpha, beta


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------


def _fixed_t_staged(path: FePath, field: DriftField, T: float, quad: Quadrature):
    """(value, gradient callable, T) of the fixed-T action, the gradient left for later.

    The callable returns the interior gradient of ``fixed_t_value_grad``
    from the same assembly and residual, and is the only step that evaluates
    the drift's Jacobian.
    """
    t_scale = _finite_positive(T, "T")
    asm = _assemble(path, field, quad)
    resid = asm.residual(t_scale)
    return 0.5 * t_scale * asm.weighted_sq(resid), lambda: asm.fixed_t_grad(t_scale, resid), T


def _tmam_staged(path: FePath, field: DriftField, quad: Quadrature):
    """(value, gradient callable, t_hat) of the reduced action, the gradient left for later.

    The callable returns the interior gradient of ``tmam_value_grad`` from
    the same assembly, residual at t_hat included, and is the only step that
    evaluates the drift's Jacobian.
    """
    asm = _assemble(path, field, quad)
    t_hat, alpha, beta = _horizon(asm)
    cross = float(np.vdot(asm.w * asm.delta[:, None, :], asm.b_quad))     # <p', b(p)>
    return alpha * beta - cross, lambda: asm.fixed_t_grad(t_hat, asm.residual(t_hat)), t_hat


def fixed_t_value_grad(path: FePath, field: DriftField, T: float, quad: Quadrature):
    """(value, interior gradient, T) of the fixed-T action from one assembly.

    The gradient is exact for the discretized action, with respect to the
    interior nodal values.  T is returned as given, in the place of
    ``tmam_value_grad``'s t_hat, so an int horizon stays an int in the
    iteration log.
    """
    value, grad, T = _fixed_t_staged(path, field, T, quad)
    return value, grad(), T


def tmam_value_grad(path: FePath, field: DriftField, quad: Quadrature):
    """(value, interior gradient, t_hat) of the reduced action from one assembly.

    The value uses the rewrite form |p'| |b(p)| - <p', b(p)>, which equals the
    fixed-T value at t_hat up to roundoff.  The gradient is the fixed-T
    gradient at t_hat, which by the envelope identity (module docstring) is
    the exact reduced gradient.
    """
    value, grad, t_hat = _tmam_staged(path, field, quad)
    return value, grad(), t_hat


def optimal_time(path: FePath, field: DriftField, quad: Quadrature) -> float:
    """Unique stationary horizon T_opt = |p'|_L2 / |b(p)|_L2 for the path shape.

    Raises :class:`DegeneratePathError` or :class:`DriftVanishesError` when
    either seminorm falls below the degeneracy guard, and
    :class:`ActionError` when the ratio is not finite and positive.
    """
    return _horizon(_assemble(path, field, quad))[0]


def hamiltonian_violation(path: FePath, field: DriftField, t_hat: float, quad: Quadrature) -> float:
    """Max over quadrature points of | |p'(s)|/T - |b(p(s))| |.

    Zero along any exact minimizer of the time-optimized problem (the
    zero-Hamiltonian constraint); positive otherwise.
    """
    t_scale = _finite_positive(t_hat, "t_hat")
    asm = _assemble(path, field, quad)
    speed = _norms_over_components(asm.deriv) / t_scale    # (N,)
    drift_mag = _norms_over_components(asm.b_quad)         # (q, N)
    return float(np.max(np.abs(speed - drift_mag)))


def _norms_over_components(planes: np.ndarray) -> np.ndarray:
    """2-norms over axis 0, with the bits of ``np.linalg.norm(planes, axis=0)`` where those are finite.

    The sums of squares are numpy's, free of its overflow warning.  Only
    where one overflows while its entries are finite is that norm taken
    again of the entries divided by their largest magnitude, and then
    multiplied back, as in ``_norm2``: a finite norm is not reported as inf,
    and one past the float range is inf without a warning.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(planes * planes, axis=0))
        redo = norms == math.inf
        if redo.any():
            scale = np.abs(planes).max(axis=0)
            redo &= scale < math.inf
            unit = planes[:, redo] / scale[redo]
            norms[redo] = scale[redo] * np.sqrt(np.add.reduce(unit * unit, axis=0))
    return norms


def _norm2(vec: np.ndarray) -> float:
    """2-norm of a contiguous float array, with the bits of numpy's ``norm`` where that is finite.

    The sum of squares is one ``np.vdot``, as in ``norm``, but free of
    numpy's overflow warning.  Only where it overflows while every entry is
    finite is the norm taken again of the array divided by its largest
    magnitude, and then multiplied back: a finite norm is not reported as inf.
    """
    sq = np.vdot(vec, vec)
    if sq == math.inf:
        scale = float(np.abs(vec).max())
        if scale < math.inf:
            unit = vec / scale
            return scale * math.sqrt(np.vdot(unit, unit))
    return math.sqrt(sq)


def _el_residual_at(path: FePath, grad_interior: np.ndarray, t_scale: float) -> float:
    """``el_residual`` of ``path`` from its interior fixed-T gradient at ``t_scale``.

    Only the path's H1 seminorm is computed here, from its nodes with the
    bits of ``_horizon``'s |p'|; no drift is evaluated.
    """
    delta = np.diff(path.values, axis=0).T
    h1 = math.sqrt(float(np.vdot(delta, delta / path.mesh.widths)))
    return _norm2(grad_interior) / (t_scale * max(h1, EPS_DEGENERATE))


def el_residual(path: FePath, field: DriftField, t_or_that: float, quad: Quadrature) -> float:
    """Discrete dual-norm Euler-Lagrange residual diagnostic.

    The weak-form residual of
    T^-2 p'' + T^-1 ((Db)^T - Db) p' - (Db)^T b = 0
    against the interior hat-function directions equals the fixed-T action
    gradient scaled by -1/T; reported is its Euclidean norm normalized by the
    path's H1 seminorm.  One defensible norm choice among several; used as a
    stationarity diagnostic, not an error bound.
    """
    t_scale = _finite_positive(t_or_that, "T")
    asm = _assemble(path, field, quad)
    return _el_residual_at(path, asm.fixed_t_grad(t_scale, asm.residual(t_scale)), t_scale)
