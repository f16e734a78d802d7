"""Action functionals on scaled time, their gradients, and stationarity diagnostics.

For a path written on the unit interval with scaled time s = t/T, the rate
functional of the small-noise transition problem is

    S(T, p) = (T/2) * int_0^1 | p'(s)/T - b(p(s)) |^2 ds.

For a fixed path shape, S(T, .) has a unique minimizer in T,

    T_opt(p) = |p'|_L2 / |b(p)|_L2,

and the reduced, time-free functional is S_opt(p) = S(T_opt(p), p).
Expanding the square gives S_opt(p) = |p'|_L2 |b(p)|_L2 - <p', b(p)>_L2,
which is nonnegative by Cauchy-Schwarz and vanishes exactly when p' is a
positive multiple of b(p) almost everywhere (a rescaled flow trajectory).

Both facts hold exactly for the discrete functionals too, because the
quadrature expands the squared residual term by term into
|p'|^2 / (2T) - <p', b(p)> + (T/2) |b(p)|^2, whose minimizer in T is exactly
|p'| / |b(p)|.  So S_opt is evaluated as the fixed-T action at T_opt, (T/2)
times a sum of squares, and not as the difference above, whose two O(1)
terms cancel down to the small minimum.  Its gradient is the fixed-T
gradient at T_opt (envelope identity): dS/dT vanishes there, so the
chain-rule term through T_opt drops out.

Everything here evaluates these quantities and their exact gradients with
respect to the interior nodal values of a piecewise-linear path, using
Gauss-Legendre quadrature per element (exact for linear drift when the rule
has >= 2 points per element).  One staged evaluation, ``_staged``, serves
both functionals: it returns the action at a given T, or at T_opt when none
is given, with a callable that finishes the gradient from the same assembly
and residual.  Only that call evaluates the drift's Jacobian, so the
optimizer's line search skips it for a trial it rejects on the value.
``fixed_t_value_grad`` (S(T, .)) and ``tmam_value_grad`` (S_opt) are its two
public calls, each returning the value and gradient from one assembly; the
other public functions are post-solve diagnostics.  The assembly holds one
length-N row per component and quadrature point, so its sums run over
contiguous rows (``_Assembly``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import DriftField, _central_stencil
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
    is read, never written.  ``jac`` holds the Jacobian planes of the last
    ``fixed_t_grad``, which ``hessian`` and ``coupling`` read.  ``stencil``
    holds the side values and the per-point step of the last
    finite-difference Jacobian (``_central_stencil``), or None: a field with
    ``fd_jacobian`` has its Jacobian taken here from ``eval_many``, bit for
    bit its ``jacobian_many``, so that Q reuses its sides.
    """

    __slots__ = ("geo", "delta", "deriv", "points", "b_quad", "w", "field", "jac", "stencil")

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
        self.stencil = None
        self.b_quad = np.ascontiguousarray(field.eval_many(self.points).T).reshape(x_quad.shape)

    def jac_quad(self) -> np.ndarray:
        """(n, n, q, N) planes of the Jacobian; [j, i] holds db_j/dx_i."""
        if self.field.fd_jacobian:
            jac, sides, step = _central_stencil(self.field.eval_many, self.points)
            self.stencil = sides, step
        else:
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
        jac = self.jac = self.jac_quad()
        jtr = _jt_times(jac, resid)                  # (n, q, N): (Db^T r)_i
        wr = np.sum(self.w * resid, axis=1)          # (n, N)
        to_left = -wr - t_scale * np.sum(self.geo.left * jtr, axis=1)
        to_right = wr - t_scale * np.sum(self.geo.right * jtr, axis=1)
        return np.ascontiguousarray((to_left[:, 1:] + to_right[:, :-1]).T)

    def hessian(self, t_scale: float, resid: np.ndarray) -> np.ndarray:
        """Upper band of the fixed-T action's interior Hessian H at ``t_scale``, from ``resid``.

        The band is in node-major order (``_upper_band``).  Element e adds to
        the block of its nodes a, b in {left, right}
        T h_e sum_k w_k [A_a^T A_b - phi_a phi_b Q_ek], with
        A_a = sigma_a I / (T h_e) - phi_a J_ek, sigma = (-1, 1) and
        phi = (1 - xi_k, xi_k): the Gauss-Newton part from the Jacobian that
        ``fixed_t_grad`` took, and the second-order part from Q_ek, the
        Hessian of r_ek . b at the point with r_ek held fixed, by second
        differences of the field's values (``_second_order``).  Nothing is
        checked finite.
        """
        geo, jac, n = self.geo, self.jac, self.delta.shape[0]
        second = self._second_order(resid)
        gram = np.stack([_jt_times(jac, jac[:, c]) for c in range(n)], axis=1)  # J^T J
        curv = gram - second                                       # (n, n, q, N)
        # hat-product weights h w phi_a phi_b of the element's two nodes
        ll, lr, rr = (geo.left * geo.left / geo.hw, geo.left * geo.right / geo.hw,
                      geo.right * geo.right / geo.hw)
        stiff = np.eye(n)[:, :, None] / (t_scale * geo.h)          # (n, n, N)
        w_left = np.sum(geo.left * jac, axis=2) / geo.h            # sum_k w_k phi_L J_k
        w_right = np.sum(geo.right * jac, axis=2) / geo.h
        left_left = (stiff + w_left + w_left.transpose(1, 0, 2)
                     + t_scale * np.sum(ll * curv, axis=2))
        right_right = (stiff - w_right - w_right.transpose(1, 0, 2)
                       + t_scale * np.sum(rr * curv, axis=2))
        left_right = (w_right - w_left.transpose(1, 0, 2) - stiff
                      + t_scale * np.sum(lr * curv, axis=2))
        return _upper_band(n, geo.h.size - 1, left_left[:, :, 1:] + right_right[:, :, :-1],
                           left_right[:, :, 1:-1])

    def coupling(self, t_scale: float):
        """(c, H_TT): the fixed-T action's dg/dT and d^2S/dT^2 at ``t_scale``, for any field.

        c is (p'_i - p'_{i-1}) / T^2 at node i plus the hat-weighted sums of
        J^T b from its two elements, J the Jacobian that ``fixed_t_grad``
        took, flat in node-major order; H_TT = sum_e |dp_e|^2 / (h_e T^3).
        Nothing is checked finite.
        """
        jtb = _jt_times(self.jac, self.b_quad)
        to_left = self.deriv / (t_scale * t_scale) + np.sum(self.geo.left * jtb, axis=1)
        to_right = -self.deriv / (t_scale * t_scale) + np.sum(self.geo.right * jtb, axis=1)
        c_vec = (to_left[:, 1:] + to_right[:, :-1]).T.ravel()
        h_tt = float(np.vdot(self.delta, self.deriv)) / t_scale / t_scale / t_scale
        return c_vec, h_tt

    def _second_order(self, resid: np.ndarray) -> np.ndarray:
        """(n, n, q, N) planes of Q, the Hessian of g = r . b at each point, ``resid`` r held fixed.

        Q_ii is the central second difference of g over the axis moves
        x +- s e_i, and Q_ij, j < i, the shared stencil
        [g(x + s(e_i + e_j)) + g(x - s(e_i + e_j))
         - g(x +- s e_i) - g(x +- s e_j) + 2 g(x)] / (2 s^2),
        second order and exact on a cubic.  The axis values are the sides of
        the finite-difference Jacobian (``stencil``) when there are some, at
        its step; otherwise one batched call of the 2n axis moves at
        s = 1e-4 max(1, |x|_inf).  The n (n - 1) moves x +- s(e_i + e_j) are
        one more batched call.  Every r . b is ``_jt_times`` of r's planes.
        """
        n = resid.shape[0]
        r_planes = resid.reshape(n, -1)                              # (n, q N)
        if self.stencil is None:
            step = 1e-4 * np.maximum(1.0, np.abs(self.points).max(axis=1))   # (q N,)
            eye = np.eye(n)
            sides = self._moved(np.concatenate([eye, -eye]), step).reshape(n, 2, n, step.size)
        else:
            sides, step = self.stencil
        at_points = _jt_times(r_planes, self.b_quad.reshape(n, -1))   # g(x)
        axis = _jt_times(r_planes, sides)                            # (2, n, q N): g(x +- s e_i)
        step_sq = step * step
        second = np.empty((n, n) + step.shape)
        for i in range(n):
            second[i, i] = (axis[0, i] - 2.0 * at_points + axis[1, i]) / step_sq
        pairs = [(i, j) for i in range(n) for j in range(i)]
        if pairs:
            moves = np.zeros((2 * len(pairs), n))
            for p, (i, j) in enumerate(pairs):
                moves[2 * p, [i, j]], moves[2 * p + 1, [i, j]] = 1.0, -1.0
            mixed = _jt_times(r_planes, self._moved(moves, step))   # (2 pairs, q N)
            for p, (i, j) in enumerate(pairs):
                second[i, j] = second[j, i] = (
                    mixed[2 * p] + mixed[2 * p + 1] - axis[0, i] - axis[1, i]
                    - axis[0, j] - axis[1, j] + 2.0 * at_points) / (2.0 * step_sq)
        return second.reshape((n, n) + resid.shape[1:])

    def _moved(self, moves: np.ndarray, step: np.ndarray) -> np.ndarray:
        """(n, k, q N) planes of b at the points moved by ``step`` times each row of ``moves`` (k, n), in one call."""
        planes = self.points.T[:, None, :] + moves.T[:, :, None] * step     # (n, k, q N)
        return self.field.eval_many(planes.reshape(len(planes), -1).T).T.reshape(planes.shape)


def _jt_times(jac: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """sum_j jac[j] * planes[j] in component order: J^T f from J's and f's planes, or r . b from r's and b's."""
    out = jac[0] * planes[0]
    for j in range(1, planes.shape[0]):
        out += jac[j] * planes[j]
    return out


def _upper_band(m: int, nodes: int, diag, off) -> np.ndarray:
    """Upper band of a symmetric block-tridiagonal matrix, in ``optimize.cholesky_banded``'s layout.

    The matrix has ``nodes`` x ``nodes`` blocks of m x m.  Entry [r, c] of
    ``diag`` holds that entry of every diagonal block, as one value or as
    ``nodes`` values, and entry [r, c] of ``off`` that of the blocks above
    them, block i coupling nodes i and i + 1.  In node-major order the
    matrix has 2m - 1 superdiagonals, and entry (row, col) goes to
    band[2m - 1 + row - col, col].
    """
    upper = 2 * m - 1
    band = np.zeros((2 * m, nodes * m))
    for r in range(m):
        for c in range(m):
            if c >= r:
                band[upper + r - c, c::m] = diag[r, c]
            band[upper + r - c - m, m + c::m] = off[r, c]
    return band


def _assemble(path: FePath, field: DriftField, quad: Quadrature) -> _Assembly:
    if field.dim != path.dim:
        raise ValueError("path and drift field dimensions differ")
    return _Assembly(path.mesh, path.values, field, quad)


def _horizon(asm: _Assembly) -> float:
    """t_hat = |p'| / |b(p)|, with degeneracy guards on both seminorms.

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
    return t_hat


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------


class _Stage:
    """The gradient of one staged evaluation, and then its second derivatives, on demand.

    Calling it returns the interior gradient at the evaluation's horizon from
    the evaluation's assembly and residual; once it has been called,
    ``hessian()`` and ``coupling()`` return ``_Assembly.hessian`` and
    ``_Assembly.coupling`` there from the same Jacobian.
    """

    __slots__ = ("asm", "t_scale", "resid")

    def __init__(self, asm: _Assembly, t_scale: float, resid: np.ndarray):
        self.asm, self.t_scale, self.resid = asm, t_scale, resid

    def __call__(self) -> np.ndarray:
        return self.asm.fixed_t_grad(self.t_scale, self.resid)

    def hessian(self):
        return self.asm.hessian(self.t_scale, self.resid)

    def coupling(self):
        return self.asm.coupling(self.t_scale)


def _staged(path: FePath, field: DriftField, quad: Quadrature, T=None):
    """(value, gradient callable, horizon) of the action at T, or at t_hat when T is None.

    The value is the fixed-T action at the horizon, a sum of squares of one
    residual.  The callable, a ``_Stage``, returns the interior gradient at
    the horizon from the same assembly and residual, and is the only step
    that evaluates the drift's Jacobian.  The horizon is T as given, so an
    int stays an int in the iteration log, or t_hat.
    """
    t_scale = None if T is None else _finite_positive(T, "T")
    asm = _assemble(path, field, quad)
    if t_scale is None:
        T = t_scale = _horizon(asm)
    resid = asm.residual(t_scale)
    return 0.5 * t_scale * asm.weighted_sq(resid), _Stage(asm, t_scale, resid), T


def fixed_t_value_grad(path: FePath, field: DriftField, T: float, quad: Quadrature):
    """(value, interior gradient, T) of the fixed-T action from one assembly.

    The gradient is exact for the discretized action, with respect to the
    interior nodal values.  T is returned as given, in the place of
    ``tmam_value_grad``'s t_hat, so an int horizon stays an int in the
    iteration log.
    """
    value, grad, T = _staged(path, field, quad, T)
    return value, grad(), T


def tmam_value_grad(path: FePath, field: DriftField, quad: Quadrature):
    """(value, interior gradient, t_hat) of the reduced action from one assembly.

    The value and gradient are those of the fixed-T action at t_hat, bit for
    bit; by the envelope identity (module docstring) the gradient is the
    exact reduced gradient.
    """
    value, grad, t_hat = _staged(path, field, quad)
    return value, grad(), t_hat


def optimal_time(path: FePath, field: DriftField, quad: Quadrature) -> float:
    """Unique stationary horizon T_opt = |p'|_L2 / |b(p)|_L2 for the path shape.

    Raises :class:`DegeneratePathError` or :class:`DriftVanishesError` when
    either seminorm falls below the degeneracy guard, and
    :class:`ActionError` when the ratio is not finite and positive.
    """
    return _horizon(_assemble(path, field, quad))


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
    """2-norm of a contiguous float array, with the bits of numpy's ``norm`` where that is finite and not 0.

    The sum of squares is one ``np.vdot``, as in ``norm``, but free of
    numpy's overflow warning.  Only where it overflows or underflows to 0
    while some entry is finite and nonzero is the norm taken again of the
    array divided by its largest magnitude, and then multiplied back: a
    finite norm is not reported as inf, nor a nonzero one as 0.
    """
    sq = np.vdot(vec, vec)
    if (sq == math.inf or sq == 0.0) and vec.size:
        scale = float(np.abs(vec).max())
        if 0.0 < scale < math.inf:
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
    _, grad, horizon = _staged(path, field, quad, t_or_that)
    return _el_residual_at(path, grad(), float(horizon))
