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
has >= 2 points per element).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drift import DriftField
from .pathcore import FePath, Mesh, _finite_positive, _int_at_least

__all__ = [
    "Quadrature",
    "ActionReport",
    "ActionError",
    "DegeneratePathError",
    "DriftVanishesError",
    "EPS_DEGENERATE",
    "action_fixed_T",
    "optimal_time",
    "action_optimal",
    "grad_action_fixed_T",
    "grad_action_optimal",
    "hamiltonian_violation",
    "el_residual",
]

# Degeneracy guard on the L2 seminorms |p'| and |b(p)|; below this the
# optimal-time ratio is meaningless and a typed error is raised instead.
EPS_DEGENERATE = 1e-14


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
    is q = 3.
    """

    points_per_element: int = 3

    def __post_init__(self):
        x, w = np.polynomial.legendre.leggauss(
            _int_at_least(self.points_per_element, "points_per_element", 1)
        )
        xi = 0.5 * (x + 1.0)
        wts = 0.5 * w
        xi.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "xi", xi)      # nodes in (0, 1)
        object.__setattr__(self, "w", wts)      # weights summing to 1


@dataclass(frozen=True)
class ActionReport:
    """Value, optimal time, gradient, and stationarity diagnostics in one record."""

    value: float
    t_hat: float
    grad: np.ndarray
    hamiltonian_violation: float
    el_residual: float


# ---------------------------------------------------------------------------
# assembly internals (shared by the public functions and the optimizer)
# ---------------------------------------------------------------------------


class _Geometry:
    """Mesh-only quadrature data of one (mesh, rule) pair: element widths and hat weights.

    ``left_cols[k]`` and ``right_cols[k]`` are the (N, 1) columns
    h_e w_k (1 - xi_k) and h_e w_k xi_k.  Every array is read-only: one
    instance serves every assembly on its mesh (see ``_geometry``).
    """

    __slots__ = ("h", "h_col", "left_cols", "right_cols")

    def __init__(self, widths: np.ndarray, quad: Quadrature):
        self.h = widths                              # (N,)
        self.h_col = widths[:, None]                 # (N, 1)
        hw = self.h_col * quad.w                     # (N, q)
        left_w, right_w = hw * (1.0 - quad.xi), hw * quad.xi
        left_w.flags.writeable = right_w.flags.writeable = False
        self.left_cols = tuple(left_w[:, k, None] for k in range(quad.xi.size))
        self.right_cols = tuple(right_w[:, k, None] for k in range(quad.xi.size))


def _geometry(mesh: Mesh, quad: Quadrature) -> _Geometry:
    """The mesh's geometry for ``quad``, built on first use and kept with the mesh.

    The key is the rule itself: equal rules have equal nodes and weights.
    """
    geo = mesh._per_rule.get(quad)
    if geo is None:
        geo = mesh._per_rule[quad] = _Geometry(mesh.widths, quad)
    return geo


class _Assembly:
    """Per-element quadrature data for one (path, field, rule) triple."""

    __slots__ = ("geo", "h", "delta", "deriv", "x_quad", "b_quad", "xi", "w", "n", "field")

    def __init__(self, mesh: Mesh, values: np.ndarray, field: DriftField, quad: Quadrature):
        self.geo = _geometry(mesh, quad)
        self.h = self.geo.h                          # (N,)
        self.delta = values[1:] - values[:-1]        # (N, n)
        self.deriv = self.delta / self.geo.h_col     # (N, n), constant per element
        self.xi = quad.xi
        self.w = quad.w
        self.n = values.shape[1]
        self.field = field
        self.x_quad = np.empty((self.h.size, quad.xi.size, self.n))  # (N, q, n)
        for k, xi in enumerate(quad.xi):
            self.x_quad[:, k] = values[:-1] * (1.0 - xi) + values[1:] * xi
        flat = self.x_quad.reshape(-1, self.n)
        self.b_quad = field.eval_many(flat).reshape(self.x_quad.shape)

    def jac_quad(self) -> np.ndarray:
        flat = self.x_quad.reshape(-1, self.n)
        return self.field.jacobian_many(flat).reshape(self.x_quad.shape + (self.n,))

    # squared L2 seminorm of p'
    def deriv_norm_sq(self) -> float:
        return float(np.sum(self.delta * self.deriv))

    # squared L2 norm of b(p)
    def drift_norm_sq(self) -> float:
        return float(np.einsum("e,q,eqi,eqi->", self.h, self.w, self.b_quad, self.b_quad))

    # <p', b(p)>
    def cross_term(self) -> float:
        return float(np.einsum("ei,q,eqi->", self.delta, self.w, self.b_quad))

    def fixed_t_value(self, t_scale: float) -> float:
        resid = self.deriv[:, None, :] / t_scale - self.b_quad
        return 0.5 * t_scale * float(np.einsum("e,q,eqi,eqi->", self.h, self.w, resid, resid))

    def fixed_t_grad(self, t_scale: float) -> np.ndarray:
        """Gradient of the fixed-T value w.r.t. all nodal values (residual form).

        The drift term of element e at node side phi is the sum over points q
        of h_e w_q phi(xi_q) (Db^T r)_eq.  It is summed point by point from
        zero with the factors multiplied left to right, the order of
        ``np.einsum("e,q,q,eqi->ei", h, w, phi, jtr)``, so it has that
        einsum's bits, signed zeros included, at a fraction of its cost.
        """
        num_nodes = self.h.size + 1
        resid = self.deriv[:, None, :] / t_scale - self.b_quad
        jac = self.jac_quad()
        jtr = np.einsum("eqji,eqj->eqi", jac, resid)
        wr = np.einsum("q,eqi->ei", self.w, resid)
        left = np.zeros((self.h.size, self.n))
        right = np.zeros((self.h.size, self.n))
        for k, (left_w, right_w) in enumerate(zip(self.geo.left_cols, self.geo.right_cols)):
            left += left_w * jtr[:, k]
            right += right_w * jtr[:, k]
        grad = np.zeros((num_nodes, self.n))
        grad[:-1] += -wr - t_scale * left
        grad[1:] += wr - t_scale * right
        return grad


def _assemble(path: FePath, field: DriftField, quad: Quadrature) -> _Assembly:
    if field.dim != path.dim:
        raise ValueError("path and drift field dimensions differ")
    return _Assembly(path.mesh, path.values, field, quad)


def _seminorms(asm: _Assembly):
    """(|p'|, |b(p)|) with degeneracy guards."""
    alpha = math.sqrt(asm.deriv_norm_sq())
    beta = math.sqrt(asm.drift_norm_sq())
    if alpha <= EPS_DEGENERATE:
        raise DegeneratePathError("path derivative seminorm is numerically zero")
    if beta <= EPS_DEGENERATE:
        raise DriftVanishesError(
            "drift vanishes along the path; the optimal time is unbounded"
        )
    return alpha, beta


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------


def action_fixed_T(path: FePath, field: DriftField, T: float, quad: Quadrature) -> float:
    """Action of the path at the fixed horizon T (scaled-time quadrature form)."""
    return _assemble(path, field, quad).fixed_t_value(_finite_positive(T, "T"))


def optimal_time(path: FePath, field: DriftField, quad: Quadrature) -> float:
    """Unique stationary horizon T_opt = |p'|_L2 / |b(p)|_L2 for the path shape.

    Raises :class:`DegeneratePathError` or :class:`DriftVanishesError` when
    either seminorm falls below the degeneracy guard.
    """
    alpha, beta = _seminorms(_assemble(path, field, quad))
    return alpha / beta


def _reduced(asm: _Assembly):
    """(value, interior gradient, t_hat, |p'|) of the reduced functional.

    The value uses the rewrite form |p'| |b(p)| - <p', b(p)>; the gradient is
    the fixed-T residual gradient at t_hat (envelope identity, module docstring).
    """
    alpha, beta = _seminorms(asm)
    t_hat = alpha / beta
    return alpha * beta - asm.cross_term(), asm.fixed_t_grad(t_hat)[1:-1], t_hat, alpha


def action_optimal(path: FePath, field: DriftField, quad: Quadrature) -> ActionReport:
    """Reduced action at the optimal horizon, with gradient and diagnostics.

    The value comes from the inner-product rewrite
    |p'| |b(p)| - <p', b(p)> and equals ``action_fixed_T`` evaluated at
    ``t_hat`` up to roundoff.  The gradient is the fixed-horizon gradient at
    ``t_hat``, which by the envelope identity is the exact reduced gradient,
    so it also feeds the Euler-Lagrange residual directly.
    """
    asm = _assemble(path, field, quad)
    value, grad, t_hat, alpha = _reduced(asm)
    return ActionReport(
        value=value,
        t_hat=t_hat,
        grad=grad,
        hamiltonian_violation=_violation_from_assembly(asm, t_hat),
        el_residual=_el_residual_from_grad(grad, t_hat, alpha),
    )


def grad_action_fixed_T(path: FePath, field: DriftField, T: float, quad: Quadrature) -> np.ndarray:
    """Exact gradient of the discretized fixed-T action w.r.t. interior nodes."""
    return _assemble(path, field, quad).fixed_t_grad(_finite_positive(T, "T"))[1:-1]


def grad_action_optimal(path: FePath, field: DriftField, quad: Quadrature) -> np.ndarray:
    """Exact gradient of the reduced action w.r.t. interior nodes.

    It is ``grad_action_fixed_T`` evaluated at ``optimal_time(path)``: the T
    derivative of the fixed-T action vanishes at the optimal horizon, so the
    dependence of the horizon on the path contributes nothing (envelope
    identity, exact for the discrete functional).
    """
    return _reduced(_assemble(path, field, quad))[1]


def _violation_from_assembly(asm: _Assembly, t_scale: float) -> float:
    speed = np.linalg.norm(asm.deriv, axis=1)[:, None] / t_scale   # (N, 1)
    drift_mag = np.linalg.norm(asm.b_quad, axis=2)                 # (N, q)
    return float(np.max(np.abs(speed - drift_mag)))


def hamiltonian_violation(path: FePath, field: DriftField, t_hat: float, quad: Quadrature) -> float:
    """Max over quadrature points of | |p'(s)|/T - |b(p(s))| |.

    Zero along any exact minimizer of the time-optimized problem (the
    zero-Hamiltonian constraint); positive otherwise.
    """
    return _violation_from_assembly(_assemble(path, field, quad), _finite_positive(t_hat, "t_hat"))


def _el_residual_from_grad(grad_interior: np.ndarray, t_scale: float, h1_seminorm: float) -> float:
    scale = t_scale * max(h1_seminorm, EPS_DEGENERATE)
    return float(np.linalg.norm(grad_interior) / scale)


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
    grad = asm.fixed_t_grad(t_scale)[1:-1]
    h1 = math.sqrt(asm.deriv_norm_sq())
    return _el_residual_from_grad(grad, t_scale, h1)


# fused value+gradient entry points for the optimizer (single assembly pass)


def fixed_t_value_grad(path: FePath, field: DriftField, T: float, quad: Quadrature):
    """(value, interior gradient, T) of the fixed-T action from one assembly.

    T is returned as given, in the place of ``tmam_value_grad``'s t_hat, so
    an int horizon stays an int in the iteration log.
    """
    asm = _assemble(path, field, quad)
    return asm.fixed_t_value(float(T)), asm.fixed_t_grad(float(T))[1:-1], T


def tmam_value_grad(path: FePath, field: DriftField, quad: Quadrature):
    """(value, interior gradient, t_hat) of the reduced action from one assembly.

    The gradient is the fixed-T gradient at t_hat (envelope identity).
    """
    value, grad, t_hat, _ = _reduced(_assemble(path, field, quad))
    return value, grad, t_hat
