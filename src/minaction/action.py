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
S(T, .) and ``tmam_value_grad`` for S_opt.  The other public functions are
post-solve diagnostics.
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
            _count_at_least(self.points_per_element, "points_per_element", 1)
        )
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


def _horizon(asm: _Assembly):
    """(t_hat, |p'|, |b(p)|) with degeneracy guards and t_hat = |p'| / |b(p)|.

    A ratio that is not finite and positive, as when |b(p)|^2 overflows to
    inf and t_hat underflows to 0, raises a typed error.
    """
    alpha = math.sqrt(asm.deriv_norm_sq())
    beta = math.sqrt(asm.drift_norm_sq())
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


def fixed_t_value_grad(path: FePath, field: DriftField, T: float, quad: Quadrature):
    """(value, interior gradient, T) of the fixed-T action from one assembly.

    The gradient is exact for the discretized action, with respect to the
    interior nodal values.  T is returned as given, in the place of
    ``tmam_value_grad``'s t_hat, so an int horizon stays an int in the
    iteration log.
    """
    t_scale = _finite_positive(T, "T")
    asm = _assemble(path, field, quad)
    return asm.fixed_t_value(t_scale), asm.fixed_t_grad(t_scale)[1:-1], T


def tmam_value_grad(path: FePath, field: DriftField, quad: Quadrature):
    """(value, interior gradient, t_hat) of the reduced action from one assembly.

    The value uses the rewrite form |p'| |b(p)| - <p', b(p)>, which equals the
    fixed-T value at t_hat up to roundoff.  The gradient is the fixed-T
    gradient at t_hat, which by the envelope identity (module docstring) is
    the exact reduced gradient.
    """
    asm = _assemble(path, field, quad)
    t_hat, alpha, beta = _horizon(asm)
    return alpha * beta - asm.cross_term(), asm.fixed_t_grad(t_hat)[1:-1], t_hat


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
    speed = np.linalg.norm(asm.deriv, axis=1)[:, None] / t_scale   # (N, 1)
    drift_mag = np.linalg.norm(asm.b_quad, axis=2)                 # (N, q)
    return float(np.max(np.abs(speed - drift_mag)))


def _el_residual_at(path: FePath, grad_interior: np.ndarray, t_scale: float) -> float:
    """``el_residual`` of ``path`` from its interior fixed-T gradient at ``t_scale``.

    Only the path's H1 seminorm is computed here, from its nodes with the
    bits of ``_Assembly.deriv_norm_sq``; no drift is evaluated.
    """
    delta = path.values[1:] - path.values[:-1]
    h1 = math.sqrt(float(np.sum(delta * (delta / path.mesh.widths[:, None]))))
    return float(np.linalg.norm(grad_interior) / (t_scale * max(h1, EPS_DEGENERATE)))


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
    return _el_residual_at(path, _assemble(path, field, quad).fixed_t_grad(t_scale)[1:-1], t_scale)
