"""Minimization of the discrete action functionals over interior nodal values.

Both the fixed-horizon functional and the reduced (optimal-horizon)
functional are smooth in the (N-1)*n interior unknowns, so both are
minimized by one shared routine: a limited-memory quasi-Newton iteration
with a backtracking line search, or a damped Newton iteration in the same
loop (below).  The two public solvers differ only in the horizon: a given T,
or each path's optimal horizon t_hat, at which the reduced functional is the
fixed-T action.  The discrete reduced functional has a finite optimal
horizon at every mesh, so the horizon needs no cap.  Because the
stationarity system is elliptic, raw nodal gradients condition badly as the
mesh or the horizon grows, so the initial inverse-Hessian guess is the
inverse of one SPD operator on the interior nodes, at T or the start's
t_hat: the fixed-T Hessian of the action for a linear drift b(x) = A x
(``_Band``).  A field that carries ``linear_matrix`` gives A, so the first
fixed-T step is an exact Newton step.  Every other field gets a Sobolev-type
stiffness-plus-scaled-mass operator, which keeps iteration counts roughly
mesh- and horizon-independent.  A ``linear_matrix`` that is not the field's
own changes only the preconditioner, never the action: the solve may take
more iterations or stop short of ``tol_grad``.  Endpoints are never touched.
A solve writes no file: its per-iteration rows ride on ``OptimResult.log``.

For a linear drift the reduced Hessian is exact in closed form, so a reduced
solve of a field whose Jacobian is its ``linear_matrix`` is damped Newton
(Nocedal & Wright, ch. 3.4 and 6; ``_preconditioner`` says when): the loop
keeps no curvature pairs and takes the operator at each accepted iterate.
Every other solve, fixed-T ones included (a linear field's first fixed-T
step is already exact), is L-BFGS.

A line search halves the step from 1 until a trial is accepted.  It fails
after the step 2**-66, or at its first trial that rounds to the current
iterate bitwise: every smaller step gives the iterate too, and a search that
returns the iterate has failed, so that trial is never evaluated or accepted.
Armijo's sufficient-decrease test reads only the value, so a trial evaluates
the value first and its gradient, with the drift's Jacobian, only once the
test accepts it; a trial whose gradient raises a typed error or is not finite
is rejected like one whose value raises.  Near the minimizer the search
accepts by gradient-norm descent instead of Armijo's test: a trial must shrink
the gradient's 2-norm below 0.999 of the current one, so every such trial
takes its gradient.  Such a search also fails at its first rejected trial
with a finite gradient whose linear model rules out every smaller step.  The
premise is that the gradient is affine in the step over that range: the
trial's gradient g + delta then gives g + t delta at t times its step, and
when the least norm of that over t in [0, 1/2] is at least 0.999 of |g|, no
later trial could pass (Nocedal & Wright, Numerical Optimization, ch. 3).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy
from numpy.linalg import LinAlgError  # the class scipy.linalg raises

from .action import (
    ActionError,
    Quadrature,
    _el_residual_at,
    _norm2,
    _staged,
    hamiltonian_violation,
)

# A solve takes its horizon and Euler-Lagrange residual from the loop's own
# evaluations, which are staged (value first, gradient on demand), so these
# are not called here; they stay names of this module, where
# bench/layertrace.py wraps them
from .action import el_residual, fixed_t_value_grad, optimal_time, tmam_value_grad  # noqa: F401
from .drift import DriftField
from .pathcore import (
    FePath,
    Mesh,
    _count_at_least,
    _finite_positive,
    _int_at_least,
    _uniform_mesh,
    linear_interpolant_path,
    resample_path,
)

__all__ = [
    "OptimConfig",
    "OptimResult",
    "minimize_fixed_T",
    "minimize_tmam",
    "continuation_sweep",
]

# Armijo sufficient-decrease constant of the line search and its trial steps:
# 1, 1/2, 1/4, ... down to 2**-66, the last power of two above 1e-20.
_ARMIJO_C1 = 1e-4
_STEPS = tuple(0.5**k for k in range(67))

# A gradient-norm trial is accepted only if it shrinks the gradient's 2-norm
# below this fraction of the current one; any step that does counts as progress.
# A search fails once the gradient's linear model, taken as exact, keeps the
# norm at or above this fraction at every smaller step.
_GRAD_SHRINK = 0.999

# Roundoff noise of a value v is taken as _NOISE * max(1, |v|).
_NOISE = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class OptimConfig:
    """Solver knobs.

    ``tol_grad`` stops the iteration once the gradient max-norm falls below
    tol_grad * max(1, |value|); ``max_iters`` caps the iteration count;
    ``memory`` is the number of L-BFGS curvature pairs kept (0 leaves only the
    scaled preconditioner); a reduced Newton solve keeps none, and reads
    ``memory`` only once a rebuild fails.  The preconditioner is always on,
    and the line search's Armijo constant (1e-4) and backtracking factor
    (0.5) are fixed.
    """

    tol_grad: float = 1e-9
    max_iters: int = 100_000
    memory: int = 10

    def __post_init__(self):
        _finite_positive(self.tol_grad, "tol_grad")
        _int_at_least(self.max_iters, "max_iters", 1)
        _count_at_least(self.memory, "memory", 0)


@dataclass(frozen=True)
class OptimResult:
    """Minimizer path plus value, optimal time, stationarity diagnostics and iteration log.

    ``log`` holds one row of ``_LOG_HEADER`` per accepted iterate, the start
    first; a fixed-T solve's rows hold its horizon as given.
    """

    path: FePath
    value: float
    t_hat: float
    iterations: int
    converged: bool
    grad_norm: float
    el_residual: float
    hamiltonian_violation: float
    log: tuple


# The column names of the rows of ``OptimResult.log``, as the CLI writes them
_LOG_HEADER = ("iteration", "value", "grad_norm", "t_hat")


def _max_norm(vec: np.ndarray) -> float:
    return float(np.abs(vec).max()) if vec.size else 0.0


# Consecutive failed or no-progress iterations tolerated before declaring the
# iterate stationary (tiny steps creeping at the ulp floor).
_DEAD_LIMIT = 30


def _evaluate_start(evaluate, z0):
    """``(value, grad, t_hat)`` at ``z0`` from ``evaluate``; the value and gradient must be finite.

    The line search accepts only trial points with a finite value, so this
    one check keeps an overflowed start from passing the stopping test; the
    overflow it catches is reported as the typed error, not as a warning.
    A degenerate start raises its own typed error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad_of, t_hat = evaluate(z0)
        grad = grad_of()
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise ActionError("action or gradient is not finite at the start path")
    return value, grad, t_hat


def _no_smaller_step_shrinks(grad, g_try, grad_norm):
    """Whether the gradient's linear model rules out every smaller step of a gradient-norm search.

    A rejected trial at the step s with the finite gradient ``g_try`` gives
    delta = g_try - g, and the model g + t delta of the gradient at the
    steps t s left to try, t in (0, 1/2].  Its squared norm is |g|^2 times
    1 + 2 a t + b t^2, with a = g.delta / |g|^2 and b = |delta|^2 / |g|^2,
    whose least value over [0, 1/2] is 1 if a >= 0, 1 + a + b / 4 if the
    vertex -a / b is at or past 1/2, and 1 - a^2 / b otherwise.  No smaller
    step passes when that least value is at least _GRAD_SHRINK^2.  The model
    is taken in ratios to ``grad_norm`` = |g|, so gradients near either end
    of the float range give no warning; where a or b is still not finite it
    rules out nothing, and the search halves on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rel = (g_try - grad) / grad_norm  # delta / |g|
        a = grad.dot(rel) / grad_norm
        b = rel.dot(rel)
    if not (math.isfinite(a) and b < math.inf):
        return False
    if a >= 0.0:
        return True  # also for delta = 0, with no division by b
    least = 1.0 + a + 0.25 * b if -2.0 * a >= b else 1.0 - a * a / b
    return least >= _GRAD_SHRINK * _GRAD_SHRINK


def _lbfgs_loop(evaluate, z0, cfg: OptimConfig, precond_apply, start=None, rebuild=None):
    """Core L-BFGS iteration, or damped Newton with ``rebuild``.

    ``evaluate(z) -> (value, grad_of, t_hat)`` gives the value at once and
    the gradient only when ``grad_of()`` is called; the loop calls it for
    the start, for every gradient-norm trial and for an Armijo trial only
    once the trial passes the test.  Either call may raise ActionError for a
    trial point, which rejects the trial: the search halves the step.  So
    does a gradient that is not finite.
    ``start`` is ``_evaluate_start(evaluate, z0)`` if the caller has it
    already, else None, and the loop evaluates the start itself.  A line
    search ends accepted at its first accepted trial, and fails after its
    last step (2**-66) or at its first trial that equals ``z`` bitwise,
    which is not evaluated.  A gradient-norm search also fails at its first
    rejected trial with a finite gradient for which
    ``_no_smaller_step_shrinks``: if the gradient is affine in the step, no
    smaller step could then pass.
    ``rebuild(z, t_hat)``, if given, makes the loop Newton's: it keeps no
    curvature pairs and makes no gamma-scaling solve, and after each accepted
    iterate that does not end the loop ``precond_apply`` becomes the
    operator that ``rebuild`` returns at that iterate.  Once ``rebuild``
    returns None the loop is L-BFGS, with the last operator.
    Returns ``(z, value, grad, t_hat, iterations, converged, log_rows)``;
    the last row holds the max-norm of the returned gradient.
    """
    z = z0.copy()
    value, grad, t_hat = _evaluate_start(evaluate, z) if start is None else start
    grad_max = _max_norm(grad)
    log_rows = [(0, value, grad_max, t_hat)]
    iterations = 0

    history = deque(maxlen=cfg.memory)  # (s, y, 1/(s.y)) curvature pairs
    gamma = 1.0

    def converged_now():
        return grad_max <= cfg.tol_grad * max(1.0, abs(value))

    if converged_now():
        return z, value, grad, t_hat, 0, True, log_rows

    dead = 0  # consecutive iterations without meaningful progress
    for it in range(1, cfg.max_iters + 1):
        # two-loop recursion with H0 = gamma * P^-1; v.dot(w) is the BLAS
        # product of float(v @ w) without the conversion
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * s.dot(q)
            alphas.append(a)
            q -= a * y
        r = gamma * precond_apply(q)
        for (s, y, rho), a in zip(history, reversed(alphas)):
            b = rho * y.dot(r)
            r += (a - b) * s
        direction = -r
        slope = grad.dot(direction)
        if not slope < 0.0:
            # P is SPD, so the preconditioned gradient is a descent direction
            direction = -precond_apply(grad)
            slope = grad.dot(direction)

        # Near the minimizer the largest decrease the Armijo test could see,
        # c1 * |slope|, drops below the roundoff noise of the value; comparing
        # values there is meaningless while the analytic gradient still holds
        # real signal.  Switch the acceptance test to gradient-norm descent.
        noise_floor = _NOISE * max(1.0, abs(value))
        grad_mode = _ARMIJO_C1 * (-slope) < noise_floor
        cur_gn2 = _norm2(grad)

        accepted = False
        z_bytes = z.tobytes()
        for step in _STEPS:
            z_try = z + step * direction
            if z_try.tobytes() == z_bytes:
                # the trial is the iterate, and so is every smaller step,
                # since rounding to nearest is monotone: the search has failed
                break
            try:
                f_try, grad_of, t_try = evaluate(z_try)
                if not (grad_mode or f_try <= value + _ARMIJO_C1 * step * slope):
                    continue  # Armijo rejects on the value: no gradient needed
                g_try = grad_of()
            except ActionError:
                continue
            if not np.isfinite(g_try).all():
                continue  # rejected as for an ActionError
            if not grad_mode:
                accepted = True
                break
            try_gn2 = _norm2(g_try)
            if try_gn2 < _GRAD_SHRINK * cur_gn2 and f_try <= value + noise_floor:
                accepted = True
                break
            if _no_smaller_step_shrinks(grad, g_try, cur_gn2):
                break  # the search has failed

        if not accepted:
            if history:
                # retry with fresh curvature before giving up
                history.clear()
                dead += 1
                if dead < _DEAD_LIMIT:
                    continue
            break

        decrease = value - f_try
        progressed = (
            decrease > 8e-16 * abs(value)
            or (try_gn2 if grad_mode else _norm2(g_try)) < _GRAD_SHRINK * cur_gn2
        )

        if rebuild is None:
            s_vec = z_try - z
            y_vec = g_try - grad
            sy = s_vec.dot(y_vec)
            if sy > 1e-12 * _norm2(s_vec) * _norm2(y_vec):
                py = precond_apply(y_vec)
                gamma = sy / y_vec.dot(py)
                history.append((s_vec, y_vec, 1.0 / sy))

        z, value, grad, t_hat = z_try, f_try, g_try, t_try
        grad_max = _max_norm(grad)
        iterations = it
        log_rows.append((it, value, grad_max, t_hat))
        if converged_now():
            return z, value, grad, t_hat, iterations, True, log_rows
        if progressed:
            dead = 0
        else:
            # steps creeping at the ulp floor
            dead += 1
            if dead >= _DEAD_LIMIT:
                break
        if rebuild is not None and it < cfg.max_iters:
            # Newton: the exact operator at the new iterate; if it cannot be
            # made, L-BFGS from here on, with the last one
            operator = rebuild(z, t_hat)
            if operator is None:
                rebuild = None
            else:
                precond_apply = operator

    return z, value, grad, t_hat, iterations, converged_now(), log_rows


def _drift_rate_sq(field: DriftField, start: FePath) -> float:
    """Squared drift rate kappa for the reaction term of the preconditioner.

    The largest squared spectral norm of the drift's Jacobian J at the
    start's nodes, taken as the largest eigenvalue of J^T J.  A Jacobian
    whose J^T J is not finite (not finite itself, or past ~1e154) gives inf,
    so the band is not finite.
    """
    jac = field.jacobian_many(start.values)
    gram = jac.transpose(0, 2, 1) @ jac  # under the band's errstate
    if not np.isfinite(gram).all():
        return math.inf
    return float(np.linalg.eigvalsh(gram)[:, -1].max())


def _load_flapack():
    """scipy's LAPACK extension module ``_flapack``, loaded from its file without ``scipy.linalg``.

    Importing the ``scipy.linalg`` package would take about two thirds of
    ``import minaction``, for four of its routines.  CPython enters a
    single-phase extension in ``sys.modules`` as it loads it; that entry is
    put back as it was, so a later ``import scipy.linalg`` imports the module
    as usual and gets the same routine objects from the interpreter's
    extension cache.  When the file is missing or does not load, the module
    comes from ``scipy.linalg``: the same routines either way.
    """
    name = "scipy.linalg._flapack"
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    entry = sys.modules.get(name)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:
        module = None
    finally:
        if entry is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = entry
    if module is None:
        from scipy.linalg import _flapack as module
    return module


_FLAPACK = _load_flapack()


def cholesky_banded(band):
    """Factor of the SPD matrix whose float64 upper band is ``band``, in a new array of its layout.

    This and ``cho_solve_banded`` are the solver's one LAPACK operation:
    every factor and every solve goes through these two names, which
    bench/layertrace.py wraps to time the preconditioner.  A two-row band is
    tridiagonal and factored as L D L^T by ``pttrf``: D's diagonal in row 1
    and L's subdiagonal in ``[0, 1:]``, L unit lower bidiagonal.  A wider one
    is factored by banded Cholesky, ``pbtrf``.  A matrix that is not
    positive definite raises ``LinAlgError("<k>-th leading minor not
    positive definite")``, k the order of the first leading minor that
    fails.  The band is not checked finite.
    """
    if band.shape[0] != 2:
        factor, info = _FLAPACK.dpbtrf(band, lower=0, overwrite_ab=0)
    else:
        factor = np.zeros_like(band)
        if not band.size:
            return factor  # no interior node; pttrf's wrapper rejects an empty matrix
        # the off-diagonal is [0, 1:], but the wrappers of pttrf and pttrs take
        # a 1 x 1 matrix's empty one as one entry: the unused corner [0, 0]
        off = min(1, band.shape[1] - 1)
        factor[1], factor[0, off:], info = _FLAPACK.dpttrf(band[1], band[0, off:])
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of the LAPACK factor")
    return factor


def cho_solve_banded(factor, rhs):
    """x with A x = ``rhs``, ``factor`` = ``cholesky_banded`` of A's band.

    ``rhs`` holds one right-hand side per column.  An empty one is returned
    empty, since LAPACK rejects an empty 2-D one, and one that is not finite
    raises ``ValueError``.
    """
    if not rhs.size:
        return np.empty_like(rhs)
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    if factor.shape[0] != 2:
        x, info = _FLAPACK.dpbtrs(factor, rhs, lower=0)
    else:
        off = min(1, factor.shape[1] - 1)
        x, info = _FLAPACK.dpttrs(factor[1], factor[0, off:], rhs)
    if info:
        raise ValueError(f"illegal value in {-info}-th argument of the LAPACK solve")
    return x


class _Band:
    """The fixed-T Hessian P of the action for a linear drift b(x) = A x, as a band at any horizon.

    At T, P = T sum_e h_e sum_k w_k A_ek^T A_ek, whose element rows
    A_ek = [-I/(T h_e) - (1 - xi_k) A, I/(T h_e) - xi_k A] are the
    derivatives of the residual at point k of element e by its two nodes:
    P = (1/T) K (x) I + T M (x) A^T A plus the skew part of A on the
    off-diagonal blocks, K and M the stiffness and mass matrices of the
    start path's mesh on its interior nodes.  P does not depend on the path.
    ``linear`` says whether A is the field's ``linear_matrix``: then
    ``gram`` is A^T A and, the rule being symmetric about 1/2, M takes its
    moments ``same`` = sum_k w_k xi_k^2 (a node with itself) and 1/2 minus
    that (a node with its neighbour).  Otherwise A = sqrt(kappa) I, kappa
    from ``_drift_rate_sq``, with the exact P1 mass moments 1/3 and 1/6: a
    Sobolev-type operator, the inverse Laplacian at small horizons and
    aligned with the Hessian by its reaction term at large ones, whose 1 x 1
    blocks give one factor for every state component.

    P is block tridiagonal with m x m blocks, so in the node-major order of
    the interior vector it is one upper band with 2m - 1 superdiagonals:
    stiff / T + (skew + (T gram) mass), elementwise.  This holds those four
    T-independent arrays, built once per solve, so that P at another horizon
    costs five array operations.
    """

    def __init__(self, start: FePath, field: DriftField, quad: Quadrature, linear: bool):
        n = start.dim
        h = start.mesh.widths
        self.linear, self.n = linear, n
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if linear:
                a_mat = np.asarray(field.linear_matrix, dtype=float)
                gram, skew = a_mat.T @ a_mat, 0.5 * (a_mat - a_mat.T)
                self.same = quad.w.dot(quad.xi * quad.xi)
                mass_diag, mass_off = self.same * (h[:-1] + h[1:]), (0.5 - self.same) * h[1:-1]
            else:
                gram, skew = np.array([[_drift_rate_sq(field, start)]]), np.zeros((1, 1))
                mass_diag, mass_off = (h[:-1] + h[1:]) / 3.0, h[1:-1] / 6.0
            stiff_diag, stiff_off = 1.0 / h[:-1] + 1.0 / h[1:], -1.0 / h[1:-1]
        self.gram = gram
        m = self.m = gram.shape[0]
        upper = 2 * m - 1
        shape = (2 * m, (h.size - 1) * m)               # band[upper + row - col, col]
        self.stiff, self.reaction, self.mass, self.skew = (np.zeros(shape) for _ in range(4))

        def put(row, cols, stiff, gram_rc, mass, skew_rc):
            self.stiff[row, cols], self.reaction[row, cols] = stiff, gram_rc
            self.mass[row, cols], self.skew[row, cols] = mass, skew_rc

        # The diagonal block of interior node i sums element i-1's right-node
        # and element i's left-node parts, whose A + A^T terms cancel by the
        # rule's symmetry; the off-diagonal block of nodes i and i + 1 is
        # element i's cross part.  Only the (r, r) entries of either block
        # carry stiffness, and only the off-diagonal block the skew part.
        for r in range(m):
            for c in range(m):
                if c >= r:
                    put(upper + r - c, slice(c, None, m), stiff_diag if r == c else 0.0,
                        gram[r, c], mass_diag, 0.0)
                put(upper + r - c - m, slice(m + c, None, m), stiff_off if r == c else 0.0,
                    gram[r, c], mass_off, skew[r, c])

    def t_coupling(self, path: FePath, t_ref: float):
        """(c, H_TT) of the fixed-T action at ``path`` and T = ``t_ref``, for a linear band.

        c = grad |b(p)|^2 / 2 - grad |p'|^2 / (2 T^2) is the derivative in T of
        the interior gradient, flat in node-major order, and H_TT = |p'|^2 / T^3
        the second derivative of the action in T.  The quadrature sums of
        grad |b(p)|^2 / 2 reduce to the band's ``gram`` and the rule's moment
        ``same``.
        """
        h = path.mesh.widths
        nodes = path.values
        delta = np.diff(nodes, axis=0)
        deriv = delta / h[:, None]
        h_tt = float(np.vdot(delta, deriv)) / t_ref / t_ref / t_ref
        mass = ((self.same * (h[:-1] + h[1:]))[:, None] * nodes[1:-1]
                + (0.5 - self.same) * (h[:-1, None] * nodes[:-2] + h[1:, None] * nodes[2:]))
        return (mass @ self.gram + (deriv[1:] - deriv[:-1]) / t_ref / t_ref).ravel(), h_tt

    def inverse(self, t_ref: float, path: Optional[FePath] = None):
        """Apply closure of P^-1 at T = ``t_ref``, downdated at ``path`` if given and linear.

        ``cholesky_banded`` factors the band once and each apply is one
        ``cho_solve_banded`` solve.  Given a ``path`` and a linear band, the
        closure applies instead the inverse of the reduced Hessian
        P - c c^T / H_TT there, by Sherman-Morrison, with ``t_coupling``'s c
        and H_TT.  The plain P^-1 is returned when c is not finite, or when
        H_TT - c^T P^-1 c is not finite or at most 1e-8 H_TT, where the
        reduced Hessian is not safely positive definite.  The factor
        routine's ``LinAlgError`` passes through; a band or factor that is
        not finite raises ``ActionError``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            band = self.stiff / t_ref + (self.skew + (t_ref * self.reaction) * self.mass)
        if not np.isfinite(band).all():
            raise ActionError("preconditioner is not finite at this horizon")
        factor = cholesky_banded(band)
        if not np.isfinite(factor).all():
            raise ActionError("preconditioner is not finite at this horizon")
        # one column per state component for a tridiagonal band (m = 1),
        # else one flat column
        cols = self.n // self.m

        def apply(vec):
            return cho_solve_banded(factor, vec.reshape(-1, cols)).ravel()

        if path is None or not self.linear:
            return apply
        with np.errstate(over="ignore", invalid="ignore"):
            c_vec, h_tt = self.t_coupling(path, t_ref)
            if not np.isfinite(c_vec).all():
                return apply
            u_vec = apply(c_vec)
            schur = h_tt - c_vec.dot(u_vec)
        if not 1e-8 * h_tt < schur < math.inf:
            return apply

        def apply_reduced(vec):
            return apply(vec) + u_vec * (u_vec.dot(vec) / schur)

        return apply_reduced


def _preconditioner(start: FePath, field: DriftField, quad: Quadrature, t_ref: float,
                    reduced: bool):
    """``(apply, rebuild)``: the solver's operator at ``start`` and T = ``t_ref``, and its rebuild.

    ``apply`` is ``_Band.inverse`` at ``t_ref``, downdated at ``start`` if
    ``reduced``.  A field with an n x n ``linear_matrix`` gives A; if the
    factor rejects that band with ``LinAlgError`` (the action is then not
    strictly convex in the path), A = sqrt(kappa) I serves instead, as for
    every other field.  A reduced solve whose band is the ``linear_matrix``'s,
    and whose field's Jacobian at the start nodes equals that matrix, is
    Newton's: ``rebuild(z, t_hat)`` is the same band's inverse at an
    iterate's interior ``z`` and its t_hat, the exact reduced Hessian's
    there, or None when that band fails to factor or is not finite.  For
    every other solve ``rebuild`` is None.
    """
    linear = np.shape(field.linear_matrix) == (start.dim, start.dim)
    band = _Band(start, field, quad, linear)
    try:
        apply = band.inverse(t_ref, start if reduced else None)
    except LinAlgError:
        if not linear:
            raise
        return _Band(start, field, quad, False).inverse(t_ref), None
    if not (reduced and linear and _jacobian_is_linear_matrix(field, start)):
        return apply, None
    n = start.dim

    def rebuild(z, t_hat):
        try:
            return band.inverse(t_hat, start.replace_interior(z.reshape(-1, n)))
        except (LinAlgError, ActionError):
            return None

    return apply, rebuild


def _jacobian_is_linear_matrix(field: DriftField, start: FePath) -> bool:
    """Whether the field's Jacobian at every node of ``start`` equals its ``linear_matrix``."""
    jac = field.jacobian_many(start.values)
    return np.shape(jac) == (start.values.shape[0], start.dim, start.dim) and bool(
        (jac == field.linear_matrix).all())


def _minimize(
    start: FePath,
    field: DriftField,
    cfg: OptimConfig,
    quad: Quadrature,
    T: Optional[float] = None,
) -> OptimResult:
    """Shared solve over the interior of ``start``, packaged with its iteration log.

    The functional is the action at the horizon ``T``, or the reduced one if
    ``T`` is None.  Each evaluation is ``_staged(path, field, quad, T)``,
    looked up in this module at call time, and computes its gradient
    ``grad_of()`` only when the loop asks.  A fixed-T solve checks ``T`` and
    builds its preconditioner at ``T`` first; a reduced one evaluates the
    start first and builds it at the start's t_hat.  Either way the start is
    evaluated once.  ``_preconditioner`` gives the loop its operator and,
    for a Newton solve, the rebuild of it at each iterate.  The diagnostics are
    evaluated at the final t_hat: the Euler-Lagrange residual from the
    loop's last gradient, which is the fixed-T gradient there, and the
    Hamiltonian violation from one drift evaluation.
    """
    reduced = T is None
    t_ref = None if reduced else _finite_positive(T, "T")
    n = start.dim

    def evaluate(z):
        f, grad_of, th = _staged(start.replace_interior(z.reshape(-1, n)), field, quad, T)
        return f, lambda: grad_of().ravel(), th

    z0 = start.values[1:-1].ravel()
    first = None
    if reduced:
        first = _evaluate_start(evaluate, z0)
        t_ref = first[2]
    precond, rebuild = _preconditioner(start, field, quad, t_ref, reduced)
    z, value, grad, t_hat, iters, ok, rows = _lbfgs_loop(
        evaluate, z0, cfg, precond, first, rebuild)
    path = start.replace_interior(z.reshape(-1, n))
    t_hat = float(t_hat)
    return OptimResult(
        path=path,
        value=float(value),
        t_hat=t_hat,
        iterations=iters,
        converged=ok,
        grad_norm=rows[-1][2],
        el_residual=_el_residual_at(path, grad, t_hat),
        hamiltonian_violation=hamiltonian_violation(path, field, t_hat, quad),
        log=tuple(rows),
    )


def minimize_fixed_T(
    start: FePath,
    field: DriftField,
    T: float,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
) -> OptimResult:
    """Minimize the fixed-horizon discrete action from the given start path.

    Non-convergence is reported through ``OptimResult.converged``; the best
    iterate found is always returned.
    """
    return _minimize(start, field, cfg or OptimConfig(), quad or Quadrature(), T)


def minimize_tmam(
    start: FePath,
    field: DriftField,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
) -> OptimResult:
    """Minimize the reduced (optimal-horizon) discrete action.

    The optimal time is recomputed at every evaluation; the start's is the
    preconditioner's horizon.  A degenerate start (constant path, or drift
    vanishing along the whole path) raises the corresponding typed error, as
    does a start whose optimal time is not finite and positive; every
    converged result carries a finite positive optimal time.
    """
    return _minimize(start, field, cfg or OptimConfig(), quad or Quadrature())


def _nested_meshes(N_list) -> list[Mesh]:
    """Uniform meshes of ``N_list``: nonempty, positive, strictly increasing, each entry dividing the next.

    Every mesh is built here, so an entry too large for a node array is
    rejected, by name, before any level is solved.
    """
    N_list = [_int_at_least(N, "N_list entry", 1) for N in N_list]
    if not N_list:
        raise ValueError("N_list must be nonempty")
    if any(b <= a or b % a != 0 for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing with nested entries")
    return [_uniform_mesh(N, "N_list entry") for N in N_list]


def continuation_sweep(
    field: DriftField,
    x1,
    x2,
    N_list,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
    T: Optional[float] = None,
) -> list[OptimResult]:
    """Warm-started refinement sweep over nested uniform meshes.

    The first level starts from the straight-line path; each subsequent level
    starts from the previous minimizer resampled onto the finer mesh (exact on
    nested meshes), which makes the discrete minima nonincreasing along the
    sweep.  ``N_list`` must be strictly increasing with each entry dividing
    the next.  A number ``T`` fixes the horizon of every level
    (``minimize_fixed_T``, which checks it before the first solve); None
    optimizes it per path (``minimize_tmam``).  Typed solver errors are
    re-raised with the failing level in the message.
    """
    results: list[OptimResult] = []
    prev_path: Optional[FePath] = None
    for mesh in _nested_meshes(N_list):
        if prev_path is None:
            start = linear_interpolant_path(x1, x2, mesh)
        else:
            start = resample_path(prev_path, mesh)
        try:
            if T is None:
                res = minimize_tmam(start, field, cfg, quad)
            else:
                res = minimize_fixed_T(start, field, T, cfg, quad)
        except ActionError as err:
            raise type(err)(f"sweep failed at N={mesh.num_elements}: {err}") from err
        results.append(res)
        prev_path = res.path
    return results
