"""Minimization of the discrete action functionals over interior nodal values.

Both the fixed-horizon functional and the reduced (optimal-horizon) functional
are smooth in the (N-1)*n interior unknowns, so both are minimized by one
shared routine: a limited-memory quasi-Newton iteration with a backtracking
line search.  The two public solvers differ only in the value/gradient call
and the reference horizon of the preconditioner.  The discrete reduced
functional has a finite optimal horizon at every mesh, so the horizon needs
no cap.  Because the stationarity system is elliptic, raw nodal gradients
condition badly as the mesh or the horizon grows; the inverse of a
stiffness-plus-scaled-mass operator on interior nodes is applied per state
component as the initial inverse-Hessian guess (a Sobolev-type gradient),
which keeps iteration counts roughly mesh- and horizon-independent.
Endpoints are never touched.

A line search halves the step from 1 until a trial is accepted.  It fails
after the step 2**-66, or at its first trial that rounds to the current
iterate bitwise: every smaller step gives the iterate too, and a search that
returns the iterate has failed, so that trial is never evaluated or accepted.
Near the minimizer the search accepts by gradient-norm descent instead of
Armijo's test: a trial must shrink the gradient's 2-norm below 0.999 of the
current one.  Such a search also fails at its first rejected trial whose
gradient differs from the current one by at most 0.001 of its norm: by the
triangle inequality that trial keeps 0.999 of the norm, and a smaller step
moves the gradient less still, so no later trial could pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

# A solve takes its horizon and Euler-Lagrange residual from the loop's own
# evaluations, so el_residual and optimal_time are not called here; they stay
# names of this module, where bench/layertrace.py wraps every call site
from .action import (  # noqa: F401
    ActionError,
    Quadrature,
    _el_residual_at,
    el_residual,
    fixed_t_value_grad,
    hamiltonian_violation,
    optimal_time,
    tmam_value_grad,
)
from .drift import DriftField
from .pathcore import (
    FePath,
    Mesh,
    _finite_positive,
    _int_at_least,
    _uniform_mesh,
    _write_table,
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
_GRAD_SHRINK = 0.999

# Roundoff noise of a value v is taken as _NOISE * max(1, |v|).
_NOISE = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class OptimConfig:
    """Solver knobs.

    ``tol_grad`` stops the iteration once the gradient max-norm falls below
    tol_grad * max(1, |value|); ``max_iters`` caps the iteration count;
    ``memory`` is the number of L-BFGS curvature pairs kept (0 leaves only the
    scaled preconditioner); ``log_path`` names an optional per-iteration CSV
    log.  The elliptic preconditioner is always on, and the line search's
    Armijo constant (1e-4) and backtracking factor (0.5) are fixed.
    """

    tol_grad: float = 1e-9
    max_iters: int = 100_000
    memory: int = 10
    log_path: Optional[str] = None

    def __post_init__(self):
        _finite_positive(self.tol_grad, "tol_grad")
        _int_at_least(self.max_iters, "max_iters", 1)
        _int_at_least(self.memory, "memory", 0)


@dataclass(frozen=True)
class OptimResult:
    """Minimizer path plus value, optimal time, and stationarity diagnostics."""

    path: FePath
    value: float
    t_hat: float
    iterations: int
    converged: bool
    grad_norm: float
    el_residual: float
    hamiltonian_violation: float


def _max_norm(vec: np.ndarray) -> float:
    return float(np.abs(vec).max()) if vec.size else 0.0


def _norm2(vec: np.ndarray) -> float:
    """2-norm of a 1-D float vector by numpy's own ``norm`` formula, with its bits and warnings."""
    return math.sqrt(vec.dot(vec))


# Consecutive failed or no-progress iterations tolerated before declaring the
# iterate stationary (tiny steps creeping at the ulp floor).
_DEAD_LIMIT = 30


def _evaluate_start(evaluate, z0):
    """``evaluate(z0)``, which must have a finite value and gradient.

    The line search accepts only trial points with a finite value, so this
    one check keeps an overflowed start from passing the stopping test; the
    overflow it catches is reported as the typed error, not as a warning.
    A degenerate start raises its own typed error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad, t_hat = evaluate(z0)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise ActionError("action or gradient is not finite at the start path")
    return value, grad, t_hat


def _lbfgs_loop(evaluate, z0, cfg: OptimConfig, precond_apply, start=None):
    """Core L-BFGS iteration.

    ``evaluate(z) -> (value, grad, t_hat)`` may raise ActionError for trial
    points; trials that raise are rejected by halving the step.  ``start``
    is ``_evaluate_start(evaluate, z0)`` if the caller has it already, else
    None, and the loop evaluates the start itself.  A line search ends
    accepted at its first accepted trial, and fails after its last step
    (2**-66) or at its first trial that equals ``z`` bitwise, which is not
    evaluated.  A gradient-norm search also fails at its first rejected
    trial whose gradient moved by at most 1 - _GRAD_SHRINK times the current
    gradient's 2-norm, since no smaller step could then pass.
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
                f_try, g_try, t_try = evaluate(z_try)
            except ActionError:
                continue
            if grad_mode:
                try_gn2 = _norm2(g_try)
                if try_gn2 < _GRAD_SHRINK * cur_gn2 and f_try <= value + noise_floor:
                    accepted = True
                    break
                if _norm2(g_try - grad) <= (1.0 - _GRAD_SHRINK) * cur_gn2:
                    # |g_try| >= 0.999 |g| here, and a smaller step moves the
                    # gradient less still: the search has failed
                    break
            elif f_try <= value + _ARMIJO_C1 * step * slope:
                accepted = True
                break

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

    return z, value, grad, t_hat, iterations, converged_now(), log_rows


def _drift_rate_sq(field: DriftField, start: FePath) -> float:
    """Squared Lipschitz-rate estimate for the reaction term of the preconditioner."""
    if field.lipschitz is not None:
        rate = float(field.lipschitz)
    else:
        rate = float(np.max(np.linalg.norm(field.jacobian_many(start.values), 2, axis=(1, 2))))
    try:
        return rate ** 2
    except OverflowError:  # a rate past ~1e154; the band is then not finite
        return math.inf


# LAPACK's banded Cholesky solve for float64, the routine behind scipy's
# cho_solve_banded
_PBTRS = get_lapack_funcs(("pbtrs",), (np.empty(0),))[0]


def cho_solve_banded(cb_and_lower, b):
    """``scipy.linalg.cho_solve_banded`` for a factor that was checked finite when made.

    Same call form and bits, straight through LAPACK ``pbtrs``; only the
    right-hand side is checked, with scipy's ``ValueError`` if it is not
    finite.  ``b`` is a nonempty float64 array.
    """
    cb, lower = cb_and_lower
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = _PBTRS(cb, b, lower=lower)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
    return x


def _preconditioner(start: FePath, field: DriftField, t_ref: float):
    """Apply closure of P^-1, P = (1/T) K + T kappa M on interior nodes per component.

    K is the 1-D stiffness matrix and M the mass matrix of the start path's
    mesh, T = ``t_ref`` and kappa estimates the squared local Lipschitz rate
    of the drift.  The operator mirrors the elliptic part of the stationarity
    system: for small horizons it is essentially the (Sobolev) inverse
    Laplacian, for large horizons the reaction term keeps it aligned with the
    Hessian, so iteration counts stay roughly mesh- and horizon-independent in
    both regimes.  P is SPD, factored once per solve by banded Cholesky; the
    closure maps a flat interior vector to P^-1 applied to each component.
    """
    n = start.dim
    kappa = _drift_rate_sq(field, start)
    h = start.mesh.widths
    stiff_diag = 1.0 / h[:-1] + 1.0 / h[1:]
    stiff_off = -1.0 / h[1:-1]
    mass_diag = (h[:-1] + h[1:]) / 3.0
    mass_off = h[1:-1] / 6.0
    reaction = t_ref * kappa
    band = np.zeros((2, h.size - 1))
    band[1] = stiff_diag / t_ref + reaction * mass_diag
    band[0, 1:] = stiff_off / t_ref + reaction * mass_off
    if not np.all(np.isfinite(band)):
        raise ActionError("preconditioner is not finite at this horizon")
    factor = cholesky_banded(band, lower=False)
    if not np.isfinite(factor).all():
        raise ActionError("preconditioner is not finite at this horizon")

    def apply(vec):
        return cho_solve_banded((factor, False), vec.reshape(-1, n)).ravel()

    return apply


def _minimize(
    start: FePath,
    field: DriftField,
    cfg: OptimConfig,
    quad: Quadrature,
    value_grad,
    t_ref: Optional[float] = None,
) -> OptimResult:
    """Shared solve: L-BFGS over the interior of ``start``, log, package.

    ``value_grad(path) -> (value, grad, t_hat)`` is the functional and
    ``t_ref`` the preconditioner's horizon.  If ``t_ref`` is None the start
    is evaluated first and its t_hat is the horizon; else the preconditioner
    is built first.  Either way the start is evaluated once.  The
    diagnostics are evaluated at the final t_hat: the Euler-Lagrange
    residual from the loop's last gradient, which is the fixed-T gradient
    there, and the Hamiltonian violation from one drift evaluation.
    """
    n = start.dim

    def evaluate(z):
        f, g, th = value_grad(start.replace_interior(z.reshape(-1, n)))
        return f, g.ravel(), th

    z0 = start.values[1:-1].ravel()
    first = None
    if t_ref is None:
        first = _evaluate_start(evaluate, z0)
        t_ref = first[2]
    precond = _preconditioner(start, field, t_ref)
    z, value, grad, t_hat, iters, ok, rows = _lbfgs_loop(evaluate, z0, cfg, precond, first)
    if cfg.log_path is not None:
        _write_table(cfg.log_path, ("iteration", "value", "grad_norm", "t_hat"), rows)
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
    t_ref = _finite_positive(T, "T")
    cfg = cfg or OptimConfig()
    quad = quad or Quadrature()
    return _minimize(
        start, field, cfg, quad, lambda p: fixed_t_value_grad(p, field, T, quad), t_ref
    )


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
    cfg = cfg or OptimConfig()
    quad = quad or Quadrature()
    return _minimize(start, field, cfg, quad, lambda p: tmam_value_grad(p, field, quad))


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
