"""Minimization of the discrete action functionals over interior nodal values.

Both the fixed-horizon functional and the reduced (optimal-horizon) functional
are smooth in the (N-1)*n interior unknowns, so both are minimized by one
shared routine: a limited-memory quasi-Newton iteration with a backtracking
line search.  The two public solvers differ only in the value/gradient call,
the reference horizon of the preconditioner and the optional optimal-time cap.
Because the stationarity system is elliptic, raw nodal gradients condition
badly as the mesh or the horizon grows; by default the inverse of a
stiffness-plus-scaled-mass operator on interior nodes is applied per state
component as the initial inverse-Hessian guess (a Sobolev-type gradient),
which keeps iteration counts roughly mesh- and horizon-independent.
Endpoints are never touched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .action import (
    ActionError,
    Quadrature,
    el_residual,
    fixed_t_value_grad,
    hamiltonian_violation,
    optimal_time,
    tmam_value_grad,
)
from .drift import DriftField
from .pathcore import FePath, linear_interpolant_path, resample_path, uniform_mesh

__all__ = [
    "OptimConfig",
    "OptimResult",
    "minimize_fixed_T",
    "minimize_tmam",
    "continuation_sweep",
]

# Armijo sufficient-decrease constant and backtracking factor of the line search.
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5


@dataclass(frozen=True)
class OptimConfig:
    """Solver knobs.

    ``tol_grad`` stops the iteration once the gradient max-norm falls below
    tol_grad * max(1, |value|); ``max_iters`` caps the iteration count;
    ``memory`` is the number of L-BFGS curvature pairs kept (0 leaves only the
    scaled preconditioner); ``sobolev_precondition`` toggles the elliptic
    preconditioner.  ``t_cap`` optionally rejects line-search trial points
    whose optimal time exceeds the cap (reduced functional only); for
    discrete problems the cap is provably inactive at the minimizer, and
    ``OptimResult.cap_active`` records whether it ever fired.  ``log_path``
    names an optional per-iteration CSV log.  The line search's Armijo
    constant (1e-4) and backtracking factor (0.5) are fixed.
    """

    tol_grad: float = 1e-9
    max_iters: int = 100_000
    memory: int = 10
    sobolev_precondition: bool = True
    t_cap: Optional[float] = None
    log_path: Optional[str] = None

    def __post_init__(self):
        if not self.tol_grad > 0.0:
            raise ValueError("tol_grad must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.memory < 0:
            raise ValueError("memory must be >= 0")
        if self.t_cap is not None and not self.t_cap > 0.0:
            raise ValueError("t_cap must be positive")


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
    cap_active: bool = False


def _max_norm(vec: np.ndarray) -> float:
    return float(np.max(np.abs(vec))) if vec.size else 0.0


# Consecutive no-progress iterations tolerated before declaring the iterate
# stationary (for example at an active optimal-time cap).
_DEAD_LIMIT = 30


def _lbfgs_loop(evaluate, z0, cfg: OptimConfig, precond_apply, cap: Optional[float]):
    """Core L-BFGS iteration.

    ``evaluate(z) -> (value, grad, t_hat)`` may raise ActionError for trial
    points; trials that raise, or whose t_hat exceeds the cap, are rejected by
    shrinking the step.  Returns the final state and bookkeeping flags.
    """
    z = z0.copy()
    value, grad, t_hat = evaluate(z)  # degenerate start propagates
    log_rows = [(0, value, _max_norm(grad), t_hat)]
    cap_active = False
    iterations = 0

    history = deque(maxlen=cfg.memory)  # (s, y, 1/(s.y)) curvature pairs
    gamma = 1.0

    def converged_now(f, g):
        return _max_norm(g) <= cfg.tol_grad * max(1.0, abs(f))

    if z.size == 0 or converged_now(value, grad):
        return z, value, grad, t_hat, 0, True, cap_active, log_rows

    dead = 0  # consecutive iterations without meaningful progress
    for it in range(1, cfg.max_iters + 1):
        # two-loop recursion with H0 = gamma * P^-1
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        r = gamma * precond_apply(q)
        for (s, y, rho), a in zip(history, reversed(alphas)):
            b = rho * float(y @ r)
            r += (a - b) * s
        direction = -r
        slope = float(grad @ direction)
        if not slope < 0.0:
            # P is SPD, so the preconditioned gradient is a descent direction
            direction = -precond_apply(grad)
            slope = float(grad @ direction)

        # Near the minimizer the largest decrease the Armijo test could see,
        # c1 * |slope|, drops below the roundoff noise of the value; comparing
        # values there is meaningless while the analytic gradient still holds
        # real signal.  Switch the acceptance test to gradient-norm descent.
        noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        grad_mode = _ARMIJO_C1 * (-slope) < noise_floor
        cur_gn2 = float(np.linalg.norm(grad))

        step = 1.0
        accepted = False
        while step > 1e-20:
            z_try = z + step * direction
            try:
                f_try, g_try, t_try = evaluate(z_try)
            except ActionError:
                step *= _BACKTRACK
                continue
            if cap is not None and t_try > cap:
                cap_active = True
                step *= _BACKTRACK
                continue
            if grad_mode:
                if float(np.linalg.norm(g_try)) < 0.999 * cur_gn2 and f_try <= value + noise_floor:
                    accepted = True
                    break
            elif f_try <= value + _ARMIJO_C1 * step * slope:
                accepted = True
                break
            step *= _BACKTRACK

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
            or float(np.linalg.norm(g_try)) < 0.999 * cur_gn2
        )

        s_vec = z_try - z
        y_vec = g_try - grad
        sy = float(s_vec @ y_vec)
        if sy > 1e-12 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            py = precond_apply(y_vec)
            gamma = sy / float(y_vec @ py)
            history.append((s_vec, y_vec, 1.0 / sy))

        z, value, grad, t_hat = z_try, f_try, g_try, t_try
        iterations = it
        log_rows.append((it, value, _max_norm(grad), t_hat))
        if converged_now(value, grad):
            return z, value, grad, t_hat, iterations, True, cap_active, log_rows
        if progressed:
            dead = 0
        else:
            # a stationary boundary (active optimal-time cap) or the ulp floor
            dead += 1
            if dead >= _DEAD_LIMIT:
                break

    return z, value, grad, t_hat, iterations, converged_now(value, grad), cap_active, log_rows


def _write_log(rows, log_path: Optional[str]) -> None:
    if log_path is None:
        return
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("iteration,value,grad_norm,t_hat\n")
        for it, val, gn, th in rows:
            fh.write(f"{it},{val!r},{gn!r},{th!r}\n")


def _drift_rate_sq(field: DriftField, start: FePath) -> float:
    """Squared Lipschitz-rate estimate for the reaction term of the preconditioner."""
    if field.lipschitz is not None:
        return float(field.lipschitz) ** 2
    jacs = field.jacobian_many(start.values)
    return float(np.max(np.linalg.norm(jacs, 2, axis=(1, 2)))) ** 2


def _preconditioner(start: FePath, field: DriftField, t_ref: float, cfg: OptimConfig):
    """Apply closure of P^-1, P = (1/T) K + T kappa M on interior nodes per component.

    K is the 1-D stiffness matrix and M the mass matrix of the start path's
    mesh, T = ``t_ref`` and kappa estimates the squared local Lipschitz rate
    of the drift.  The operator mirrors the elliptic part of the stationarity
    system: for small horizons it is essentially the (Sobolev) inverse
    Laplacian, for large horizons the reaction term keeps it aligned with the
    Hessian, so iteration counts stay roughly mesh- and horizon-independent in
    both regimes.  P is SPD, factored once per solve by banded Cholesky; the
    closure maps a flat interior vector to P^-1 applied to each component.
    With ``cfg.sobolev_precondition`` off it is the identity.
    """
    if not cfg.sobolev_precondition:
        return lambda vec: vec
    n = start.dim
    kappa = _drift_rate_sq(field, start)
    h = np.diff(start.mesh.nodes)
    stiff_diag = 1.0 / h[:-1] + 1.0 / h[1:]
    stiff_off = -1.0 / h[1:-1]
    mass_diag = (h[:-1] + h[1:]) / 3.0
    mass_off = h[1:-1] / 6.0
    reaction = t_ref * max(kappa, 0.0)
    band = np.zeros((2, h.size - 1))
    band[1] = stiff_diag / t_ref + reaction * mass_diag
    band[0, 1:] = stiff_off / t_ref + reaction * mass_off
    factor = cholesky_banded(band, lower=False)

    def apply(vec):
        return cho_solve_banded((factor, False), vec.reshape(-1, n)).ravel()

    return apply


def _minimize(
    start: FePath,
    field: DriftField,
    cfg: OptimConfig,
    quad: Quadrature,
    value_grad,
    t_ref: float,
    cap: Optional[float],
) -> OptimResult:
    """Shared solve: L-BFGS over the interior of ``start``, log, package.

    ``value_grad(path) -> (value, grad, t_hat)`` is the functional;
    ``t_ref`` is the preconditioner's horizon and ``cap`` the optional
    optimal-time cap.  The diagnostics are evaluated at the final t_hat.
    """
    n = start.dim

    def evaluate(z):
        f, g, th = value_grad(start.replace_interior(z.reshape(-1, n)))
        return f, g.ravel(), th

    z0 = start.values[1:-1].ravel().copy()
    z, value, grad, t_hat, iters, ok, cap_active, rows = _lbfgs_loop(
        evaluate, z0, cfg, _preconditioner(start, field, t_ref, cfg), cap
    )
    _write_log(rows, cfg.log_path)
    path = start.replace_interior(z.reshape(-1, n))
    return OptimResult(
        path=path,
        value=float(value),
        t_hat=float(t_hat),
        iterations=iters,
        converged=ok,
        grad_norm=_max_norm(grad),
        el_residual=el_residual(path, field, t_hat, quad),
        hamiltonian_violation=hamiltonian_violation(path, field, t_hat, quad),
        cap_active=cap_active,
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
    if not T > 0.0:
        raise ValueError("T must be positive")
    quad = quad or Quadrature()

    def value_grad(p):  # t_hat stays T as given: an int T is logged as an int
        return (*fixed_t_value_grad(p, field, T, quad), T)

    return _minimize(start, field, cfg or OptimConfig(), quad, value_grad, float(T), None)


def minimize_tmam(
    start: FePath,
    field: DriftField,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
) -> OptimResult:
    """Minimize the reduced (optimal-horizon) discrete action.

    The optimal time is recomputed at every evaluation.  A degenerate start
    (constant path, or drift vanishing along the whole path) raises the
    corresponding typed error; every converged result carries a finite
    positive optimal time.
    """
    cfg = cfg or OptimConfig()
    quad = quad or Quadrature()
    t_ref = optimal_time(start, field, quad)  # degenerate starts raise here
    return _minimize(
        start, field, cfg, quad, lambda p: tmam_value_grad(p, field, quad), t_ref, cfg.t_cap
    )


def _nested_levels(N_list) -> list[int]:
    """``N_list`` as ints: nonempty, positive, strictly increasing, each entry dividing the next."""
    N_list = [int(N) for N in N_list]
    if not N_list or N_list[0] < 1:
        raise ValueError("N_list must be nonempty with positive entries")
    if any(b <= a or b % a != 0 for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing with nested entries")
    return N_list


def continuation_sweep(
    field: DriftField,
    x1,
    x2,
    N_list,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
    mode: str = "tmam",
    T: Optional[float] = None,
) -> list[OptimResult]:
    """Warm-started refinement sweep over nested uniform meshes.

    The first level starts from the straight-line path; each subsequent level
    starts from the previous minimizer resampled onto the finer mesh (exact on
    nested meshes), which makes the discrete minima nonincreasing along the
    sweep.  ``N_list`` must be strictly increasing with each entry dividing
    the next.  Typed solver errors are re-raised with the failing level in the
    message.
    """
    N_list = _nested_levels(N_list)
    if mode not in ("tmam", "fixed_t"):
        raise ValueError("mode must be 'tmam' or 'fixed_t'")
    if mode == "fixed_t" and (T is None or not T > 0.0):
        raise ValueError("fixed_t mode requires a positive T")

    results: list[OptimResult] = []
    prev_path: Optional[FePath] = None
    for N in N_list:
        mesh = uniform_mesh(N)
        if prev_path is None:
            start = linear_interpolant_path(x1, x2, mesh)
        else:
            start = resample_path(prev_path, mesh)
        try:
            if mode == "tmam":
                res = minimize_tmam(start, field, cfg, quad)
            else:
                res = minimize_fixed_T(start, field, T, cfg, quad)
        except ActionError as err:
            raise type(err)(f"sweep failed at N={N}: {err}") from err
        results.append(res)
        prev_path = res.path
    return results
