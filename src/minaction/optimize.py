"""Minimization of the discrete action functionals over interior nodal values.

Both the fixed-horizon functional and the reduced (optimal-horizon) functional
are smooth in the (N-1)*n interior unknowns, so a limited-memory quasi-Newton
iteration with a backtracking line search is used.  Because the stationarity
system is elliptic, raw nodal gradients condition badly as the mesh or the
horizon grows; by default the inverse of a stiffness-plus-scaled-mass operator
on interior nodes is applied per state component as the initial inverse-Hessian
guess (a Sobolev-type gradient), which keeps iteration counts roughly mesh- and
horizon-independent.  Endpoints are never touched.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class OptimConfig:
    """Solver knobs.

    ``tol_grad`` stops the iteration once the gradient max-norm falls below
    tol_grad * max(1, |value|).  ``t_cap`` optionally rejects line-search
    trial points whose optimal time exceeds the cap (reduced functional only);
    for discrete problems the cap is provably inactive at the minimizer, and
    ``OptimResult.cap_active`` records whether it ever fired.
    """

    tol_grad: float = 1e-9
    max_iters: int = 100_000
    memory: int = 10
    sobolev_precondition: bool = True
    t_cap: Optional[float] = None
    ls_sufficient_decrease: float = 1e-4
    ls_shrink: float = 0.5
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


class _EllipticPreconditioner:
    """Inverse of (1/T) K + T kappa M on interior nodes, applied per component.

    K is the 1-D stiffness matrix and M the mass matrix of the path's mesh;
    kappa estimates the squared local Lipschitz rate of the drift.  The
    operator mirrors the elliptic part of the stationarity system: for small
    horizons it is essentially the (Sobolev) inverse Laplacian, for large
    horizons the reaction term keeps it aligned with the Hessian, so iteration
    counts stay roughly mesh- and horizon-independent in both regimes.
    Factored once per solve via banded Cholesky.
    """

    def __init__(self, mesh_nodes: np.ndarray, t_ref: float, kappa: float):
        h = np.diff(mesh_nodes)
        m = h.size - 1  # interior node count
        self.m = m
        if m == 0:
            self.factor = None
            return
        stiff_diag = 1.0 / h[:-1] + 1.0 / h[1:]
        stiff_off = -1.0 / h[1:-1]
        mass_diag = (h[:-1] + h[1:]) / 3.0
        mass_off = h[1:-1] / 6.0
        reaction = t_ref * max(kappa, 0.0)
        band = np.zeros((2, m))
        band[1] = stiff_diag / t_ref + reaction * mass_diag
        band[0, 1:] = stiff_off / t_ref + reaction * mass_off
        self.factor = cholesky_banded(band, lower=False)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Solve P z = vec for each column of a (m, n) array (or flat (m,))."""
        if self.factor is None or vec.size == 0:
            return vec.copy()
        return cho_solve_banded((self.factor, False), vec)


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
    c1 = cfg.ls_sufficient_decrease
    shrink = cfg.ls_shrink

    z = z0.copy()
    value, grad, t_hat = evaluate(z)  # degenerate start propagates
    log_rows = [(0, value, _max_norm(grad), t_hat)]
    cap_active = False
    iterations = 0

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
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
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        r = gamma * precond_apply(q)
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ r)
            r += (a - b) * s
        direction = -r
        slope = float(grad @ direction)
        if not slope < 0.0:
            direction = -precond_apply(grad)
            slope = float(grad @ direction)
            if not slope < 0.0:
                direction = -grad
                slope = float(grad @ direction)

        # Near the minimizer the largest decrease the Armijo test could see,
        # c1 * |slope|, drops below the roundoff noise of the value; comparing
        # values there is meaningless while the analytic gradient still holds
        # real signal.  Switch the acceptance test to gradient-norm descent.
        noise_floor = 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        grad_mode = c1 * (-slope) < noise_floor
        cur_gn2 = float(np.linalg.norm(grad))

        step = 1.0
        accepted = False
        while step > 1e-20:
            z_try = z + step * direction
            try:
                f_try, g_try, t_try = evaluate(z_try)
            except ActionError:
                step *= shrink
                continue
            if cap is not None and t_try > cap:
                cap_active = True
                step *= shrink
                continue
            if grad_mode:
                if float(np.linalg.norm(g_try)) < 0.999 * cur_gn2 and f_try <= value + noise_floor:
                    accepted = True
                    break
            elif f_try <= value + c1 * step * slope:
                accepted = True
                break
            step *= shrink

        if not accepted:
            if s_hist:
                # retry with fresh curvature before giving up
                s_hist.clear()
                y_hist.clear()
                rho_hist.clear()
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
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

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
    return max(float(np.linalg.norm(j, 2)) ** 2 for j in jacs)


def _precond_factory(start: FePath, field: DriftField, t_ref: float, cfg: OptimConfig):
    n = start.dim
    if cfg.sobolev_precondition:
        solver = _EllipticPreconditioner(start.mesh.nodes, t_ref, _drift_rate_sq(field, start))

        def apply(vec):
            return solver.apply(vec.reshape(-1, n)).ravel()

        return apply
    return lambda vec: vec.copy()


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
    cfg = cfg or OptimConfig()
    quad = quad or Quadrature()
    n = start.dim

    def evaluate(z):
        p = start.replace_interior(z.reshape(-1, n))
        f, g = fixed_t_value_grad(p, field, T, quad)
        return f, g.ravel(), T

    z0 = start.values[1:-1].ravel().copy()
    z, value, grad, _, iters, ok, _, rows = _lbfgs_loop(
        evaluate, z0, cfg, _precond_factory(start, field, float(T), cfg), cap=None
    )
    _write_log(rows, cfg.log_path)
    path = start.replace_interior(z.reshape(-1, n))
    return OptimResult(
        path=path,
        value=float(value),
        t_hat=float(T),
        iterations=iters,
        converged=ok,
        grad_norm=_max_norm(grad),
        el_residual=el_residual(path, field, T, quad),
        hamiltonian_violation=hamiltonian_violation(path, field, T, quad),
    )


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
    n = start.dim

    def evaluate(z):
        p = start.replace_interior(z.reshape(-1, n))
        f, g, th = tmam_value_grad(p, field, quad)
        return f, g.ravel(), th

    t_ref = optimal_time(start, field, quad)  # degenerate starts raise here
    z0 = start.values[1:-1].ravel().copy()
    z, value, grad, t_hat, iters, ok, cap_active, rows = _lbfgs_loop(
        evaluate, z0, cfg, _precond_factory(start, field, t_ref, cfg), cap=cfg.t_cap
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
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must be nonempty")
    for a, b in zip(N_list, N_list[1:]):
        if b <= a or b % a != 0:
            raise ValueError("N_list must be strictly increasing with nested entries")
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
