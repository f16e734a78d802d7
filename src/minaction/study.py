"""Convergence-study harness: resolution sweeps, error metrics, log-log rate fits.

The named studies package the standard experiments on the two-time-scale
linear benchmark plus the 1-D fixed-horizon problem with a closed-form oracle:

* ``case_i``  - finite optimal horizon: endpoints x1 and e^{A} x1, so the flow
  trajectory is the exact minimizer, the exact minimum is 0, and the exact
  optimal time is 1.  Both the action error and the optimal-time error are
  expected to converge at second order on uniform meshes.
* ``case_ii`` - infinite optimal horizon: endpoint at the equilibrium.  The
  optimal-horizon solver is compared against the fixed-horizon solver with an
  overlarge T; the estimated optimal time grows as the mesh is refined and the
  convergence rate deteriorates below second order.
* ``linear_fixed_t`` - fixed horizon versus the spectral oracle: first-order
  H1 path error and second-order action error.

All sweeps run warm-started continuation on nested meshes, so they are
deterministic and their discrete minima are nonincreasing.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .action import Quadrature
from .drift import linear_field, two_scale_field
from .linoracle import (
    SpectralLinearProblem,
    exact_fixed_T_action,
    exact_fixed_T_minimizer_deriv,
    matrix_exp_apply,
    trajectory_polyline,
)
from .optimize import OptimConfig, OptimResult, continuation_sweep
from .pathcore import (
    _finite_positive,
    _write_table,
    clustering_fraction,
    discrete_frechet,
    path_polyline,
)

__all__ = [
    "StudyRecord",
    "RateFit",
    "CaseIIData",
    "fit_rate",
    "h1_seminorm_error",
    "run_case_i",
    "run_case_ii_full",
    "run_linear_fixed_T_study",
    "case_i_assertions",
    "case_ii_assertions",
    "linear_fixed_t_assertions",
    "values_nonincreasing",
    "write_study_csv",
]

STUDY_CSV_HEADER = (
    "N", "h", "action", "action_error", "t_hat", "t_error", "h1_error", "frechet",
    "ham_violation", "iterations",
)

# Acceptance windows for the fitted log-log slopes of the named studies.
CASE_I_SLOPE_WINDOW = (-2.4, -1.6)
CASE_I_R2_MIN = 0.98
CASE_II_SLOPE_WINDOW = (-2.0, -0.3)   # strictly above -2, at most -0.3
CASE_II_RATIO = 0.1                   # optimal-horizon action <= 0.1 * fixed-horizon action
LINEAR_H1_WINDOW = (-1.2, -0.8)
LINEAR_ACTION_WINDOW = (-2.4, -1.6)
CLUSTER_RADIUS = 0.05
NESTING_TOL = 1e-10


@dataclass(frozen=True)
class StudyRecord:
    """One resolution level of a sweep."""

    N: int
    h: float
    action: float
    action_error: float
    t_hat: float
    t_error: Optional[float]
    h1_error: Optional[float]
    frechet: Optional[float]
    hamiltonian_violation: float
    iterations: int


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(N)."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class CaseIIData:
    """Everything produced by the case_ii sweeps, including minimizer paths."""

    records_tmam: list
    records_fixed: list
    rate_tmam: Optional[RateFit]
    results_tmam: list
    results_fixed: list


def fit_rate(records, field_name: str) -> RateFit:
    """Fit log(err) = slope*log(N) + intercept over records with positive errors."""
    pts = [(r.N, getattr(r, field_name)) for r in records]
    pts = [(n, e) for n, e in pts if e is not None and e > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two records with positive errors to fit a rate")
    log_n = np.log([n for n, _ in pts])
    log_e = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(log_n, log_e, 1)
    fitted = slope * log_n + intercept
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)))


def _try_fit(records, field_name: str) -> Optional[RateFit]:
    """fit_rate, or None when fewer than two records have positive errors."""
    try:
        return fit_rate(records, field_name)
    except ValueError:
        return None


_H1_RULE = Quadrature(10)


def h1_seminorm_error(path, prob: SpectralLinearProblem) -> float:
    """H1 seminorm of (path - exact minimizer), by 10-point quadrature per element.

    Quadrature against the analytic derivative (rather than nodal
    interpolation of the oracle) avoids superconvergence artifacts in the
    fitted rates.
    """
    nodes = path.mesh.nodes
    h = np.diff(nodes)
    d = np.diff(path.values, axis=0) / h[:, None]
    xi, w = _H1_RULE.xi, _H1_RULE.w
    s_pts = nodes[:-1, None] + h[:, None] * xi[None, :]
    oracle_d = exact_fixed_T_minimizer_deriv(prob, s_pts.ravel()).reshape(
        h.size, xi.size, path.dim
    )
    diff = d[:, None, :] - oracle_d
    return math.sqrt(float(np.einsum("e,q,eqi,eqi->", h, w, diff, diff)))


def _record_from_result(res: OptimResult, action_error: float, t_error=None,
                        h1_error=None, frechet=None) -> StudyRecord:
    return StudyRecord(
        N=res.path.mesh.num_elements,
        h=res.path.mesh.h,
        action=res.value,
        action_error=action_error,
        t_hat=res.t_hat,
        t_error=t_error,
        h1_error=h1_error,
        frechet=frechet,
        hamiltonian_violation=res.hamiltonian_violation,
        iterations=res.iterations,
    )


def run_case_i(N_list, cfg: Optional[OptimConfig] = None, quad: Optional[Quadrature] = None):
    """Optimal-horizon sweep for the finite-horizon benchmark.

    Endpoints are x1 = (1, 1) and x2 = e^{A} x1; the exact minimum is 0 with
    exact optimal time 1, so the action error is the raw action value and the
    time error is |t_hat - 1|.

    Returns (records, rate_action, rate_T).
    """
    if len(N_list) < 3:
        raise ValueError("case_i needs at least three resolutions to fit rates")
    quad = quad or Quadrature(2)
    field = two_scale_field()
    x1 = np.array([1.0, 1.0])
    x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
    results = continuation_sweep(field, x1, x2, N_list, cfg, quad)
    records = [
        _record_from_result(res, action_error=res.value, t_error=abs(res.t_hat - 1.0))
        for res in results
    ]
    return records, fit_rate(records, "action_error"), fit_rate(records, "t_error")


def run_case_ii_full(
    N_list,
    T_fixed: float = 100.0,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
) -> CaseIIData:
    """Parallel optimal-horizon / fixed-horizon sweeps for the infinite-horizon
    benchmark, keeping the minimizer paths for the geometric diagnostics.

    Endpoints are x1 = (1, 1) and the equilibrium (0, 0); the quasi-potential
    to the attractor is 0, so the action error is the raw value.  Each
    optimal-horizon minimizer is compared (discrete Frechet distance) against
    the exact flow trajectory sampled with >= 10x the path's node count.
    """
    if len(N_list) < 3:
        raise ValueError("case_ii needs at least three resolutions to fit rates")
    _finite_positive(T_fixed, "T_fixed")
    quad = quad or Quadrature(2)
    field = two_scale_field()
    x1 = np.array([1.0, 1.0])
    x2 = np.zeros(2)
    results_tmam = continuation_sweep(field, x1, x2, N_list, cfg, quad)
    results_fixed = continuation_sweep(field, x1, x2, N_list, cfg, quad, T=T_fixed)
    records_tmam = []
    for res in results_tmam:
        n_nodes = res.path.mesh.num_elements + 1
        oracle = trajectory_polyline(field.linear_matrix, x1, math.inf, samples=10 * n_nodes)
        dist = discrete_frechet(path_polyline(res.path), oracle)
        records_tmam.append(_record_from_result(res, action_error=res.value, frechet=dist))
    records_fixed = [
        _record_from_result(res, action_error=res.value) for res in results_fixed
    ]
    return CaseIIData(
        records_tmam=records_tmam,
        records_fixed=records_fixed,
        rate_tmam=fit_rate(records_tmam, "action_error"),
        results_tmam=results_tmam,
        results_fixed=results_fixed,
    )


def run_linear_fixed_T_study(
    matrix,
    x1,
    x2,
    T: float,
    N_list,
    cfg: Optional[OptimConfig] = None,
    quad: Optional[Quadrature] = None,
):
    """Fixed-horizon sweep against the spectral oracle for symmetric linear drift.

    Records the H1 seminorm path error and the absolute action error; returns
    (records, rate_h1, rate_action).  Rates are None when a metric has fewer
    than two positive entries (e.g. the zero matrix, where the straight line
    is exact).
    """
    if len(N_list) < 2:
        raise ValueError("need at least two resolutions")
    quad = quad or Quadrature(2)
    prob = SpectralLinearProblem(matrix, x1, x2, T)
    exact_action = exact_fixed_T_action(prob)
    field = linear_field(prob.matrix)
    results = continuation_sweep(field, prob.x1, prob.x2, N_list, cfg, quad, T=prob.T)
    records = [
        _record_from_result(
            res,
            action_error=abs(res.value - exact_action),
            h1_error=h1_seminorm_error(res.path, prob),
        )
        for res in results
    ]
    return records, _try_fit(records, "h1_error"), _try_fit(records, "action_error")


# ---------------------------------------------------------------------------
# built-in study assertions (drive the CLI exit-code contract)
# ---------------------------------------------------------------------------


def values_nonincreasing(records, tol: float = NESTING_TOL) -> bool:
    """Discrete minima must not increase across nested refinements."""
    vals = [r.action for r in records]
    return all(b <= a + tol for a, b in zip(vals, vals[1:]))


def _in_window(value: Optional[float], window) -> bool:
    return value is not None and window[0] <= value <= window[1]


def case_i_assertions(records, rate_action: RateFit, rate_t: RateFit) -> dict:
    return {
        "monotone_minima": values_nonincreasing(records),
        "action_rate_window": _in_window(rate_action.slope, CASE_I_SLOPE_WINDOW),
        "t_rate_window": _in_window(rate_t.slope, CASE_I_SLOPE_WINDOW),
        "action_rate_r2": rate_action.r_squared >= CASE_I_R2_MIN,
        "t_rate_r2": rate_t.r_squared >= CASE_I_R2_MIN,
        "finite_t_hat": all(math.isfinite(r.t_hat) and r.t_hat > 0.0 for r in records),
    }


def case_ii_assertions(data: CaseIIData) -> dict:
    rec_t, rec_f = data.records_tmam, data.records_fixed
    lo, hi = CASE_II_SLOPE_WINDOW
    slope = data.rate_tmam.slope if data.rate_tmam is not None else None
    frechets = [r.frechet for r in rec_t]
    t_hats = [r.t_hat for r in rec_t]
    final_path_t = data.results_tmam[-1].path
    final_path_f = data.results_fixed[-1].path
    center = np.zeros(2)
    return {
        "monotone_minima_tmam": values_nonincreasing(rec_t),
        "monotone_minima_fixed": values_nonincreasing(rec_f),
        "tmam_beats_fixed": rec_t[-1].action <= CASE_II_RATIO * rec_f[-1].action,
        "deteriorated_rate": slope is not None and lo < slope <= hi,
        "t_hat_increasing": all(b > a for a, b in zip(t_hats, t_hats[1:])),
        "frechet_nonincreasing": all(b <= a for a, b in zip(frechets, frechets[1:])),
        "finite_t_hat": all(math.isfinite(t) and t > 0.0 for t in t_hats),
        "fixed_clusters_more": clustering_fraction(final_path_f, center, CLUSTER_RADIUS)
        > clustering_fraction(final_path_t, center, CLUSTER_RADIUS),
    }


def linear_fixed_t_assertions(records, rate_h1, rate_action) -> dict:
    return {
        "monotone_minima": values_nonincreasing(records),
        "h1_rate_window": rate_h1 is not None and _in_window(rate_h1.slope, LINEAR_H1_WINDOW),
        "action_rate_window": rate_action is not None
        and _in_window(rate_action.slope, LINEAR_ACTION_WINDOW),
    }


# ---------------------------------------------------------------------------
# study CSV
# ---------------------------------------------------------------------------


def write_study_csv(records, target) -> None:
    """One row per ``StudyRecord``, its fields in order; None is an empty cell."""
    _write_table(target, STUDY_CSV_HEADER, map(astuple, records))
