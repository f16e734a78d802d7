"""Minimum action paths and quasi-potentials for small-noise ODE systems.

Piecewise-linear finite element discretization of the transition-path rate
functional, with both fixed-horizon minimization and the reduced functional
in which the horizon is replaced by its per-path optimum.
"""

from .action import (
    ActionError,
    DegeneratePathError,
    DriftVanishesError,
    Quadrature,
    el_residual,
    fixed_t_value_grad,
    hamiltonian_violation,
    optimal_time,
    tmam_value_grad,
)
from .drift import (
    DriftField,
    InwardReport,
    check_inward_condition,
    field_from_callable,
    field_from_config,
    linear_field,
    maier_stein_field,
    two_scale_field,
)
from .linoracle import (
    SpectralLinearProblem,
    exact_fixed_T_action,
    exact_fixed_T_minimizer,
    exact_fixed_T_minimizer_deriv,
    matrix_exp_apply,
    trajectory_polyline,
)
from .optimize import (
    OptimConfig,
    OptimResult,
    continuation_sweep,
    minimize_fixed_T,
    minimize_tmam,
)
from .pathcore import (
    FePath,
    Mesh,
    Polyline,
    clustering_fraction,
    discrete_frechet,
    linear_interpolant_path,
    path_polyline,
    read_path_csv,
    resample_path,
    uniform_mesh,
    write_path_csv,
)
from .study import (
    RateFit,
    StudyRecord,
    fit_rate,
    h1_seminorm_error,
    run_case_i,
    run_case_ii_full,
    run_linear_fixed_T_study,
    write_study_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActionError",
    "DegeneratePathError",
    "DriftVanishesError",
    "DriftField",
    "FePath",
    "InwardReport",
    "Mesh",
    "OptimConfig",
    "OptimResult",
    "Polyline",
    "Quadrature",
    "RateFit",
    "SpectralLinearProblem",
    "StudyRecord",
    "check_inward_condition",
    "clustering_fraction",
    "continuation_sweep",
    "discrete_frechet",
    "el_residual",
    "exact_fixed_T_action",
    "exact_fixed_T_minimizer",
    "exact_fixed_T_minimizer_deriv",
    "field_from_callable",
    "field_from_config",
    "fit_rate",
    "fixed_t_value_grad",
    "h1_seminorm_error",
    "hamiltonian_violation",
    "linear_field",
    "linear_interpolant_path",
    "maier_stein_field",
    "matrix_exp_apply",
    "minimize_fixed_T",
    "minimize_tmam",
    "optimal_time",
    "path_polyline",
    "read_path_csv",
    "resample_path",
    "run_case_i",
    "run_case_ii_full",
    "run_linear_fixed_T_study",
    "tmam_value_grad",
    "trajectory_polyline",
    "two_scale_field",
    "uniform_mesh",
    "write_path_csv",
    "write_study_csv",
]
