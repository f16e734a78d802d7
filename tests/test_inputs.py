"""Scalar argument rules of the library: each bad value is a ValueError naming the argument."""

import math

import pytest

from minaction import (
    OptimConfig,
    Quadrature,
    SpectralLinearProblem,
    clustering_fraction,
    continuation_sweep,
    el_residual,
    field_from_callable,
    fixed_t_value_grad,
    hamiltonian_violation,
    linear_field,
    linear_interpolant_path,
    matrix_exp_apply,
    minimize_fixed_T,
    minimize_tmam,
    run_case_ii_full,
    two_scale_field,
    uniform_mesh,
)
from minaction.drift import check_inward_condition
from minaction.linoracle import trajectory_times_points

FIELD = two_scale_field()
SCALAR = linear_field([[-1.0]])
QUAD = Quadrature(2)
START = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
X1, X2 = [1.0, 1.0], [0.0, 0.0]

# (id, argument name, call); every call passes one bad scalar and is otherwise valid
CASES = [
    ("tol_grad_inf", "tol_grad",
     lambda: minimize_tmam(START, FIELD, OptimConfig(tol_grad=math.inf), QUAD)),
    ("max_iters_float", "max_iters", lambda: OptimConfig(max_iters=2.5)),
    ("quadrature_past_index", "points_per_element", lambda: Quadrature(10**400)),
    ("quadrature_bool", "points_per_element", lambda: Quadrature(True)),
    ("quadrature_float", "points_per_element", lambda: Quadrature(2.5)),
    ("mesh_bool", "num_elements", lambda: uniform_mesh(True)),
    ("mesh_float", "num_elements", lambda: uniform_mesh(2.5)),
    ("sweep_float_levels", "N_list entry",
     lambda: continuation_sweep(FIELD, X1, X2, [8.7, 16.2], quad=QUAD)),
    ("trajectory_samples_float", "samples",
     lambda: trajectory_times_points([[-1.0]], [1.0], 1.0, 2.5)),
    ("inward_samples_float", "samples", lambda: check_inward_condition(FIELD, 2.5, 10.0)),
    ("inward_samples_past_index", "samples",
     lambda: check_inward_condition(FIELD, 10**400, 10.0)),
    ("trajectory_samples_past_index", "samples",
     lambda: trajectory_times_points([[-1.0]], [1.0], 1.0, 10**400)),
    ("inward_radius_nan", "radius", lambda: check_inward_condition(FIELD, 8, math.nan)),
    ("inward_radius_inf", "radius", lambda: check_inward_condition(FIELD, 8, math.inf)),
    ("action_T_inf", "T", lambda: fixed_t_value_grad(START, FIELD, math.inf, QUAD)[0]),
    ("grad_T_inf", "T", lambda: fixed_t_value_grad(START, FIELD, math.inf, QUAD)[1]),
    ("hamiltonian_t_hat_inf", "t_hat",
     lambda: hamiltonian_violation(START, FIELD, math.inf, QUAD)),
    ("el_residual_T_inf", "T", lambda: el_residual(START, FIELD, math.inf, QUAD)),
    ("problem_T_inf", "T",
     lambda: SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=math.inf)),
    ("minimize_T_inf", "T", lambda: minimize_fixed_T(START, FIELD, math.inf, quad=QUAD)),
    ("sweep_T_inf", "T",
     lambda: continuation_sweep(SCALAR, [0.0], [1.0], [4, 8], T=math.inf)),
    ("case_ii_T_fixed_inf", "T_fixed",
     lambda: run_case_ii_full([8, 16, 32], math.inf, quad=QUAD)),
    ("clustering_radius_nan", "radius",
     lambda: clustering_fraction(START, [0.0, 0.0], math.nan)),
    ("matrix_exp_t_nan", "t", lambda: matrix_exp_apply([[-1.0]], math.nan, [1.0])),
    ("matrix_exp_t_bool", "t", lambda: matrix_exp_apply([[-1.0]], True, [1.0])),
    ("callable_dim_zero", "dim", lambda: field_from_callable(0, lambda x: x)),
    ("callable_dim_float", "dim", lambda: field_from_callable(2.5, lambda x: x)),
]


@pytest.mark.parametrize("name,call", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_scalar_argument_names_it(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be an? "):
        call()
