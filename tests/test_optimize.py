import csv
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from helpers import cyclic_chain_field, spiral_point, spiral_transition
from minaction import (
    ActionError,
    DegeneratePathError,
    DriftVanishesError,
    FePath,
    Mesh,
    OptimConfig,
    Quadrature,
    SpectralLinearProblem,
    continuation_sweep,
    el_residual,
    exact_fixed_T_action,
    field_from_callable,
    fixed_t_value_grad,
    hamiltonian_violation,
    linear_field,
    linear_interpolant_path,
    maier_stein_field,
    matrix_exp_apply,
    minimize_fixed_T,
    minimize_tmam,
    tmam_value_grad,
    two_scale_field,
    uniform_mesh,
)
from minaction import action, optimize
from minaction.optimize import _DEAD_LIMIT, _LOG_HEADER, _lbfgs_loop, _norm2
from minaction.pathcore import _write_table

QUAD = Quadrature(2)
SCALAR = linear_field([[-1.0]])


class TestFixedTSolver:
    def test_zero_field_converges_to_straight_line(self):
        field = linear_field(np.zeros((2, 2)))
        mesh = uniform_mesh(16)
        start = linear_interpolant_path([0.0, 0.0], [1.0, 2.0], mesh)
        bent = start.replace_interior(start.values[1:-1] + 0.3)
        res = minimize_fixed_T(bent, field, 1.0, quad=QUAD)
        assert res.converged
        assert res.value == pytest.approx(5.0 / 2.0, rel=1e-9)  # |x2-x1|^2/2
        straight = start.values
        assert np.max(np.abs(res.path.values - straight)) <= 1e-6

    def test_scalar_linear_matches_oracle(self):
        res = minimize_fixed_T(
            linear_interpolant_path([0.0], [1.0], uniform_mesh(64)), SCALAR, 1.0, quad=QUAD
        )
        exact = (np.e**2 - 1.0) / (4.0 * np.sinh(1.0) ** 2)
        assert res.converged
        assert res.value > exact  # conforming space: discrete min above exact
        assert res.value - exact < 1e-4  # second-order gap at h = 1/64

    def test_constant_start_at_equilibrium(self):
        path = linear_interpolant_path([0.0], [0.0], uniform_mesh(8))
        res = minimize_fixed_T(path, SCALAR, 1.0, quad=QUAD)
        assert res.converged
        assert res.iterations == 0
        assert res.value == 0.0

    # the start action overflows at a tiny horizon, the preconditioner at a huge one
    @pytest.mark.parametrize("horizon", [1e-200, 1e308])
    def test_nonfinite_start_is_action_error(self, horizon):
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
        with pytest.raises(ActionError, match="not finite"):
            minimize_fixed_T(start, two_scale_field(), horizon, quad=QUAD)

    def test_overflowing_drift_rate_is_action_error(self):
        # A^T A has the entry 1e320, which overflows a float; the linear
        # field's Hessian band is not finite
        field = linear_field([[-1e160, 0.0], [0.0, -1.0]])
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        with pytest.raises(ActionError, match="preconditioner is not finite"):
            minimize_fixed_T(start, field, 1.0, quad=QUAD)

    def test_overflowing_lipschitz_rate_of_a_nonlinear_field_is_action_error(self):
        # the Jacobian's entry -1e160 is finite at every start node, but the
        # squared Lipschitz rate 1e320 of this field without linear_matrix
        # overflows a float; the scalar-rate band is not finite
        field = field_from_callable(2, lambda x: np.array([-1e160 * x[0], -(1.0 + x[0] ** 2) * x[1]]))
        start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(8))
        assert np.isfinite(field.jacobian_many(start.values)).all()
        with pytest.raises(ActionError, match="preconditioner is not finite"):
            minimize_fixed_T(start, field, 1.0, quad=QUAD)

    def test_tiny_horizon_of_a_nonlinear_field_is_action_error_without_warning(self):
        # 1/T overflows in the scalar-rate band of a field without
        # linear_matrix; the band is built under errstate and checked
        start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ActionError, match="preconditioner is not finite"):
                minimize_fixed_T(start, maier_stein_field(10.0), 5e-324, quad=QUAD)
        assert [str(w.message) for w in caught] == []

    def test_huge_horizon_reports_finite_norms_without_warning(self):
        # the gradient (max-norm about 7e184) is finite, its sum of squares not
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = minimize_fixed_T(start, two_scale_field(), 1e200, quad=QUAD)
        assert [str(w.message) for w in caught] == []
        assert math.isfinite(res.grad_norm) and res.grad_norm > 1e184
        assert 0.0 < res.el_residual < 1e-10

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            minimize_fixed_T(
                linear_interpolant_path([0.0], [1.0], uniform_mesh(4)), SCALAR, -1.0, quad=QUAD
            )

    def test_endpoints_bit_exact(self):
        x1, x2 = np.array([0.3, -0.7]), np.array([1.1, 0.2])
        field = two_scale_field()
        res = minimize_fixed_T(
            linear_interpolant_path(x1, x2, uniform_mesh(20)), field, 2.0, quad=QUAD
        )
        assert np.array_equal(res.path.left, x1)
        assert np.array_equal(res.path.right, x2)

    def test_descent_from_start(self):
        field = two_scale_field()
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
        res = minimize_fixed_T(start, field, 5.0, quad=QUAD)
        assert res.value <= fixed_t_value_grad(start, field, 5.0, QUAD)[0] + 1e-12

    def test_not_converged_is_flagged_not_raised(self):
        # a nonlinear problem that 2 iterations cannot solve; a linear field's
        # fixed-T solve converges in one exact Newton step
        s = uniform_mesh(32).nodes
        start = FePath(uniform_mesh(32), np.column_stack([-1.0 + s, 0.3 * np.sin(np.pi * s)]))
        res = minimize_fixed_T(start, maier_stein_field(10.0), 10.0, OptimConfig(max_iters=2), QUAD)
        assert not res.converged
        assert res.iterations <= 2
        assert np.isfinite(res.value)

    @pytest.mark.parametrize(
        "T,cell",
        [(np.float64(2.0), "2.0"), (2, "2"), (np.int64(2), "2")],
        ids=["float64", "int", "int64"],
    )
    def test_iteration_log_writes_the_horizon_as_a_number(self, tmp_path, T, cell):
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        res = minimize_fixed_T(start, two_scale_field(), T, quad=QUAD)
        assert len(res.log) >= 2
        assert all(row[3] is T for row in res.log)
        log = tmp_path / "iters.csv"
        _write_table(str(log), _LOG_HEADER, res.log)
        rows = list(csv.reader(log.open()))
        assert {r[3] for r in rows[1:]} == {cell}

    def test_iteration_log_starts_at_the_start_path(self):
        field = two_scale_field()
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        res = minimize_fixed_T(start, field, 2.0, quad=QUAD)
        value, grad, _ = fixed_t_value_grad(start, field, 2.0, QUAD)
        assert res.log[0] == (0, value, np.max(np.abs(grad)), 2.0)
        assert [row[0] for row in res.log] == list(range(res.iterations + 1))


class TestTmamSolver:
    def test_two_scale_finite_horizon_benchmark(self):
        # endpoints on a flow trajectory: exact minimum 0 with unit horizon
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        res = minimize_tmam(linear_interpolant_path(x1, x2, uniform_mesh(64)), field, quad=QUAD)
        assert res.converged
        assert 0.0 < res.value <= 5e-3
        assert abs(res.t_hat - 1.0) <= 1e-2

    def test_equilibrium_endpoint_has_finite_growing_horizon(self):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        res64 = minimize_tmam(
            linear_interpolant_path(x1, [0.0, 0.0], uniform_mesh(64)), field, quad=QUAD
        )
        res128 = minimize_tmam(
            linear_interpolant_path(x1, [0.0, 0.0], uniform_mesh(128)), field, quad=QUAD
        )
        assert res64.converged and res128.converged
        assert np.isfinite(res64.t_hat) and res64.t_hat > 0.0
        assert res128.t_hat > res64.t_hat

    def test_scalar_escape_approaches_quasipotential(self):
        # Reaching 1 from the stable point of b = -x costs exactly 1 in the
        # infinite-horizon limit (the closed-form fixed-horizon value
        # (coth(T) + 1)/2 decreases to 1); discrete values stay above and
        # decrease toward it as the space is refined.
        for T in (10.0, 20.0, 40.0):
            prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=T)
            assert exact_fixed_T_action(prob) == pytest.approx(1.0, abs=1e-6)
        values = []
        for n_elems in (16, 32, 64):
            start = linear_interpolant_path([0.0], [1.0], uniform_mesh(n_elems))
            res = minimize_tmam(start, SCALAR, quad=QUAD)
            assert res.converged
            values.append(res.value)
        assert all(v > 1.0 for v in values)
        assert values[0] > values[1] > values[2]
        assert values[-1] - 1.0 < 1e-3

    def test_zero_field_raises_drift_vanishes(self):
        field = linear_field(np.zeros((2, 2)))
        start = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], uniform_mesh(8))
        with pytest.raises(DriftVanishesError):
            minimize_tmam(start, field, quad=QUAD)

    def test_coincident_endpoints_raise_degenerate(self):
        start = linear_interpolant_path([1.0], [1.0], uniform_mesh(8))
        with pytest.raises(DegeneratePathError):
            minimize_tmam(start, SCALAR, quad=QUAD)

    def test_underflowing_start_horizon_is_action_error_without_warning(self):
        # |b(p)|^2 overflows at the start, so its optimal horizon underflows to
        # 0; no 1/0 may reach the start's gradient or the preconditioner
        start = linear_interpolant_path([3.0, 3.0], [0.0, 0.0], uniform_mesh(16))
        field = linear_field([[-1e154, 0.0], [0.0, -1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ActionError, match="optimal horizon .* is not finite and positive"):
                minimize_tmam(start, field)
        assert [str(w.message) for w in caught] == []

    def test_iteration_log_written(self, tmp_path):
        field = two_scale_field()
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(16))
        res = minimize_tmam(start, field, quad=QUAD)
        assert [row[0] for row in res.log] == list(range(res.iterations + 1))
        last = res.log[-1]
        assert (last[1], last[2], last[3]) == (res.value, res.grad_norm, res.t_hat)
        log = tmp_path / "iters.csv"
        _write_table(str(log), _LOG_HEADER, res.log)
        rows = list(csv.reader(log.open()))
        assert rows[0] == ["iteration", "value", "grad_norm", "t_hat"]
        assert len(rows) >= 3
        assert [r[0] for r in rows[1:3]] == ["0", "1"]


@pytest.mark.parametrize("mode", ["fixed_t", "tmam"])
def test_single_element_returns_straight_line(mode):
    # N=1 has no interior node: nothing to optimize, the start is returned
    field = two_scale_field()
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.5], uniform_mesh(1))
    if mode == "fixed_t":
        res = minimize_fixed_T(start, field, 2.0, quad=QUAD)
    else:
        res = minimize_tmam(start, field, quad=QUAD)
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.path.values, start.values)
    assert res.grad_norm == 0.0


class TestContinuationSweep:
    def test_nonincreasing_minima_on_nested_meshes(self):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        results = continuation_sweep(field, x1, x2, [8, 16, 32], quad=QUAD)
        values = [r.value for r in results]
        assert values[1] <= values[0] + 1e-10
        assert values[2] <= values[1] + 1e-10

    def test_single_level_equals_direct_solve(self):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        start = linear_interpolant_path(x1, x2, uniform_mesh(16))
        for T, direct in (
            (None, minimize_tmam(start, field, quad=QUAD)),
            (2.0, minimize_fixed_T(start, field, 2.0, quad=QUAD)),
        ):
            sweep = continuation_sweep(field, x1, x2, [16], quad=QUAD, T=T)
            assert sweep[0].value == direct.value
            assert sweep[0].t_hat == direct.t_hat

    def test_zero_field_fixed_mode_straight_lines(self):
        field = linear_field(np.zeros((2, 2)))
        results = continuation_sweep(
            field, [0.0, 0.0], [1.0, 1.0], [4, 8, 16], quad=QUAD, T=1.0
        )
        values = [r.value for r in results]
        assert max(values) - min(values) <= 1e-12
        for res in results:
            line = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], res.path.mesh)
            assert np.max(np.abs(res.path.values - line.values)) <= 1e-7

    def test_bad_level_lists_rejected(self):
        field = SCALAR
        for bad in ([], [8, 4], [8, 12], [8, 8], [0, 4], [-2, 4]):
            with pytest.raises(ValueError):
                continuation_sweep(field, [0.0], [1.0], bad, quad=QUAD)

    def test_degenerate_problem_names_failing_level(self):
        field = linear_field(np.zeros((1, 1)))
        with pytest.raises(DriftVanishesError, match="N=4"):
            continuation_sweep(field, [0.0], [1.0], [4, 8], quad=QUAD)

    def test_fixed_T_study_oracle_gap_shrinks(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        exact = exact_fixed_T_action(prob)
        results = continuation_sweep(
            SCALAR, [0.0], [1.0], [8, 16, 32], quad=QUAD, T=1.0
        )
        gaps = [r.value - exact for r in results]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]


class TestLineSearchAtTheIterate:
    """A line search ends at its first trial that rounds to the iterate.

    A gradient-norm search ends sooner, at its first rejected trial whose
    gradient's linear model keeps 0.999 of the norm at every smaller step.
    """

    Z0 = np.array([1.0, -3.0, 0.5])
    # 0.5 + 2**-54 is a tie that rounds to 0.5, and 1.0 and -3.0 stay put
    # too, so a direction of ones first reaches the iterate at the step
    # 2**-54 (trial 54) and a direction of 2**-40 at the step 2**-14 (trial 14)
    FIRST_AT_ITERATE = {1.0: 54, 2.0**-40: 14}

    def run(self, direction, off_grad=-1.0):
        """Loop on an uphill gradient of -1: every trial off the start is worse.

        The preconditioner scales by ``direction``, which sets the search
        direction.  Off the start the value is 2, the t_hat 0.5 (2 at the
        start) and every gradient entry ``off_grad``.
        """
        z0 = self.Z0
        trials = []

        def evaluate(z):
            trials.append(z.copy())
            if z.tobytes() == z0.tobytes():
                return 1.0, lambda: np.full(z.size, -1.0), 2.0
            return 2.0, lambda: np.full(z.size, off_grad), 0.5

        out = _lbfgs_loop(evaluate, z0, OptimConfig(), lambda vec: direction * vec)
        return out, trials

    @pytest.mark.parametrize("direction", [1.0, 2.0**-40])
    def test_steps_before_the_iterate_move_the_point(self, direction):
        first = self.FIRST_AT_ITERATE[direction]
        steps = 0.5 ** np.arange(first + 1)
        moved = [not np.array_equal(self.Z0 + s * direction, self.Z0) for s in steps]
        assert moved == [True] * first + [False]

    def test_failed_search_ends_at_first_trial_at_the_iterate(self):
        # the short direction puts Armijo's decrease below the noise floor, so
        # the gradient-norm test runs, and it cannot accept the iterate; the
        # gradient of -0.5 off the start halves the norm, so the gradient's
        # model never rules out a smaller step, but every trial is rejected on
        # its value, and the search goes on until its trial rounds to the iterate
        (z, value, grad, t_hat, iters, ok, rows), trials = self.run(2.0**-40, off_grad=-0.5)
        assert len(trials) == 1 + 14
        assert all(not np.array_equal(t, self.Z0) for t in trials[1:])
        assert np.array_equal(z, self.Z0)
        assert (value, t_hat, iters, ok) == (1.0, 2.0, 0, False)
        assert len(rows) == 1

    def test_gradient_search_fails_once_the_gradient_stops_moving(self):
        # the gradient of -1 off the start equals the current one, so the first
        # rejected trial already keeps 0.999 of its norm, as would every
        # smaller step: the search fails after one trial
        (z, value, grad, t_hat, iters, ok, rows), trials = self.run(2.0**-40)
        assert len(trials) == 1 + 1
        assert np.array_equal(trials[1], self.Z0 + 2.0**-40)
        assert np.array_equal(z, self.Z0)
        assert (value, t_hat, iters, ok) == (1.0, 2.0, 0, False)
        assert np.array_equal(grad, np.full(3, -1.0))
        assert len(rows) == 1

    def test_gradient_search_fails_once_the_norm_grows_along_the_step(self):
        # the gradient of -2 off the start moves by its own norm, so the rule
        # that waited for it to stop moving walked down to the iterate (1 + 14
        # trials); it moves along g, so the model g + t delta grows in norm
        # from t = 0 and the search fails after one trial
        (z, value, grad, t_hat, iters, ok, rows), trials = self.run(2.0**-40, off_grad=-2.0)
        assert len(trials) == 1 + 1
        assert np.array_equal(trials[1], self.Z0 + 2.0**-40)
        assert np.array_equal(z, self.Z0)
        assert (value, t_hat, iters, ok) == (1.0, 2.0, 0, False)
        assert len(rows) == 1

    def test_armijo_search_fails_at_the_iterate(self):
        # the Armijo bound value + c1*step*slope rounds to the value itself at
        # step 2**-54, so the iterate would pass it; a search that returns
        # the iterate has failed, and with no curvature pairs to drop the
        # loop stops there
        (z, value, _, _, iters, ok, rows), trials = self.run(1.0)
        assert iters == 0
        assert len(rows) == 1
        assert len(trials) == 1 + 54
        assert np.array_equal(z, self.Z0) and value == 1.0 and not ok


def _gradient_search(grad_at, scale=1.0, rejected=()):
    """(steps tried, loop output) of one gradient-norm line search on a synthetic oracle.

    The start's gradient is scale * (1, 0) and the trial at the step s has
    scale * grad_at(s).  Every value is max(1, scale)**1.5, whose roundoff
    noise dwarfs Armijo's decrease, so the search tests gradient norms; a
    step in ``rejected`` has twice that value and is rejected on it.  The
    preconditioner keeps the direction at -2**-40 (1, 0) at every scale.
    """
    value = max(1.0, scale) ** 1.5
    steps = []

    def evaluate(z):
        if not np.any(z):
            return value, lambda: scale * np.array([1.0, 0.0]), 1.0
        step = 0.5 ** len(steps)
        steps.append(step)
        return (2.0 * value if step in rejected else value), lambda: scale * grad_at(step), 1.0

    cfg = OptimConfig(tol_grad=1e-300, max_iters=1)
    out = _lbfgs_loop(evaluate, np.zeros(2), cfg, lambda vec: vec * (2.0**-40 / scale))
    return steps, out


# (D, steps rejected on their value, steps tried, accepted step or None) of a
# search whose trial gradient at the step s is g + s D, g = (1, 0).  With
# a = g.D and b = |D|^2, the least squared norm of the model over the steps
# below a rejected s is 1 if a >= 0, 1 + a s + b s^2 / 4 if the vertex
# -a / (b s) is past 1/2, else 1 - a^2 / b, and the search fails once it is
# at least 0.999^2.
GRADIENT_MODELS = {
    # the norm grows from the start: the first trial ends the search
    "norm_grows": ((0.5, 1.0), (), [1.0], None),
    # vertex 1/6 inside, least 1/2: trials 1 and 1/2 are rejected on their
    # norms and 1/4 passes with |g|^2 = 0.625
    "vertex_inside": ((-3.0, 3.0), (), [1.0, 0.5, 0.25], 0.25),
    # D almost orthogonal to g: vertex 0.01 inside, least 0.9999...
    "vertex_inside_too_high": ((-0.01, 1.0), (), [1.0], None),
    # vertex 2 beyond 1/2, least 0.5625; step 1 is rejected on its value
    "vertex_beyond": ((-0.5, 0.0), (1.0,), [1.0, 0.5], 0.5),
    # vertex 0.73 beyond 1/2, least 0.998025 at s/2, though the vertex's
    # 1 - a^2 / b = 0.9978 would pass
    "vertex_beyond_too_high": ((-0.003, math.sqrt(0.0041 - 0.003**2)), (), [1.0], None),
}


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("name", GRADIENT_MODELS)
def test_gradient_search_ends_where_the_gradients_model_says_no_step_passes(name, scale):
    # the model is taken in ratios to |g|, so gradients whose squares overflow
    # or underflow end each search as at scale 1, without a warning
    d_vec, rejected, tried, accepted = GRADIENT_MODELS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        steps, (z, _, grad, _, iters, _, _) = _gradient_search(
            lambda s: np.array([1.0, 0.0]) + s * np.array(d_vec), scale, rejected)
    assert [str(w.message) for w in caught] == []
    assert steps == tried
    if accepted is None:
        assert iters == 0 and not np.any(z)
    else:
        assert iters == 1
        assert np.array_equal(grad, scale * (np.array([1.0, 0.0]) + accepted * np.array(d_vec)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gradient_search_halves_past_a_trial_gradient_that_is_not_finite(bad):
    # the trial at the step 1 gives no model of the gradient: the search halves
    # on, and the step 1/2 passes with the gradient (1/2, 0)
    steps, (z, _, grad, _, iters, _, _) = _gradient_search(
        lambda s: np.array([bad, 0.0]) if s == 1.0 else np.array([1.0 - s, 0.0]))
    assert steps == [1.0, 0.5]
    assert iters == 1 and np.array_equal(grad, [0.5, 0.0])


def test_trial_that_raises_is_rejected_by_halving():
    # f = z**2 / 2 from z = 1 along -1: the full step reaches z = 0, where the
    # action is undefined, so the search halves to z = 0.5 and accepts it
    trials = []

    def evaluate(z):
        trials.append(float(z[0]))
        if z[0] < 0.25:
            raise ActionError("undefined here")
        return 0.5 * float(z[0]) ** 2, z.copy, 1.0

    z, value, _, _, iters, _, rows = _lbfgs_loop(
        evaluate, np.array([1.0]), OptimConfig(max_iters=1), lambda vec: vec
    )
    assert trials == [1.0, 0.0, 0.5]
    assert iters == 1 and z[0] == 0.5 and value == 0.125
    assert [r[1] for r in rows] == [0.5, 0.125]


def test_armijo_trial_rejected_on_its_value_takes_no_gradient():
    # f = z**2 / 2 from z = 1 along -4: the steps 1 and 1/2 reach z = -3 and
    # z = -1, which Armijo's test rejects on their values, and the step 1/4
    # reaches the minimizer z = 0; only the start and z = 0 take a gradient
    trials, grads = [], []

    def evaluate(z):
        trials.append(float(z[0]))

        def grad_of():
            grads.append(float(z[0]))
            return z.copy()

        return 0.5 * float(z[0]) ** 2, grad_of, 1.0

    z, value, _, _, iters, ok, _ = _lbfgs_loop(
        evaluate, np.array([1.0]), OptimConfig(max_iters=1), lambda vec: 4.0 * vec
    )
    assert trials == [1.0, -3.0, -1.0, 0.0]
    assert grads == [1.0, 0.0]
    assert (iters, z[0], value, ok) == (1, 0.0, 0.0, True)


def test_newton_search_takes_no_gradient_for_a_trial_armijo_rejects():
    # f = V0 + |z|^2 / 2 with V0 = 1e6, from z = 2**-10 along three Newton
    # steps: c1 |slope| = 2.9e-10 is below the value's noise (1.4e-8), where
    # an L-BFGS search tests gradient norms.  A Newton search tests Armijo's
    # condition alone: the step 1 reaches z = -2**-9, rejected on its value,
    # and the step 1/2 z = -2**-11, the one trial that takes a gradient
    v0, trials, grads = 1e6, [], []

    def evaluate(z):
        trials.append(float(z[0]))

        def grad_of():
            grads.append(float(z[0]))
            return z.copy()

        return v0 + 0.5 * float(z.dot(z)), grad_of, 1.0

    def rebuild():
        raise AssertionError("a one-iteration loop rebuilds nothing")

    z, value, _, _, iters, ok, _ = _lbfgs_loop(
        evaluate, np.array([2.0**-10]), OptimConfig(tol_grad=1e-15, max_iters=1),
        lambda vec: 3.0 * vec, rebuild=rebuild, fallback=rebuild)
    assert trials == [2.0**-10, -2.0**-9, -2.0**-11]
    assert grads == [2.0**-10, -2.0**-11]
    assert (iters, z[0], value, ok) == (1, -2.0**-11, v0 + 2.0**-23, False)


def test_trial_whose_gradient_raises_is_rejected_by_halving():
    # f = z**2 / 2 from z = 1 along -1: the full step reaches z = 0, whose
    # value passes Armijo's test but whose gradient is undefined, so the
    # search rejects it and halves to z = 0.5, which it accepts
    trials, grads = [], []

    def evaluate(z):
        trials.append(float(z[0]))

        def grad_of():
            grads.append(float(z[0]))
            if z[0] < 0.25:
                raise ActionError("gradient undefined here")
            return z.copy()

        return 0.5 * float(z[0]) ** 2, grad_of, 1.0

    z, value, grad, _, iters, _, rows = _lbfgs_loop(
        evaluate, np.array([1.0]), OptimConfig(max_iters=1), lambda vec: vec
    )
    assert trials == [1.0, 0.0, 0.5]
    assert grads == [1.0, 0.0, 0.5]
    assert iters == 1 and z[0] == 0.5 and value == 0.125 and grad[0] == 0.5
    assert [r[1] for r in rows] == [0.5, 0.125]


def _jacobian_counted(field):
    """(copy of ``field`` that counts its batch Jacobians, one-entry count list)."""
    count = [0]
    inner = field._jac_many

    def jac_many(pts):
        count[0] += 1
        return inner(pts)

    return dataclasses.replace(field, _jac_many=jac_many), count


def test_only_rejected_armijo_trials_skip_the_jacobian(monkeypatch):
    # gamma=10 from the straight line at N=64: 59 evaluations, the start,
    # 42 accepted and 8 rejected Armijo trials and 8 gradient-norm trials
    # (7 accepted, 1 rejected).  Taking every gradient at once, as the solver
    # did before its evaluations were staged, costs a Jacobian per
    # evaluation plus one for the preconditioner's rate; the staged solve
    # skips exactly the 8 rejected Armijo trials, with the same bits.
    inner = optimize._staged
    start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(64))
    runs = {}
    for eager in (True, False):
        evaluations = []

        def staged(*args, eager=eager):
            value, grad_of, t_hat = inner(*args)
            evaluations.append(t_hat)
            if eager:
                grad = grad_of()
                return value, lambda: grad, t_hat
            return value, grad_of, t_hat

        monkeypatch.setattr(optimize, "_staged", staged)
        field, jacobians = _jacobian_counted(maier_stein_field(10.0))
        res = minimize_tmam(start, field)
        runs[eager] = (res, len(evaluations), jacobians[0])
    (eager_res, eager_evals, eager_jacs), (res, evals, jacs) = runs[True], runs[False]
    assert (res.iterations, res.converged) == (49, True)
    assert eager_evals == evals == 59
    assert eager_jacs == 1 + evals
    assert jacs == eager_jacs - 8 == 52
    assert res.value.hex() == eager_res.value.hex()
    assert np.array_equal(res.path.values, eager_res.path.values)


def test_flat_value_with_moving_steps_stops_at_the_dead_limit():
    # a constant value of 1 and gradient of ones: the Armijo bound rounds to
    # the value from step 2**-43 on (trial 44), so every search accepts a step
    # that moves the point but makes no progress, until the no-progress limit
    z0 = np.array([1.0, -3.0, 0.5])
    trials = []

    def evaluate(z):
        trials.append(z.copy())
        return 1.0, lambda: np.ones(z.size), 1.0

    z, value, _, _, iters, ok, rows = _lbfgs_loop(evaluate, z0, OptimConfig(), lambda vec: vec)
    assert iters == _DEAD_LIMIT
    assert len(rows) == 1 + _DEAD_LIMIT
    assert len(trials) == 1 + _DEAD_LIMIT * 44
    assert np.array_equal(z, z0 - _DEAD_LIMIT * 2.0**-43)
    assert value == 1.0 and not ok


def test_pinned_maier_stein_solve_is_unchanged_with_fewer_evaluations(monkeypatch):
    # gamma=1 from the straight line at N=256: a stalled solve with failed
    # line searches.  Before the line search stopped at the iterate and the
    # gradient dropped its four-operand einsums, this solve made 315
    # value/gradient calls, and 234 before a gradient-norm search failed once
    # its gradient stopped moving.  The fields below were re-recorded when the
    # drift's cube became u*u*u in place of u**3, which moves last bits of the
    # drift; with u**3 the solve gave value 0x1.00014fb7ce7a8p-1, t_hat
    # 0x1.4fa7d2eaa9d4ep+3, grad_norm 0x1.6badc7e000000p-26, 94 iterations,
    # 148 calls and path sha256
    # 9cb0bd8e679899397053392a169686c05cf776c7b02d0b21f25ce0e21ff9ead2.
    # They were re-recorded again when the action moved to node-last planes,
    # which changes the summation order and so the last bits of every value
    # and gradient.  The solve then converges; in the (N, q, n) layout it
    # stalled with value 0x1.00014fb7239eap-1, t_hat 0x1.4fd0f87649647p+3,
    # grad_norm 0x1.4133f80000000p-28, 102 iterations, converged False, 194
    # calls and path sha256
    # d706a5f76ed4874a95eee1cce5c7c2bb9844511101a6c5623bae6cf9be05cc99.
    # The solver evaluates through the staged call, value first and gradient
    # on demand; each evaluation is one call to it.  The fields below were
    # re-recorded when the scalar-rate band came to be factored as a
    # tridiagonal LDL^T (pttrf/pttrs, not pbtrf/pbtrs) and kappa from the
    # eigenvalues of J^T J, which moves last bits of the preconditioner.  The
    # solve now stops 3.2e-11 above the discrete minimum it reached before:
    # it gave value 0x1.00014fb719cc6p-1, t_hat 0x1.4fdbedf808296p+3,
    # grad_norm 0x1.7064340000000p-31, 100 iterations, converged True, 127
    # calls and path sha256
    # ee1fbf83854a2cc761b369b41b2cdf04711ba1c30048bd463d543f232863f60f.
    # Its 164 calls fell to 119, with every field below unchanged, when a
    # gradient-norm search came to fail at its first rejected trial whose
    # gradient's linear model keeps 0.999 of the norm at every smaller step.
    calls = []
    inner = optimize._staged

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optimize, "_staged", counted)
    start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(256))
    res = minimize_tmam(start, maier_stein_field(1.0))
    assert res.value.hex() == "0x1.00014fb75fcf0p-1"
    assert res.t_hat.hex() == "0x1.4fbf01981b61ap+3"
    assert res.grad_norm.hex() == "0x1.9bc1760000000p-27"
    assert (res.iterations, res.converged) == (97, False)
    path_bytes = np.ascontiguousarray(res.path.values, dtype="<f8").tobytes()
    assert hashlib.sha256(path_bytes).hexdigest() == (
        "b230c9fe16c3dd6708467b51d6baa07047e9c6d4222f61f645f3466f6f581559"
    )
    assert 0 < len(calls) < 315
    assert len(calls) == 119


def test_pinned_converging_maier_stein_solve_is_unchanged_with_fewer_evaluations(monkeypatch):
    # gamma=10 from the bulged start at N=16, default config: a converging
    # solve whose gradient-norm searches fail by the gradient's linear model.
    # The rule that waited for the trial gradient to stop moving gave the
    # same fields with 588 calls.
    calls = []
    inner = optimize._staged

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optimize, "_staged", counted)
    mesh = uniform_mesh(16)
    start = FePath(mesh, np.column_stack([-1.0 + mesh.nodes, 0.3 * np.sin(np.pi * mesh.nodes)]))
    res = minimize_tmam(start, maier_stein_field(10.0))
    assert res.value.hex() == "0x1.5ebf4f8936a91p-2"
    assert res.t_hat.hex() == "0x1.ae8ac39c74caap+2"
    assert res.grad_norm.hex() == "0x1.2356960000000p-31"
    assert (res.iterations, res.converged) == (116, True)
    path_bytes = np.ascontiguousarray(res.path.values, dtype="<f8").tobytes()
    assert hashlib.sha256(path_bytes).hexdigest() == (
        "a05868a2ec9052d862befc2bdf783c9e70c471f368d66716682d5455f413d26f"
    )
    assert len(calls) == 328


def test_norm2_has_the_bits_of_numpy_norm():
    rng = np.random.default_rng(11)
    for size in (0, 1, 2, 3, 7, 64, 1023, 4096):
        for scale in (1e-160, 1e-3, 1.0, 1e140):
            vec = scale * rng.standard_normal(size)
            assert _norm2(vec).hex() == float(np.linalg.norm(vec)).hex()


def test_norm2_is_nonzero_where_the_sum_of_squares_underflows():
    # numpy's norm underflows to 0 here; _norm2 scales by the largest magnitude
    vec = np.full(4, 1e-200)
    assert np.linalg.norm(vec) == 0.0
    assert _norm2(vec) == 2e-200
    assert _norm2(np.array([3.0, 0.0, -4.0]) * 2.0**-700) == 5.0 * 2.0**-700
    assert _norm2(np.zeros(3)) == 0.0


def test_norm2_is_finite_where_the_sum_of_squares_overflows():
    # numpy's norm overflows to inf here, with a warning; _norm2 scales by
    # the largest magnitude only then, with no warning
    vec = np.array([1e200, -3.0, 1e180])
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        assert np.linalg.norm(vec) == math.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _norm2(vec) == 1e200 * math.sqrt(1.0 + 1e-40)
        assert _norm2(np.full(4, 1e300)) == 2e300
        assert _norm2(np.array([1e308, 1e308, 1e308, 1e308, 1e308])) == math.inf
        assert _norm2(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(_norm2(np.array([math.nan, 1e200])))
    assert [str(w.message) for w in caught] == []


def test_sweep_rejects_a_level_too_large_for_an_array_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(optimize, "minimize_tmam", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match=r"^N_list entry is too large for a node array: "):
        continuation_sweep(SCALAR, [0.0], [1.0], [8, 16, 10**400], quad=QUAD)
    assert solves == []


def _callable_maier_stein(x):
    u, v = x
    return np.array([u - u**3 - 10.0 * u * v**2, -(1.0 + u**2) * v])


DIAGNOSTIC_PROBLEMS = {
    "two_scale": (two_scale_field(), [1.0, 1.0], [0.0, 0.0]),
    "maier_stein": (maier_stein_field(10.0), [-1.0, 0.0], [0.0, 0.0]),
    "callable": (field_from_callable(2, _callable_maier_stein), [-1.0, 0.0], [0.0, 0.0]),
}


@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_PROBLEMS))
def test_diagnostics_have_the_bits_of_the_public_functions(name, mode):
    # the solver takes the Euler-Lagrange residual from its last gradient;
    # both diagnostics must equal the public functions on the returned path
    field, x1, x2 = DIAGNOSTIC_PROBLEMS[name]
    start = linear_interpolant_path(x1, x2, uniform_mesh(16))
    if mode == "tmam":
        res = minimize_tmam(start, field, OptimConfig(max_iters=40))
    else:
        res = minimize_fixed_T(start, field, 3.0, OptimConfig(max_iters=40))
    quad = Quadrature()
    assert res.iterations > 0
    assert res.el_residual.hex() == el_residual(res.path, field, res.t_hat, quad).hex()
    assert res.hamiltonian_violation.hex() == (
        hamiltonian_violation(res.path, field, res.t_hat, quad).hex()
    )


def test_tmam_solve_evaluates_its_start_once_and_no_optimal_time(monkeypatch):
    calls, horizons = [], []
    inner = optimize._staged

    def counted(path, *args):
        calls.append(path.values.copy())
        return inner(path, *args)

    monkeypatch.setattr(optimize, "_staged", counted)
    monkeypatch.setattr(optimize, "optimal_time", lambda *args: horizons.append(args))
    field = two_scale_field()
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(32))
    res = minimize_tmam(start, field, quad=QUAD)
    assert res.converged and res.iterations > 0
    assert horizons == []
    assert len(calls) > res.iterations
    at_start = [np.array_equal(values, start.values) for values in calls]
    assert at_start[0] and sum(at_start) == 1


def _scalar_rate_field(kappa: float):
    """A 1-D field without ``linear_matrix`` whose constant Jacobian -sqrt(kappa) gives ``kappa``."""
    return dataclasses.replace(linear_field([[-math.sqrt(kappa)]]), linear_matrix=None)


def _recorded_bands(start, field, quad, t_ref):
    """(bands, factors) that ``optimize._preconditioner`` passes to and gets from its factor.

    Every band, tridiagonal or wider, goes to that one factor; all are
    recorded, in the order of the calls.
    """
    bands, factors = [], []
    real = optimize.cholesky_banded

    def recording(band):
        bands.append(band.copy())
        factors.append(real(band))
        return factors[-1]

    optimize.cholesky_banded = recording
    try:
        optimize._preconditioner(start, field, quad, t_ref, False, ())
    finally:
        optimize.cholesky_banded = real
    return bands, factors


def _scalar_rate_band(mesh: Mesh, t_ref: float, kappa: float) -> np.ndarray:
    """The upper band of the scalar-rate preconditioner of ``optimize._preconditioner``."""
    start = linear_interpolant_path([0.0], [1.0], mesh)
    return _recorded_bands(start, _scalar_rate_field(kappa), QUAD, t_ref)[0][0]


def _hessian_band(mesh: Mesh, t_ref: float) -> np.ndarray:
    """The 4-row upper band of the two-scale field's fixed-T Hessian, from the preconditioner."""
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], mesh)
    return _recorded_bands(start, two_scale_field(), QUAD, t_ref)[0][0]


def _scipy_pttrf(band):
    """scipy's ``dpttrf`` (d, e) of the upper tridiagonal ``band``; e is never empty."""
    # scipy's wrappers take one off-diagonal entry for a 1 x 1 matrix
    e = band[0, 1:] if band.shape[1] > 1 else np.zeros(1)
    d, e, info = scipy.linalg.lapack.dpttrf(band[1], e)
    assert info == 0
    return d, e


def _scipy_solver(band):
    """scipy's solve with ``band``: ``dpttrf``/``dpttrs`` for two rows, else banded Cholesky."""
    if band.shape[0] != 2:
        cholesky = scipy.linalg.cholesky_banded(band, lower=False)
        return lambda b: scipy.linalg.cho_solve_banded((cholesky, False), b)
    d, e = _scipy_pttrf(band)

    def solve(b):
        x, info = scipy.linalg.lapack.dpttrs(d, e, b)
        assert info == 0
        return x

    return solve


def _assert_factor_is_scipys(band, factor):
    """``factor`` is scipy's: ``dpttrf`` in the band layout for two rows, else banded Cholesky."""
    assert factor.shape == band.shape and factor.dtype == np.float64
    if band.shape[0] != 2:
        assert factor.tobytes() == scipy.linalg.cholesky_banded(band, lower=False).tobytes()
        return
    d, e = _scipy_pttrf(band)
    assert factor[1].tobytes() == d.tobytes()
    assert factor[0, 1:].tobytes() == e[:band.shape[1] - 1].tobytes() and factor[0, 0] == 0.0


def test_banded_factor_and_solve_have_the_bits_of_scipy_for_both_band_kinds():
    # the two kinds of band the preconditioner factors, on one sweep of
    # meshes: the tridiagonal scalar-rate band against scipy's dpttrf/dpttrs,
    # and the 4-row Hessian band of a 2-D linear field against scipy's banded
    # Cholesky.  The tridiagonal solve is backward stable; on the uniform
    # meshes, which are well conditioned, it agrees with banded Cholesky of
    # the same band to about 1e-12
    rng = np.random.default_rng(14)
    worst_backward = worst_uniform = 0.0
    for N in range(2, 1026):
        interior = np.sort(rng.random(N - 1))
        meshes = [uniform_mesh(N)]
        if np.min(np.diff(np.concatenate([[0.0], interior, [1.0]]))) > 0.0:
            meshes.append(Mesh(np.concatenate([[0.0], interior, [1.0]])))
        for uniform, mesh in zip((True, False), meshes):
            t_ref = float(rng.uniform(0.1, 20.0))
            band = _scalar_rate_band(mesh, t_ref, kappa=4.0)
            off = np.abs(band[0, 1:])
            band_norm = np.max(band[1] + np.append(off, 0.0) + np.insert(off, 0, 0.0))
            cholesky = scipy.linalg.cholesky_banded(band, lower=False)
            for kind in (band, _hessian_band(mesh, t_ref)):
                factor = optimize.cholesky_banded(kind)
                _assert_factor_is_scipys(kind, factor)
                scipy_solve = _scipy_solver(kind)
                for n in (1, 2, 3):
                    b = rng.standard_normal((kind.shape[1], n)) * 10.0 ** rng.integers(-8, 9)
                    got = optimize.cho_solve_banded(factor, b)
                    ref = scipy_solve(b)
                    assert got.shape == ref.shape == b.shape
                    assert got.tobytes() == ref.tobytes(), (N, kind.shape[0], n)
                    if kind is not band:
                        continue
                    residual = band[1][:, None] * got - b
                    residual[:-1] += band[0, 1:, None] * got[1:]
                    residual[1:] += band[0, 1:, None] * got[:-1]
                    worst_backward = max(worst_backward, float(
                        np.max(np.abs(residual)) / (band_norm * np.max(np.abs(got)))))
                    if uniform:
                        ref = scipy.linalg.cho_solve_banded((cholesky, False), b)
                        worst_uniform = max(worst_uniform, float(
                            np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    assert worst_backward <= 4.0 * np.finfo(float).eps
    assert worst_uniform <= 2e-12


def test_preconditioner_apply_has_the_bits_of_scipy():
    rng = np.random.default_rng(3)
    mesh = Mesh(np.concatenate([[0.0], np.sort(rng.random(40)), [1.0]]))
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], mesh)
    field = dataclasses.replace(two_scale_field(), linear_matrix=None)  # kappa about 100
    band = _recorded_bands(start, field, QUAD, 2.5)[0][0]
    apply = optimize._preconditioner(start, field, QUAD, 2.5, False, ())[0]
    vec = rng.standard_normal(2 * 40)
    # the scalar-rate band is tridiagonal: one pttrs solve for both components
    assert apply(vec).tobytes() == _scipy_solver(band)(vec.reshape(-1, 2)).ravel().tobytes()
    cholesky = scipy.linalg.cholesky_banded(_scalar_rate_band(mesh, 2.5, 100.0), lower=False)
    ref = scipy.linalg.cho_solve_banded((cholesky, False), vec.reshape(-1, 2))
    assert np.max(np.abs(apply(vec) - ref.ravel())) <= 1e-12 * np.max(np.abs(ref))
    # the Hessian band of a linear field solves for the flat vector at once
    hessian = _recorded_bands(start, two_scale_field(), QUAD, 2.5)[1][0]
    apply = optimize._preconditioner(start, two_scale_field(), QUAD, 2.5, False, ())[0]
    assert apply(vec).tobytes() == scipy.linalg.cho_solve_banded((hessian, False), vec).tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 1), (0, 2)])
@pytest.mark.parametrize("rows", [2, 4])
def test_banded_solve_of_an_empty_right_hand_side_is_empty(rows, shape):
    # N=1 has no interior node; LAPACK itself rejects an empty 2-D right-hand side
    band = (_scalar_rate_band(uniform_mesh(1), t_ref=1.0, kappa=1.0) if rows == 2
            else _hessian_band(uniform_mesh(1), t_ref=1.0))
    factor = optimize.cholesky_banded(band)
    assert factor.shape == band.shape == (rows, 0)
    got = optimize.cho_solve_banded(factor, np.empty(shape))
    assert got.shape == shape and got.dtype == np.float64
    if rows != 2:
        ref = scipy.linalg.cho_solve_banded((factor, False), np.empty(shape))
        assert ref.shape == shape and ref.dtype == np.float64


def test_scalar_rate_band_has_the_bits_of_its_formula():
    # every solve of a field without linear_matrix depends on these bits:
    # stiffness (1/h_i + 1/h_{i+1}) / T and reaction (T kappa) times the P1
    # mass; at this horizon the reaction dominates, so its last bits show
    rng = np.random.default_rng(8)
    mesh = Mesh(np.concatenate([[0.0], np.sort(rng.random(40)), [1.0]]))
    h, t_ref, kappa = mesh.widths, 40.0, 90.0
    start = linear_interpolant_path([0.0, 1.0], [1.0, 0.0], mesh)
    field = dataclasses.replace(linear_field(-math.sqrt(kappa) * np.eye(2)), linear_matrix=None)
    band = _recorded_bands(start, field, Quadrature(3), t_ref)[0][0]
    reaction = t_ref * optimize._drift_rate_sq(field, start)
    ref = np.zeros((2, 40))
    ref[1] = (1.0 / h[:-1] + 1.0 / h[1:]) / t_ref + reaction * ((h[:-1] + h[1:]) / 3.0)
    ref[0, 1:] = -1.0 / h[1:-1] / t_ref + reaction * (h[1:-1] / 6.0)
    assert band.tobytes() == ref.tobytes()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_scalar_rate_band_is_the_hessian_band_of_an_isotropic_linear_drift(q):
    # for b(x) = -sqrt(kappa) x the fixed-T Hessian is (1/T) K + T kappa M, and a
    # rule with q >= 2 integrates the hat products exactly; the midpoint rule
    # (q = 1) does not, and its band differs by 5% on this mesh
    rng = np.random.default_rng(31)
    mesh = Mesh(np.concatenate([[0.0], np.sort(rng.random(30)), [1.0]]))
    start = linear_interpolant_path([0.0], [1.0], mesh)
    kappa, quad = 7.3, Quadrature(q)
    scalar = _recorded_bands(start, _scalar_rate_field(kappa), quad, 1.9)[0]
    hessian = _recorded_bands(start, linear_field([[-math.sqrt(kappa)]]), quad, 1.9)[0]
    assert len(scalar) == len(hessian) == 1 and scalar[0].shape == hessian[0].shape == (2, 30)
    assert np.all(np.abs(scalar[0] - hessian[0]) <= 1e-15 * np.abs(hessian[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("rows", [2, 4])
def test_banded_solve_of_a_nonfinite_vector_is_scipys_value_error(rows, bad):
    band = (_scalar_rate_band(uniform_mesh(8), t_ref=1.0, kappa=1.0) if rows == 2
            else _hessian_band(uniform_mesh(8), t_ref=1.0))
    factor = optimize.cholesky_banded(band)
    b = np.ones((band.shape[1], 2))
    b[3, 1] = bad
    with pytest.raises(ValueError) as ref:
        scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(band), False), b)
    with pytest.raises(ValueError) as got:
        optimize.cho_solve_banded(factor, b)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value) == "array must not contain infs or NaNs"


BAND_CASES = ("linear_matrix", "nonuniform", "one_element", "scalar_rate_n1", "scalar_rate_n2")


@pytest.fixture(scope="module")
def tier1_bands():
    """Bands ``optimize._preconditioner`` builds in the solves above, by name of ``BAND_CASES``."""
    rng = np.random.default_rng(5)
    nonuniform = Mesh(np.concatenate([[0.0], np.sort(rng.random(40)), [1.0]]))
    one_d = linear_interpolant_path([0.0], [1.0], uniform_mesh(64))
    two_d = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    scalar_rate_2d = dataclasses.replace(two_scale_field(), linear_matrix=None)
    cases = {
        "scalar_rate_n1": (one_d, _scalar_rate_field(4.0), 1.0),
        "scalar_rate_n2": (two_d, scalar_rate_2d, 5.0),
        "linear_matrix": (two_d, two_scale_field(), 5.0),
        "nonuniform": (linear_interpolant_path([1.0, 1.0], [0.0, 0.0], nonuniform), scalar_rate_2d, 2.5),
        "one_element": (linear_interpolant_path([1.0, 1.0], [0.0, 0.5], uniform_mesh(1)),
                        two_scale_field(), 2.0),
    }
    return {name: _recorded_bands(start, field, QUAD, t_ref)[0][0]
            for name, (start, field, t_ref) in cases.items()}


@pytest.mark.parametrize("name", BAND_CASES)
def test_banded_factor_has_the_bits_of_scipy(tier1_bands, name):
    # a Fortran-ordered band is one LAPACK could factor in place; it must not
    for band in (tier1_bands[name], np.asfortranarray(tier1_bands[name])):
        kept = band.copy()
        _assert_factor_is_scipys(band, optimize.cholesky_banded(band))
        assert band.tobytes() == kept.tobytes()


def test_rejected_band_raises_scipys_lin_alg_error(tier1_bands):
    # the Hessian band with its sign flipped is negative definite: the first
    # leading minor fails, as it must for _preconditioner's linear_matrix fallback
    band = -tier1_bands["linear_matrix"]
    with pytest.raises(scipy.linalg.LinAlgError) as ref:
        scipy.linalg.cholesky_banded(band, lower=False)
    with pytest.raises(optimize.LinAlgError) as got:
        optimize.cholesky_banded(band)
    assert optimize.LinAlgError is scipy.linalg.LinAlgError is np.linalg.LinAlgError
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value) == "1-th leading minor not positive definite"


def test_band_routines_are_scipys_float64_lapack():
    for name in ("pbtrf", "pbtrs", "pttrf", "pttrs"):
        routine = scipy.linalg.get_lapack_funcs((name,), (np.empty(0),))[0]
        assert getattr(optimize._FLAPACK, "d" + name) is routine


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("rows", [2, 4])
def test_banded_factor_and_solve_take_the_smallest_bands(rows, N):
    # N=1 has no interior node and N=2 one, whose empty off-diagonal the
    # LAPACK wrappers of the tridiagonal routines take as one entry
    band = (_scalar_rate_band(uniform_mesh(N), t_ref=1.0, kappa=1.0) if rows == 2
            else _hessian_band(uniform_mesh(N), t_ref=1.0))
    factor = optimize.cholesky_banded(band)
    assert factor.shape == band.shape == (rows, (N - 1) * rows // 2)
    b = np.arange(1.0, 2.0 * band.shape[1] + 1.0).reshape(-1, 2)
    ref = scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(band), False), b)
    assert np.allclose(optimize.cho_solve_banded(factor, b), ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("flip", [0, 5])
def test_rejected_tridiagonal_band_raises_scipys_lin_alg_error(tier1_bands, flip):
    # the band negated from row ``flip`` on: the leading minor of order
    # flip + 1 is the first that fails, in L D L^T as in scipy's Cholesky
    band = tier1_bands["scalar_rate_n1"].copy()
    band[1, flip:] *= -1.0
    with pytest.raises(scipy.linalg.LinAlgError) as ref:
        scipy.linalg.cholesky_banded(band, lower=False)
    with pytest.raises(optimize.LinAlgError) as got:
        optimize.cholesky_banded(band)
    assert type(got.value) is type(ref.value) is np.linalg.LinAlgError
    assert str(got.value) == str(ref.value) == f"{flip + 1}-th leading minor not positive definite"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("linear", [False, True])
def test_nonfinite_band_raises_action_error_before_the_factor(monkeypatch, linear, bad):
    # the factor takes the band unchecked; ``_Band.inverse`` checks it first,
    # for the tridiagonal scalar-rate band and the wider Hessian band alike
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    band = optimize._Band(start, two_scale_field(), QUAD, linear)
    assert band.stiff.shape[0] == (4 if linear else 2)
    band.stiff[1, 7] = bad
    calls = []
    monkeypatch.setattr(optimize, "cholesky_banded", lambda b: calls.append(b))
    with pytest.raises(ActionError, match="^preconditioner is not finite at this horizon$"):
        band.inverse(2.5)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_factor_of_a_finite_band_raises_action_error(monkeypatch, bad):
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    band = optimize._Band(start, two_scale_field(), QUAD, True)
    real = optimize.cholesky_banded

    def spoiled(b):
        factor = real(b)
        factor[2, 5] = bad
        return factor

    monkeypatch.setattr(optimize, "cholesky_banded", spoiled)
    with pytest.raises(ActionError, match="^preconditioner is not finite at this horizon$"):
        band.inverse(2.5)


def _applies_have_the_same_bits(a, b, dim):
    vecs = np.random.default_rng(7).standard_normal((3, dim))
    return all(a(v).tobytes() == b(v).tobytes() for v in vecs)


def test_downdate_with_a_nonfinite_coupling_is_left_out():
    # as when nodal values near 1e307 overflow p' and so c
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    band = optimize._Band(start, two_scale_field(), QUAD, True)
    c_vec = np.random.default_rng(3).standard_normal(46)
    c_vec[17] = np.inf
    downdated = optimize._inverse(band.at(2.5), 1, c_vec, 1.0)
    assert _applies_have_the_same_bits(downdated, band.inverse(2.5), 46)


@pytest.mark.parametrize("excess,downdated", [(-1e-3, False), (0.0, False), (1e-9, False),
                                              (1e-6, True)])
def test_downdate_is_left_out_unless_the_schur_complement_passes_its_floor(excess, downdated):
    # H_TT = (1 + excess) c^T P^-1 c puts the Schur complement at about
    # excess c^T P^-1 c, against the floor 1e-8 H_TT
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    band = optimize._Band(start, two_scale_field(), QUAD, True)
    plain = band.inverse(2.5)
    c_vec = np.random.default_rng(3).standard_normal(46)
    h_tt = (1.0 + excess) * c_vec.dot(plain(c_vec))
    same = _applies_have_the_same_bits(optimize._inverse(band.at(2.5), 1, c_vec, h_tt), plain, 46)
    assert same is not downdated


@pytest.mark.parametrize("case,newton", [
    ("tmam", True),
    ("fixed_t", False),
    ("no_linear_matrix", False),
    ("linear_matrix_not_the_jacobian", False),
])
def test_only_a_newton_solve_gets_a_rebuild(case, newton):
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    field = {
        "no_linear_matrix": dataclasses.replace(two_scale_field(), linear_matrix=None),
        "linear_matrix_not_the_jacobian": dataclasses.replace(
            two_scale_field(), linear_matrix=np.array(LINEAR_MATRICES["nonsymmetric"])),
    }.get(case, two_scale_field())
    _, stage, t_hat = action._staged(start, field, QUAD)
    stage()  # the gradient takes the Jacobian the coupling reads
    apply, rebuild, fallback = optimize._preconditioner(start, field, QUAD, t_hat,
                                                        case != "fixed_t", [stage])
    assert (rebuild is not None) is (fallback is not None) is newton
    if newton:
        # the rebuild at the start's stage is the start's operator
        assert _applies_have_the_same_bits(rebuild(), apply, 46)


@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
def test_rejected_one_d_hessian_falls_back_to_the_scalar_rate_band(monkeypatch, mode):
    # a 1-D linear field's Hessian band is tridiagonal too; when pttrf rejects
    # it, the solve is the one of the same field without linear_matrix.  The
    # midpoint rule makes the two bands differ.
    field, quad = linear_field([[-2.0]]), Quadrature(1)
    start = linear_interpolant_path([1.0], [0.0], uniform_mesh(24))

    def solve(f):
        if mode == "tmam":
            return minimize_tmam(start, f, quad=quad)
        return minimize_fixed_T(start, f, 5.0, quad=quad)

    ref = solve(dataclasses.replace(field, linear_matrix=None))
    real, calls = optimize.cholesky_banded, []

    def reject_the_hessian(band):
        # both bands have two rows: the Hessian's is the first factored
        calls.append(band.copy())
        if len(calls) == 1:
            raise optimize.LinAlgError("3-th leading minor not positive definite")
        return real(band)

    monkeypatch.setattr(optimize, "cholesky_banded", reject_the_hessian)
    assert _same_solve(solve(field), ref)
    assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])


def _counted_band_calls(monkeypatch):
    """Calls to ``optimize.cholesky_banded`` and ``optimize.cho_solve_banded``, counted by name.

    The names are wrapped in the module, as bench/layertrace.py wraps them
    to time the preconditioner's factor and solve.
    """
    counts = {"cholesky_banded": 0, "cho_solve_banded": 0}

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(optimize, name, counting(name, getattr(optimize, name)))
    return counts


@pytest.mark.parametrize("field", [maier_stein_field(10.0),
                                   field_from_callable(2, _callable_maier_stein)],
                         ids=["maier_stein", "callable"])
def test_every_band_factor_and_solve_goes_through_the_traced_names(monkeypatch, field):
    # the scalar-rate band of a nonlinear field is tridiagonal: its factor and
    # every apply of the preconditioner must still be seen under the two names
    counts = _counted_band_calls(monkeypatch)
    mesh = uniform_mesh(64)
    start = FePath(mesh, np.column_stack([-1.0 + mesh.nodes, 0.3 * np.sin(np.pi * mesh.nodes)]))
    res = minimize_tmam(start, field, OptimConfig(max_iters=200))
    assert res.iterations > 0
    assert counts["cholesky_banded"] >= 1
    assert counts["cho_solve_banded"] >= res.iterations


def test_drift_rate_is_the_largest_squared_spectral_norm_at_the_start_nodes():
    rng = np.random.default_rng(9)
    start = FePath(uniform_mesh(30), rng.standard_normal((31, 2)))
    field = field_from_callable(2, _callable_maier_stein)
    norms = np.linalg.norm(field.jacobian_many(start.values), 2, axis=(1, 2))
    assert optimize._drift_rate_sq(field, start) == pytest.approx(np.max(norms) ** 2, rel=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
def test_nonfinite_jacobian_at_a_start_node_is_action_error(mode, bad):
    # J is not finite, or J^T J overflows, only at the start's node 0.5,
    # which no quadrature point of the start's action meets; the SVD of a
    # NaN Jacobian did not converge and raised an untyped LinAlgError
    def jac(x):
        return np.array([[bad if x[0] == 0.5 else -1.0]])

    field = field_from_callable(1, lambda x: -x, jac)
    start = linear_interpolant_path([1.0], [0.0], uniform_mesh(8)).replace_interior(
        np.array([[0.9], [0.8], [0.7], [0.5], [0.4], [0.3], [0.2]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ActionError, match="^preconditioner is not finite at this horizon$"):
            if mode == "tmam":
                minimize_tmam(start, field, quad=QUAD)
            else:
                minimize_fixed_T(start, field, 2.0, quad=QUAD)
    assert [str(w.message) for w in caught] == []


def test_trial_with_a_nonfinite_gradient_is_rejected():
    # the Jacobian is NaN on 0.3 < x < 0.31 only; an Armijo trial with a
    # finite value there became the iterate, and the next preconditioner
    # solve raised an untyped ValueError
    nan_calls = []

    def jac(x):
        if 0.3 < x[0] < 0.31:
            nan_calls.append(x[0])
            return np.array([[math.nan]])
        return np.array([[-1.0]])

    field = field_from_callable(1, lambda x: -x, jac)
    start = linear_interpolant_path([1.0], [0.0], uniform_mesh(8))
    start = start.replace_interior(start.values[1:-1] + 0.2 * np.sin(np.arange(1, 8))[:, None])
    res = minimize_tmam(start, field)
    assert nan_calls
    assert res.converged and math.isfinite(res.value) and math.isfinite(res.grad_norm)
    assert np.all(np.isfinite(res.path.values))


# A of b(x) = A x for the Hessian preconditioner: symmetric, nonsymmetric, 1-D to 3-D
LINEAR_MATRICES = {
    "scalar": [[-1.5]],
    "two_scale": two_scale_field().linear_matrix,
    "nonsymmetric": [[-1.0, 3.0], [-0.5, -2.0]],
    "three_d": [[-2.0, 1.0, 0.0], [0.5, -1.0, 0.3], [0.0, -0.7, -3.0]],
}


def _linear_case(name, nonuniform, seed):
    """(field, random path) of ``LINEAR_MATRICES[name]`` on a 12-element mesh."""
    rng = np.random.default_rng(seed)
    field = linear_field(LINEAR_MATRICES[name])
    if nonuniform:
        widths = rng.uniform(0.2, 1.0, 12)
        mesh = Mesh(np.concatenate([[0.0], np.cumsum(widths[:-1]) / widths.sum(), [1.0]]))
    else:
        mesh = uniform_mesh(12)
    return field, FePath(mesh, rng.standard_normal((13, field.dim))), rng


def _fixed_t_hessian_times(path, field, T, quad, step):
    """H step from a gradient difference; exact up to roundoff, since the action is quadratic."""
    g0 = fixed_t_value_grad(path, field, T, quad)[1]
    g1 = fixed_t_value_grad(path.replace_interior(path.values[1:-1] + step), field, T, quad)[1]
    return (g1 - g0).ravel()


@pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(LINEAR_MATRICES))
def test_linear_preconditioner_inverts_the_fixed_t_hessian(name, q, nonuniform):
    field, path, rng = _linear_case(name, nonuniform, seed=q)
    quad = Quadrature(q)
    step = rng.standard_normal((11, field.dim))
    hv = _fixed_t_hessian_times(path, field, 1.7, quad, step)
    apply = optimize._preconditioner(path, field, quad, 1.7, False, ())[0]
    assert np.linalg.norm(apply(hv) - step.ravel()) <= 1e-9 * np.linalg.norm(step)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(LINEAR_MATRICES))
def test_t_coupling_is_the_horizon_derivative_of_the_action(name, q):
    # the stage's c against a central difference in T of the gradient, H_TT
    # against a second difference of the value
    field, path, _ = _linear_case(name, nonuniform=True, seed=10 + q)
    quad, T = Quadrature(q), 1.3
    _, stage, _ = action._staged(path, field, quad, T)
    stage()
    c_vec, h_tt = stage.coupling()
    d = 1e-5 * T
    fd_c = (fixed_t_value_grad(path, field, T + d, quad)[1]
            - fixed_t_value_grad(path, field, T - d, quad)[1]).ravel() / (2.0 * d)
    assert np.max(np.abs(c_vec - fd_c)) <= 1e-8 * np.max(np.abs(c_vec))
    d = 1e-3 * T
    value = [fixed_t_value_grad(path, field, t, quad)[0] for t in (T - d, T, T + d)]
    assert h_tt == pytest.approx((value[0] - 2.0 * value[1] + value[2]) / d**2, rel=1e-5)


@pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("name", ["two_scale", "nonsymmetric", "three_d"])
def test_reduced_linear_preconditioner_inverts_the_reduced_hessian(name, nonuniform):
    # at the start's t_hat the reduced action has the Hessian H - c c^T / H_TT
    # (a central difference of its gradient checks it), and the reduced
    # closure maps that matrix times a step back to the step
    field, random_path, rng = _linear_case(name, nonuniform, seed=20)
    straight = linear_interpolant_path(rng.standard_normal(field.dim), np.zeros(field.dim),
                                       random_path.mesh)
    path = straight.replace_interior(straight.values[1:-1]
                                     + 0.05 * rng.standard_normal((11, field.dim)))
    quad = Quadrature(2)
    _, stage, t_hat = action._staged(path, field, quad)
    stage()
    c_vec, h_tt = stage.coupling()
    step = rng.standard_normal((11, field.dim))
    reduced_hv = (_fixed_t_hessian_times(path, field, t_hat, quad, step)
                  - c_vec * (c_vec.dot(step.ravel()) / h_tt))
    eps = 1e-4
    fd_hv = (tmam_value_grad(path.replace_interior(path.values[1:-1] + eps * step), field, quad)[1]
             - tmam_value_grad(path.replace_interior(path.values[1:-1] - eps * step), field,
                               quad)[1]).ravel() / (2.0 * eps)
    assert np.linalg.norm(fd_hv - reduced_hv) <= 1e-6 * np.linalg.norm(reduced_hv)
    apply = optimize._preconditioner(path, field, quad, t_hat, True, [stage])[0]
    plain = optimize._preconditioner(path, field, quad, t_hat, False, ())[0]
    assert not np.array_equal(apply(reduced_hv), plain(reduced_hv))  # the downdate is on
    assert np.linalg.norm(apply(reduced_hv) - step.ravel()) <= 1e-9 * np.linalg.norm(step)


# (field, x1, x2, T, q, N, value): the values are those of the parent solver
# with the scalar-rate preconditioner, which took 20, 32 and 13 iterations
LINEAR_FIXED_T_SOLVES = {
    "two_scale": (two_scale_field(), [1.0, 1.0], [0.0, 0.0], 100.0, 2, 32, 16.73107583169383),
    "nonsymmetric": (linear_field(LINEAR_MATRICES["nonsymmetric"]), [1.0, -0.5], [0.2, 0.1],
                     3.0, 3, 40, 0.04026852044487449),
    "three_d": (linear_field(LINEAR_MATRICES["three_d"]), [1.0, 0.5, -1.0], [0.0, 0.2, 0.0],
                2.0, 1, 24, 0.04697031102133182),
}


@pytest.mark.parametrize("name", sorted(LINEAR_FIXED_T_SOLVES))
def test_linear_fixed_t_solve_is_one_newton_step(name):
    field, x1, x2, T, q, N, value = LINEAR_FIXED_T_SOLVES[name]
    start = linear_interpolant_path(x1, x2, uniform_mesh(N))
    res = minimize_fixed_T(start, field, T, quad=Quadrature(q))
    assert res.converged and res.iterations == 1
    assert abs(res.value - value) <= 1e-13 * value


def _same_solve(a, b):
    return (a.value.hex(), a.t_hat.hex(), a.iterations, a.path.values.tobytes()) == (
        b.value.hex(), b.t_hat.hex(), b.iterations, b.path.values.tobytes())


def _two_scale_solves(mode, field):
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(24))
    if mode == "tmam":
        return minimize_tmam(start, field, quad=QUAD)
    return minimize_fixed_T(start, field, 5.0, quad=QUAD)


@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
def test_hessian_cholesky_failure_falls_back_to_the_scalar_rate_preconditioner(monkeypatch, mode):
    field = two_scale_field()
    ref = _two_scale_solves(mode, dataclasses.replace(field, linear_matrix=None))
    real = optimize.cholesky_banded

    def reject_the_hessian(band):
        if band.shape[0] > 2:  # the n = 2 Hessian band has 4 rows, the scalar-rate band 2
            raise scipy.linalg.LinAlgError("3-th leading minor not positive definite")
        return real(band)

    monkeypatch.setattr(optimize, "cholesky_banded", reject_the_hessian)
    assert _same_solve(_two_scale_solves(mode, field), ref)


@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
def test_linear_matrix_of_another_shape_is_not_read(mode):
    field = two_scale_field()
    ref = _two_scale_solves(mode, dataclasses.replace(field, linear_matrix=None))
    assert _same_solve(_two_scale_solves(mode, dataclasses.replace(field, linear_matrix=np.eye(3))),
                       ref)


@pytest.mark.parametrize("mode", ["tmam", "fixed_t"])
def test_linear_matrix_that_is_not_the_fields_changes_only_the_preconditioner(mode):
    field = two_scale_field()
    exact = _two_scale_solves(mode, field)
    wrong = _two_scale_solves(
        mode, dataclasses.replace(field, linear_matrix=np.array(LINEAR_MATRICES["nonsymmetric"])))
    assert exact.converged and wrong.converged
    assert wrong.iterations > exact.iterations
    assert abs(wrong.value - exact.value) <= 1e-9 * exact.value


# (field, x1, x2, N, value, parent iterations, iterations): reduced solves
# from the straight line with Quadrature(2) that are Newton's.  Each value is
# an independent L-BFGS solve of the same problem, ``minimize_tmam`` with
# ``dataclasses.replace(field, linear_matrix=None)``, whose reduced value is
# the fixed-T action at t_hat; it agrees with the Newton solve to 7.1e-16
# relative or better.  The parent iterations are those of the L-BFGS solver
# that preceded the Newton one.
NEWTON_SOLVES = {
    "two_scale_16": (two_scale_field(), [1.0, 1.0], [0.0, 0.0], 16, 0.07011509732401347, 21, 7),
    "two_scale_64": (two_scale_field(), [1.0, 1.0], [0.0, 0.0], 64, 0.008663958332626879, 35, 9),
    "two_scale_256": (two_scale_field(), [1.0, 1.0], [0.0, 0.0], 256, 0.0009115492895400303,
                      45, 13),
    "one_d": (linear_field(LINEAR_MATRICES["scalar"]), [0.0], [1.0], 64, 1.5002514358103463,
              19, 11),
    "three_d": (linear_field(LINEAR_MATRICES["three_d"]), [0.0, 0.0, 0.0], [1.0, 0.5, -1.0], 64,
                3.596540934933762, 36, 10),
}


def _newton_solve(name):
    field, x1, x2, N = NEWTON_SOLVES[name][:4]
    return minimize_tmam(linear_interpolant_path(x1, x2, uniform_mesh(N)), field, quad=QUAD)


def _within_last_bits(value, ref):
    return abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("name", sorted(NEWTON_SOLVES))
def test_reduced_linear_solve_is_newton_with_fewer_iterations(name):
    value, parent_iterations, iterations = NEWTON_SOLVES[name][4:]
    res = _newton_solve(name)
    assert res.converged and res.iterations == iterations < parent_iterations
    assert _within_last_bits(res.value, value)


def test_linear_matrix_that_is_not_the_jacobian_keeps_the_lbfgs_solve():
    # the L-BFGS solve's bits: no Newton step is taken for this field
    field = dataclasses.replace(two_scale_field(),
                                linear_matrix=np.array(LINEAR_MATRICES["nonsymmetric"]))
    res = _two_scale_solves("tmam", field)
    assert (res.value.hex(), res.iterations) == ("0x1.3e93336c3a695p-5", 34)


@pytest.mark.parametrize("name", ["two_scale_64", "one_d"])
def test_rejected_rebuild_goes_on_as_lbfgs_on_the_plain_band_and_converges(monkeypatch, name):
    # the start's band factors, and the first rebuild's band and all of its
    # 81 shifts are rejected: the solve goes on as L-BFGS on the linear band
    # at that iterate's t_hat, factored once, and tries no further rebuild
    real, calls = optimize.cholesky_banded, []

    def reject_the_first_rebuild(band):
        calls.append(band.copy())
        if 2 <= len(calls) <= 1 + 1 + 81:
            raise optimize.LinAlgError("2-th leading minor not positive definite")
        return real(band)

    monkeypatch.setattr(optimize, "cholesky_banded", reject_the_first_rebuild)
    res = _newton_solve(name)
    assert len(calls) == 1 + 1 + 81 + 1
    plain = optimize._Band(res.path, NEWTON_SOLVES[name][0], QUAD, True)
    assert calls[-1].tobytes() == plain.at(res.log[1][3]).tobytes()  # at iterate 1's t_hat
    assert res.converged and res.iterations > NEWTON_SOLVES[name][6]
    assert _within_last_bits(res.value, NEWTON_SOLVES[name][4])


def test_rejected_linear_rebuilds_go_on_as_lbfgs_and_converge(monkeypatch):
    # every downdated operator after the start's is rejected, shifts
    # included: the solve goes on as L-BFGS on the plain band at that
    # iterate's t_hat and must still reach the Newton minimum
    real, downdated = optimize._inverse, []

    def reject_the_rebuilds(band, cols, c_vec=None, h_tt=None):
        if c_vec is not None:
            downdated.append(band)
            if len(downdated) > 1:
                raise optimize.LinAlgError("2-th leading minor not positive definite")
        return real(band, cols, c_vec, h_tt)

    monkeypatch.setattr(optimize, "_inverse", reject_the_rebuilds)
    res = _newton_solve("two_scale_256")
    assert res.converged and _within_last_bits(res.value, NEWTON_SOLVES["two_scale_256"][4])
    assert len(downdated) == 1 + 1 + 81


def _callable_maier_stein_jacobian(x):
    u, v = x
    return np.array([[1.0 - 3.0 * u**2 - 10.0 * v**2, -20.0 * u * v], [-2.0 * u * v, -(1.0 + u**2)]])


def _bulged_start(N):
    mesh = uniform_mesh(N)
    return FePath(mesh, np.column_stack([-1.0 + mesh.nodes, 0.3 * np.sin(np.pi * mesh.nodes)]))


# the gamma=10 minimum at N=64 from the bulged start: L-BFGS on maier_stein_field(10.0)
# converges there in 73 iterations
BULGED_64 = 0.3402892368354344
FD_FIELD = field_from_callable(2, _callable_maier_stein)


def _newton_inverses(monkeypatch):
    """The ``optimize._newton_inverse`` calls of the solves that follow, by their ``shift``."""
    calls, real = [], optimize._newton_inverse

    def counted(stage, fixed_t, shift):
        calls.append(shift)
        return real(stage, fixed_t, shift)

    monkeypatch.setattr(optimize, "_newton_inverse", counted)
    return calls


class TestFiniteDifferenceNewton:
    """A reduced solve of a field with a finite-difference Jacobian is Newton's when its start allows."""

    def test_bulged_start_converges_in_newton_steps(self, monkeypatch):
        calls = _newton_inverses(monkeypatch)
        res = minimize_tmam(_bulged_start(64), FD_FIELD)
        assert res.converged and res.iterations <= 20
        assert abs(res.value - BULGED_64) <= 1e-13
        # the start's operator without a shift, then one rebuild per accepted
        # iterate but the last
        assert calls == [False] + [True] * (res.iterations - 1)

    def test_saddle_start_keeps_the_lbfgs_solve(self, monkeypatch):
        # from the straight line at gamma=10 the start's band does not factor:
        # the solve is L-BFGS on the scalar-rate band, with the bits of the
        # same field without the marker
        calls = _newton_inverses(monkeypatch)
        start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(16))
        res = minimize_tmam(start, FD_FIELD)
        assert (res.value.hex(), res.iterations) == ("0x1.008e2e5caabb3p-1", 29)
        assert calls == [False]
        plain = minimize_tmam(start, dataclasses.replace(FD_FIELD, fd_jacobian=False))
        assert np.array_equal(res.path.values, plain.path.values) and res.log == plain.log

    def test_eight_component_chain_converges_in_newton_steps(self, monkeypatch):
        # a non-gradient chain in R^8 from e_1 to e_2 / 2: each Hessian takes
        # 56 mixed moves, and Q sums its 8 component planes in order.  The
        # value is this solve's own, with the bits it had when Q summed the
        # components of each point as one row
        calls = _newton_inverses(monkeypatch)
        eye = np.eye(8)
        start = linear_interpolant_path(eye[0], 0.5 * eye[1], uniform_mesh(64))
        res = minimize_tmam(start, cyclic_chain_field(8), quad=Quadrature(3))
        assert res.converged and res.iterations <= 8
        assert calls == [False] + [True] * (res.iterations - 1)
        assert res.value.hex() == (0.24311028114060204).hex()
        assert abs(res.t_hat - 1.3955600418797254) <= 1e-12

    @pytest.mark.parametrize("jacobian", ["given", "differenced"])
    def test_spiral_transition_converges_at_the_second_order_rate(self, jacobian):
        # a nonlinear, non-gradient field with a closed-form minimum and
        # horizon 1 (helpers.spiral_transition); with its Jacobian every solve
        # is L-BFGS, without it finite-difference Newton.  Measured: S_N - S
        # of 1.58e-3, 9.94e-5 and 6.22e-6, and t_hat - 1 of -2.8e-3, -1.8e-4
        # and -1.1e-5
        func, jac = spiral_point()
        x_a, x_b, exact = spiral_transition()
        field = field_from_callable(2, func, jac if jacobian == "given" else None)
        results = continuation_sweep(field, x_a, x_b, [16, 64, 256], quad=Quadrature(3))
        assert all(r.converged for r in results)
        errors = [r.value - exact for r in results]
        assert all(15.0 <= coarse / fine <= 17.0 for coarse, fine in zip(errors, errors[1:]))
        horizon_errors = [abs(r.t_hat - 1.0) for r in results]
        assert horizon_errors == sorted(horizon_errors, reverse=True)
        assert horizon_errors[-1] < 2e-5

    @pytest.mark.parametrize("case", ["jacobian_given", "fixed_t"])
    def test_lbfgs_without_the_marker_or_the_reduced_functional(self, monkeypatch, case):
        calls = _newton_inverses(monkeypatch)
        if case == "jacobian_given":
            field = field_from_callable(2, _callable_maier_stein, _callable_maier_stein_jacobian)
            assert not field.fd_jacobian
            res = minimize_tmam(_bulged_start(64), field)
            assert res.converged and res.iterations == 73
        else:
            res = minimize_fixed_T(_bulged_start(16), FD_FIELD, 3.0, OptimConfig(max_iters=40))
            assert res.iterations > 0
        assert calls == []

    def test_rebuild_that_does_not_factor_takes_the_smallest_shift_that_does(self, monkeypatch):
        # the first rebuild's band and its first two shifts are rejected
        real, bands = optimize.cholesky_banded, []

        def reject_the_first_rebuild(band):
            bands.append(band.copy())
            if 2 <= len(bands) <= 4:
                raise optimize.LinAlgError("3-th leading minor not positive definite")
            return real(band)

        monkeypatch.setattr(optimize, "cholesky_banded", reject_the_first_rebuild)
        res = minimize_tmam(_bulged_start(64), FD_FIELD)
        assert res.converged and abs(res.value - BULGED_64) <= 1e-13
        base = 1e-10 * np.max(np.abs(bands[1][-1]))
        for k in range(3):
            shifted = bands[1].copy()
            shifted[-1] += base * 2.0**k
            assert bands[2 + k].tobytes() == shifted.tobytes()
        assert len(bands) >= 4 + res.iterations - 1  # a later rebuild may shift too

    def test_rebuild_that_never_factors_goes_on_as_lbfgs(self, monkeypatch):
        # no shift within 80 doublings: L-BFGS from there, on the scalar-rate
        # band at that iterate's t_hat (factored once), with no further
        # rebuild.  It reaches the Newton minimum (69 iterations here)
        real, bands = optimize.cholesky_banded, []

        def reject_wide_bands_after_the_first(band):
            bands.append(band.copy())
            if len(bands) > 1 and band.shape[0] > 2:
                raise optimize.LinAlgError("1-th leading minor not positive definite")
            return real(band)

        monkeypatch.setattr(optimize, "cholesky_banded", reject_wide_bands_after_the_first)
        res = minimize_tmam(_bulged_start(64), FD_FIELD)
        assert len(bands) == 1 + 1 + 81 + 1 and bands[-1].shape[0] == 2
        assert res.iterations > 20
        assert res.converged and abs(res.value - BULGED_64) <= 1e-13

    @pytest.mark.parametrize("at", ["start", "rebuild"])
    def test_band_that_is_not_finite_gives_lbfgs(self, monkeypatch, at):
        real, calls = action._Assembly.hessian, []

        def poisoned(self, t_scale, resid):
            band = real(self, t_scale, resid)
            calls.append(t_scale)
            if len(calls) == (1 if at == "start" else 2):
                band[0, -1] = math.nan
            return band

        monkeypatch.setattr(action._Assembly, "hessian", poisoned)
        res = minimize_tmam(_bulged_start(64), FD_FIELD)
        assert res.iterations > 20
        if at == "start":
            plain = minimize_tmam(_bulged_start(64), dataclasses.replace(FD_FIELD, fd_jacobian=False))
            assert calls == [res.log[0][3]]
            assert np.array_equal(res.path.values, plain.path.values) and res.log == plain.log
        else:
            assert len(calls) == 2
            assert 0.0 <= res.value - BULGED_64 <= 1e-9
