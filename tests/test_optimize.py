import csv

import numpy as np
import pytest

from minaction import (
    DegeneratePathError,
    DriftVanishesError,
    OptimConfig,
    Quadrature,
    SpectralLinearProblem,
    action_fixed_T,
    continuation_sweep,
    exact_fixed_T_action,
    linear_field,
    linear_interpolant_path,
    matrix_exp_apply,
    minimize_fixed_T,
    minimize_tmam,
    two_scale_field,
    uniform_mesh,
)

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
        assert res.value <= action_fixed_T(start, field, 5.0, QUAD) + 1e-12

    def test_not_converged_is_flagged_not_raised(self):
        field = two_scale_field()
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(32))
        res = minimize_fixed_T(start, field, 100.0, OptimConfig(max_iters=2), QUAD)
        assert not res.converged
        assert res.iterations <= 2
        assert np.isfinite(res.value)


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

    def test_inactive_cap_matches_uncapped(self):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        start = linear_interpolant_path(x1, x2, uniform_mesh(32))
        plain = minimize_tmam(start, field, quad=QUAD)
        capped = minimize_tmam(start, field, OptimConfig(t_cap=50.0), QUAD)
        assert not capped.cap_active
        assert abs(plain.value - capped.value) <= 1e-10
        assert plain.t_hat < 50.0

    def test_binding_cap_is_reported(self):
        # equilibrium endpoint wants a growing horizon; cap it below demand
        field = two_scale_field()
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(64))
        free = minimize_tmam(start, field, quad=QUAD)
        cap = 0.75 * free.t_hat
        capped = minimize_tmam(start, field, OptimConfig(t_cap=cap), QUAD)
        assert capped.cap_active
        assert capped.t_hat <= cap + 1e-9
        assert capped.value >= free.value - 1e-12

    # memory=0 keeps no curvature pairs: the scaled preconditioner alone
    @pytest.mark.parametrize(
        "variant",
        [
            OptimConfig(sobolev_precondition=False),
            OptimConfig(memory=0),
            OptimConfig(memory=1),
        ],
        ids=["precond_off", "memory0", "memory1"],
    )
    def test_preconditioner_toggle_same_minimum(self, variant):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        start = linear_interpolant_path(x1, x2, uniform_mesh(24))
        on = minimize_tmam(start, field, OptimConfig(sobolev_precondition=True), QUAD)
        off = minimize_tmam(start, field, variant, QUAD)
        assert on.converged and off.converged
        assert abs(on.value - off.value) <= 1e-9 * max(1.0, abs(on.value))

    def test_iteration_log_written(self, tmp_path):
        field = two_scale_field()
        log = tmp_path / "iters.csv"
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(16))
        minimize_tmam(start, field, OptimConfig(log_path=str(log)), QUAD)
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
        results = continuation_sweep(field, x1, x2, [8, 16, 32], quad=QUAD, mode="tmam")
        values = [r.value for r in results]
        assert values[1] <= values[0] + 1e-10
        assert values[2] <= values[1] + 1e-10

    def test_single_level_equals_direct_solve(self):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        sweep = continuation_sweep(field, x1, x2, [16], quad=QUAD, mode="tmam")
        direct = minimize_tmam(linear_interpolant_path(x1, x2, uniform_mesh(16)), field, quad=QUAD)
        assert sweep[0].value == direct.value

    def test_zero_field_fixed_mode_straight_lines(self):
        field = linear_field(np.zeros((2, 2)))
        results = continuation_sweep(
            field, [0.0, 0.0], [1.0, 1.0], [4, 8, 16], quad=QUAD, mode="fixed_t", T=1.0
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
                continuation_sweep(field, [0.0], [1.0], bad, quad=QUAD, mode="tmam")
        with pytest.raises(ValueError):
            continuation_sweep(field, [0.0], [1.0], [4, 8], quad=QUAD, mode="fixed_t")

    def test_degenerate_problem_names_failing_level(self):
        field = linear_field(np.zeros((1, 1)))
        with pytest.raises(DriftVanishesError, match="N=4"):
            continuation_sweep(field, [0.0], [1.0], [4, 8], quad=QUAD, mode="tmam")

    def test_fixed_T_study_oracle_gap_shrinks(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        exact = exact_fixed_T_action(prob)
        results = continuation_sweep(
            SCALAR, [0.0], [1.0], [8, 16, 32], quad=QUAD, mode="fixed_t", T=1.0
        )
        gaps = [r.value - exact for r in results]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
