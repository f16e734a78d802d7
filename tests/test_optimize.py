import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from minaction import (
    ActionError,
    DegeneratePathError,
    DriftVanishesError,
    Mesh,
    OptimConfig,
    Quadrature,
    SpectralLinearProblem,
    action_fixed_T,
    continuation_sweep,
    el_residual,
    exact_fixed_T_action,
    field_from_callable,
    hamiltonian_violation,
    linear_field,
    linear_interpolant_path,
    maier_stein_field,
    matrix_exp_apply,
    minimize_fixed_T,
    minimize_tmam,
    two_scale_field,
    uniform_mesh,
)
from minaction import optimize
from minaction.optimize import _DEAD_LIMIT, _lbfgs_loop, _norm2

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
        # the squared Lipschitz rate 1e320 overflows a float; the band is not finite
        field = linear_field([[-1e160, 0.0], [0.0, -1.0]])
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        with pytest.raises(ActionError, match="preconditioner is not finite"):
            minimize_fixed_T(start, field, 1.0, quad=QUAD)

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

    @pytest.mark.parametrize(
        "T,cell",
        [(np.float64(2.0), "2.0"), (2, "2"), (np.int64(2), "2")],
        ids=["float64", "int", "int64"],
    )
    def test_iteration_log_writes_the_horizon_as_a_number(self, tmp_path, T, cell):
        log = tmp_path / "iters.csv"
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(8))
        minimize_fixed_T(start, two_scale_field(), T, OptimConfig(log_path=str(log)), QUAD)
        rows = list(csv.reader(log.open()))
        assert len(rows) >= 2
        assert {r[3] for r in rows[1:]} == {cell}


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

    # memory=0 keeps no curvature pairs: the scaled preconditioner alone
    @pytest.mark.parametrize(
        "variant",
        [OptimConfig(memory=0), OptimConfig(memory=1)],
        ids=["memory0", "memory1"],
    )
    def test_preconditioner_toggle_same_minimum(self, variant):
        field = two_scale_field()
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(field.linear_matrix, 1.0, x1)
        start = linear_interpolant_path(x1, x2, uniform_mesh(24))
        on = minimize_tmam(start, field, quad=QUAD)
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
    gradient has stopped moving.
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
                return 1.0, np.full(z.size, -1.0), 2.0
            return 2.0, np.full(z.size, off_grad), 0.5

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
        # gradient of -2 off the start moves by more than 0.1% at every trial,
        # so the search goes on until its trial rounds to the iterate
        (z, value, grad, t_hat, iters, ok, rows), trials = self.run(2.0**-40, off_grad=-2.0)
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


def test_trial_that_raises_is_rejected_by_halving():
    # f = z**2 / 2 from z = 1 along -1: the full step reaches z = 0, where the
    # action is undefined, so the search halves to z = 0.5 and accepts it
    trials = []

    def evaluate(z):
        trials.append(float(z[0]))
        if z[0] < 0.25:
            raise ActionError("undefined here")
        return 0.5 * float(z[0]) ** 2, z.copy(), 1.0

    z, value, _, _, iters, _, rows = _lbfgs_loop(
        evaluate, np.array([1.0]), OptimConfig(max_iters=1), lambda vec: vec
    )
    assert trials == [1.0, 0.0, 0.5]
    assert iters == 1 and z[0] == 0.5 and value == 0.125
    assert [r[1] for r in rows] == [0.5, 0.125]


def test_flat_value_with_moving_steps_stops_at_the_dead_limit():
    # a constant value of 1 and gradient of ones: the Armijo bound rounds to
    # the value from step 2**-43 on (trial 44), so every search accepts a step
    # that moves the point but makes no progress, until the no-progress limit
    z0 = np.array([1.0, -3.0, 0.5])
    trials = []

    def evaluate(z):
        trials.append(z.copy())
        return 1.0, np.ones(z.size), 1.0

    z, value, _, _, iters, ok, rows = _lbfgs_loop(evaluate, z0, OptimConfig(), lambda vec: vec)
    assert iters == _DEAD_LIMIT
    assert len(rows) == 1 + _DEAD_LIMIT
    assert len(trials) == 1 + _DEAD_LIMIT * 44
    assert np.array_equal(z, z0 - _DEAD_LIMIT * 2.0**-43)
    assert value == 1.0 and not ok


def test_pinned_maier_stein_solve_is_unchanged_with_fewer_evaluations(monkeypatch):
    # gamma=1 from the straight line at N=256: a stalled solve with 3 failed
    # line searches.  Every field below was recorded before the line search
    # stopped at the iterate and before the gradient dropped its four-operand
    # einsums; that code made 315 value/gradient calls, and 234 before a
    # gradient-norm search failed once its gradient stopped moving.
    calls = []
    inner = optimize.tmam_value_grad

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optimize, "tmam_value_grad", counted)
    start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(256))
    res = minimize_tmam(start, maier_stein_field(1.0))
    assert res.value.hex() == "0x1.00014fb7ce7a8p-1"
    assert res.t_hat.hex() == "0x1.4fa7d2eaa9d4ep+3"
    assert res.grad_norm.hex() == "0x1.6badc7e000000p-26"
    assert (res.iterations, res.converged) == (94, False)
    path_bytes = np.ascontiguousarray(res.path.values, dtype="<f8").tobytes()
    assert hashlib.sha256(path_bytes).hexdigest() == (
        "9cb0bd8e679899397053392a169686c05cf776c7b02d0b21f25ce0e21ff9ead2"
    )
    assert len(calls) < 315
    assert len(calls) == 148


def test_norm2_has_the_bits_of_numpy_norm():
    rng = np.random.default_rng(11)
    for size in (0, 1, 2, 3, 7, 64, 1023, 4096):
        for scale in (1e-160, 1e-3, 1.0, 1e140):
            vec = scale * rng.standard_normal(size)
            assert _norm2(vec).hex() == float(np.linalg.norm(vec)).hex()


def test_norm2_overflows_to_inf_with_numpy_norms_warning():
    vec = np.array([1e200, -3.0, 1e180])
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        ref = np.linalg.norm(vec)
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        got = _norm2(vec)
    assert got == ref == math.inf


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
    inner = optimize.tmam_value_grad

    def counted(path, *args):
        calls.append(path.values.copy())
        return inner(path, *args)

    monkeypatch.setattr(optimize, "tmam_value_grad", counted)
    monkeypatch.setattr(optimize, "optimal_time", lambda *args: horizons.append(args))
    field = two_scale_field()
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(32))
    res = minimize_tmam(start, field, quad=QUAD)
    assert res.converged and res.iterations > 0
    assert horizons == []
    at_start = [np.array_equal(values, start.values) for values in calls]
    assert at_start[0] and sum(at_start) == 1


def _band_factor(mesh: Mesh, t_ref: float, kappa: float) -> np.ndarray:
    """The upper banded Cholesky factor of the preconditioner built by ``optimize._preconditioner``."""
    factors = []

    def recording(band, lower):
        factors.append(scipy.linalg.cholesky_banded(band, lower=lower))
        return factors[-1]

    field = linear_field([[-math.sqrt(kappa)]])  # its Lipschitz rate squared is kappa
    start = linear_interpolant_path([0.0], [1.0], mesh)
    original = optimize.cholesky_banded
    optimize.cholesky_banded = recording
    try:
        optimize._preconditioner(start, field, t_ref)
    finally:
        optimize.cholesky_banded = original
    return factors[0]


def test_banded_solve_has_the_bits_of_scipy():
    rng = np.random.default_rng(14)
    for N in range(2, 1026):
        interior = np.sort(rng.random(N - 1))
        meshes = [uniform_mesh(N)]
        if np.min(np.diff(np.concatenate([[0.0], interior, [1.0]]))) > 0.0:
            meshes.append(Mesh(np.concatenate([[0.0], interior, [1.0]])))
        for mesh in meshes:
            factor = _band_factor(mesh, t_ref=float(rng.uniform(0.1, 20.0)), kappa=4.0)
            for n in (1, 2, 3):
                b = rng.standard_normal((N - 1, n)) * 10.0 ** rng.integers(-8, 9)
                got = optimize.cho_solve_banded((factor, False), b)
                ref = scipy.linalg.cho_solve_banded((factor, False), b)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (N, n)


def test_preconditioner_apply_has_the_bits_of_scipy():
    rng = np.random.default_rng(3)
    mesh = Mesh(np.concatenate([[0.0], np.sort(rng.random(40)), [1.0]]))
    factor = _band_factor(mesh, t_ref=2.5, kappa=100.0)
    start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], mesh)
    apply = optimize._preconditioner(start, two_scale_field(), 2.5)  # Lipschitz rate 10
    vec = rng.standard_normal(2 * 40)
    ref = scipy.linalg.cho_solve_banded((factor, False), vec.reshape(-1, 2)).ravel()
    assert apply(vec).tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_banded_solve_of_a_nonfinite_vector_is_scipys_value_error(bad):
    factor = _band_factor(uniform_mesh(8), t_ref=1.0, kappa=1.0)
    b = np.ones((7, 2))
    b[3, 1] = bad
    with pytest.raises(ValueError) as ref:
        scipy.linalg.cho_solve_banded((factor, False), b)
    with pytest.raises(ValueError) as got:
        optimize.cho_solve_banded((factor, False), b)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value) == "array must not contain infs or NaNs"
