import math

import numpy as np
import pytest

from helpers import expm_scaling_squaring
from minaction import (
    SpectralLinearProblem,
    exact_fixed_T_action,
    exact_fixed_T_minimizer,
    exact_fixed_T_minimizer_deriv,
    matrix_exp_apply,
    trajectory_polyline,
    two_scale_field,
)
from minaction.linoracle import trajectory_times_points

TWO_SCALE = two_scale_field().linear_matrix


class TestMatrixExp:
    def test_identity_at_zero_time(self):
        x = np.array([0.3, -0.7])
        assert np.array_equal(matrix_exp_apply(TWO_SCALE, 0.0, x), x)

    def test_scalar_decay(self):
        got = matrix_exp_apply([[-1.0]], 1.0, [1.0])
        assert got[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_against_scaling_squaring(self):
        for t in (0.25, 1.0, 2.5):
            want = expm_scaling_squaring(t * TWO_SCALE) @ np.array([1.0, 1.0])
            got = matrix_exp_apply(TWO_SCALE, t, [1.0, 1.0])
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_semigroup(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2)
        one = matrix_exp_apply(TWO_SCALE, 0.7, matrix_exp_apply(TWO_SCALE, 0.4, x))
        both = matrix_exp_apply(TWO_SCALE, 1.1, x)
        np.testing.assert_allclose(one, both, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_exp_apply([[0.0, 1.0], [0.0, 0.0]], 1.0, [1.0, 0.0])


class TestSpectralProblem:
    def test_reconstruction(self):
        prob = SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.0, 0.0], T=1.0)
        recon = prob.eigenvectors @ np.diag(prob.eigenvalues) @ prob.eigenvectors.T
        np.testing.assert_allclose(recon, TWO_SCALE, atol=1e-10)
        assert np.all(np.diff(prob.eigenvalues) >= 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpectralLinearProblem(TWO_SCALE, [1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            SpectralLinearProblem([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.0, 0.0], T=-1.0)


class TestExactMinimizer:
    def test_boundary_values(self):
        prob = SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.2, -0.1], T=2.0)
        np.testing.assert_allclose(exact_fixed_T_minimizer(prob, 0.0), [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(exact_fixed_T_minimizer(prob, 1.0), [0.2, -0.1], atol=1e-12)

    def test_scalar_midpoint(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        got = exact_fixed_T_minimizer(prob, 0.5)[0]
        assert got == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-12)
        assert got == pytest.approx(0.4434094, abs=5e-8)

    def test_zero_matrix_is_straight_line(self):
        prob = SpectralLinearProblem(np.zeros((2, 2)), [0.0, 1.0], [1.0, 0.0], T=3.0)
        s = np.linspace(0.0, 1.0, 7)
        got = exact_fixed_T_minimizer(prob, s)
        want = np.outer(1.0 - s, [0.0, 1.0]) + np.outer(s, [1.0, 0.0])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_satisfies_stationarity_equation(self):
        # second difference quotient vs T^2 A^2 p at interior points
        prob = SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.1, 0.3], T=0.8)
        a_sq = TWO_SCALE @ TWO_SCALE
        for s0 in (0.2, 0.5, 0.77):
            errs = []
            for step in (1e-3, 5e-4):
                p0 = exact_fixed_T_minimizer(prob, s0)
                pp = exact_fixed_T_minimizer(prob, s0 + step)
                pm = exact_fixed_T_minimizer(prob, s0 - step)
                second = (pp - 2.0 * p0 + pm) / step**2
                errs.append(np.max(np.abs(second - prob.T**2 * (a_sq @ p0))))
            assert errs[1] <= 0.3 * errs[0]  # O(step^2) consistency

    def test_derivative_matches_finite_differences(self):
        prob = SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.0, 0.0], T=2.0)
        s = np.array([0.15, 0.5, 0.85])
        step = 1e-6
        fd = (exact_fixed_T_minimizer(prob, s + step) - exact_fixed_T_minimizer(prob, s - step)) / (
            2.0 * step
        )
        np.testing.assert_allclose(exact_fixed_T_minimizer_deriv(prob, s), fd, atol=1e-5)

    def test_missing_T_rejected(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            exact_fixed_T_minimizer(prob, 0.5)


class TestExactAction:
    def test_zero_for_coincident_zero_endpoints(self):
        prob = SpectralLinearProblem(TWO_SCALE, [0.0, 0.0], [0.0, 0.0], T=1.0)
        assert exact_fixed_T_action(prob) == 0.0

    def test_scalar_closed_form(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        want = (math.e**2 - 1.0) / (4.0 * math.sinh(1.0) ** 2)
        assert exact_fixed_T_action(prob) == pytest.approx(want, rel=1e-14)
        assert exact_fixed_T_action(prob) == pytest.approx(1.1565176, abs=5e-8)

    def test_against_dense_quadrature(self):
        # 10^6-point trapezoid evaluation of (1/2)|p' - A p|^2 along the
        # closed-form minimizer, in unscaled time
        prob = SpectralLinearProblem(TWO_SCALE, [1.0, 1.0], [0.1, -0.2], T=1.5)
        s = np.linspace(0.0, 1.0, 1_000_001)
        path = exact_fixed_T_minimizer(prob, s)
        dpath = exact_fixed_T_minimizer_deriv(prob, s) / prob.T
        drift = path @ TWO_SCALE.T
        integrand = 0.5 * np.sum((dpath - drift) ** 2, axis=1)
        quad_value = np.trapezoid(integrand, s * prob.T)
        assert exact_fixed_T_action(prob) == pytest.approx(quad_value, rel=1e-9)

    def test_trajectory_endpoints_give_zero(self):
        x1 = np.array([1.0, 1.0])
        x2 = matrix_exp_apply(TWO_SCALE, 1.0, x1)
        prob = SpectralLinearProblem(TWO_SCALE, x1, x2, T=1.0)
        assert abs(exact_fixed_T_action(prob)) <= 1e-10

    def test_decreases_in_T_toward_quasipotential(self):
        values = [
            exact_fixed_T_action(SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=T))
            for T in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)
        assert values[-1] - 1.0 < 1e-6

    def test_large_horizon_no_overflow(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1000.0)
        assert np.isfinite(exact_fixed_T_action(prob))
        assert exact_fixed_T_action(prob) == pytest.approx(1.0, abs=1e-12)
        mid = exact_fixed_T_minimizer(prob, 0.5)[0]
        assert np.isfinite(mid)
        assert 0.0 <= mid < 1e-100


class TestTrajectory:
    def test_first_point_is_start(self):
        poly = trajectory_polyline(TWO_SCALE, [1.0, 1.0], 1.0, 20)
        assert np.array_equal(poly.points[0], [1.0, 1.0])

    def test_scalar_endpoints(self):
        poly = trajectory_polyline([[-1.0]], [1.0], 1.0, 10)
        assert poly.points[0, 0] == 1.0
        assert poly.points[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_infinite_horizon_ends_at_equilibrium(self):
        poly = trajectory_polyline(TWO_SCALE, [1.0, 1.0], math.inf, 50)
        assert np.array_equal(poly.points[-1], [0.0, 0.0])
        norms = np.linalg.norm(poly.points, axis=1)
        assert np.all(np.diff(norms) < 0)

    def test_times_are_logarithmic_with_zero_first(self):
        times, pts = trajectory_times_points([[-1.0]], [1.0], 1.0, 6)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert np.all(np.diff(times) > 0)
        assert pts.shape == (6, 1)

    def test_two_samples_hit_both_endpoints(self):
        poly = trajectory_polyline([[-1.0]], [1.0], 2.0, 2)
        assert poly.points[0, 0] == 1.0
        assert poly.points[1, 0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            trajectory_polyline(TWO_SCALE, [1.0, 1.0], 1.0, 1)


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "call",
        [
            lambda a: SpectralLinearProblem(a, [1.0], [0.0], T=1.0),
            lambda a: matrix_exp_apply(a, 1.0, [1.0]),
            lambda a: trajectory_times_points(a, [1.0], 1.0, 4),
            lambda a: trajectory_times_points(a, [1.0], math.inf, 4),
        ],
        ids=["problem", "matrix_exp", "trajectory", "trajectory_inf"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_matrix_rejected(self, call, bad):
        with pytest.raises(ValueError, match="matrix must be finite"):
            call([[bad]])

    def test_negative_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="t_end"):
            trajectory_times_points([[-1.0]], [1.0], -math.inf, 4)

    @pytest.mark.parametrize(
        "matrix,x",
        [([[1.0]], [1.0]), ([[0.0]], [1.0]), ([[-1.0, 0.0], [0.0, 2.0]], [1.0, 1e-9])],
        ids=["unstable", "neutral", "small_unstable_part"],
    )
    def test_nondecaying_infinite_horizon_rejected(self, matrix, x):
        with pytest.raises(ValueError, match="does not decay"):
            trajectory_times_points(matrix, x, math.inf, 4)

    def test_overflowing_search_rejected(self):
        # a part below 1e-10 on a positive eigenvalue still grows; e^{tA} x
        # overflows to NaN during the search instead of decaying
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="does not decay"):
                trajectory_times_points([[-1.0, 0.0], [0.0, 1.0]], [1.0, 1e-11], math.inf, 4)

    def test_infinite_horizon_off_the_neutral_eigenspace(self):
        # a zero eigenvalue is harmless when x has no part along it
        times, pts = trajectory_times_points([[-1.0, 0.0], [0.0, 0.0]], [1.0, 0.0], math.inf, 8)
        assert times[-1] == math.inf
        assert np.linalg.norm(pts[-2]) < 1e-10
        assert np.array_equal(pts[-1], [0.0, 0.0])


class TestTinyRateAccuracy:
    def test_small_rate_matches_direct_evaluation(self):
        # mu*T ~ 1e-8: stable forms must agree with direct sinh to full precision
        prob = SpectralLinearProblem([[-1e-8]], [0.5], [2.0], T=1.0)
        for s in (0.25, 0.5, 0.75):
            got = exact_fixed_T_minimizer(prob, s)[0]
            want = 0.5 * math.sinh(1e-8 * (1 - s)) / math.sinh(1e-8) + 2.0 * math.sinh(
                1e-8 * s
            ) / math.sinh(1e-8)
            assert got == pytest.approx(want, rel=1e-12)
        straight = 0.5 + 1.5 * 0.5
        assert exact_fixed_T_minimizer(prob, 0.5)[0] == pytest.approx(straight, rel=1e-7)
