import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import expm_scaling_squaring
from minaction import (
    check_inward_condition,
    field_from_callable,
    field_from_config,
    linear_field,
    linear_interpolant_path,
    maier_stein_field,
    matrix_exp_apply,
    minimize_tmam,
    two_scale_field,
    uniform_mesh,
)
from minaction import optimize
from minaction.drift import _fd_jacobian_many


def fd_jacobian(field, x, step_scale=1e-6):
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.empty((n, n))
    h = step_scale * max(1.0, np.linalg.norm(x))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (field(x + e) - field(x - e)) / (2.0 * h)
    return jac


class TestLinearField:
    def test_zero_matrix(self):
        field = linear_field(np.zeros((2, 2)))
        np.testing.assert_array_equal(field([3.0, 4.0]), [0.0, 0.0])

    def test_scalar(self):
        field = linear_field([[-1.0]])
        assert field([2.0])[0] == -2.0
        assert field.jacobian([2.0])[0, 0] == -1.0

    def test_exact_linearity(self):
        rng = np.random.default_rng(1)
        field = linear_field(rng.standard_normal((3, 3)))
        for _ in range(20):
            x, y = rng.standard_normal((2, 3))
            a, b = rng.standard_normal(2)
            lhs = field(a * x + b * y)
            rhs = a * field(x) + b * field(y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_lipschitz_is_spectral_norm(self):
        # the preconditioner takes the Lipschitz rate from the Jacobian
        mat = np.array([[-1.0, 0.5], [-0.3, -2.0]])
        start = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(4))
        rate = math.sqrt(optimize._drift_rate_sq(linear_field(mat), start))
        assert rate == pytest.approx(np.linalg.norm(mat, 2), abs=1e-14)

    def test_jacobian_is_the_matrix(self):
        mat = np.array([[-1.0, 0.5], [-0.3, -2.0]])
        field = linear_field(mat)
        rng = np.random.default_rng(9)
        for _ in range(5):
            assert np.array_equal(field.jacobian(rng.standard_normal(2)), mat)
        assert np.array_equal(field.linear_matrix, mat)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            linear_field(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            linear_field([[np.inf]])


class TestTwoScaleField:
    def test_matrix_entries(self):
        # hand product of the rotation/diagonal factorization
        mat = two_scale_field().linear_matrix
        np.testing.assert_allclose(
            mat,
            [[-26.0 / 9.0, 16.0 * np.sqrt(2.0) / 9.0],
             [16.0 * np.sqrt(2.0) / 9.0, -82.0 / 9.0]],
            atol=1e-14,
        )
        assert np.trace(mat) == pytest.approx(-12.0, abs=1e-12)
        assert np.linalg.det(mat) == pytest.approx(20.0, abs=1e-12)

    def test_eigenvalues(self):
        eigs = np.linalg.eigvalsh(two_scale_field().linear_matrix)
        np.testing.assert_allclose(sorted(eigs), [-10.0, -2.0], atol=1e-12)

    def test_exactly_symmetric(self):
        mat = two_scale_field().linear_matrix
        assert np.array_equal(mat, mat.T)

    def test_origin_is_equilibrium(self):
        field = two_scale_field()
        np.testing.assert_array_equal(field([0.0, 0.0]), [0.0, 0.0])

    def test_eval_at_ones(self):
        field = two_scale_field()
        mat = field.linear_matrix
        np.testing.assert_allclose(field([1.0, 1.0]), mat @ [1.0, 1.0], atol=1e-15)

    def test_matrix_exponential_against_scaling_squaring(self):
        # frozen from two independent evaluations of e^{A} (1,1)
        field = two_scale_field()
        want = expm_scaling_squaring(field.linear_matrix) @ np.array([1.0, 1.0])
        got = matrix_exp_apply(field.linear_matrix, 1.0, [1.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, [0.1628205823857228, 0.0575951175915060], atol=1e-12)


class TestMaierStein:
    def test_equilibria(self):
        field = maier_stein_field()
        np.testing.assert_array_equal(field([0.0, 0.0]), [0.0, 0.0])
        np.testing.assert_allclose(field([1.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_jacobian_at_origin(self):
        jac = maier_stein_field().jacobian([0.0, 0.0])
        np.testing.assert_allclose(jac, [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)

    def test_not_gradient(self):
        # asymmetric Jacobian away from the axes
        jac = maier_stein_field().jacobian([0.5, 0.5])
        assert abs(jac[0, 1] - jac[1, 0]) > 1.0

    @staticmethod
    def sample_points():
        return np.random.default_rng(15).uniform(-2.0, 2.0, size=(4000, 2))

    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_eval_many_has_the_bits_of_the_product_cube(self, gamma):
        pts = self.sample_points()
        u, v = pts[:, 0], pts[:, 1]
        want = np.column_stack([u - u * u * u - gamma * u * v**2, -(1.0 + u**2) * v])
        got = maier_stein_field(gamma).eval_many(pts)
        assert got.tobytes() == want.tobytes()
        # numpy's pow gives other bits at some negative and some positive
        # bases, so a drift that went back to u**3 fails the check above.
        moved = (u - u**3 - gamma * u * v**2) != want[:, 0]
        assert np.any(moved & (u < 0.0)) and np.any(moved & (u > 0.0))

    def test_product_cube_is_within_two_roundings_of_the_exact_cube(self):
        # Two correctly rounded products: |fl(fl(u*u)*u) - u^3| <= (2e + e^2)|u^3|
        # with e = 2^-53, one machine epsilon of |u^3| up to e^2.  In ulps of
        # the result this can exceed 1 (about 1.26 at most on [-2, 2]).
        bound = Fraction(2) ** -52 + Fraction(2) ** -106
        u = self.sample_points()[:1000].ravel()
        for x, cube in zip(u.tolist(), (u * u * u).tolist()):
            exact = Fraction(x) ** 3
            assert abs(Fraction(cube) - exact) <= bound * abs(exact)

    @pytest.mark.parametrize("gamma", [1.0, 10.0])
    def test_jacobian_many_keeps_its_bits(self, gamma):
        pts = self.sample_points()
        u, v = pts[:, 0], pts[:, 1]
        want = np.empty((len(pts), 2, 2))
        want[:, 0, 0] = 1.0 - 3.0 * u**2 - gamma * v**2
        want[:, 0, 1] = -2.0 * gamma * u * v
        want[:, 1, 0] = -2.0 * u * v
        want[:, 1, 1] = -(1.0 + u**2)
        assert maier_stein_field(gamma).jacobian_many(pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "gamma, message",
        [
            (True, "maier_stein gamma must be a number"),
            ("10", "maier_stein gamma must be a number"),
            (10**400, "gamma must be finite"),
            (float("inf"), "gamma must be finite"),
            (float("nan"), "gamma must be finite"),
        ],
        ids=["bool", "string", "huge_int", "inf", "nan"],
    )
    def test_invalid_gamma_rejected(self, gamma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            maier_stein_field(gamma)

    def test_integer_gamma_is_its_float(self):
        pts = self.sample_points()
        want = maier_stein_field(10.0).eval_many(pts).tobytes()
        assert maier_stein_field(10).eval_many(pts).tobytes() == want
        assert maier_stein_field(np.int64(10)).eval_many(pts).tobytes() == want


class TestJacobianConsistency:
    @pytest.mark.parametrize("name", ["scalar", "general", "two_scale", "maier_stein"])
    def test_fd_agreement_100_probes(self, name):
        field = {
            "scalar": linear_field([[-1.0]]),
            "general": linear_field([[-1.0, 0.5], [-0.3, -2.0]]),
            "two_scale": two_scale_field(),
            "maier_stein": maier_stein_field(),
        }[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x = 2.0 * rng.standard_normal(field.dim)
            jac = field.jacobian(x)
            jac_fd = fd_jacobian(field, x)
            scale = max(1.0, np.max(np.abs(jac)))
            assert np.max(np.abs(jac - jac_fd)) <= 1e-4 * scale


class TestFieldFromCallable:
    def test_missing_jacobian_falls_back_to_finite_differences(self):
        field = field_from_callable(2, lambda x: np.array([x[1] ** 2, -x[0]]))
        jac = field.jacobian([1.0, 2.0])
        np.testing.assert_allclose(jac, [[0.0, 4.0], [-1.0, 0.0]], atol=1e-6)

    def test_missing_jacobian_matches_the_closed_form(self):
        # the central difference at its step 1e-5 max(1, |x|) against Maier-Stein's
        # Jacobian (1.4e-11 relative here; 8.9e-11 at the step 1e-6)
        field = field_from_callable(2, TestCallableBatches.maier_stein_point("ndarray")[0])
        pts = np.random.default_rng(0).uniform(-1.5, 1.5, (2000, 2))
        ref = maier_stein_field(10.0).jacobian_many(pts)
        assert np.max(np.abs(field.jacobian_many(pts) - ref)) <= 5e-11 * np.max(np.abs(ref))

    def test_given_jacobian_is_used(self):
        field = field_from_callable(
            1, lambda x: np.array([-x[0] ** 3]), jac=lambda x: np.array([[-3.0 * x[0] ** 2]])
        )
        assert field.jacobian([2.0])[0, 0] == -12.0


def stacked(fn, pts):
    """The per-point stack ``field_from_callable`` used to build its batches."""
    return np.stack([np.asarray(fn(p), dtype=float) for p in pts])


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCallableBatches:
    PTS = np.random.default_rng(7).standard_normal((48, 2))
    PTS[::5] = -0.0

    @staticmethod
    def maier_stein_point(kind):
        box = {"tuple": tuple, "list": list, "ndarray": np.array}[kind]

        def func(x):
            u, v = float(x[0]), float(x[1])
            return box((u - u**3 - 10.0 * u * v**2, -(1.0 + u**2) * v))

        def jac(x):
            u, v = float(x[0]), float(x[1])
            rows = ((1.0 - 3.0 * u**2 - 10.0 * v**2, -20.0 * u * v), (-2.0 * u * v, -(1.0 + u**2)))
            return box([box(row) for row in rows])

        return func, jac

    @pytest.mark.parametrize("kind", ["tuple", "list", "ndarray"])
    def test_batches_keep_the_stacked_bits(self, kind):
        func, jac = self.maier_stein_point(kind)
        fd_field = field_from_callable(2, func)
        assert same_bits(fd_field.eval_many(self.PTS), stacked(func, self.PTS))
        expected_fd = _fd_jacobian_many(lambda pts: stacked(func, pts), self.PTS)
        assert same_bits(fd_field.jacobian_many(self.PTS), expected_fd)
        exact = field_from_callable(2, func, jac=jac)
        assert same_bits(exact.jacobian_many(self.PTS), stacked(jac, self.PTS))

    @pytest.mark.parametrize(
        "dim, func, match",
        [
            (2, lambda x: (1.0, 2.0, 3.0), r"dim=2.*\(5, 3\)"),
            (3, lambda x: (1.0, 2.0), r"dim=3.*\(5, 2\)"),
            (1, lambda x: 1.0, r"dim=1.*\(5,\)"),
        ],
        ids=["3_for_dim_2", "2_for_dim_3", "scalar_for_dim_1"],
    )
    def test_wrong_drift_shape_names_dim(self, dim, func, match):
        field = field_from_callable(dim, func)
        with pytest.raises(ValueError, match="func must return shape .*" + match):
            field.eval_many(np.zeros((5, dim)))
        with pytest.raises(ValueError, match="func must return"):
            field.jacobian_many(np.zeros((5, dim)))

    def test_wrong_jacobian_shape_names_dim(self):
        field = field_from_callable(2, lambda x: x, jac=lambda x: np.zeros((2, 3)))
        assert same_bits(field.eval_many(self.PTS), self.PTS)
        with pytest.raises(ValueError, match=r"jac must return shape \(2, 2\).*dim=2.*\(5, 2, 3\)"):
            field.jacobian_many(np.zeros((5, 2)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_batch_keeps_its_shape(self, dim):
        # as for the built-in fields: (0, dim) values and (0, dim, dim) Jacobians
        empty = np.zeros((0, dim))
        fd_field = field_from_callable(dim, lambda x: -x)
        exact = field_from_callable(dim, lambda x: -x, jac=lambda x: -np.eye(dim))
        assert fd_field.eval_many(empty).shape == (0, dim)
        assert fd_field.jacobian_many(empty).shape == (0, dim, dim)
        assert exact.jacobian_many(empty).shape == (0, dim, dim)
        assert linear_field(-np.eye(dim)).eval_many(empty).shape == (0, dim)

    def test_wrong_shape_reaches_the_solver_as_the_same_error(self):
        field = field_from_callable(2, lambda x: (1.0, 2.0, 3.0))
        path = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(8))
        with pytest.raises(ValueError, match="dim=2"):
            minimize_tmam(path, field)


class TestInwardCondition:
    def test_equality_boundary_succeeds(self):
        field = linear_field(-np.eye(1), beta=1.0, r2=0.5)
        report = check_inward_condition(field, samples=200, radius=5.0)
        assert report.ok
        assert report.first_violation is None

    def test_two_scale_with_slow_rate(self):
        report = check_inward_condition(two_scale_field(), samples=500, radius=10.0)
        assert report.ok
        assert report.worst_margin <= 1e-10

    def test_maier_stein_metadata(self):
        report = check_inward_condition(maier_stein_field(), samples=500, radius=8.0)
        assert report.ok

    def test_outward_field_reports_violation(self):
        field = linear_field(np.eye(2), beta=1.0, r2=1.0)
        report = check_inward_condition(field, samples=50, radius=3.0)
        assert not report.ok
        assert report.first_violation is not None
        assert report.worst_margin > 0.0

    def test_nonfinite_metadata_cannot_pass_an_outward_field(self):
        # a NaN beta or r2 made every margin comparison false: b(x) = x passed
        for key in ("beta", "r2"):
            metadata = {"beta": 1.0, "r2": 1.0, key: math.nan}
            with pytest.raises(ValueError, match=f"^{key} must be a finite real number$"):
                linear_field(np.eye(2), **metadata)

    def test_missing_metadata_rejected(self):
        with pytest.raises(ValueError):
            check_inward_condition(linear_field(-np.eye(2)), samples=10, radius=2.0)

    def test_deterministic(self):
        field = two_scale_field()
        r1 = check_inward_condition(field, samples=100, radius=4.0)
        r2 = check_inward_condition(field, samples=100, radius=4.0)
        assert r1.worst_margin == r2.worst_margin


class TestFieldConfig:
    def test_linear(self):
        field = field_from_config({"type": "linear", "matrix": [[-2.0]]})
        assert field([3.0])[0] == -6.0

    def test_two_scale(self):
        field = field_from_config({"type": "two_scale"})
        assert field.linear_matrix is not None

    def test_maier_stein(self):
        field = field_from_config({"type": "maier_stein"})
        assert field.dim == 2

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "nope"},
            {"type": "linear"},
            {"type": "linear", "matrix": [[1.0]], "extra": 1},
            {"type": "two_scale", "matrix": [[1.0]]},
            {},
            {"type": "maier_stein", "gamma": float("inf")},
            {"type": "maier_stein", "gamma": float("nan")},
            {"type": "maier_stein", "gamma": True},
            {"type": "linear", "matrix": [[True, 0.0], [0.0, -2.0]]},
            {"type": "linear", "matrix": [[-1.0, 0.0], [0.0, "-2"]]},
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            field_from_config(spec)


class TestMetadata:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), 10**400,
                                     "abc", "1.0", True, False, [1.0]],
                             ids=["nan", "inf", "-inf", "np_nan", "huge_int", "string",
                                  "numeric_string", "true", "false", "list"])
    @pytest.mark.parametrize("key", ["beta", "r2"])
    def test_bad_metadata_is_rejected_by_name(self, key, bad):
        with pytest.raises(ValueError, match=f"^{key} must be a finite real number$"):
            field_from_callable(1, lambda x: -x, **{key: bad})

    def test_finite_metadata_is_kept(self):
        field = field_from_callable(1, lambda x: -x, beta=np.float64(0.5), r2=2)
        assert (field.beta, field.r2) == (0.5, 2)

    def test_only_the_finite_difference_fallback_sets_fd_jacobian(self):
        assert field_from_callable(1, lambda x: -x).fd_jacobian is True
        assert field_from_callable(1, lambda x: -x, lambda x: -np.eye(1)).fd_jacobian is False
        for field in (linear_field([[-1.0]]), two_scale_field(), maier_stein_field(10.0)):
            assert field.fd_jacobian is False
        with pytest.raises(TypeError, match="fd_jacobian"):
            field_from_callable(1, lambda x: -x, lambda x: -np.eye(1), fd_jacobian=True)

    @pytest.mark.parametrize("bad", [1, 0, None, np.bool_(True), "yes"])
    def test_fd_jacobian_must_be_a_bool(self, bad):
        with pytest.raises(ValueError, match="^fd_jacobian must be a bool$"):
            dataclasses.replace(linear_field([[-1.0]]), fd_jacobian=bad)
