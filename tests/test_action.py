import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import (
    DEFAULT_QUAD,
    builtin_fields,
    cyclic_chain_field,
    fd_grad_fixed_T,
    fd_grad_optimal,
    random_mesh,
    random_path,
    refined,
)
from minaction import (
    ActionError,
    DegeneratePathError,
    Mesh,
    DriftField,
    DriftVanishesError,
    FePath,
    Quadrature,
    SpectralLinearProblem,
    el_residual,
    exact_fixed_T_minimizer,
    field_from_callable,
    fixed_t_value_grad,
    hamiltonian_violation,
    linear_field,
    linear_interpolant_path,
    maier_stein_field,
    minimize_fixed_T,
    optimal_time,
    tmam_value_grad,
    two_scale_field,
    uniform_mesh,
)
from minaction.action import (
    MAX_POINTS_PER_ELEMENT,
    _assemble,
    _geometry,
    _norms_over_components,
    _staged,
)
from minaction.optimize import _Band

SCALAR = linear_field([[-1.0]])
ZERO2 = linear_field(np.zeros((2, 2)))


def unit_ramp(n_elems=8):
    """The 1-D path p(s) = s from 0 to 1 (closed forms available for b = -x)."""
    return linear_interpolant_path([0.0], [1.0], uniform_mesh(n_elems))


class TestQuadrature:
    def test_points_per_element_is_bounded_before_the_rule_is_computed(self, monkeypatch):
        assert MAX_POINTS_PER_ELEMENT == 100
        rule = Quadrature(MAX_POINTS_PER_ELEMENT)
        assert rule.xi.shape == rule.w.shape == (100,)
        assert np.sum(rule.w) == pytest.approx(1.0, abs=1e-13)

        def fail(*args, **kwargs):
            raise AssertionError("leggauss ran for a rule past the bound")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
        with pytest.raises(ValueError, match="^points_per_element must be an integer from 1 to 100$"):
            Quadrature(MAX_POINTS_PER_ELEMENT + 1)

    def test_weights_positive_sum_to_one(self):
        for q in range(1, 6):
            rule = Quadrature(q)
            assert np.all(rule.w > 0)
            assert np.sum(rule.w) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_monomial_exactness(self, q):
        # degree <= 2q-1 integrates exactly over an arbitrary partition
        rule = Quadrature(q)
        nodes = np.array([0.0, 0.13, 0.5, 0.72, 1.0])
        h = np.diff(nodes)
        for k in range(2 * q):
            pts = nodes[:-1, None] + h[:, None] * rule.xi[None, :]
            val = float(np.einsum("e,q,eq->", h, rule.w, pts**k))
            assert val == pytest.approx(1.0 / (k + 1), abs=1e-14)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            Quadrature(0)


class TestFixedActionClosedForms:
    def test_zero_field_straight_line(self):
        mesh = uniform_mesh(5)
        path = linear_interpolant_path([0.0], [1.0], mesh)
        field = linear_field([[0.0]])
        for T in (0.5, 1.0, 4.0):
            assert fixed_t_value_grad(path, field, T, DEFAULT_QUAD)[0] == pytest.approx(
                1.0 / (2.0 * T), abs=1e-14
            )

    def test_constant_path_at_equilibrium(self):
        field = maier_stein_field()
        path = linear_interpolant_path([1.0, 0.0], [1.0, 0.0], uniform_mesh(6))
        assert fixed_t_value_grad(path, field, 2.0, DEFAULT_QUAD)[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("T", [0.5, 1.0, np.sqrt(3.0), 5.0])
    def test_unit_ramp_closed_form(self, T):
        # (T/2) * int (1/T + s)^2 ds = 1/(2T) + 1/2 + T/6, exact for q >= 2
        got = fixed_t_value_grad(unit_ramp(), SCALAR, T, Quadrature(2))[0]
        want = 1.0 / (2.0 * T) + 0.5 + T / 6.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_unit_ramp_value_at_one(self):
        assert fixed_t_value_grad(unit_ramp(), SCALAR, 1.0, Quadrature(2))[0] == pytest.approx(
            7.0 / 6.0, rel=1e-14
        )

    def test_nonpositive_T_rejected(self):
        with pytest.raises(ValueError):
            fixed_t_value_grad(unit_ramp(), SCALAR, 0.0, DEFAULT_QUAD)[0]

    @pytest.mark.parametrize("T", [0, -1, True, math.inf, math.nan, 10**400],
                             ids=["zero", "negative", "bool", "inf", "nan", "beyond_float"])
    def test_bad_horizon_rejected_by_fused_call(self, T):
        with pytest.raises(ValueError, match=r"^T must be a finite positive number$"):
            fixed_t_value_grad(unit_ramp(), SCALAR, T, DEFAULT_QUAD)

    def test_fused_call_returns_horizon_as_given(self):
        value, _, T = fixed_t_value_grad(unit_ramp(), SCALAR, 1, Quadrature(2))
        assert type(T) is int and T == 1
        assert value == fixed_t_value_grad(unit_ramp(), SCALAR, 1.0, Quadrature(2))[0]


class TestOptimalTime:
    def test_unit_ramp_sqrt3(self):
        assert optimal_time(unit_ramp(), SCALAR, Quadrature(2)) == pytest.approx(
            np.sqrt(3.0), rel=1e-14
        )

    def test_zero_field_raises(self):
        path = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], uniform_mesh(4))
        with pytest.raises(DriftVanishesError):
            optimal_time(path, ZERO2, DEFAULT_QUAD)

    def test_constant_path_raises(self):
        path = linear_interpolant_path([1.0], [1.0], uniform_mesh(4))
        with pytest.raises(DegeneratePathError):
            optimal_time(path, SCALAR, DEFAULT_QUAD)

    def test_error_codes(self):
        assert DriftVanishesError.code == "DriftVanishes"
        assert DegeneratePathError.code == "DegeneratePath"

    def test_underflowing_horizon_is_action_error_without_warning(self):
        # |b(p)|^2 overflows to inf, so |p'|/|b(p)| underflows to 0
        path = linear_interpolant_path([3.0, 3.0], [0.0, 0.0], uniform_mesh(16))
        field = linear_field([[-1e154, 0.0], [0.0, -1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ActionError, match="optimal horizon .* is not finite and positive"):
                optimal_time(path, field, Quadrature())
            with pytest.raises(ActionError, match="optimal horizon"):
                tmam_value_grad(path, field, Quadrature())
        assert [str(w.message) for w in caught] == []


class TestReducedAction:
    def test_unit_ramp_value(self):
        value, _, t_hat = tmam_value_grad(unit_ramp(), SCALAR, Quadrature(2))
        assert value == pytest.approx(0.5 + np.sqrt(3.0) / 3.0, rel=1e-14)
        assert t_hat == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_reversed_ramp_value(self):
        path = linear_interpolant_path([1.0], [0.0], uniform_mesh(8))
        value = tmam_value_grad(path, SCALAR, Quadrature(2))[0]
        assert value == pytest.approx(1.0 / np.sqrt(3.0) - 0.5, rel=1e-12)

    def test_flow_aligned_path_is_zero(self):
        # constant drift: a straight line along b satisfies p' = c b(p)
        field = field_from_callable(
            2, lambda x: np.array([1.0, 2.0]), jac=lambda x: np.zeros((2, 2))
        )
        path = linear_interpolant_path([0.0, 0.0], [0.5, 1.0], uniform_mesh(7))
        value, _, t_hat = tmam_value_grad(path, field, DEFAULT_QUAD)
        assert abs(value) <= 1e-12
        assert hamiltonian_violation(path, field, t_hat, DEFAULT_QUAD) <= 1e-12

    def test_grad_shape(self):
        assert tmam_value_grad(unit_ramp(10), SCALAR, DEFAULT_QUAD)[1].shape == (9, 1)


class TestScalingOptimality:
    def test_optimal_time_minimizes_over_T(self):
        rng = np.random.default_rng(100)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim)
            t_hat = optimal_time(path, field, DEFAULT_QUAD)
            s_hat = fixed_t_value_grad(path, field, t_hat, DEFAULT_QUAD)[0]
            for T in np.exp(rng.uniform(-2.0, 3.0, size=3)):
                assert s_hat <= fixed_t_value_grad(path, field, float(T), DEFAULT_QUAD)[0] + 1e-12

    def test_stationarity_centered_difference(self):
        rng = np.random.default_rng(101)
        fields = list(builtin_fields().values())
        for k in range(40):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim)
            value, _, t_hat = tmam_value_grad(path, field, DEFAULT_QUAD)
            delta = 1e-5 * t_hat
            deriv = (
                fixed_t_value_grad(path, field, t_hat + delta, DEFAULT_QUAD)[0]
                - fixed_t_value_grad(path, field, t_hat - delta, DEFAULT_QUAD)[0]
            ) / (2.0 * delta)
            assert abs(deriv) <= 1e-8 * max(value, 1e-30)


class TestRewriteIdentity:
    def test_matches_fixed_action_at_optimal_time(self):
        rng = np.random.default_rng(102)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim, nonuniform=bool(k % 2))
            value, _, t_hat = tmam_value_grad(path, field, DEFAULT_QUAD)
            assert value.hex() == fixed_t_value_grad(path, field, t_hat, DEFAULT_QUAD)[0].hex()

    @pytest.mark.parametrize("T", [0.3, 1.0, 3.0])
    def test_sampled_flow_value_is_the_fixed_action_at_optimal_time(self, T):
        # p(s) = e^{sTA} x1 is a flow trajectory, so the reduced value (7e-7
        # to 7e-5) is the small difference of the O(1) terms |p'| |b(p)| and
        # <p', b(p)>; that difference is up to 1.1e-10 relative off the sum
        # of squares
        field, mesh = two_scale_field(), uniform_mesh(1024)
        rates, vecs = np.linalg.eigh(field.linear_matrix)
        nodes = (np.exp(np.outer(T * mesh.nodes, rates)) * (vecs.T @ [1.0, 1.0])) @ vecs.T
        path = FePath(mesh, nodes)
        value, _, t_hat = tmam_value_grad(path, field, DEFAULT_QUAD)
        assert value.hex() == fixed_t_value_grad(path, field, t_hat, DEFAULT_QUAD)[0].hex()

    def test_nonnegativity(self):
        rng = np.random.default_rng(103)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim, scale=float(rng.uniform(0.1, 3.0)))
            assert tmam_value_grad(path, field, DEFAULT_QUAD)[0] >= -1e-12


class TestGradients:
    @pytest.mark.parametrize("name", ["scalar_linear", "general_linear", "two_scale", "maier_stein"])
    def test_fixed_T_matches_finite_differences(self, name):
        field = builtin_fields()[name]
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for _ in range(5):
            path = random_path(rng, field.dim)
            T = float(np.exp(rng.uniform(-1.0, 1.5)))
            grad = fixed_t_value_grad(path, field, T, DEFAULT_QUAD)[1]
            fd = fd_grad_fixed_T(path, field, T, DEFAULT_QUAD)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))

    def test_zero_field_straight_line_gradient_vanishes(self):
        path = linear_interpolant_path([0.0, 0.0], [1.0, 2.0], uniform_mesh(9))
        grad = fixed_t_value_grad(path, ZERO2, 1.0, DEFAULT_QUAD)[1]
        assert np.max(np.abs(grad)) <= 1e-14

    @pytest.mark.parametrize("name", ["scalar_linear", "general_linear", "two_scale", "maier_stein"])
    def test_reduced_matches_finite_differences(self, name):
        field = builtin_fields()[name]
        rng = np.random.default_rng(abs(hash(name + "opt")) % 2**32)
        for _ in range(5):
            path = random_path(rng, field.dim)
            grad = tmam_value_grad(path, field, DEFAULT_QUAD)[1]
            fd = fd_grad_optimal(path, field, DEFAULT_QUAD)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))

    def test_envelope_identity(self):
        # the reduced gradient is the fixed-horizon gradient at t_hat
        rng = np.random.default_rng(104)
        fields = list(builtin_fields().values())
        for k in range(40):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim, nonuniform=bool(k % 2))
            t_hat = optimal_time(path, field, DEFAULT_QUAD)
            g_opt = tmam_value_grad(path, field, DEFAULT_QUAD)[1]
            g_fix = fixed_t_value_grad(path, field, t_hat, DEFAULT_QUAD)[1]
            assert np.max(np.abs(g_opt - g_fix)) <= 1e-10 * max(1.0, np.max(np.abs(g_fix)))

    @pytest.mark.parametrize(
        "field,x1,x2",
        [
            (maier_stein_field(10.0), [-1.0, 0.0], [0.0, 0.0]),
            (two_scale_field(), [1.0, 1.0], [0.0, 0.0]),
        ],
        ids=["maier_stein", "two_scale"],
    )
    def test_reduced_taylor_remainder_is_second_order(self, field, x1, x2):
        # |S(p + eps d) - S(p) - eps g.d| must fall 100x per decade of eps;
        # this ties the reduced value to its gradient, as an error in g.d
        # adds a first-order term that flattens the drop
        rng = np.random.default_rng(105)
        mesh = uniform_mesh(64)
        s = mesh.nodes[:, None]
        values = (1.0 - s) * np.asarray(x1) + s * np.asarray(x2)
        values += 0.3 * np.sin(np.pi * s) * np.array([0.0, 1.0])
        values[1:-1] += 0.01 * rng.standard_normal(values[1:-1].shape)
        path = FePath(mesh, values)
        d = rng.standard_normal(values[1:-1].shape)
        d /= np.linalg.norm(d)

        def reduced(eps):
            moved = path.replace_interior(values[1:-1] + eps * d)
            return tmam_value_grad(moved, field, DEFAULT_QUAD)[0]

        slope = float(np.sum(tmam_value_grad(path, field, DEFAULT_QUAD)[1] * d))
        remainders = [abs(reduced(eps) - reduced(0.0) - eps * slope) for eps in (1e-2, 1e-3, 1e-4)]
        for coarse, fine in zip(remainders, remainders[1:]):
            assert np.log10(coarse / fine) == pytest.approx(2.0, abs=0.01)

    def test_stationary_at_minimizer(self):
        field = SCALAR
        res = minimize_fixed_T(unit_ramp(16), field, 1.0, quad=Quadrature(2))
        assert res.converged
        grad = fixed_t_value_grad(res.path, field, 1.0, Quadrature(2))[1]
        assert np.max(np.abs(grad)) <= 1e-9 * max(1.0, abs(res.value))


class TestHamiltonianViolation:
    def test_zero_for_flow_aligned_path(self):
        field = field_from_callable(
            2, lambda x: np.array([0.6, 0.8]), jac=lambda x: np.zeros((2, 2))
        )
        path = linear_interpolant_path([0.0, 0.0], [0.6, 0.8], uniform_mesh(5))
        # p' = (0.6, 0.8) = 1.0 * b everywhere, so the constraint holds at T=1
        assert hamiltonian_violation(path, field, 1.0, DEFAULT_QUAD) <= 1e-14

    def test_positive_for_straight_line_two_scale(self):
        field = two_scale_field()
        path = linear_interpolant_path([1.0, 1.0], [0.0, 0.0], uniform_mesh(12))
        t_hat = optimal_time(path, field, DEFAULT_QUAD)
        assert hamiltonian_violation(path, field, t_hat, DEFAULT_QUAD) > 0.1

    def test_invalid_time_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_violation(unit_ramp(), SCALAR, 0.0, DEFAULT_QUAD)

    def test_component_norms_have_the_bits_of_numpy_norm(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 9), (2, 17), (3, 4, 33)):
            for scale in (1e-160, 1e-3, 1.0, 1e140):
                planes = scale * rng.standard_normal(shape)
                got = _norms_over_components(planes)
                assert got.tobytes() == np.linalg.norm(planes, axis=0).tobytes()

    def test_component_norms_are_finite_where_the_squares_overflow(self):
        # numpy's norm is inf in the first three columns, with a warning
        planes = np.array([[3e200, 1e308, 1.5e308, 1.0, math.inf, math.nan],
                           [4e200, 1e308, 1.5e308, 2.0, 1.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _norms_over_components(planes)
        assert [str(w.message) for w in caught] == []
        assert got[0] == pytest.approx(5e200, rel=1e-15)
        assert got[1] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        assert got[2] == math.inf and got[3] == math.sqrt(5.0)
        assert got[4] == math.inf and math.isnan(got[5])


class TestElResidual:
    def test_decreases_for_sampled_exact_solution(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        previous = None
        for n_elems in (16, 32, 64, 128):
            mesh = uniform_mesh(n_elems)
            path = FePath(mesh, exact_fixed_T_minimizer(prob, mesh.nodes))
            res = el_residual(path, SCALAR, 1.0, DEFAULT_QUAD)
            if previous is not None:
                assert res < previous
            previous = res

    def test_small_at_converged_minimizer(self):
        res = minimize_fixed_T(unit_ramp(32), SCALAR, 1.0, quad=Quadrature(2))
        assert res.converged
        assert res.el_residual <= 10.0 * 1e-9 * max(1.0, abs(res.value))

    def test_positive_for_straight_line_nonlinear_field(self):
        field = maier_stein_field()
        path = linear_interpolant_path([-1.0, 0.0], [1.0, 0.0], uniform_mesh(10))
        assert el_residual(path, field, 1.0, DEFAULT_QUAD) > 1e-3

    def test_invalid_time_rejected(self):
        with pytest.raises(ValueError):
            el_residual(unit_ramp(), SCALAR, -1.0, DEFAULT_QUAD)


class TestWeakFormIdentity:
    def test_gradient_is_scaled_weak_residual(self):
        # direct quadrature of the stationarity weak form
        # R(v) = -T^-2 <p', v'> + T^-1 <(Db^T - Db) p', v> - <(Db)^T b, v>
        # against one hat function must equal -(1/T) * the assembled gradient
        # entry; assembled with q=2, cross-checked here with q=6 (both exact
        # for linear drift).  Nonsymmetric drift so the skew term is active.
        field = linear_field([[-1.0, 0.5], [-0.3, -2.0]])
        rng = np.random.default_rng(321)
        path = random_path(rng, 2)
        T = 1.3
        grad = fixed_t_value_grad(path, field, T, Quadrature(2))[1]

        nodes = path.mesh.nodes
        x_gl, w_gl = np.polynomial.legendre.leggauss(6)
        xi = 0.5 * (x_gl + 1.0)
        w = 0.5 * w_gl

        def weak_residual(k, comp):
            total = 0.0
            for elem, (shape, dshape_sign) in (
                (k - 1, (xi, 1.0)),
                (k, (1.0 - xi, -1.0)),
            ):
                h = nodes[elem + 1] - nodes[elem]
                dphi = (path.values[elem + 1] - path.values[elem]) / h
                pts = path.values[elem][None, :] * (1.0 - xi)[:, None] + path.values[
                    elem + 1
                ][None, :] * xi[:, None]
                bvals = field.eval_many(pts)
                jacs = field.jacobian_many(pts)
                skew = np.transpose(jacs, (0, 2, 1)) - jacs
                jtb = np.einsum("qji,qj->qi", jacs, bvals)
                term1 = -(T**-2) * dphi[comp] * dshape_sign / h * h * np.sum(w)
                term2 = (1.0 / T) * h * np.sum(w * shape * (skew @ dphi)[:, comp])
                term3 = -h * np.sum(w * shape * jtb[:, comp])
                total += term1 + term2 + term3
            return total

        for k in range(1, nodes.size - 1):
            for comp in range(2):
                want = -grad[k - 1, comp] / T
                got = weak_residual(k, comp)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


class TestRefinementConsistency:
    def test_all_functionals_invariant_under_refinement(self):
        # linear drift with q >= 2: quadrature is exact, so refining the path
        # (same function) cannot change any value
        rng = np.random.default_rng(105)
        field = two_scale_field()
        quad = Quadrature(2)
        for _ in range(10):
            path = random_path(rng, 2, nonuniform=True)
            fine = refined(path)
            t0 = optimal_time(path, field, quad)
            t1 = optimal_time(fine, field, quad)
            assert abs(t1 - t0) <= 1e-12 * t0
            a0 = fixed_t_value_grad(path, field, 2.0, quad)[0]
            a1 = fixed_t_value_grad(fine, field, 2.0, quad)[0]
            assert abs(a1 - a0) <= 1e-12 * max(1.0, abs(a0))
            v0 = tmam_value_grad(path, field, quad)[0]
            v1 = tmam_value_grad(fine, field, quad)[0]
            assert abs(v1 - v0) <= 1e-12 * max(1.0, abs(v0))


def with_signed_zeros(rng, arr):
    """``arr`` with about a quarter of its entries set to +0.0 or -0.0."""
    mask = rng.random(arr.shape) < 0.25
    arr[mask] = np.where(rng.random(int(mask.sum())) < 0.5, 0.0, -0.0)
    return arr


def plane_reference(path, field, quad, T=None):
    """Reference: (value, interior gradient, horizon) in the plane order, from scratch.

    T = None gives the reduced functional, which is the fixed-T one at t_hat;
    a number gives the fixed-T one.
    Every weight is recomputed from ``np.diff(nodes)``.  Point k of element e
    is row k N + e of the batch the field sees, and each per-point quantity
    is a list over the component i of lists over k of length-N rows.  A sum
    over the component j of Db^T r or over the point k starts from its first
    term and adds the rest in index order; a value is one BLAS dot product
    of two such lists flattened component by component.
    """
    h, w, xi = np.diff(path.mesh.nodes), quad.w, quad.xi
    vals, n, q, m = path.values, path.dim, xi.size, h.size
    flat = lambda planes: np.concatenate([row for rows in planes for row in rows])
    delta = [vals[1:, i] - vals[:-1, i] for i in range(n)]
    deriv = [d / h for d in delta]
    pts = np.concatenate([vals[:-1] * (1.0 - xi[k]) + vals[1:] * xi[k] for k in range(q)])
    b_rows, jac_rows = field.eval_many(pts), field.jacobian_many(pts)
    b = [[b_rows[k * m:(k + 1) * m, i] for k in range(q)] for i in range(n)]
    hw = [w[k] * h for k in range(q)]
    weighted_sq = lambda f: float(np.dot(flat(f), flat([[hw[k] * f[i][k] for k in range(q)]
                                                         for i in range(n)])))
    resid = lambda t: [[deriv[i] / t - b[i][k] for k in range(q)] for i in range(n)]
    if T is None:
        alpha = math.sqrt(float(np.dot(np.concatenate(delta), np.concatenate(deriv))))
        t_scale = alpha / math.sqrt(weighted_sq(b))
    else:
        t_scale = float(T)
    r = resid(t_scale)
    value = 0.5 * t_scale * weighted_sq(r)
    jac = lambda j, i, k: jac_rows[k * m:(k + 1) * m, j, i]
    jtr = [[sum_in_order([jac(j, i, k) * r[j][k] for j in range(n)]) for k in range(q)]
           for i in range(n)]
    grad = np.empty((m - 1, n))
    for i in range(n):
        wr = sum_in_order([w[k] * r[i][k] for k in range(q)])
        left = sum_in_order([hw[k] * (1.0 - xi[k]) * jtr[i][k] for k in range(q)])
        right = sum_in_order([hw[k] * xi[k] * jtr[i][k] for k in range(q)])
        grad[:, i] = (-wr - t_scale * left)[1:] + (wr - t_scale * right)[:-1]
    return value, grad, t_scale


def sum_in_order(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


class TestGradientBits:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 10])
    def test_fixed_t_grad_matches_einsum_formula(self, q, n):
        # the name is kept; the reference is now the plane-order formula
        rng = np.random.default_rng(100 * q + n)
        quad = Quadrature(q)
        for _ in range(25):
            mesh = random_mesh(rng, n_lo=1, n_hi=40, nonuniform=True)
            m = mesh.num_elements * q
            drift = with_signed_zeros(rng, rng.standard_normal((m, n)))
            jac = with_signed_zeros(rng, rng.standard_normal((m, n, n)))
            field = DriftField(dim=n, _eval_many=lambda pts: drift, _jac_many=lambda pts: jac)
            values = with_signed_zeros(rng, rng.standard_normal((mesh.num_elements + 1, n)))
            path = FePath(mesh, values)
            t_scale = float(np.exp(rng.uniform(-2.0, 2.0)))
            got = fixed_t_value_grad(path, field, t_scale, quad)
            ref = plane_reference(path, field, quad, t_scale)
            assert_same_bits(got, ref)
            assert np.array_equal(np.signbit(got[1]), np.signbit(ref[1]))


def assert_same_bits(got, ref):
    assert got[0].hex() == ref[0].hex()
    assert got[1].tobytes() == ref[1].tobytes()
    assert float(got[2]).hex() == float(ref[2]).hex()


GEOMETRY_FIELDS = {
    1: linear_field([[-1.3]]),
    2: maier_stein_field(10.0),
    3: linear_field([[-1.0, 0.4, 0.0], [-0.2, -2.0, 0.7], [0.1, 0.0, -0.5]]),
}


class TestMeshGeometry:
    """Value and gradient from the per-mesh geometry keep the bits of a fresh computation."""

    @pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_value_and_gradient_match_fresh_computation(self, q, n, nonuniform):
        rng = np.random.default_rng(10 * q + n + 100 * nonuniform)
        field, quad = GEOMETRY_FIELDS[n], Quadrature(q)
        for _ in range(10):
            path = random_path(rng, n, scale=0.7, nonuniform=nonuniform)
            assert_same_bits(tmam_value_grad(path, field, quad),
                             plane_reference(path, field, quad))
            assert_same_bits(fixed_t_value_grad(path, field, 1.7, quad),
                             plane_reference(path, field, quad, 1.7))

    def test_alternating_meshes_and_rules_never_share_weights(self):
        # two meshes with the same N and different nodes, two rules, in
        # alternation: each call must see its own mesh's widths and its own rule
        rng = np.random.default_rng(5)
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, 7)), [1.0]])
        meshes = [uniform_mesh(8), Mesh(nodes)]
        values = rng.standard_normal((9, 2))
        paths = [FePath(mesh, values) for mesh in meshes]
        field = GEOMETRY_FIELDS[2]
        for _ in range(3):
            for path in paths:
                for q in (2, 3):
                    assert_same_bits(tmam_value_grad(path, field, Quadrature(q)),
                                     plane_reference(path, field, Quadrature(q)))
        # equal rules share one entry, kept on each mesh
        for mesh in meshes:
            assert sorted(quad.points_per_element for quad in mesh._per_rule) == [2, 3]
            assert _geometry(mesh, Quadrature(3)) is _geometry(mesh, Quadrature(3))
        assert _geometry(meshes[0], Quadrature(3)) is not _geometry(meshes[1], Quadrature(3))


class TestFieldContract:
    """What the assembly hands a field and what it does with the arrays a field returns."""

    @pytest.mark.parametrize("exact_jac", [True, False], ids=["jac", "fd_jac"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_callable_gets_each_point_as_a_contiguous_row(self, dim, exact_jac):
        seen = []

        def record(p):
            seen.append((type(p), p.dtype, p.shape, p.flags.c_contiguous))

        def func(p):
            record(p)
            return -p - 0.1 * p * p

        def jac(p):
            record(p)
            return -np.eye(dim) - 0.2 * np.diag(p)

        field = field_from_callable(dim, func, jac if exact_jac else None)
        path = random_path(np.random.default_rng(dim), dim, scale=0.5)
        tmam_value_grad(path, field, Quadrature(3))
        fixed_t_value_grad(path, field, 1.3, Quadrature(2))
        hamiltonian_violation(path, field, 1.3, Quadrature(2))
        assert seen
        assert set(seen) == {(np.ndarray, np.dtype(np.float64), (dim,), True)}

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("jac_kind", ["cached", "broadcast"])
    def test_arrays_a_field_returns_are_never_written(self, order, jac_kind):
        # one cached drift array for every call, in either memory order; the
        # Jacobian is another cached array or a read-only broadcast view, as
        # in linear_field.  The bits do not depend on the memory order.
        rng = np.random.default_rng(7)
        path = random_path(rng, 2, scale=0.5, nonuniform=True)
        quad = Quadrature(3)
        m = path.mesh.num_elements * 3
        drift = np.asarray(rng.standard_normal((m, 2)), order=order)
        matrix = np.array([[-1.0, 0.3], [0.2, -2.0]])
        jac = np.asarray(rng.standard_normal((m, 2, 2)), order=order)
        if jac_kind == "broadcast":
            jac = np.broadcast_to(matrix, (m, 2, 2))
        kept_drift, kept_jac = drift.copy(), jac.copy()
        field = DriftField(dim=2, _eval_many=lambda pts: drift, _jac_many=lambda pts: jac)
        first = [tmam_value_grad(path, field, quad), fixed_t_value_grad(path, field, 0.8, quad)]
        for _ in range(3):
            again = [tmam_value_grad(path, field, quad), fixed_t_value_grad(path, field, 0.8, quad)]
            for got, ref in zip(again, first):
                assert_same_bits(got, ref)
            hamiltonian_violation(path, field, 0.8, quad)
            el_residual(path, field, 0.8, quad)
        assert drift.tobytes() == kept_drift.tobytes()
        assert jac.tobytes() == kept_jac.tobytes()
        swapped = np.asfortranarray if order == "C" else np.ascontiguousarray
        other = DriftField(dim=2, _eval_many=lambda pts: swapped(kept_drift),
                           _jac_many=lambda pts: swapped(kept_jac))
        assert_same_bits(tmam_value_grad(path, other, quad), first[0])
        assert_same_bits(fixed_t_value_grad(path, other, 0.8, quad), first[1])


def _callable_maier_stein(x):
    u, v = x
    return np.array([u - u**3 - 10.0 * u * v**2, -(1.0 + u**2) * v])


# nonlinear fields of dimension 1 to 3, with a closed-form or a finite-difference Jacobian
HESSIAN_FIELDS = {
    "maier_stein": maier_stein_field(10.0),
    "callable_maier_stein": field_from_callable(2, _callable_maier_stein),
    "callable_1d": field_from_callable(1, lambda x: -x - x**3 + 0.5 * np.sin(2.0 * x)),
    "callable_3d": field_from_callable(3, lambda x: np.array([
        -x[0] + x[1] * x[2], -2.0 * x[1] - x[0] * x[2] + 0.3 * x[0] ** 2,
        -x[2] + np.sin(x[0] * x[1])])),
    "chain_8d": cyclic_chain_field(8),
}

# (field, nonuniform) of the band and coupling checks: every field on both
# meshes, but the eight-component chain, whose band check differences 176
# gradients, on one
BAND_CASES = [pytest.param(name, nonuniform, id=f"{name}-{mesh}")
              for name in sorted(HESSIAN_FIELDS)
              for nonuniform, mesh in ((False, "uniform"), (True, "nonuniform"))
              if nonuniform or HESSIAN_FIELDS[name].dim < 8]


def dense_from_band(band):
    """The symmetric matrix whose upper band, in ``cholesky_banded``'s layout, is ``band``."""
    rows, cols = band.shape
    mat = np.zeros((cols, cols))
    for d in range(rows):
        k = rows - 1 - d
        idx = np.arange(k, cols)
        mat[idx - k, idx] = mat[idx, idx - k] = band[d, k:]
    return mat


class TestHessianBand:
    """``_Assembly.hessian`` and ``coupling``: the fixed-T Hessian band, c = dg/dT and H_TT against differences."""

    T = 3.7

    def stage(self, name, nonuniform):
        field = HESSIAN_FIELDS[name]
        rng = np.random.default_rng(4 + nonuniform)
        mesh = random_mesh(rng, n_lo=12, n_hi=12, nonuniform=nonuniform)
        path = FePath(mesh, 0.5 * rng.standard_normal((13, field.dim)))
        _, stage, _ = _staged(path, field, DEFAULT_QUAD, self.T)
        stage()  # the gradient takes the Jacobian the Hessian reads
        return field, path, stage

    @staticmethod
    def gradient(path, field, z, T):
        return _staged(path.replace_interior(z.reshape(-1, field.dim)), field, DEFAULT_QUAD,
                       T)[1]().ravel()

    @pytest.mark.parametrize("name,nonuniform", BAND_CASES)
    def test_band_is_the_derivative_of_the_gradient(self, name, nonuniform):
        # a finite-difference Jacobian carries ~1e-10 of roundoff, which the
        # differenced gradient magnifies by 1/step
        field, path, stage = self.stage(name, nonuniform)
        band = stage.hessian()
        assert band.shape == (2 * field.dim, 11 * field.dim)
        z, step = path.values[1:-1].ravel(), 1e-5
        ref = np.column_stack([
            (self.gradient(path, field, z + step * e, self.T)
             - self.gradient(path, field, z - step * e, self.T)) / (2.0 * step)
            for e in np.eye(z.size)])
        err = np.max(np.abs(dense_from_band(band) - ref)) / np.max(np.abs(ref))
        assert err <= (1e-8 if name == "maier_stein" else 1e-5)

    @pytest.mark.parametrize("name,nonuniform", BAND_CASES)
    def test_horizon_coupling_is_the_derivative_in_t(self, name, nonuniform):
        field, path, stage = self.stage(name, nonuniform)
        c_vec, h_tt = stage.coupling()
        z, step = path.values[1:-1].ravel(), 1e-5
        ref = (self.gradient(path, field, z, self.T + step)
               - self.gradient(path, field, z, self.T - step)) / (2.0 * step)
        assert np.max(np.abs(c_vec - ref)) <= 1e-9 * np.max(np.abs(ref))
        value = lambda T: _staged(path, field, DEFAULT_QUAD, T)[0]
        step = 1e-3
        ref = (value(self.T + step) - 2.0 * value(self.T) + value(self.T - step)) / step**2
        assert h_tt == pytest.approx(ref, rel=1e-6)

    def test_second_order_term_matches_the_closed_form(self):
        # Q = r1 Hess(b1) + r2 Hess(b2) of Maier-Stein, from second differences of the values
        gamma = 10.0
        field, path, stage = self.stage("maier_stein", True)
        asm = _assemble(path, field, DEFAULT_QUAD)
        resid = asm.residual(self.T)
        u, v = asm.points[:, 0].reshape(resid.shape[1:]), asm.points[:, 1].reshape(resid.shape[1:])
        r1, r2 = resid
        ref = np.array([[r1 * -6.0 * u + r2 * -2.0 * v, r1 * -2.0 * gamma * v + r2 * -2.0 * u],
                        [r1 * -2.0 * gamma * v + r2 * -2.0 * u, r1 * -2.0 * gamma * u]])
        got = asm._second_order(resid)
        assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
    def test_second_order_term_of_a_finite_difference_field_matches_the_closed_form(
            self, nonuniform):
        # Q of the callable Maier-Stein from the sides of its differenced
        # Jacobian, at that Jacobian's step (~9e-7 relative here)
        gamma = 10.0
        _, _, stage = self.stage("callable_maier_stein", nonuniform)
        asm, resid = stage.asm, stage.resid
        assert asm.stencil is not None
        u, v = asm.points[:, 0].reshape(resid.shape[1:]), asm.points[:, 1].reshape(resid.shape[1:])
        r1, r2 = resid
        ref = np.array([[r1 * -6.0 * u + r2 * -2.0 * v, r1 * -2.0 * gamma * v + r2 * -2.0 * u],
                        [r1 * -2.0 * gamma * v + r2 * -2.0 * u, r1 * -2.0 * gamma * u]])
        got = asm._second_order(resid)
        assert np.max(np.abs(got - ref)) <= 2e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["callable_1d", "callable_maier_stein", "callable_3d"])
    def test_finite_difference_jacobian_is_the_fields_own(self, name):
        # the assembly differences the values itself, with the bits of jacobian_many
        field, _, stage = self.stage(name, True)
        asm = stage.asm
        jac = asm.jac.reshape(field.dim, field.dim, -1).transpose(2, 0, 1)
        assert np.array_equal(jac, field.jacobian_many(asm.points))

    @pytest.mark.parametrize("name", ["callable_1d", "callable_maier_stein", "callable_3d"])
    def test_newton_hessian_reuses_the_jacobians_sides(self, name):
        # the gradient takes 2n batches of the points and no jacobian_many
        # call; the Hessian one batch of the n (n - 1) diagonal moves of each
        field, calls = HESSIAN_FIELDS[name], []

        def counted(kind, fn):
            def many(pts):
                calls.append((kind, len(pts)))
                return fn(pts)
            return many

        counting = dataclasses.replace(field, _eval_many=counted("eval", field.eval_many),
                                       _jac_many=counted("jac", field.jacobian_many))
        rng = np.random.default_rng(6)
        mesh = random_mesh(rng, n_lo=12, n_hi=12, nonuniform=True)
        path = FePath(mesh, 0.5 * rng.standard_normal((13, field.dim)))
        _, stage, _ = _staged(path, counting, DEFAULT_QUAD, self.T)
        n, points = field.dim, stage.asm.points.shape[0]
        assert calls == [("eval", points)]
        stage()
        assert calls[1:] == [("eval", points)] * (2 * n)
        del calls[:]
        stage.hessian()
        assert calls == ([("eval", n * (n - 1) * points)] if n > 1 else [])

    @pytest.mark.parametrize("nonuniform", [False, True], ids=["uniform", "nonuniform"])
    def test_linear_field_gives_the_linear_band(self, nonuniform):
        # J = A and Q = 0 up to the differences' roundoff: the band of the
        # linear-drift preconditioner
        field = linear_field([[-1.0, 3.0], [-0.5, -2.0]])
        rng = np.random.default_rng(9)
        mesh = random_mesh(rng, n_lo=12, n_hi=12, nonuniform=nonuniform)
        path = FePath(mesh, rng.standard_normal((13, 2)))
        _, stage, _ = _staged(path, field, DEFAULT_QUAD, self.T)
        stage()
        band = stage.hessian()
        ref = _Band(path, field, DEFAULT_QUAD, True).at(self.T)
        assert np.max(np.abs(band - ref)) <= 1e-7 * np.max(np.abs(ref))
