import math
import warnings

import numpy as np
import pytest

from helpers import (
    DEFAULT_QUAD,
    builtin_fields,
    fd_grad_fixed_T,
    fd_grad_optimal,
    random_mesh,
    random_path,
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
    action_fixed_T,
    action_optimal,
    el_residual,
    exact_fixed_T_minimizer,
    field_from_callable,
    grad_action_fixed_T,
    grad_action_optimal,
    hamiltonian_violation,
    linear_field,
    linear_interpolant_path,
    maier_stein_field,
    minimize_fixed_T,
    optimal_time,
    refine_path,
    two_scale_field,
    uniform_mesh,
)
from minaction.action import _assemble, _geometry, fixed_t_value_grad, tmam_value_grad

SCALAR = linear_field([[-1.0]])
ZERO2 = linear_field(np.zeros((2, 2)))


def unit_ramp(n_elems=8):
    """The 1-D path p(s) = s from 0 to 1 (closed forms available for b = -x)."""
    return linear_interpolant_path([0.0], [1.0], uniform_mesh(n_elems))


class TestQuadrature:
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
            assert action_fixed_T(path, field, T, DEFAULT_QUAD) == pytest.approx(
                1.0 / (2.0 * T), abs=1e-14
            )

    def test_constant_path_at_equilibrium(self):
        field = maier_stein_field()
        path = linear_interpolant_path([1.0, 0.0], [1.0, 0.0], uniform_mesh(6))
        assert action_fixed_T(path, field, 2.0, DEFAULT_QUAD) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("T", [0.5, 1.0, np.sqrt(3.0), 5.0])
    def test_unit_ramp_closed_form(self, T):
        # (T/2) * int (1/T + s)^2 ds = 1/(2T) + 1/2 + T/6, exact for q >= 2
        got = action_fixed_T(unit_ramp(), SCALAR, T, Quadrature(2))
        want = 1.0 / (2.0 * T) + 0.5 + T / 6.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_unit_ramp_value_at_one(self):
        assert action_fixed_T(unit_ramp(), SCALAR, 1.0, Quadrature(2)) == pytest.approx(
            7.0 / 6.0, rel=1e-14
        )

    def test_nonpositive_T_rejected(self):
        with pytest.raises(ValueError):
            action_fixed_T(unit_ramp(), SCALAR, 0.0, DEFAULT_QUAD)


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
        report = action_optimal(unit_ramp(), SCALAR, Quadrature(2))
        assert report.value == pytest.approx(0.5 + np.sqrt(3.0) / 3.0, rel=1e-14)
        assert report.t_hat == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_reversed_ramp_value(self):
        path = linear_interpolant_path([1.0], [0.0], uniform_mesh(8))
        report = action_optimal(path, SCALAR, Quadrature(2))
        assert report.value == pytest.approx(1.0 / np.sqrt(3.0) - 0.5, rel=1e-12)

    def test_flow_aligned_path_is_zero(self):
        # constant drift: a straight line along b satisfies p' = c b(p)
        field = field_from_callable(
            2, lambda x: np.array([1.0, 2.0]), jac=lambda x: np.zeros((2, 2))
        )
        path = linear_interpolant_path([0.0, 0.0], [0.5, 1.0], uniform_mesh(7))
        report = action_optimal(path, field, DEFAULT_QUAD)
        assert abs(report.value) <= 1e-12
        assert report.hamiltonian_violation <= 1e-12

    def test_grad_shape(self):
        report = action_optimal(unit_ramp(10), SCALAR, DEFAULT_QUAD)
        assert report.grad.shape == (9, 1)


class TestScalingOptimality:
    def test_optimal_time_minimizes_over_T(self):
        rng = np.random.default_rng(100)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim)
            t_hat = optimal_time(path, field, DEFAULT_QUAD)
            s_hat = action_fixed_T(path, field, t_hat, DEFAULT_QUAD)
            for T in np.exp(rng.uniform(-2.0, 3.0, size=3)):
                assert s_hat <= action_fixed_T(path, field, float(T), DEFAULT_QUAD) + 1e-12

    def test_stationarity_centered_difference(self):
        rng = np.random.default_rng(101)
        fields = list(builtin_fields().values())
        for k in range(40):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim)
            report = action_optimal(path, field, DEFAULT_QUAD)
            delta = 1e-5 * report.t_hat
            deriv = (
                action_fixed_T(path, field, report.t_hat + delta, DEFAULT_QUAD)
                - action_fixed_T(path, field, report.t_hat - delta, DEFAULT_QUAD)
            ) / (2.0 * delta)
            assert abs(deriv) <= 1e-8 * max(report.value, 1e-30)


class TestRewriteIdentity:
    def test_matches_fixed_action_at_optimal_time(self):
        rng = np.random.default_rng(102)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim, nonuniform=bool(k % 2))
            report = action_optimal(path, field, DEFAULT_QUAD)
            direct = action_fixed_T(path, field, report.t_hat, DEFAULT_QUAD)
            assert abs(report.value - direct) <= 1e-12 * abs(report.value)

    def test_nonnegativity(self):
        rng = np.random.default_rng(103)
        fields = list(builtin_fields().values())
        for k in range(60):
            field = fields[k % len(fields)]
            path = random_path(rng, field.dim, scale=float(rng.uniform(0.1, 3.0)))
            assert action_optimal(path, field, DEFAULT_QUAD).value >= -1e-12


class TestGradients:
    @pytest.mark.parametrize("name", ["scalar_linear", "general_linear", "two_scale", "maier_stein"])
    def test_fixed_T_matches_finite_differences(self, name):
        field = builtin_fields()[name]
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for _ in range(5):
            path = random_path(rng, field.dim)
            T = float(np.exp(rng.uniform(-1.0, 1.5)))
            grad = grad_action_fixed_T(path, field, T, DEFAULT_QUAD)
            fd = fd_grad_fixed_T(path, field, T, DEFAULT_QUAD)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))

    def test_zero_field_straight_line_gradient_vanishes(self):
        path = linear_interpolant_path([0.0, 0.0], [1.0, 2.0], uniform_mesh(9))
        grad = grad_action_fixed_T(path, ZERO2, 1.0, DEFAULT_QUAD)
        assert np.max(np.abs(grad)) <= 1e-14

    @pytest.mark.parametrize("name", ["scalar_linear", "general_linear", "two_scale", "maier_stein"])
    def test_reduced_matches_finite_differences(self, name):
        field = builtin_fields()[name]
        rng = np.random.default_rng(abs(hash(name + "opt")) % 2**32)
        for _ in range(5):
            path = random_path(rng, field.dim)
            grad = grad_action_optimal(path, field, DEFAULT_QUAD)
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
            g_opt = grad_action_optimal(path, field, DEFAULT_QUAD)
            g_fix = grad_action_fixed_T(path, field, t_hat, DEFAULT_QUAD)
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
        # this ties the rewrite-form value to the residual-form gradient, as
        # an error in g.d adds a first-order term that flattens the drop
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
            return action_optimal(moved, field, DEFAULT_QUAD).value

        slope = float(np.sum(grad_action_optimal(path, field, DEFAULT_QUAD) * d))
        remainders = [abs(reduced(eps) - reduced(0.0) - eps * slope) for eps in (1e-2, 1e-3, 1e-4)]
        for coarse, fine in zip(remainders, remainders[1:]):
            assert np.log10(coarse / fine) == pytest.approx(2.0, abs=0.01)

    def test_stationary_at_minimizer(self):
        field = SCALAR
        res = minimize_fixed_T(unit_ramp(16), field, 1.0, quad=Quadrature(2))
        assert res.converged
        grad = grad_action_fixed_T(res.path, field, 1.0, Quadrature(2))
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
        grad = grad_action_fixed_T(path, field, T, Quadrature(2))

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
            fine = refine_path(path)
            t0 = optimal_time(path, field, quad)
            t1 = optimal_time(fine, field, quad)
            assert abs(t1 - t0) <= 1e-12 * t0
            a0 = action_fixed_T(path, field, 2.0, quad)
            a1 = action_fixed_T(fine, field, 2.0, quad)
            assert abs(a1 - a0) <= 1e-12 * max(1.0, abs(a0))
            v0 = action_optimal(path, field, quad).value
            v1 = action_optimal(fine, field, quad).value
            assert abs(v1 - v0) <= 1e-12 * max(1.0, abs(v0))


def with_signed_zeros(rng, arr):
    """``arr`` with about a quarter of its entries set to +0.0 or -0.0."""
    mask = rng.random(arr.shape) < 0.25
    arr[mask] = np.where(rng.random(int(mask.sum())) < 0.5, 0.0, -0.0)
    return arr


def einsum_fixed_t_grad(asm, t_scale):
    """Reference: the residual-form gradient with four-operand einsums."""
    resid = asm.deriv[:, None, :] / t_scale - asm.b_quad
    jtr = np.einsum("eqji,eqj->eqi", asm.jac_quad(), resid)
    wr = np.einsum("q,eqi->ei", asm.w, resid)
    grad = np.zeros((asm.h.size + 1, asm.n))
    grad[:-1] += -wr - t_scale * np.einsum("e,q,q,eqi->ei", asm.h, asm.w, 1.0 - asm.xi, jtr)
    grad[1:] += wr - t_scale * np.einsum("e,q,q,eqi->ei", asm.h, asm.w, asm.xi, jtr)
    return grad


class TestGradientBits:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 10])
    def test_fixed_t_grad_matches_einsum_formula(self, q, n):
        rng = np.random.default_rng(100 * q + n)
        quad = Quadrature(q)
        for _ in range(25):
            mesh = random_mesh(rng, n_lo=1, n_hi=40, nonuniform=True)
            m = mesh.num_elements * q
            drift = with_signed_zeros(rng, rng.standard_normal((m, n)))
            jac = with_signed_zeros(rng, rng.standard_normal((m, n, n)))
            field = DriftField(dim=n, _eval_many=lambda pts: drift, _jac_many=lambda pts: jac)
            values = with_signed_zeros(rng, rng.standard_normal((mesh.num_elements + 1, n)))
            asm = _assemble(FePath(mesh, values), field, quad)
            t_scale = float(np.exp(rng.uniform(-2.0, 2.0)))
            grad = asm.fixed_t_grad(t_scale)
            ref = einsum_fixed_t_grad(asm, t_scale)
            assert np.array_equal(grad, ref)
            assert np.array_equal(np.signbit(grad), np.signbit(ref))


def fresh_value_grad(path, field, quad, T=None):
    """Reference: (value, interior gradient, horizon) with every mesh quantity computed afresh.

    T = None gives the reduced functional at t_hat, a number the fixed-T one.
    The value einsums keep h and w as separate operands, as the library
    does: with one h*w operand einsum sums in another order, which moves
    the last bit of some values at n = 1.
    """
    h, w, xi = np.diff(path.mesh.nodes), quad.w, quad.xi
    delta = np.diff(path.values, axis=0)
    deriv = delta / h[:, None]
    n = path.dim
    x_quad = np.empty((h.size, xi.size, n))
    for k, x in enumerate(xi):
        x_quad[:, k] = path.values[:-1] * (1.0 - x) + path.values[1:] * x
    b_quad = field.eval_many(x_quad.reshape(-1, n)).reshape(x_quad.shape)
    if T is None:
        alpha = math.sqrt(float(np.sum(delta * deriv)))
        beta = math.sqrt(float(np.einsum("e,q,eqi,eqi->", h, w, b_quad, b_quad)))
        t_scale = alpha / beta
        value = alpha * beta - float(np.einsum("ei,q,eqi->", delta, w, b_quad))
    else:
        t_scale = float(T)
        resid = deriv[:, None, :] / t_scale - b_quad
        value = 0.5 * t_scale * float(np.einsum("e,q,eqi,eqi->", h, w, resid, resid))
    resid = deriv[:, None, :] / t_scale - b_quad
    jac = field.jacobian_many(x_quad.reshape(-1, n)).reshape(x_quad.shape + (n,))
    jtr = np.einsum("eqji,eqj->eqi", jac, resid)
    wr = np.einsum("q,eqi->ei", w, resid)
    grad = np.zeros((h.size + 1, n))
    grad[:-1] += -wr - t_scale * np.einsum("e,q,q,eqi->ei", h, w, 1.0 - xi, jtr)
    grad[1:] += wr - t_scale * np.einsum("e,q,q,eqi->ei", h, w, xi, jtr)
    return value, grad[1:-1], t_scale


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
                             fresh_value_grad(path, field, quad))
            assert_same_bits(fixed_t_value_grad(path, field, 1.7, quad),
                             fresh_value_grad(path, field, quad, 1.7))

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
                                     fresh_value_grad(path, field, Quadrature(q)))
        # equal rules share one entry, kept on each mesh
        for mesh in meshes:
            assert sorted(quad.points_per_element for quad in mesh._per_rule) == [2, 3]
            assert _geometry(mesh, Quadrature(3)) is _geometry(mesh, Quadrature(3))
        assert _geometry(meshes[0], Quadrature(3)) is not _geometry(meshes[1], Quadrature(3))
