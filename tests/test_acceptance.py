"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS` line on success (visible
with `pytest -s`); the test names carry the criterion numbers for `-v` runs.
Shared sweeps are computed once per module.
"""

import time

import numpy as np
import pytest

from helpers import (
    builtin_fields,
    csv_text,
    fd_grad_fixed_T,
    fd_grad_optimal,
    random_path,
)
from minaction import (
    DegeneratePathError,
    DriftVanishesError,
    OptimConfig,
    Quadrature,
    clustering_fraction,
    fixed_t_value_grad,
    linear_field,
    linear_interpolant_path,
    minimize_tmam,
    optimal_time,
    tmam_value_grad,
    uniform_mesh,
)
from minaction.study import run_case_i, run_case_ii_full, run_linear_fixed_T_study

QUAD = Quadrature(2)
CASE_I_LEVELS = [8, 16, 32, 64, 128]
CASE_II_LEVELS = [16, 32, 64, 128]


@pytest.fixture(scope="module")
def case_i_run():
    start = time.perf_counter()
    records, rate_action, rate_t = run_case_i(CASE_I_LEVELS, OptimConfig(), QUAD)
    elapsed = time.perf_counter() - start
    return records, rate_action, rate_t, elapsed


@pytest.fixture(scope="module")
def case_ii_run():
    return run_case_ii_full(CASE_II_LEVELS, 100.0, OptimConfig(), QUAD)


@pytest.fixture(scope="module")
def linear_run():
    return run_linear_fixed_T_study(
        [[-1.0]], [0.0], [1.0], 1.0, [8, 16, 32, 64, 128], OptimConfig(), QUAD
    )


def test_criterion_01_case_i_rate_reproduction(case_i_run):
    records, rate_action, rate_t, elapsed = case_i_run
    assert -2.4 <= rate_action.slope <= -1.6
    assert -2.4 <= rate_t.slope <= -1.6
    assert rate_action.r_squared >= 0.98
    assert rate_t.r_squared >= 0.98
    assert elapsed <= 120.0
    print(
        f"[acceptance] criterion 1 (case (i) rates: action {rate_action.slope:.3f}, "
        f"T {rate_t.slope:.3f}, {elapsed:.1f}s): PASS"
    )


def test_criterion_02_case_ii_comparison(case_ii_run):
    data = case_ii_run
    idx64 = CASE_II_LEVELS.index(64)
    tmam64 = data.records_tmam[idx64].action
    fixed64 = data.records_fixed[idx64].action
    assert tmam64 <= 0.1 * fixed64
    slope = data.rate_tmam.slope
    assert -2.0 < slope <= -0.3
    t_hats = [r.t_hat for r in data.records_tmam]
    assert all(b > a for a, b in zip(t_hats, t_hats[1:]))
    print(
        f"[acceptance] criterion 2 (case (ii): ratio {tmam64 / fixed64:.2e}, "
        f"slope {slope:.3f}, t_hat {t_hats[0]:.2f}->{t_hats[-1]:.2f}): PASS"
    )


def test_criterion_03_linear_fixed_T_orders(linear_run):
    records, rate_h1, rate_action = linear_run
    assert -1.2 <= rate_h1.slope <= -0.8
    assert -2.4 <= rate_action.slope <= -1.6
    exact = (np.e**2 - 1.0) / (4.0 * np.sinh(1.0) ** 2)
    final = records[-1]
    assert final.N == 128
    assert abs(final.action - exact) <= 1e-4
    print(
        f"[acceptance] criterion 3 (linear orders: H1 {rate_h1.slope:.3f}, "
        f"action {rate_action.slope:.3f}, |S - exact| {abs(final.action - exact):.2e}): PASS"
    )


def test_criterion_04_scaling_optimality_suite():
    rng = np.random.default_rng(2026)
    fields = list(builtin_fields().values())
    for k in range(200):
        field = fields[k % len(fields)]
        path = random_path(rng, field.dim, nonuniform=bool(k % 3 == 0))
        t_hat = optimal_time(path, field, QUAD)
        s_hat = fixed_t_value_grad(path, field, t_hat, QUAD)[0]
        T = float(np.exp(rng.uniform(-2.0, 3.0)))
        assert s_hat <= fixed_t_value_grad(path, field, T, QUAD)[0] + 1e-12
        delta = 1e-5 * t_hat
        deriv = (
            fixed_t_value_grad(path, field, t_hat + delta, QUAD)[0]
            - fixed_t_value_grad(path, field, t_hat - delta, QUAD)[0]
        ) / (2.0 * delta)
        value = tmam_value_grad(path, field, QUAD)[0]
        assert abs(deriv) <= 1e-8 * value
    print("[acceptance] criterion 4 (optimal-time scaling, 200 triples): PASS")


def test_criterion_05_rewrite_identity_suite():
    rng = np.random.default_rng(2027)
    fields = list(builtin_fields().values())
    for k in range(200):
        field = fields[k % len(fields)]
        path = random_path(rng, field.dim, scale=float(rng.uniform(0.3, 2.0)))
        value, _, t_hat = tmam_value_grad(path, field, QUAD)
        direct = fixed_t_value_grad(path, field, t_hat, QUAD)[0]
        assert abs(value - direct) <= 1e-12 * abs(value)
        assert value >= -1e-12
    print("[acceptance] criterion 5 (rewrite identity, 200 paths): PASS")


def test_criterion_06_gradient_correctness():
    fields = builtin_fields()
    for name, field in fields.items():
        rng = np.random.default_rng(abs(hash("acc6" + name)) % 2**32)
        for _ in range(50):
            path = random_path(rng, field.dim, scale=0.8)
            T = float(np.exp(rng.uniform(-1.0, 1.5)))
            g_fix = fixed_t_value_grad(path, field, T, QUAD)[1]
            fd_fix = fd_grad_fixed_T(path, field, T, QUAD)
            assert np.max(np.abs(g_fix - fd_fix)) <= 1e-5 * max(1.0, np.max(np.abs(g_fix)))
            g_opt = tmam_value_grad(path, field, QUAD)[1]
            fd_opt = fd_grad_optimal(path, field, QUAD)
            assert np.max(np.abs(g_opt - fd_opt)) <= 1e-5 * max(1.0, np.max(np.abs(g_opt)))
            t_hat = optimal_time(path, field, QUAD)
            g_env = fixed_t_value_grad(path, field, t_hat, QUAD)[1]
            assert np.max(np.abs(g_opt - g_env)) <= 1e-10 * max(1.0, np.max(np.abs(g_env)))
    # the zero field admits only the fixed-horizon functional
    rng = np.random.default_rng(77)
    zero2 = linear_field(np.zeros((2, 2)))
    for _ in range(50):
        path = random_path(rng, 2)
        g_fix = fixed_t_value_grad(path, zero2, 1.0, QUAD)[1]
        fd_fix = fd_grad_fixed_T(path, zero2, 1.0, QUAD)
        assert np.max(np.abs(g_fix - fd_fix)) <= 1e-5 * max(1.0, np.max(np.abs(g_fix)))
    print("[acceptance] criterion 6 (gradients vs finite differences + envelope): PASS")


def test_criterion_07_discrete_well_posedness(case_i_run, case_ii_run):
    records_i = case_i_run[0]
    data_ii = case_ii_run
    for record in list(records_i) + list(data_ii.records_tmam):
        assert np.isfinite(record.t_hat)
        assert record.t_hat > 0.0
    for result in data_ii.results_tmam:
        assert result.converged
    zero2 = linear_field(np.zeros((2, 2)))
    start = linear_interpolant_path([0.0, 0.0], [1.0, 1.0], uniform_mesh(8))
    with pytest.raises(DriftVanishesError):
        minimize_tmam(start, zero2, quad=QUAD)
    degenerate = linear_interpolant_path([1.0, 1.0], [1.0, 1.0], uniform_mesh(8))
    with pytest.raises(DegeneratePathError):
        minimize_tmam(degenerate, builtin_fields()["two_scale"], quad=QUAD)
    print("[acceptance] criterion 7 (finite optimal times + degeneracy guards): PASS")


def test_criterion_08_frechet_convergence(case_ii_run):
    distances = [r.frechet for r in case_ii_run.records_tmam]
    assert all(b <= a for a, b in zip(distances, distances[1:]))
    assert distances[-1] < distances[0] / 2.0
    print(
        f"[acceptance] criterion 8 (Frechet {distances[0]:.3e} -> {distances[-1]:.3e}): PASS"
    )


def test_criterion_09_zero_hamiltonian_diagnostic(case_i_run):
    records = case_i_run[0]
    by_n = {r.N: r.hamiltonian_violation for r in records}
    sequence = [by_n[n] for n in (16, 32, 64, 128)]
    assert all(b < a for a, b in zip(sequence, sequence[1:]))
    print(
        f"[acceptance] criterion 9 (Hamiltonian violation {sequence[0]:.3e} -> "
        f"{sequence[-1]:.3e}): PASS"
    )


def test_criterion_10_clustering_diagnostic(case_ii_run):
    idx64 = CASE_II_LEVELS.index(64)
    fixed_path = case_ii_run.results_fixed[idx64].path
    tmam_path = case_ii_run.results_tmam[idx64].path
    center = [0.0, 0.0]
    frac_fixed = clustering_fraction(fixed_path, center, 0.05)
    frac_tmam = clustering_fraction(tmam_path, center, 0.05)
    assert frac_fixed > frac_tmam
    print(
        f"[acceptance] criterion 10 (clustering fixed {frac_fixed:.3f} > "
        f"optimal-horizon {frac_tmam:.3f}): PASS"
    )


def test_criterion_11_determinism_and_nesting(case_i_run, case_ii_run, linear_run):
    first = csv_text(run_case_i([8, 16, 32], OptimConfig(), QUAD)[0])
    second = csv_text(run_case_i([8, 16, 32], OptimConfig(), QUAD)[0])
    assert first == second
    for records in (
        case_i_run[0],
        case_ii_run.records_tmam,
        case_ii_run.records_fixed,
        linear_run[0],
    ):
        values = [r.action for r in records]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
    print("[acceptance] criterion 11 (bit-identical reruns + nested monotonicity): PASS")
