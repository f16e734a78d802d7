import numpy as np
import pytest

from helpers import csv_text
from minaction import (
    FePath,
    SpectralLinearProblem,
    exact_fixed_T_minimizer,
    h1_seminorm_error,
    linear_interpolant_path,
    run_case_i,
    run_case_ii_full,
    run_linear_fixed_T_study,
    uniform_mesh,
)
from minaction.study import (
    StudyRecord,
    fit_rate,
    values_nonincreasing,
)


def make_records(n_values, errors):
    return [
        StudyRecord(
            N=n,
            h=1.0 / n,
            action=e,
            action_error=e,
            t_hat=1.0,
            t_error=None,
            h1_error=None,
            frechet=None,
            hamiltonian_violation=0.0,
            iterations=1,
        )
        for n, e in zip(n_values, errors)
    ]


class TestFitRate:
    def test_exact_power_law(self):
        n_values = [8, 16, 32, 64, 128]
        records = make_records(n_values, [3.7 * n**-2.0 for n in n_values])
        fit = fit_rate(records, "action_error")
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(3.7, rel=1e-10)

    def test_constant_errors(self):
        records = make_records([8, 16, 32], [0.5, 0.5, 0.5])
        fit = fit_rate(records, "action_error")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_needs_two_positive_points(self):
        with pytest.raises(ValueError):
            fit_rate(make_records([8], [0.1]), "action_error")
        with pytest.raises(ValueError):
            fit_rate(make_records([8, 16], [0.0, 0.0]), "action_error")

    def test_skips_nonpositive_entries(self):
        records = make_records([8, 16, 32, 64], [0.16, 0.0, 0.01, 0.0025])
        fit = fit_rate(records, "action_error")
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)


class TestH1Error:
    def test_zero_for_exact_interpolant_of_line(self):
        prob = SpectralLinearProblem(np.zeros((2, 2)), [0.0, 1.0], [1.0, 0.0], T=1.0)
        path = linear_interpolant_path([0.0, 1.0], [1.0, 0.0], uniform_mesh(8))
        assert h1_seminorm_error(path, prob) <= 1e-13

    def test_interpolant_error_first_order(self):
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
        errs = []
        for n_elems in (8, 16, 32):
            mesh = uniform_mesh(n_elems)
            path = FePath(mesh, exact_fixed_T_minimizer(prob, mesh.nodes))
            errs.append(h1_seminorm_error(path, prob))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)


class TestCaseStudies:
    def test_case_i_smoke(self):
        records, rate_a, rate_t = run_case_i([8, 16, 32])
        assert [r.N for r in records] == [8, 16, 32]
        assert values_nonincreasing(records)
        assert all(r.action_error > 0 for r in records)
        t_errors = [r.t_error for r in records]
        assert t_errors[0] > t_errors[1] > t_errors[2]
        assert rate_a.slope < -1.0
        assert rate_t.slope < -0.5

    def test_case_i_requires_three_levels(self):
        with pytest.raises(ValueError):
            run_case_i([8, 16])

    def test_case_ii_returns_parallel_sweeps(self):
        data = run_case_ii_full([8, 16, 32], T_fixed=50.0)
        records_tmam, records_fixed, rate = data.records_tmam, data.records_fixed, data.rate_tmam
        assert len(records_tmam) == len(records_fixed) == 3
        assert all(r.frechet is not None for r in records_tmam)
        assert all(r.frechet is None for r in records_fixed)
        assert all(rt.action <= rf.action for rt, rf in zip(records_tmam, records_fixed))
        assert rate.slope < 0.0

    def test_linear_study_zero_matrix_exact(self):
        records, rate_h1, rate_a = run_linear_fixed_T_study(
            np.zeros((2, 2)), [0.0, 0.0], [1.0, 1.0], 1.0, [4, 8]
        )
        assert all(r.action_error <= 1e-12 for r in records)
        assert all(r.h1_error <= 1e-7 for r in records)

    def test_linear_study_records_fields(self):
        records, rate_h1, rate_a = run_linear_fixed_T_study(
            [[-1.0]], [0.0], [1.0], 1.0, [8, 16, 32]
        )
        assert rate_h1.slope == pytest.approx(-1.0, abs=0.1)
        assert rate_a.slope == pytest.approx(-2.0, abs=0.2)
        assert all(r.h1_error > 0 and r.action_error > 0 for r in records)


class TestStudyCsv:
    def test_header_and_blank_optionals(self):
        text = csv_text(make_records([8], [0.5]))
        lines = text.splitlines()
        assert lines[0] == (
            "N,h,action,action_error,t_hat,t_error,h1_error,frechet,ham_violation,iterations"
        )
        cells = lines[1].split(",")
        assert cells[0] == "8"
        assert cells[5] == "" and cells[6] == "" and cells[7] == ""

    def test_deterministic_repeat(self):
        a = csv_text(run_case_i([8, 16, 32])[0])
        b = csv_text(run_case_i([8, 16, 32])[0])
        assert a == b

    def test_round_trip_precision(self):
        # repr serialization: parsing a cell recovers the float bit-exactly
        records = make_records([8], [0.1 + 1e-17])
        text = csv_text(records)
        cell = text.splitlines()[1].split(",")[2]
        assert float(cell) == records[0].action
