import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import minaction
from minaction import cli
from minaction.action import MAX_POINTS_PER_ELEMENT
from minaction.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def child_env():
    """Environment in which a child process imports the same minaction tree as this one."""
    src_dir = os.path.dirname(os.path.dirname(minaction.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def solve_config(**updates):
    cfg = {
        "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "tmam"},
        "mesh": {"N": 24},
        "quadrature": {"points_per_element": 2},
        "outputs": {"result_json": "result.json", "path_csv": "path.csv"},
    }
    cfg.update(updates)
    return cfg


class TestSolve:
    def test_tmam_success(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["converged"] is True
        assert result["t_hat"] > 0.0
        assert (tmp_path / "path.csv").exists()

    def test_case_setup_estimates_unit_horizon(self, tmp_path):
        from minaction import matrix_exp_apply, two_scale_field

        x2 = matrix_exp_apply(two_scale_field().linear_matrix, 1.0, [1.0, 1.0])
        cfg = write_config(
            tmp_path,
            solve_config(
                problem={"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": list(x2)},
                mesh={"N": 64},
            ),
        )
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        result = json.loads((tmp_path / "result.json").read_text())
        assert abs(result["t_hat"] - 1.0) <= 1e-2

    def test_negative_T_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(mode={"kind": "fixed_t", "T": -1.0}))
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "mode.T" in capsys.readouterr().err

    def test_zero_field_tmam_reports_drift_vanishes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            solve_config(
                problem={
                    "field": {"type": "linear", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
                    "x1": [0.0, 0.0],
                    "x2": [1.0, 1.0],
                }
            ),
        )
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["error"] == "DriftVanishes"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = solve_config()
        payload["optimizer"] = {"memoryy": 5}
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "optimizer.memoryy" in capsys.readouterr().err

    def test_study_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(study={"name": "case_i"}))
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: study is not read by the solve command (got study.name)"
        )
        assert not (tmp_path / "result.json").exists()

    def test_horizon_rejected_in_tmam_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_config(mode={"kind": "tmam", "T": 5.0}))
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: mode.T is not read in tmam mode")

    def test_set_overrides(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        rc = main([
            "solve",
            "--config",
            cfg,
            "--set",
            "mesh.N=8",
            "--set",
            "mode.kind=fixed_t",
            "--set",
            "mode.T=2.0",
            "--out-dir",
            str(tmp_path),
        ])
        assert rc == EXIT_OK
        path_lines = (tmp_path / "path.csv").read_text().splitlines()
        assert len(path_lines) == 1 + 9  # header plus 9 nodes

    def test_warm_start_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, solve_config())
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
        first = json.loads((tmp_path / "result.json").read_text())

        payload = solve_config()
        payload["problem"]["start_csv"] = str(tmp_path / "path.csv")
        payload["outputs"] = {"result_json": "result2.json"}
        cfg2 = write_config(tmp_path, payload, name="config2.json")
        assert main(["solve", "--config", cfg2, "--out-dir", str(tmp_path)]) == EXIT_OK
        second = json.loads((tmp_path / "result2.json").read_text())
        assert abs(second["value"] - first["value"]) <= 1e-10
        assert second["iterations"] <= 2

    def test_missing_mesh_key(self, tmp_path, capsys):
        payload = solve_config()
        del payload["mesh"]
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "mesh.N" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,value",
        [("mode", 5), ("outputs", "out.json"), ("optimizer", [1, 2]), ("problem", "x")],
    )
    def test_non_object_sections_rejected(self, tmp_path, capsys, section, value):
        payload = solve_config()
        payload[section] = value
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert section in capsys.readouterr().err

    # JSON parsing accepts Infinity, and a JSON true is a Python int.
    @pytest.mark.parametrize(
        "override,key",
        [
            ("mode.T=Infinity", "mode.T"),
            ("optimizer.tol_grad=Infinity", "optimizer.tol_grad"),
            ("optimizer.memory=true", "optimizer.memory"),
            ("optimizer.max_iters=2.5", "optimizer.max_iters"),
            ("quadrature.points_per_element=true", "quadrature.points_per_element"),
            ("mesh.N=true", "mesh.N"),
        ],
    )
    def test_nonfinite_and_bool_values_rejected(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path, solve_config(mode={"kind": "fixed_t", "T": 1.0}))
        rc = main(["solve", "--config", cfg, "--set", override, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err

    # the solver has one preconditioner and no optimal-time cap; even the
    # old defaults of those keys are rejected
    @pytest.mark.parametrize(
        "key,value", [("sobolev_precondition", True), ("t_cap", None)],
        ids=["sobolev_precondition", "t_cap"],
    )
    def test_removed_optimizer_key_is_unknown(self, tmp_path, capsys, key, value):
        payload = solve_config()
        payload["optimizer"] = {key: value}
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert f"unknown config key: optimizer.{key}" in capsys.readouterr().err

    # the action overflows at a tiny horizon, the preconditioner at a huge one
    @pytest.mark.parametrize("horizon", [1e-200, 1e308])
    def test_nonfinite_action_is_solver_error(self, tmp_path, horizon):
        cfg = write_config(tmp_path, solve_config(mode={"kind": "fixed_t", "T": horizon}))
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["error"] == "ActionError"
        assert "not finite" in result["message"]

    def test_overflowing_drift_rate_is_solver_error(self, tmp_path):
        # A^T A has the entry 1e320, which overflows a float; the linear
        # field's Hessian band is not finite
        payload = solve_config(mode={"kind": "fixed_t", "T": 1}, mesh={"N": 8})
        payload["problem"]["field"] = {"type": "linear", "matrix": [[-1e160, 0], [0, -1]]}
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["error"] == "ActionError"
        assert "not finite" in result["message"]

    @pytest.mark.parametrize("x1", [1e308, 1e200])
    def test_overflowing_drift_jacobian_is_solver_error_without_warning(self, tmp_path, x1):
        # the Maier-Stein Jacobian at the start node x1 is not finite, or
        # J^T J overflows; an SVD of it did not converge, which exited 1 with
        # "config error: SVD did not converge" and named no key
        payload = solve_config(mode={"kind": "fixed_t", "T": 4}, mesh={"N": 8})
        payload["problem"] = {"field": {"type": "maier_stein", "gamma": 10},
                              "x1": [x1, 0], "x2": [0, 0]}
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert [str(w.message) for w in caught] == []
        result = json.loads((tmp_path / "result.json").read_text())
        assert result == {"error": "ActionError",
                          "message": "preconditioner is not finite at this horizon"}

    def test_start_overflow_is_solver_error_without_warning(self, tmp_path):
        # at a tiny horizon the preconditioner stays finite and the start
        # action overflows
        payload = solve_config(mode={"kind": "fixed_t", "T": 1e-200})
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert [str(w.message) for w in caught] == []
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["error"] == "ActionError"
        assert "not finite" in result["message"]

    def test_huge_horizon_writes_strict_json(self, tmp_path):
        # the gradient is finite at T = 1e200 but its sum of squares is not;
        # every warning is an error in the child, and Infinity is not JSON
        payload = solve_config(mode={"kind": "fixed_t", "T": 1e200}, mesh={"N": 8})
        cfg = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "minaction", "solve",
             "--config", cfg, "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        result = json.loads((tmp_path / "result.json").read_text(), parse_constant=reject)
        assert result["converged"] is True
        assert 0.0 < result["el_residual"] < 1e-10

    def test_overflowing_speed_squares_give_a_finite_hamiltonian_violation(self, tmp_path):
        # |p'|^2 overflows at the straight line from [1, 1] to [1e154, 1e154],
        # which is already the minimizer, but |p'| and |p'|/T are finite;
        # every warning is an error in the child, and Infinity is not JSON
        payload = solve_config(mode={"kind": "fixed_t", "T": 1e8}, mesh={"N": 4})
        payload["problem"] = {
            "field": {"type": "linear", "matrix": [[0.0, 0.0], [0.0, -1e-300]]},
            "x1": [1, 1],
            "x2": [1e154, 1e154],
        }
        cfg = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "minaction", "solve",
             "--config", cfg, "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        result = json.loads((tmp_path / "result.json").read_text(), parse_constant=reject)
        assert result["converged"] is True
        assert result["hamiltonian_violation"] == pytest.approx(math.sqrt(2.0) * 1e146, rel=1e-14)

    def test_underflowing_start_horizon_is_solver_error_without_warning(self, tmp_path):
        # |b(p)|^2 overflows at the start, so its optimal horizon underflows to 0
        payload = solve_config(mesh={"N": 16})
        payload["problem"] = {
            "field": {"type": "linear", "matrix": [[-1e154, 0], [0, -1]]},
            "x1": [3.0, 3.0],
            "x2": [0.0, 0.0],
        }
        cfg = write_config(tmp_path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        assert [str(w.message) for w in caught] == []
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["error"] == "ActionError"
        assert "optimal horizon" in result["message"]
        assert "is not finite and positive" in result["message"]

    def test_empty_start_csv_names_key(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        payload = solve_config()
        payload["problem"]["start_csv"] = str(tmp_path / "empty.csv")
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "problem.start_csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "N,x1,x2,message",
        [
            (8, [1.0, 1.0], [0.0, 0.0], "problem.start_csv mesh does not match mesh.N"),
            (24, [1.0], [0.0], "problem.start_csv dimension does not match the field"),
            (24, [1.0, 1.0], [0.0, 0.5],
             "problem.start_csv endpoints do not match problem.x1/x2"),
            # off x1 by 9e-6, inside numpy's default relative tolerance of 1e-5
            (24, [1.000009, 1.0], [0.0, 0.0],
             "problem.start_csv endpoints do not match problem.x1/x2"),
        ],
        ids=["mesh", "dimension", "endpoints", "endpoint_within_relative_tolerance"],
    )
    def test_mismatched_start_csv_names_key(self, tmp_path, capsys, N, x1, x2, message):
        minaction.write_path_csv(
            minaction.linear_interpolant_path(x1, x2, minaction.uniform_mesh(N)),
            str(tmp_path / "start.csv"),
        )
        payload = solve_config()
        payload["problem"]["start_csv"] = str(tmp_path / "start.csv")
        cfg = write_config(tmp_path, payload)
        rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestStudy:
    def test_case_i_passes_assertions(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "case_i"},
                "mesh": {"N_list": [8, 16, 32, 64, 128]},
                "quadrature": {"points_per_element": 2},
                "outputs": {"study_csv": "case_i.csv", "summary_json": "case_i.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "case_i.json").read_text())
        assert summary["passed"] is True
        assert -2.4 <= summary["rates"]["action"]["slope"] <= -1.6
        assert -2.4 <= summary["rates"]["T"]["slope"] <= -1.6
        csv_lines = (tmp_path / "case_i.csv").read_text().splitlines()
        assert len(csv_lines) == 6

    def test_case_ii_emits_both_sweeps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "case_ii"},
                "mesh": {"N_list": [8, 16, 32]},
                "quadrature": {"points_per_element": 2},
                "outputs": {"study_csv": "case_ii.csv", "summary_json": "case_ii.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        summary = json.loads((tmp_path / "case_ii.json").read_text())
        assert rc == EXIT_OK
        assert summary["passed"] is True
        assert (tmp_path / "case_ii.csv").exists()
        assert (tmp_path / "case_ii_fixed.csv").exists()
        assert summary["tmam_over_fixed_at_max_N"] < 0.1

    @pytest.mark.parametrize(
        "name, section, body",
        [("case_i", "problem", {"x1": "nonsense"}), ("case_ii", "mode", {"kind": "nope"})],
        ids=["case_i_problem", "case_ii_mode"],
    )
    def test_unread_section_rejected(self, tmp_path, capsys, name, section, body):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": name},
                section: body,
                "mesh": {"N_list": [8, 16, 32]},
                "outputs": {"summary_json": "s.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {section} ")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"study": {"name": "case_i", "T_fixed": -5}}, "study.T_fixed"),
            ({"study": {"name": "case_i"}, "oracle": {"kind": "bogus"}}, "oracle.kind"),
            ({"study": {"name": "case_i"}, "mesh": {"N_list": [8, 16, 32], "N": "x"}}, "mesh.N"),
            ({"study": {"name": "linear_fixed_t"}, "mode": {"kind": "nope"}}, "mode.kind"),
            ({"study": {"name": "case_ii"}, "outputs": {"result_json": "r.json"}},
             "outputs.result_json"),
            ({"study": {"name": "custom"}, "problem": {"start_csv": "p.csv"}}, "problem.start_csv"),
        ],
        ids=["case_i_T_fixed", "case_i_oracle", "case_i_mesh_N", "linear_default_mode",
             "case_ii_result_json", "custom_start_csv"],
    )
    def test_unread_key_rejected(self, tmp_path, capsys, body, key):
        payload = {"mesh": {"N_list": [8, 16, 32]}, "outputs": {"summary_json": "s.json"}}
        for section, keys in body.items():
            payload[section] = {**payload.get(section, {}), **keys}
        cfg = write_config(tmp_path, payload)
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "s.json").exists()

    def test_single_resolution_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "case_i"},
                "mesh": {"N_list": [64]},
                "outputs": {"summary_json": "s.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "mesh.N_list" in capsys.readouterr().err

    def test_linear_default_benchmark(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "linear_fixed_t"},
                "mesh": {"N_list": [8, 16, 32, 64]},
                "outputs": {"study_csv": "lin.csv", "summary_json": "lin.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "lin.json").read_text())
        assert summary["assertions"]["h1_rate_window"] is True

    def test_boundary_layer_fails_rate_assertion(self, tmp_path):
        # overlarge horizon on a uniform mesh: the path error order degrades,
        # tripping the built-in rate window and exiting 3
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "linear_fixed_t"},
                "problem": {"field": {"type": "linear", "matrix": [[-1.0]]}, "x1": [0.0], "x2": [1.0]},
                "mode": {"kind": "fixed_t", "T": 50.0},
                "mesh": {"N_list": [8, 16, 32]},
                "outputs": {"summary_json": "bl.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_ASSERTION
        summary = json.loads((tmp_path / "bl.json").read_text())
        assert summary["assertions"]["h1_rate_window"] is False
        assert summary["rates"]["h1"]["slope"] > -0.8

    def test_study_csv_identical_across_processes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "case_i"},
                "mesh": {"N_list": [8, 16, 32]},
                "quadrature": {"points_per_element": 2},
                "outputs": {"study_csv": "det.csv", "summary_json": "det.json"},
            },
        )
        env = child_env()
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "minaction.cli", "study", "--config", cfg,
                 "--out-dir", str(out)],
                capture_output=True,
                env=env,
            )
            # coarse 3-level sweep may legitimately trip the rate windows
            assert proc.returncode in (EXIT_OK, EXIT_ASSERTION), proc.stderr
            outputs.append((out / "det.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_custom_study(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "custom"},
                "problem": {"field": {"type": "maier_stein"}, "x1": [-1.0, 0.0], "x2": [0.0, 0.0]},
                "mode": {"kind": "fixed_t", "T": 2.0},
                "mesh": {"N_list": [8, 16]},
                "outputs": {"study_csv": "custom.csv", "summary_json": "custom.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        summary = json.loads((tmp_path / "custom.json").read_text())
        assert summary["assertions"]["monotone_minima"] is True

    def test_degenerate_custom_study_is_solver_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "study": {"name": "custom"},
                "problem": {"field": {"type": "two_scale"}, "x1": [0.5, 0.5], "x2": [0.5, 0.5]},
                "mode": {"kind": "tmam"},
                "mesh": {"N_list": [4, 8]},
                "outputs": {"study_csv": "custom.csv", "summary_json": "custom.json"},
            },
        )
        rc = main(["study", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_SOLVER
        summary = json.loads((tmp_path / "custom.json").read_text())
        assert summary["error"] == "DegeneratePath"
        assert summary["message"].startswith("sweep failed at N=4: ")
        assert summary["study"] == "custom"
        assert not (tmp_path / "custom.csv").exists()


class TestOracle:
    def test_unread_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
                "oracle": {"kind": "trajectory"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: problem.x2 is not read by the trajectory oracle"
        )

    def test_trajectory_first_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]},
                "oracle": {"kind": "trajectory", "t_end": 1.0, "samples": 8},
                "outputs": {"trajectory_csv": "traj.csv"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "s,x1,x2"
        first = [float(c) for c in lines[1].split(",")]
        assert first == [0.0, 1.0, 1.0]

    def test_trajectory_to_equilibrium_ends_at_inf(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]},
                "oracle": {"kind": "trajectory", "t_end": "inf", "samples": 8},
                "outputs": {"trajectory_csv": "traj.csv"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "s,x1,x2"
        assert lines[-1] == "inf,0.0,0.0"

    def test_exact_minimizer_midpoint(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {"field": {"type": "linear", "matrix": [[-1.0]]}, "x1": [0.0], "x2": [1.0]},
                "mode": {"kind": "fixed_t", "T": 1.0},
                "mesh": {"N": 2},
                "oracle": {"kind": "exact_minimizer"},
                "outputs": {"minimizer_csv": "exact.csv"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "exact.csv").read_text().splitlines()
        mid = [float(c) for c in lines[2].split(",")]
        assert mid[0] == 0.5
        assert mid[1] == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-12)
        assert mid[1] == pytest.approx(0.4434094, abs=5e-8)

    def test_zero_matrix_straight_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "field": {"type": "linear", "matrix": [[0.0, 0.0], [0.0, 0.0]]},
                    "x1": [0.0, 0.0],
                    "x2": [1.0, 2.0],
                },
                "mode": {"kind": "fixed_t", "T": 1.0},
                "mesh": {"N": 4},
                "oracle": {"kind": "exact_minimizer"},
                "outputs": {"minimizer_csv": "line.csv"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        rows = [
            [float(c) for c in line.split(",")]
            for line in (tmp_path / "line.csv").read_text().splitlines()[1:]
        ]
        arr = np.asarray(rows)
        np.testing.assert_allclose(arr[:, 1], arr[:, 0], atol=1e-14)
        np.testing.assert_allclose(arr[:, 2], 2.0 * arr[:, 0], atol=1e-14)

    def test_nonsymmetric_matrix_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "problem": {
                    "field": {"type": "linear", "matrix": [[0.0, 1.0], [0.0, 0.0]]},
                    "x1": [1.0, 0.0],
                },
                "oracle": {"kind": "trajectory", "t_end": 1.0, "samples": 4},
                "outputs": {"trajectory_csv": "t.csv"},
            },
        )
        rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,payload,key",
    [
        (
            "solve",
            solve_config(
                problem={"field": {"type": "maier_stein", "gamma": math.inf},
                         "x1": [-1.0, 0.0], "x2": [0.0, 0.0]}
            ),
            "problem.field",
        ),
        (
            "study",
            {
                "study": {"name": "custom"},
                "problem": {"field": {"type": "maier_stein"}, "x1": [-1.0, 0.0, 0.0],
                            "x2": [0.0, 0.0, 0.0]},
                "mode": {"kind": "tmam"},
                "mesh": {"N_list": [8, 16]},
            },
            "problem.x1",
        ),
        (
            "oracle",
            {
                "problem": {"field": {"type": "linear", "matrix": [[-1.0, 0.0], [0.0, -2.0]]},
                            "x1": [1.0, 1.0, 1.0]},
                "oracle": {"kind": "trajectory", "t_end": 1.0, "samples": 4},
            },
            "problem.x1",
        ),
        (
            "oracle",
            {
                "problem": {"field": {"type": "linear", "matrix": [[1.0]]}, "x1": [1.0]},
                "oracle": {"kind": "trajectory", "t_end": "inf", "samples": 4},
            },
            "problem.field",
        ),
        (
            "oracle",
            {
                "problem": {"field": {"type": "linear", "matrix": [[1.0]]}, "x1": [1.0]},
                "oracle": {"kind": "trajectory", "t_end": 1000, "samples": 4},
            },
            "problem.field",
        ),
        (
            "study",
            {
                "study": {"name": "custom"},
                "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
                "mode": {"kind": "tmam"},
                "mesh": {"N_list": [8, 12]},
            },
            "mesh.N_list",
        ),
        (
            "study",
            {
                "study": {"name": "linear_fixed_t"},
                "problem": {"field": {"type": "linear", "matrix": [[-1.0, 1.0], [0.0, -2.0]]},
                            "x1": [1.0, 0.0], "x2": [0.0, 1.0]},
                "mode": {"kind": "fixed_t", "T": 1.0},
                "mesh": {"N_list": [4, 8]},
            },
            "problem.field",
        ),
        (
            "solve",
            solve_config(
                problem={"field": {"type": "two_scale"}, "x1": ["1", True], "x2": [0.0, 0.0]},
                mode={"kind": "fixed_t", "T": 2.0},
            ),
            "config error: problem.x1 must be a list of numbers",
        ),
        (
            "solve",
            solve_config(
                problem={"field": {"type": "linear", "matrix": [[True, 0], [0, "-2"]]},
                         "x1": [1.0, 0.0], "x2": [0.0, 0.0]},
                mode={"kind": "fixed_t", "T": 2.0},
            ),
            "config error: problem.field: linear field matrix must be a list of rows of numbers",
        ),
        (
            "study",
            {
                "study": {"name": "custom"},
                "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": [False, 0.0]},
                "mode": {"kind": "tmam"},
                "mesh": {"N_list": [8, 16]},
            },
            "config error: problem.x2 must be a list of numbers",
        ),
        (
            "oracle",
            {
                "problem": {"field": {"type": "two_scale"}, "x1": ["1.0", "1.0"]},
                "oracle": {"kind": "trajectory", "t_end": 1.0, "samples": 4},
            },
            "config error: problem.x1 must be a list of numbers",
        ),
    ],
    ids=[
        "maier_stein_nonfinite_gamma",
        "custom_endpoint_dimension",
        "oracle_endpoint_dimension",
        "oracle_unstable_infinite",
        "oracle_finite_overflow",
        "custom_unnested_n_list",
        "linear_fixed_t_nonsymmetric",
        "solve_string_and_bool_endpoint",
        "solve_string_and_bool_matrix",
        "custom_bool_endpoint",
        "oracle_string_endpoint",
    ],
)
def test_bad_endpoint_or_field_names_key(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, payload)
    rc = main([command, "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err


# a JSON integer of 401 digits: a number, but past the float range
BEYOND_FLOAT = 10**400


@pytest.mark.parametrize(
    "updates,message",
    [
        ({"mode": {"kind": "fixed_t", "T": BEYOND_FLOAT}}, "mode.T must be a finite positive number"),
        (
            {"problem": {"field": {"type": "two_scale"}, "x1": [BEYOND_FLOAT, 1.0],
                         "x2": [0.0, 0.0]}},
            "problem.x1 must be a finite vector",
        ),
        (
            {"problem": {"field": {"type": "linear", "matrix": [[-BEYOND_FLOAT, 0], [0, -2]]},
                         "x1": [1.0, 1.0], "x2": [0.0, 0.0]}},
            "problem.field: drift matrix must be finite",
        ),
        (
            {"problem": {"field": {"type": "maier_stein", "gamma": BEYOND_FLOAT},
                         "x1": [-1.0, 0.0], "x2": [0.0, 0.0]}},
            "problem.field: gamma must be finite",
        ),
        ({"optimizer": {"tol_grad": BEYOND_FLOAT}}, "optimizer.tol_grad must be a finite positive number"),
    ],
    ids=["mode_T", "endpoint_entry", "matrix_entry", "maier_stein_gamma", "optimizer_tol_grad"],
)
def test_integer_beyond_float_range_is_config_error(tmp_path, capsys, updates, message):
    cfg = write_config(tmp_path, solve_config(**updates))
    assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


GIVEN_PROBLEM = {"field": {"type": "two_scale"}, "x1": [1.0, 1.0], "x2": [0.0, 0.0]}


@pytest.mark.parametrize(
    "command,updates,message",
    [
        ("study", {"mode": {"kind": "fixed_t", "T": 5e-324}},
         "T = 5e-324 is out of range for a finite exact action"),
        ("study", {"problem": {**GIVEN_PROBLEM, "x1": [1e308, 1e308]}},
         "x1 is too large for a finite exact action"),
        ("study", {"problem": {**GIVEN_PROBLEM, "x2": [1e308, 1e308]}},
         "x2 is too large for a finite exact action"),
        ("oracle", {"mode": {"kind": "fixed_t", "T": 1e308}},
         "T = 1e+308 is out of range for a finite exact minimizer"),
    ],
    ids=["study_tiny_T", "study_huge_x1", "study_huge_x2", "oracle_huge_T"],
)
def test_closed_form_out_of_range_is_config_error(tmp_path, capsys, command, updates, message):
    # these warned from numpy and then exited 2 ("preconditioner is not
    # finite") or 1 with "path values must be finite", which names no key
    base = {"study": {"name": "linear_fixed_t"}, "mesh": {"N_list": [4, 8]}}
    if command == "oracle":
        base = {"oracle": {"kind": "exact_minimizer"}, "mesh": {"N": 4}}
    cfg = write_config(tmp_path, {**base, "problem": GIVEN_PROBLEM,
                                  "mode": {"kind": "fixed_t", "T": 2.0}, **updates})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_mesh_size_past_numpys_array_limit_names_the_key(tmp_path, capsys, monkeypatch):
    # N + 1 nodes past numpy's array size limit; only 10**400 is tried, a size
    # numpy rejects before it allocates anything
    solves = []
    monkeypatch.setattr(minaction.optimize, "minimize_tmam", lambda *args: solves.append(args))
    out = tmp_path / "out"
    study = write_config(tmp_path, {
        "study": {"name": "case_i"},
        "mesh": {"N_list": [8, 16, BEYOND_FLOAT]},
        "outputs": {"study_csv": "s/s.csv", "summary_json": "s/s.json"},
    }, name="study.json")
    solve = write_config(tmp_path, solve_config(mesh={"N": BEYOND_FLOAT}), name="solve.json")
    oracle = write_config(tmp_path, {
        "oracle": {"kind": "exact_minimizer"},
        "problem": {"field": {"type": "linear", "matrix": [[-1.0]]}, "x1": [0.0], "x2": [1.0]},
        "mode": {"kind": "fixed_t", "T": 1.0},
        "mesh": {"N": BEYOND_FLOAT},
    }, name="oracle.json")
    for command, config, key in (("study", study, "mesh.N_list: N_list entry"),
                                 ("solve", solve, "mesh.N"), ("oracle", oracle, "mesh.N")):
        assert main([command, "--config", config, "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} is too large for a node array: "), err
    assert solves == []
    assert not out.exists()


INTP_MAX = int(np.iinfo(np.intp).max)


@pytest.mark.parametrize(
    "command,key,low,high",
    [("solve", "optimizer.memory", 0, INTP_MAX),
     ("solve", "quadrature.points_per_element", 1, MAX_POINTS_PER_ELEMENT),
     ("oracle", "oracle.samples", 2, INTP_MAX)],
    ids=["memory", "points_per_element", "samples"],
)
def test_integer_past_index_range_names_the_key(tmp_path, capsys, command, key, low, high):
    out = tmp_path / "out"
    payload = solve_config() if command == "solve" else {
        "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]},
        "oracle": {"kind": "trajectory", "t_end": "inf"},
        "outputs": {"trajectory_csv": "trajectory.csv"},
    }
    cfg = write_config(tmp_path, payload)
    argv = [command, "--config", cfg, "--set", f"{key}={BEYOND_FLOAT}", "--out-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} must be an integer from {low} to {high}\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 745. GiB"),
                                   IndexError("index -1 is out of bounds")],
                         ids=["memory", "index"])
def test_node_array_numpy_cannot_make_names_the_key(tmp_path, capsys, monkeypatch, error):
    # numpy's own failures for a node count it cannot hold, raised here by a
    # stand-in so that nothing is allocated
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(np, "linspace", fail)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, solve_config(mesh={"N": 100_000_000_000}))
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: mesh.N is too large for a node array: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 16.0 EiB"),
     ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum "
                "possible size.")],
    ids=["memory", "too_big"],
)
def test_sample_count_numpy_cannot_size_names_the_key(tmp_path, capsys, monkeypatch, error):
    # numpy's own failures for a sample count it cannot hold, raised here by
    # a stand-in so that nothing is allocated; the field is not at fault
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(np, "geomspace", fail)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]},
        "oracle": {"kind": "trajectory", "t_end": "inf", "samples": 2305843009213693952},
        "outputs": {"trajectory_csv": "trajectory.csv"},
    })
    assert main(["oracle", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: oracle.samples is too large for a time array: {error}\n"
    )
    assert not out.exists()


def test_horizon_too_small_to_log_space_names_t_end(tmp_path, capsys):
    # t_end * 1e-4 underflows to 0, so no log-spaced times exist; the field
    # is not at fault
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]},
        "oracle": {"kind": "trajectory", "t_end": 5e-324, "samples": 5},
        "outputs": {"trajectory_csv": "trajectory.csv"},
    })
    assert main(["oracle", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: oracle.t_end = 5e-324 is too small for log-spaced samples\n"
    )
    assert not out.exists()


def test_case_ii_study_outputs_are_pinned(tmp_path, monkeypatch):
    # the oracle (10x flow samples, Frechet distance) and solver bits of the
    # infinite-horizon study; the relative out dir keeps summary.json's
    # study_csv_fixed entry the same in every run.  Re-recorded when the action
    # moved to node-last planes, which moves last bits; before, the digests
    # were study.csv 0bdd15fadf69066d16be5fdc75f88c798f9c93f565170635df64dccb73f0bb73,
    # study_fixed.csv ec2c03d6b31e1250c0a318239418e7c9a50180cc22de4398c8e49f985809b6f2
    # and summary.json 9aec048ddd2d2e311557c20fb8c58125c1f26618b6d78c40d8a105dba24e028c.
    # Re-recorded again when linear fields got their exact Hessian as the
    # preconditioner, which moves last bits and the iteration counts; with
    # the scalar-rate preconditioner the digests were study.csv
    # 1f25b225e6e31b2ecacfec594a11d99fe476007f66cf6358f9485a3b727b9521,
    # study_fixed.csv 7e50ce37b56a3d5dc652e12462d7914f3d0a2e1e8aeb94dd077c61543b3470d3
    # and summary.json 812b39c9863dfb2d76378b0ce1d28264b391bd338b5d4c897c64e5e8fb2fe140.
    # Re-recorded again when the Hessian band of a linear field took the
    # scalar-rate band's stiffness and reaction expressions, which moves last
    # bits but no iteration count; before, the digests were study.csv
    # 8a500518227c39f1b441cf0c718e0aada4fc0e69280e1ccd8254470a75a9870c
    # and summary.json e2d70b27db885e0db78362acc6d3a29358690d582bfe44a9c1a7f66f1cb08abf
    # (study_fixed.csv did not move).
    # Re-recorded again when reduced solves of linear fields became Newton
    # solves, which moves last bits and the iteration counts (21, 11 and 12
    # to 7, 5 and 6); before, the digests were study.csv
    # f2d55f0a5db21c274bfe9d2c02497d29e4e1e0aba6737498240e7f4843557fba
    # and summary.json 20b77f635fe92b9ad769bbd34f3b84bb05b4a215df4ffaeb2849a5ff6ded4779
    # (study_fixed.csv did not move).
    # Re-recorded again when the reduced value became the fixed-T value at
    # t_hat, a sum of squares in place of |p'| |b(p)| - <p', b(p)>, which moves
    # the last bits of the values and of the fit on them, but no path, t_hat or
    # iteration count; before, the digests were study.csv
    # 4cdd50b87e17bb05434bfe206a1de936568521ccef335d0e34120d09d86acf1d
    # and summary.json 9a3c892a30dff9e25d381995eb1d671f3a545add224bbdec938b2173657b5f0e
    # (study_fixed.csv did not move).
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {
        "study": {"name": "case_ii"},
        "mesh": {"N_list": [16, 32, 64]},
        "outputs": {"study_csv": "study.csv", "summary_json": "summary.json"},
    })
    assert main(["study", "--config", cfg, "--out-dir", "out"]) == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "out").iterdir()}
    assert digests == {
        "study.csv": "5911b1cea60bc07070152adf21a5b6421303cca2211d86b44efa31760b845808",
        "study_fixed.csv": "dbd55efe86b9a2d4efdfc2e175430f8d7084f312505402d34a9840e255b4d1b0",
        "summary.json": "512351a3513c7a7f71bdfef74abf59caac39f132d75277d59c7b18c34794c908",
    }


def test_rejected_configs_create_no_directories(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    study = write_config(tmp_path, {
        "study": {"name": "case_i"},
        "mesh": {"N_list": [8, 12, 16]},
        "outputs": {"study_csv": "deep/a/s.csv", "summary_json": "deep/b/s.json"},
    }, name="study.json")
    problem = solve_config()["problem"] | {"start_csv": str(tmp_path / "missing.csv")}
    solve = write_config(tmp_path, solve_config(
        problem=problem, outputs={"result_json": "r.json", "iteration_log": "logs/iters.csv"},
    ), name="solve.json")
    assert main(["study", "--config", study, "--out-dir", str(out)]) == EXIT_CONFIG
    assert main(["solve", "--config", solve, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mesh.N_list" in err and "problem.start_csv" in err
    assert list(out.iterdir()) == []


def _blocked_output(out, kind, name):
    """An output path under ``out`` that cannot be written; ``kind`` says what is in the way."""
    if kind == "file":  # a regular file where the output's directory should be
        (out / "blocker").write_text("")
        return f"blocker/{name}"
    (out / name).mkdir()  # a directory at the output's own path
    return name


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the output paths were checked")


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_unwritable_solve_output_is_config_error_before_the_solve(
    tmp_path, monkeypatch, capsys, kind
):
    monkeypatch.setattr(cli, "minimize_tmam", _no_solve)
    out = tmp_path / "out"
    out.mkdir()
    outputs = {"result_json": _blocked_output(out, kind, "r.json"), "path_csv": "p.csv"}
    cfg = write_config(tmp_path, solve_config(outputs=outputs))
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: outputs.result_json")
    assert not (out / "p.csv").exists()


def test_blocked_later_output_leaves_no_directory_of_an_earlier_one(tmp_path, monkeypatch, capsys):
    # iteration_log's directory comes first; result_json's cannot be made, so none is
    monkeypatch.setattr(cli, "minimize_tmam", _no_solve)
    out = tmp_path / "out"
    out.mkdir()
    blocked = _blocked_output(out, "file", "r.json")
    outputs = {"iteration_log": "logs/i.csv", "result_json": blocked}
    cfg = write_config(tmp_path, solve_config(outputs=outputs))
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: outputs.result_json")
    assert not (out / "logs").exists()


@pytest.mark.parametrize("kind", ["file", "directory"])
@pytest.mark.parametrize(
    "name,runner,key,blocked",
    [
        ("case_i", "run_case_i", "summary_json", "s.json"),
        # case_ii also writes its fixed-horizon table, at study_csv's stem plus _fixed
        ("case_ii", "run_case_ii_full", "study_csv", "s_fixed.csv"),
    ],
)
def test_unwritable_study_output_is_config_error_before_the_solve(
    tmp_path, monkeypatch, capsys, kind, name, runner, key, blocked
):
    monkeypatch.setattr(cli, runner, _no_solve)
    out = tmp_path / "out"
    out.mkdir()
    target = _blocked_output(out, kind, blocked).replace("_fixed", "")
    cfg = write_config(tmp_path, {
        "study": {"name": name},
        "mesh": {"N_list": [8, 16, 32]},
        "outputs": {key: target},
    })
    assert main(["study", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: outputs.{key}")


@pytest.mark.parametrize("kind", ["file", "directory"])
@pytest.mark.parametrize("oracle", ["trajectory", "exact_minimizer"])
def test_unwritable_oracle_output_is_config_error(tmp_path, capsys, kind, oracle):
    out = tmp_path / "out"
    out.mkdir()
    key = "trajectory_csv" if oracle == "trajectory" else "minimizer_csv"
    problem = {"field": {"type": "two_scale"}, "x1": [1.0, 1.0]}
    cfg = {"problem": problem, "oracle": {"kind": oracle}}
    if oracle == "exact_minimizer":
        problem["x2"] = [0.0, 0.0]
        cfg |= {"mode": {"kind": "fixed_t", "T": 2.0}, "mesh": {"N": 8}}
    cfg["outputs"] = {key: _blocked_output(out, kind, "o.csv")}
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out-dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: outputs.{key}")


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "minaction", "study", "--config", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: cannot read config file")


@pytest.mark.parametrize(
    "text,overrides,message",
    [
        (None, [], "cannot read config file"),
        ("{", [], "config is not valid JSON"),
        ("[1]", [], "config root must be a JSON object"),
        (json.dumps(solve_config()), ["mesh.N"], "--set expects key=value"),
        (json.dumps(solve_config()), ["mesh.N.x=1"], "--set cannot descend into non-object key"),
    ],
    ids=["missing_file", "invalid_json", "non_object_root", "set_without_equals",
         "set_into_non_object"],
)
def test_unloadable_config_is_config_error(tmp_path, capsys, text, overrides, message):
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    argv = ["solve", "--config", str(cfg), "--out-dir", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
