import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minaction
from minaction.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
            ("optimizer.t_cap=Infinity", "optimizer.t_cap"),
            ("optimizer.memory=true", "optimizer.memory"),
        ],
    )
    def test_nonfinite_and_bool_values_rejected(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path, solve_config(mode={"kind": "fixed_t", "T": 1.0}))
        rc = main(["solve", "--config", cfg, "--set", override, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err


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
        # the child imports the same minaction tree as this process
        src_dir = os.path.dirname(os.path.dirname(minaction.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
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


class TestOracle:
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
    ],
    ids=[
        "maier_stein_nonfinite_gamma",
        "custom_endpoint_dimension",
        "oracle_endpoint_dimension",
        "oracle_unstable_infinite",
        "custom_unnested_n_list",
        "linear_fixed_t_nonsymmetric",
    ],
)
def test_bad_endpoint_or_field_names_key(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, payload)
    rc = main([command, "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err
