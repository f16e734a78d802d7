"""Command-line front end: solve, study, and oracle subcommands.

One JSON config file captures an entire run; ``--set key=value`` overrides
scalar keys by dotted path and ``--out-dir`` prefixes relative output paths.
Exit codes are a stable contract:

    0  success
    1  config or input error
    2  solver non-convergence or a typed numeric error
    3  a built-in study assertion failed
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .action import ActionError, Quadrature
from .drift import field_from_config
from .linoracle import (
    SpectralLinearProblem,
    exact_fixed_T_minimizer,
    trajectory_times_points,
)
from .optimize import OptimConfig, _nested_levels, continuation_sweep, minimize_fixed_T, minimize_tmam
from .pathcore import (
    FePath,
    _write_samples_csv,
    linear_interpolant_path,
    read_path_csv,
    uniform_mesh,
    write_path_csv,
)
from .study import (
    _record_from_result,
    _try_fit,
    case_i_assertions,
    case_ii_assertions,
    linear_fixed_t_assertions,
    run_case_i,
    run_case_ii_full,
    run_linear_fixed_T_study,
    values_nonincreasing,
    write_study_csv,
)

__all__ = ["main", "cmd_solve", "cmd_study", "cmd_oracle", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ASSERTION = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "": {"problem", "mode", "mesh", "optimizer", "quadrature", "study", "oracle", "outputs"},
    "problem": {"field", "x1", "x2", "start_csv"},
    "problem.field": {"type", "matrix", "gamma"},
    "mode": {"kind", "T"},
    "mesh": {"N", "N_list"},
    "optimizer": {"tol_grad", "max_iters", "memory", "sobolev_precondition", "t_cap"},
    "quadrature": {"points_per_element"},
    "study": {"name", "T_fixed"},
    "oracle": {"kind", "t_end", "samples"},
    "outputs": {
        "result_json",
        "path_csv",
        "study_csv",
        "summary_json",
        "iteration_log",
        "trajectory_csv",
        "minimizer_csv",
    },
}


def _reject_unknown_keys(cfg: dict, prefix: str = "") -> None:
    known = _KNOWN_KEYS.get(prefix)
    if known is None:
        return
    for key in cfg:
        path = f"{prefix}.{key}" if prefix else key
        if key not in known:
            raise ConfigError(f"unknown config key: {path}")
        if path in _KNOWN_KEYS:
            # sections with their own key schema must be objects
            if not isinstance(cfg[key], dict):
                raise ConfigError(f"{path} must be an object")
            _reject_unknown_keys(cfg[key], path)


def load_config(path: str, overrides) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set cannot descend into non-object key: {key}")
        node[parts[-1]] = value
    _reject_unknown_keys(cfg)
    return cfg


def _require(cfg: dict, key: str):
    node = cfg
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing config key: {key}")
        node = node[part]
    return node


def _positive_number(value, key: str) -> float:
    # JSON parsing accepts Infinity, so the upper bound is checked too
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < math.inf:
        raise ConfigError(f"{key} must be a finite positive number")
    return float(value)


def _positive_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key} must be a positive integer")
    return value


def _endpoint(cfg: dict, key: str, dim: int) -> np.ndarray:
    try:
        vec = np.asarray(_require(cfg, key), dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} must be a list of numbers") from err
    if vec.ndim != 1 or not np.all(np.isfinite(vec)):
        raise ConfigError(f"{key} must be a finite vector")
    if vec.size != dim:
        raise ConfigError(f"{key} must have {dim} entries to match the field dimension")
    return vec


def _build_field(cfg: dict, linear_for: Optional[str] = None):
    spec = _require(cfg, "problem.field")
    try:
        field = field_from_config(spec)
    except ValueError as err:
        raise ConfigError(f"problem.field: {err}") from err
    if linear_for is not None and field.linear_matrix is None:
        raise ConfigError(f"problem.field must be linear for {linear_for}")
    return field


def _linear_problem(cfg: dict, purpose: str) -> SpectralLinearProblem:
    """The checked fixed-horizon problem of a linear field, x1, x2 and mode.T."""
    field = _build_field(cfg, linear_for=purpose)
    x1 = _endpoint(cfg, "problem.x1", field.dim)
    x2 = _endpoint(cfg, "problem.x2", field.dim)
    kind, T = _mode_of(cfg)
    if kind != "fixed_t":
        raise ConfigError(f"mode.kind must be fixed_t for {purpose}")
    try:
        return SpectralLinearProblem(field.linear_matrix, x1, x2, T=T)
    except ValueError as err:
        raise ConfigError(f"problem.field: {err}") from err


def _build_optimizer(cfg: dict, iteration_log: Optional[str]) -> OptimConfig:
    opts = cfg.get("optimizer", {})
    kwargs = {}
    if "tol_grad" in opts:
        kwargs["tol_grad"] = _positive_number(opts["tol_grad"], "optimizer.tol_grad")
    if "max_iters" in opts:
        kwargs["max_iters"] = _positive_int(opts["max_iters"], "optimizer.max_iters")
    if "memory" in opts:
        memory = opts["memory"]
        if not isinstance(memory, int) or isinstance(memory, bool) or memory < 0:
            raise ConfigError("optimizer.memory must be a nonnegative integer")
        kwargs["memory"] = memory
    if "sobolev_precondition" in opts:
        if not isinstance(opts["sobolev_precondition"], bool):
            raise ConfigError("optimizer.sobolev_precondition must be a boolean")
        kwargs["sobolev_precondition"] = opts["sobolev_precondition"]
    if "t_cap" in opts and opts["t_cap"] is not None:
        kwargs["t_cap"] = _positive_number(opts["t_cap"], "optimizer.t_cap")
    return OptimConfig(log_path=iteration_log, **kwargs)


def _build_quadrature(cfg: dict) -> Quadrature:
    q = cfg.get("quadrature", {}).get("points_per_element", 3)
    return Quadrature(_positive_int(q, "quadrature.points_per_element"))


def _out_path(outputs: dict, key: str, out_dir: str) -> Optional[str]:
    path = outputs.get(key)
    if path is None:
        return None
    if not isinstance(path, str) or not path:
        raise ConfigError(f"outputs.{key} must be a file path")
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _dump_json(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _mode_of(cfg: dict):
    mode = _require(cfg, "mode")
    kind = mode.get("kind")
    if kind not in ("tmam", "fixed_t"):
        raise ConfigError("mode.kind must be 'tmam' or 'fixed_t'")
    if kind == "fixed_t":
        if "T" not in mode:
            raise ConfigError("missing config key: mode.T")
        return kind, _positive_number(mode["T"], "mode.T")
    return kind, None


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(config_path: str, overrides=None, out_dir: str = ".") -> int:
    cfg = load_config(config_path, overrides)
    field = _build_field(cfg)
    x1 = _endpoint(cfg, "problem.x1", field.dim)
    x2 = _endpoint(cfg, "problem.x2", field.dim)
    kind, T = _mode_of(cfg)
    num_elems = _positive_int(_require(cfg, "mesh.N"), "mesh.N")
    outputs = cfg.get("outputs", {})
    iteration_log = _out_path(outputs, "iteration_log", out_dir)
    opt_cfg = _build_optimizer(cfg, iteration_log)
    quad = _build_quadrature(cfg)

    start_csv = cfg.get("problem", {}).get("start_csv")
    if start_csv is not None:
        try:
            start = read_path_csv(start_csv)
        except (OSError, ValueError) as err:
            raise ConfigError(f"problem.start_csv: {err}") from err
        if start.mesh.num_elements != num_elems:
            raise ConfigError("problem.start_csv mesh does not match mesh.N")
        if start.dim != field.dim:
            raise ConfigError("problem.start_csv dimension does not match the field")
        if not (np.allclose(start.left, x1, atol=1e-12) and np.allclose(start.right, x2, atol=1e-12)):
            raise ConfigError("problem.start_csv endpoints do not match problem.x1/x2")
    else:
        start = linear_interpolant_path(x1, x2, uniform_mesh(num_elems))

    result_json = _out_path(outputs, "result_json", out_dir)
    path_csv = _out_path(outputs, "path_csv", out_dir)

    try:
        if kind == "tmam":
            result = minimize_tmam(start, field, opt_cfg, quad)
        else:
            result = minimize_fixed_T(start, field, T, opt_cfg, quad)
    except ActionError as err:
        _dump_json({"error": err.code, "message": str(err)}, result_json)
        return EXIT_SOLVER

    payload = {
        "value": result.value,
        "t_hat": result.t_hat,
        "grad_norm": result.grad_norm,
        "converged": result.converged,
        "el_residual": result.el_residual,
        "hamiltonian_violation": result.hamiltonian_violation,
        "iterations": result.iterations,
        "cap_active": result.cap_active,
    }
    _dump_json(payload, result_json)
    if path_csv is not None:
        write_path_csv(result.path, path_csv)
    return EXIT_OK if result.converged else EXIT_SOLVER


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def _rate_payload(rate) -> Optional[dict]:
    if rate is None:
        return None
    return {"slope": rate.slope, "intercept": rate.intercept, "r_squared": rate.r_squared}


def _n_list(cfg: dict, minimum: int) -> list:
    n_list = _require(cfg, "mesh.N_list")
    if not isinstance(n_list, list) or len(n_list) < minimum:
        raise ConfigError(f"mesh.N_list must be a list of at least {minimum} resolutions")
    levels = [_positive_int(n, "mesh.N_list") for n in n_list]
    try:
        return _nested_levels(levels)
    except ValueError as err:
        raise ConfigError(f"mesh.N_list: {err}") from err


def cmd_study(config_path: str, overrides=None, out_dir: str = ".") -> int:
    cfg = load_config(config_path, overrides)
    name = _require(cfg, "study.name")
    if name not in ("case_i", "case_ii", "linear_fixed_t", "custom"):
        raise ConfigError("study.name must be one of case_i, case_ii, linear_fixed_t, custom")
    outputs = cfg.get("outputs", {})
    opt_cfg = _build_optimizer(cfg, None)
    quad = _build_quadrature(cfg)
    study_csv = _out_path(outputs, "study_csv", out_dir)
    summary_json = _out_path(outputs, "summary_json", out_dir)

    rates: dict = {}
    assertions: dict = {}
    extra: dict = {}

    try:
        if name == "case_i":
            n_list = _n_list(cfg, 3)
            records, rate_a, rate_t = run_case_i(n_list, opt_cfg, quad)
            rates = {"action": _rate_payload(rate_a), "T": _rate_payload(rate_t)}
            assertions = case_i_assertions(records, rate_a, rate_t)
        elif name == "case_ii":
            n_list = _n_list(cfg, 3)
            t_fixed = _positive_number(cfg.get("study", {}).get("T_fixed", 100.0), "study.T_fixed")
            data = run_case_ii_full(n_list, t_fixed, opt_cfg, quad)
            records = data.records_tmam
            rates = {"action_tmam": _rate_payload(data.rate_tmam)}
            assertions = case_ii_assertions(data)
            extra["tmam_over_fixed_at_max_N"] = (
                data.records_tmam[-1].action / data.records_fixed[-1].action
            )
            if study_csv is not None:
                stem, ext = os.path.splitext(study_csv)
                fixed_csv = stem + "_fixed" + (ext or ".csv")
                write_study_csv(data.records_fixed, fixed_csv)
                extra["study_csv_fixed"] = fixed_csv
        elif name == "linear_fixed_t":
            n_list = _n_list(cfg, 2)
            if "problem" in cfg:
                prob = _linear_problem(cfg, "the linear_fixed_t study")
            else:
                prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
            records, rate_h1, rate_a = run_linear_fixed_T_study(
                prob.matrix, prob.x1, prob.x2, prob.T, n_list, opt_cfg, quad
            )
            rates = {"h1": _rate_payload(rate_h1), "action": _rate_payload(rate_a)}
            assertions = linear_fixed_t_assertions(records, rate_h1, rate_a)
        else:  # custom
            n_list = _n_list(cfg, 2)
            field = _build_field(cfg)
            x1 = _endpoint(cfg, "problem.x1", field.dim)
            x2 = _endpoint(cfg, "problem.x2", field.dim)
            kind, T = _mode_of(cfg)
            results = continuation_sweep(
                field, x1, x2, n_list, opt_cfg, quad, mode=kind, T=T
            )
            records = [_record_from_result(r, action_error=r.value) for r in results]
            rates = {"action": _rate_payload(_try_fit(records, "action_error"))}
            assertions = {"monotone_minima": values_nonincreasing(records)}
    except ActionError as err:
        _dump_json({"error": err.code, "message": str(err), "study": name}, summary_json)
        return EXIT_SOLVER
    except ValueError as err:
        raise ConfigError(str(err)) from err

    if study_csv is not None:
        write_study_csv(records, study_csv)
    passed = all(assertions.values())
    payload = {
        "study": name,
        "config": cfg,
        "rates": rates,
        "assertions": assertions,
        "passed": passed,
        **extra,
    }
    _dump_json(payload, summary_json)
    return EXIT_OK if passed else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(config_path: str, overrides=None, out_dir: str = ".") -> int:
    cfg = load_config(config_path, overrides)
    outputs = cfg.get("outputs", {})
    oracle = cfg.get("oracle", {})
    kind = oracle.get("kind", "trajectory")
    if kind not in ("trajectory", "exact_minimizer"):
        raise ConfigError("oracle.kind must be 'trajectory' or 'exact_minimizer'")

    if kind == "trajectory":
        field = _build_field(cfg, linear_for="the trajectory oracle")
        x1 = _endpoint(cfg, "problem.x1", field.dim)
        raw_t_end = oracle.get("t_end", "inf")
        if raw_t_end == "inf":
            t_end = math.inf
        else:
            t_end = _positive_number(raw_t_end, "oracle.t_end")
        samples = oracle.get("samples", 200)
        if not isinstance(samples, int) or samples < 2:
            raise ConfigError("oracle.samples must be an integer >= 2")
        try:
            times, points = trajectory_times_points(field.linear_matrix, x1, t_end, samples)
        except ValueError as err:
            raise ConfigError(f"problem.field: {err}") from err
        target = _out_path(outputs, "trajectory_csv", out_dir)
        _write_samples_csv(times, points, sys.stdout if target is None else target)
        return EXIT_OK

    prob = _linear_problem(cfg, "the exact minimizer oracle")
    mesh = uniform_mesh(_positive_int(_require(cfg, "mesh.N"), "mesh.N"))
    path = FePath(mesh, exact_fixed_T_minimizer(prob, mesh.nodes))
    target = _out_path(outputs, "minimizer_csv", out_dir)
    write_path_csv(path, sys.stdout if target is None else target)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minaction",
        description="Minimum action paths and quasi-potentials for small-noise ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "minimize one action functional and emit result JSON / path CSV"),
        ("study", "run a named convergence study and emit study CSV / summary JSON"),
        ("oracle", "emit closed-form trajectory / exact-minimizer CSVs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key by dotted path (repeatable)")
        p.add_argument("--out-dir", default=".", help="directory for relative output paths")
    args = parser.parse_args(argv)
    handler = {"solve": cmd_solve, "study": cmd_study, "oracle": cmd_oracle}[args.command]
    try:
        return handler(args.config, args.set, args.out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
