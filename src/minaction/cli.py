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
import dataclasses
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
    _SamplingError,
    exact_fixed_T_minimizer,
    trajectory_times_points,
)
from .optimize import (_LOG_HEADER, OptimConfig, _nested_meshes, continuation_sweep,
                       minimize_fixed_T, minimize_tmam)
from .pathcore import (
    FePath,
    _count_at_least,
    _finite_float,
    _finite_positive,
    _int_at_least,
    _is_real,
    _opened,
    _uniform_mesh,
    _write_samples_csv,
    _write_table,
    linear_interpolant_path,
    read_path_csv,
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

_SOLVER_KEYS = {
    # forwarded whole to the constructors, which check the values
    *(f"optimizer.{f.name}" for f in dataclasses.fields(OptimConfig)),
    *(f"quadrature.{f.name}" for f in dataclasses.fields(Quadrature)),
}
_PROBLEM_KEYS = {"problem.field", "problem.x1", "problem.x2", "mode.kind", "mode.T"}
_STUDY_KEYS = {"study.name", "mesh.N_list", "outputs.study_csv", "outputs.summary_json"} | _SOLVER_KEYS

# The config keys each command reads, per study and oracle kind.  A key that
# no entry reads is unknown; one that only other entries read is rejected too.
_READS = {
    "solve command": _PROBLEM_KEYS | _SOLVER_KEYS | {
        "problem.start_csv", "mesh.N", "outputs.result_json", "outputs.path_csv",
        "outputs.iteration_log",
    },
    "case_i study": _STUDY_KEYS,
    "case_ii study": _STUDY_KEYS | {"study.T_fixed"},
    # without a problem section the study solves its built-in scalar problem
    "linear_fixed_t study": _STUDY_KEYS,
    "linear_fixed_t study of a given problem": _STUDY_KEYS | _PROBLEM_KEYS,
    "custom study": _STUDY_KEYS | _PROBLEM_KEYS,
    "trajectory oracle": {
        "problem.field", "problem.x1", "oracle.kind", "oracle.t_end", "oracle.samples",
        "outputs.trajectory_csv",
    },
    "exact_minimizer oracle": _PROBLEM_KEYS | {"mesh.N", "oracle.kind", "outputs.minimizer_csv"},
}
_ALL_KEYS = set().union(*_READS.values())
_SECTIONS = {key.split(".")[0] for key in _ALL_KEYS}


def _reject_unknown_keys(cfg: dict) -> None:
    for section, body in cfg.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config key: {section}")
        if not isinstance(body, dict):
            raise ConfigError(f"{section} must be an object")
        for key in body:
            if f"{section}.{key}" not in _ALL_KEYS:
                raise ConfigError(f"unknown config key: {section}.{key}")


def _reject_unread_keys(cfg: dict, reader: str) -> None:
    """Reject every config key that ``reader`` (a ``_READS`` entry) does not read."""
    reads = _READS[reader]
    for section, body in cfg.items():
        unread = [f"{section}.{key}" for key in body if f"{section}.{key}" not in reads]
        if not any(key.startswith(section + ".") for key in reads):
            got = f" (got {unread[0]})" if unread else ""
            raise ConfigError(f"{section} is not read by the {reader}{got}")
        if unread:
            raise ConfigError(f"{unread[0]} is not read by the {reader}")


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


def _endpoint(cfg: dict, key: str, dim: int) -> np.ndarray:
    raw = _require(cfg, key)
    if not isinstance(raw, list) or not all(map(_is_real, raw)):
        raise ConfigError(f"{key} must be a list of numbers")
    if any(_finite_float(v) is None for v in raw):
        raise ConfigError(f"{key} must be a finite vector")
    vec = np.array(raw, dtype=float)
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


def _problem(cfg: dict, linear_for: Optional[str] = None):
    """The checked ``(field, x1, x2, T)`` of the problem and mode sections.

    T is ``mode.T`` for ``kind: fixed_t`` and None for ``kind: tmam``.
    """
    field = _build_field(cfg, linear_for)
    x1 = _endpoint(cfg, "problem.x1", field.dim)
    x2 = _endpoint(cfg, "problem.x2", field.dim)
    mode = _require(cfg, "mode")
    kind = mode.get("kind")
    if kind not in ("tmam", "fixed_t"):
        raise ConfigError("mode.kind must be 'tmam' or 'fixed_t'")
    if kind == "fixed_t":
        return field, x1, x2, _finite_positive(_require(cfg, "mode.T"), "mode.T")
    if "T" in mode:
        raise ConfigError("mode.T is not read in tmam mode, which optimizes the horizon")
    return field, x1, x2, None


def _linear_problem(cfg: dict, purpose: str) -> SpectralLinearProblem:
    """The checked fixed-horizon problem of a linear field, x1, x2 and mode.T."""
    field, x1, x2, T = _problem(cfg, linear_for=purpose)
    if T is None:
        raise ConfigError(f"mode.kind must be fixed_t for {purpose}")
    try:
        return SpectralLinearProblem(field.linear_matrix, x1, x2, T=T)
    except ValueError as err:
        raise ConfigError(f"problem.field: {err}") from err


def _from_section(cls, cfg: dict, section: str):
    """``cls`` built from a whole config section; its argument errors name the key."""
    try:
        return cls(**cfg.get(section, {}))
    except ValueError as err:
        raise ConfigError(f"{section}.{err}") from err


def _out_path(outputs: dict, key: str, out_dir: str) -> Optional[str]:
    path = outputs.get(key)
    if path is None:
        return None
    if not isinstance(path, str) or not path:
        raise ConfigError(f"outputs.{key} must be a file path")
    return path if os.path.isabs(path) else os.path.join(out_dir, path)


def _make_dirs(*outputs: tuple[str, Optional[str]]) -> None:
    """Create the directories of the ``(key, path)`` outputs, once every config check has passed.

    A path that is a directory, or whose directory cannot be made, is a config error naming its key.
    Every path is checked before any directory is made: the nearest existing ancestor of each
    output's directory must be a directory, so a rejected config leaves no directory behind.
    """
    outputs = [(key, path) for key, path in outputs if path is not None]
    for key, path in outputs:
        if os.path.isdir(path):
            raise ConfigError(f"outputs.{key} is a directory: {path}")
        ancestor = os.path.dirname(path)
        while ancestor and not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if ancestor and not os.path.isdir(ancestor):
            raise ConfigError(
                f"outputs.{key}: cannot make its directory: {ancestor} is not a directory")
    for key, path in outputs:
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        except OSError as err:
            raise ConfigError(f"outputs.{key}: cannot make its directory: {err}") from err


def _dump_json(payload: dict, path: Optional[str]) -> None:
    with _opened(sys.stdout if path is None else path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(config_path: str, overrides=None, out_dir: str = ".") -> int:
    cfg = load_config(config_path, overrides)
    _reject_unread_keys(cfg, "solve command")
    field, x1, x2, T = _problem(cfg)
    num_elems = _int_at_least(_require(cfg, "mesh.N"), "mesh.N", 1)
    outputs = cfg.get("outputs", {})
    iteration_log = _out_path(outputs, "iteration_log", out_dir)
    result_json = _out_path(outputs, "result_json", out_dir)
    path_csv = _out_path(outputs, "path_csv", out_dir)
    opt_cfg = _from_section(OptimConfig, cfg, "optimizer")
    quad = _from_section(Quadrature, cfg, "quadrature")

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
        # absolute only: numpy's default rtol of 1e-5 would pass an endpoint of
        # another problem
        if not (np.allclose(start.left, x1, rtol=0.0, atol=1e-12)
                and np.allclose(start.right, x2, rtol=0.0, atol=1e-12)):
            raise ConfigError("problem.start_csv endpoints do not match problem.x1/x2")
    else:
        start = linear_interpolant_path(x1, x2, _uniform_mesh(num_elems, "mesh.N"))
    _make_dirs(("iteration_log", iteration_log), ("result_json", result_json),
               ("path_csv", path_csv))

    try:
        if T is None:
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
    }
    _dump_json(payload, result_json)
    if path_csv is not None:
        write_path_csv(result.path, path_csv)
    if iteration_log is not None:
        _write_table(iteration_log, _LOG_HEADER, result.log)
    return EXIT_OK if result.converged else EXIT_SOLVER


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def _rate_payload(rate) -> Optional[dict]:
    return None if rate is None else dataclasses.asdict(rate)


def _n_list(cfg: dict, minimum: int) -> list:
    n_list = _require(cfg, "mesh.N_list")
    if not isinstance(n_list, list) or len(n_list) < minimum:
        raise ConfigError(f"mesh.N_list must be a list of at least {minimum} resolutions")
    try:
        return [mesh.num_elements for mesh in _nested_meshes(n_list)]
    except ValueError as err:
        raise ConfigError(f"mesh.N_list: {err}") from err


def cmd_study(config_path: str, overrides=None, out_dir: str = ".") -> int:
    cfg = load_config(config_path, overrides)
    name = _require(cfg, "study.name")
    if name not in ("case_i", "case_ii", "linear_fixed_t", "custom"):
        raise ConfigError("study.name must be one of case_i, case_ii, linear_fixed_t, custom")
    given_problem = name == "linear_fixed_t" and "problem" in cfg
    _reject_unread_keys(cfg, f"{name} study" + (" of a given problem" if given_problem else ""))
    outputs = cfg.get("outputs", {})
    opt_cfg = _from_section(OptimConfig, cfg, "optimizer")
    quad = _from_section(Quadrature, cfg, "quadrature")
    study_csv = _out_path(outputs, "study_csv", out_dir)
    summary_json = _out_path(outputs, "summary_json", out_dir)
    fixed_csv = None
    if name == "case_ii" and study_csv is not None:
        stem, ext = os.path.splitext(study_csv)
        fixed_csv = stem + "_fixed" + (ext or ".csv")
    # the study's own checks, all before the first output directory is made
    n_list = _n_list(cfg, 3 if name in ("case_i", "case_ii") else 2)
    if name == "case_ii":
        t_fixed = _finite_positive(cfg.get("study", {}).get("T_fixed", 100.0), "study.T_fixed")
    elif given_problem:
        prob = _linear_problem(cfg, "the linear_fixed_t study")
    elif name == "linear_fixed_t":
        prob = SpectralLinearProblem([[-1.0]], [0.0], [1.0], T=1.0)
    elif name == "custom":
        field, x1, x2, T = _problem(cfg)
    _make_dirs(("study_csv", study_csv), ("study_csv", fixed_csv), ("summary_json", summary_json))

    rates: dict = {}
    assertions: dict = {}
    extra: dict = {}

    try:
        if name == "case_i":
            records, rate_a, rate_t = run_case_i(n_list, opt_cfg, quad)
            rates = {"action": _rate_payload(rate_a), "T": _rate_payload(rate_t)}
            assertions = case_i_assertions(records, rate_a, rate_t)
        elif name == "case_ii":
            data = run_case_ii_full(n_list, t_fixed, opt_cfg, quad)
            records = data.records_tmam
            rates = {"action_tmam": _rate_payload(data.rate_tmam)}
            assertions = case_ii_assertions(data)
            extra["tmam_over_fixed_at_max_N"] = (
                data.records_tmam[-1].action / data.records_fixed[-1].action
            )
            if fixed_csv is not None:
                write_study_csv(data.records_fixed, fixed_csv)
                extra["study_csv_fixed"] = fixed_csv
        elif name == "linear_fixed_t":
            records, rate_h1, rate_a = run_linear_fixed_T_study(
                prob.matrix, prob.x1, prob.x2, prob.T, n_list, opt_cfg, quad
            )
            rates = {"h1": _rate_payload(rate_h1), "action": _rate_payload(rate_a)}
            assertions = linear_fixed_t_assertions(records, rate_h1, rate_a)
        else:  # custom
            results = continuation_sweep(field, x1, x2, n_list, opt_cfg, quad, T=T)
            records = [_record_from_result(r, action_error=r.value) for r in results]
            rates = {"action": _rate_payload(_try_fit(records, "action_error"))}
            assertions = {"monotone_minima": values_nonincreasing(records)}
    except ActionError as err:
        _dump_json({"error": err.code, "message": str(err), "study": name}, summary_json)
        return EXIT_SOLVER

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
    _reject_unread_keys(cfg, f"{kind} oracle")

    if kind == "trajectory":
        field = _build_field(cfg, linear_for="the trajectory oracle")
        x1 = _endpoint(cfg, "problem.x1", field.dim)
        raw_t_end = oracle.get("t_end", "inf")
        if raw_t_end == "inf":
            t_end = math.inf
        else:
            t_end = _finite_positive(raw_t_end, "oracle.t_end")
        samples = _count_at_least(oracle.get("samples", 200), "oracle.samples", 2)
        try:
            times, points = trajectory_times_points(field.linear_matrix, x1, t_end, samples)
        except _SamplingError as err:
            raise ConfigError(f"oracle.{err}") from err
        except ValueError as err:
            raise ConfigError(f"problem.field: {err}") from err
        target = _out_path(outputs, "trajectory_csv", out_dir)
        _make_dirs(("trajectory_csv", target))
        _write_samples_csv(times, points, sys.stdout if target is None else target)
        return EXIT_OK

    prob = _linear_problem(cfg, "the exact minimizer oracle")
    mesh = _uniform_mesh(_require(cfg, "mesh.N"), "mesh.N")
    path = FePath(mesh, exact_fixed_T_minimizer(prob, mesh.nodes))
    target = _out_path(outputs, "minimizer_csv", out_dir)
    _make_dirs(("minimizer_csv", target))
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
    except ValueError as err:  # a ConfigError, or a library argument check
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
