"""Bit-exact digest of the benchmark solves and ten CLI runs of one checkout.

Usage (from any directory):

    python3 tools/digest.py --checkout ../parent > parent.txt
    python3 tools/digest.py --checkout . > change.txt
    diff parent.txt change.txt

A checkout is a directory holding ``src/minaction`` and ``bench/workloads.py``;
both go first on the import path, so the run reads that checkout's sources.
Two checkouts print the same lines iff every solve returned the same bits and
every CLI run exited with the same code and wrote the same bytes.

Solves.  ``minimize_tmam`` and ``minimize_fixed_T`` are wrapped in
``minaction.optimize``, where the sweeps, the studies and the workloads look
them up, and each workload runs one pass (``--smoke``: the harness test's tiny
meshes).  Every solve prints the workload, its index in it, then each
``OptimResult`` field in order as ``name=value``: floats with ``float.hex``,
the path as ``path_sha256=`` of its little-endian float64 nodal values, the
iteration log as ``log_sha256=`` of its ``repr``, the rest with ``repr``.  A solve that raises prints ``error=<code>``.  Either
line ends with ``value_grad_calls=<n>``, the number of action evaluations
the solve made: its calls to ``minaction.optimize._staged``, counted where
the solvers look it up.  A solver makes every evaluation through that one
name, so equal lines also mean equal evaluation counts.  A checkout whose
``minaction.optimize`` has no ``_staged`` (one that evaluates through other
names) prints ``value_grad_calls=0`` on every solve line.

CLI runs (full size, also under ``--smoke``).  Each run writes its config into
a fresh temporary working directory and calls ``minaction.cli.main`` with
``--config config.json --out-dir out``, so no output echoes that directory.
It prints ``<run> exit=<code>``, then ``<run> <file> sha256=<hex>`` for every
file written under ``out``, in sorted order.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

TWO_SCALE = {"type": "two_scale"}
MAIER_STEIN_1 = {"type": "maier_stein", "gamma": 1.0}
STUDY_OUTPUTS = {"study_csv": "study.csv", "summary_json": "summary.json"}
SOLVE_OUTPUTS = {"result_json": "result.json", "path_csv": "path.csv", "iteration_log": "iters.csv"}

# (run name, subcommand, config)
RUNS = (
    ("case_ii_study", "study", {
        "study": {"name": "case_ii"},
        "mesh": {"N_list": [16, 32, 64, 128, 256, 512]},
        "outputs": STUDY_OUTPUTS,
    }),
    ("linear_fixed_t_study", "study", {
        "study": {"name": "linear_fixed_t"},
        "mesh": {"N_list": [8, 16, 32, 64]},
        "outputs": STUDY_OUTPUTS,
    }),
    ("custom_study", "study", {
        "study": {"name": "custom"},
        "problem": {"field": MAIER_STEIN_1, "x1": [-1.0, 0.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "tmam"},
        "mesh": {"N_list": [8, 16, 32]},
        "outputs": STUDY_OUTPUTS,
    }),
    ("trajectory_oracle", "oracle", {
        "problem": {"field": TWO_SCALE, "x1": [1.0, 1.0]},
        "oracle": {"kind": "trajectory", "t_end": "inf", "samples": 50},
        "outputs": {"trajectory_csv": "trajectory.csv"},
    }),
    ("exact_minimizer_oracle", "oracle", {
        "problem": {"field": TWO_SCALE, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "fixed_t", "T": 2.0},
        "mesh": {"N": 32},
        "oracle": {"kind": "exact_minimizer"},
        "outputs": {"minimizer_csv": "minimizer.csv"},
    }),
    ("tmam_solve", "solve", {
        "problem": {"field": MAIER_STEIN_1, "x1": [-1.0, 0.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "tmam"},
        "mesh": {"N": 128},
        "outputs": SOLVE_OUTPUTS,
    }),
    ("fixed_t_solve", "solve", {
        "problem": {"field": TWO_SCALE, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "fixed_t", "T": 3.5},
        "mesh": {"N": 64},
        "outputs": SOLVE_OUTPUTS,
    }),
    ("case_i_study", "study", {
        "study": {"name": "case_i"},
        "mesh": {"N_list": [8, 16, 32, 64, 128]},
        "quadrature": {"points_per_element": 2},
        "outputs": STUDY_OUTPUTS,
    }),
    ("given_linear_fixed_t_study", "study", {
        "study": {"name": "linear_fixed_t"},
        "problem": {"field": TWO_SCALE, "x1": [1.0, 1.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "fixed_t", "T": 2.0},
        "mesh": {"N_list": [8, 16, 32, 64]},
        "outputs": STUDY_OUTPUTS,
    }),
    ("fixed_t_custom_study", "study", {
        "study": {"name": "custom"},
        "problem": {"field": MAIER_STEIN_1, "x1": [-1.0, 0.0], "x2": [0.0, 0.0]},
        "mode": {"kind": "fixed_t", "T": 4.0},
        "mesh": {"N_list": [8, 16, 32]},
        "outputs": STUDY_OUTPUTS,
    }),
)


def _import_workloads(checkout: Path):
    """``bench/workloads.py`` of ``checkout``, importing that checkout's ``src/minaction``."""
    src, bench = (checkout / "src").resolve(), (checkout / "bench").resolve()
    sys.path[:0] = [str(bench), str(src)]
    import workloads  # noqa: E402  (needs the paths above)

    if not Path(workloads.minaction.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"minaction was imported from {workloads.minaction.__file__}, not {src}")
    return workloads


def _digest(result) -> str:
    fields = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "path":
            raw = value.values.astype("<f8", order="C").tobytes()
            fields.append(f"path_sha256={hashlib.sha256(raw).hexdigest()}")
        elif f.name == "log":
            fields.append(f"log_sha256={hashlib.sha256(repr(value).encode()).hexdigest()}")
        elif isinstance(value, float):
            fields.append(f"{f.name}={value.hex()}")
        else:
            fields.append(f"{f.name}={value!r}")
    return " ".join(fields)


def _recording(fn, lines: list, workload: str, action_error, evals: list):
    def wrapper(*args, **kwargs):
        evals[0] = 0
        try:
            res = fn(*args, **kwargs)
        except action_error as err:
            lines.append(f"{workload} {len(lines)} error={err.code} value_grad_calls={evals[0]}")
            raise
        lines.append(f"{workload} {len(lines)} {_digest(res)} value_grad_calls={evals[0]}")
        return res
    return wrapper


def _counting(fn, evals: list):
    def wrapper(*args, **kwargs):
        evals[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def solve_lines(workloads, name: str, smoke: bool) -> list[str]:
    """One line per solve of one pass of workload ``name``."""
    optimize = workloads.optimize
    lines: list[str] = []
    evals = [0]  # value/gradient calls of the current solve
    solvers = ("minimize_tmam", "minimize_fixed_T")
    evaluations = ("_staged",)
    originals = {fn: getattr(optimize, fn) for fn in solvers + evaluations if hasattr(optimize, fn)}
    with tempfile.TemporaryDirectory(prefix="digest-") as work_root:
        load = workloads.build(name, smoke, work_root)
        try:
            for fn, original in originals.items():
                if fn in solvers:
                    wrapped = _recording(original, lines, name, workloads.ActionError, evals)
                else:
                    wrapped = _counting(original, evals)
                setattr(optimize, fn, wrapped)
            load.run()
        finally:
            for fn, original in originals.items():
                setattr(optimize, fn, original)
            load.close()
    return lines


def cli_lines(cli, name: str, command: str, config: dict) -> list[str]:
    """The exit line and the output-file lines of one CLI run."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="digest-") as work:
        Path(work, "config.json").write_text(json.dumps(config), encoding="utf-8")
        os.chdir(work)
        try:
            code = cli.main([command, "--config", "config.json", "--out-dir", "out"])
        finally:
            os.chdir(home)
        lines = [f"{name} exit={code}"]
        out = Path(work, "out")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{name} {path.relative_to(out).as_posix()} sha256={digest}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose sources run (default: the one holding this tool)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload meshes, as in the harness test")
    args = parser.parse_args(argv)

    workloads = _import_workloads(args.checkout)
    for name in workloads.NAMES:
        for line in solve_lines(workloads, name, args.smoke):
            print(line, flush=True)
    for run in RUNS:
        for line in cli_lines(workloads.cli, *run):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
