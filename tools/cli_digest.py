"""Exit codes and output-file hashes of seven ``minaction`` CLI runs.

Usage (from any directory):

    python3 tools/cli_digest.py --checkout ../parent > parent.txt
    python3 tools/cli_digest.py --checkout . > change.txt
    diff parent.txt change.txt

A checkout is a directory holding ``src/minaction``.  Each run writes its
config into a fresh temporary directory and runs ``python -m minaction``
there, with the checkout's ``src`` first on ``PYTHONPATH`` and the relative
``--out-dir out``, so no output echoes a path that depends on the directory.

Each run prints ``<run> exit=<code>``, then ``<run> <file> sha256=<hex>``
for every file it wrote under ``out``, in sorted order.  Two checkouts print
the same lines iff every run exits with the same code and writes the same
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
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
)


def _child_env(src: Path) -> dict:
    """This environment with ``src`` first on ``PYTHONPATH``, checked to import from it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    where = subprocess.run([sys.executable, "-c", "import minaction; print(minaction.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src):
        raise SystemExit(f"minaction was imported from {where}, not {src}")
    return env


def digest_lines(checkout: Path) -> list[str]:
    """The exit line and the output-file lines of every run, in ``RUNS`` order."""
    env = _child_env((checkout / "src").resolve())
    lines: list[str] = []
    for name, command, config in RUNS:
        with tempfile.TemporaryDirectory(prefix="cli-digest-") as work:
            Path(work, "config.json").write_text(json.dumps(config), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "minaction", command,
                 "--config", "config.json", "--out-dir", "out"],
                cwd=work, env=env, capture_output=True, timeout=600,
            )
            lines.append(f"{name} exit={proc.returncode}")
            out = Path(work, "out")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{name} {path.relative_to(out).as_posix()} sha256={digest}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose sources run (default: the one holding this tool)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.checkout):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
