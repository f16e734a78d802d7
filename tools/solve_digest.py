"""Bit-exact digest of every solve the four benchmark workloads make.

Usage (from any directory):

    python3 tools/solve_digest.py --checkout ../parent > parent.txt
    python3 tools/solve_digest.py --checkout . > change.txt
    diff parent.txt change.txt

A checkout is a directory holding ``src/minaction`` and ``bench/workloads.py``;
both are put first on the import path, so each run reads its own sources.
``minimize_tmam`` and ``minimize_fixed_T`` are wrapped in ``minaction.optimize``,
where the sweeps, the studies and the workloads look them up, and each
workload runs one pass (``--smoke`` for the tiny meshes of the harness test).

Every solve prints one line: the workload, the solve's index in it, then each
``OptimResult`` field in declaration order as ``name=value``.  Floats are
written with ``float.hex``, the path as ``path_sha256=`` the sha256 of its
little-endian float64 nodal values, and other fields with ``repr``.  A solve
that raises prints ``error=<code>``.  Two checkouts give the same lines iff
every solve returned the same bits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path


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
        elif isinstance(value, float):
            fields.append(f"{f.name}={value.hex()}")
        else:
            fields.append(f"{f.name}={value!r}")
    return " ".join(fields)


def _recording(fn, lines: list, workload: str, action_error):
    def wrapper(*args, **kwargs):
        try:
            res = fn(*args, **kwargs)
        except action_error as err:
            lines.append(f"{workload} {len(lines)} error={err.code}")
            raise
        lines.append(f"{workload} {len(lines)} {_digest(res)}")
        return res
    return wrapper


def digest_lines(workloads, name: str, smoke: bool) -> list[str]:
    """One line per solve of one pass of workload ``name``."""
    optimize = workloads.optimize
    lines: list[str] = []
    originals = {fn: getattr(optimize, fn) for fn in ("minimize_tmam", "minimize_fixed_T")}
    with tempfile.TemporaryDirectory(prefix="solve-digest-") as work_root:
        load = workloads.build(name, smoke, work_root)
        try:
            for fn, original in originals.items():
                setattr(optimize, fn, _recording(original, lines, name, workloads.ActionError))
            load.run()
        finally:
            for fn, original in originals.items():
                setattr(optimize, fn, original)
            load.close()
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose sources run (default: the one holding this tool)")
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, as in the harness test")
    args = parser.parse_args(argv)

    workloads = _import_workloads(args.checkout)
    names = args.workload or workloads.NAMES
    unknown = sorted(set(names) - set(workloads.NAMES))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(workloads.NAMES)}")
    for name in names:
        for line in digest_lines(workloads, name, args.smoke):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
