"""Alternating parent/change pairs of ``bench/run.py --trace 0`` runs, compared.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload case_i --workload case_ii --pairs 10 --seed0 1 --seconds 20 \\
        --claim case_ii:wall_s --record BENCH_13.json

Each checkout is a directory holding ``bench/run.py`` and ``src/minaction``;
the runner there imports its own sources.  Before pair 0 each checkout's
``minaction`` and ``bench/workloads.py`` are imported once, untimed, so that
neither side's first run pays for compiling their bytecode.  Pair k runs both
checkouts with seed ``seed0 + k``, the parent first when k is even and the
change first when k is odd, so drift in the host's load falls on both sides
alike.

For every end-to-end metric the change's ``BENCHMARK.json`` lists, it prints
both medians, the parent's quartile spread (the distance between its first
and third quartiles), the number of pairs the change won (ties count for
neither side) and a verdict:

* ``gain``        at least 10 pairs ran, the change won at least 9 of every 10
                  and its median is better than the parent's by more than the
                  parent's spread;
* ``over bound``  the change's median is worse by more than the metric's bound;
* ``unresolved``  neither, and the parent's spread is wider than the bound;
* ``within``      neither, and the spread is within the bound.

The rule is meant for 10 pairs or more; with fewer, the spread is a poor
estimate and the table is a smoke check, not a verdict.

Both sides must run the same harness: if the checkouts' ``BENCHMARK.json`` or
``bench/*.py`` differ, the tool names the first differing file and exits 1
before any run.  The workloads run one after another, each with all its
pairs; every run's result line is echoed as it finishes, and each workload
ends with its table and a JSON line of its rows.  ``--record`` writes one JSON
file with every workload's rows, both checkouts' ``git describe``, the command
with the checkouts shown as PARENT and CHANGE, the host, and the ``--claim``,
if one was given.  So that the record names both commits, ``--record`` needs
each checkout to be the top of its own git work tree (a ``git worktree add``
or ``git clone``, not an unpacked ``git archive``), and each must be clean: a
checkout whose ``git describe --always --dirty`` ends in ``-dirty`` has
tracked files that differ from the commit the record would name.  Either
way the tool names the checkout and exits 1 before any run.  The exit code
is 1, and no record is written, if a run failed or reported
``correct: false``; else 0.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool):
    """One ``--trace 0`` run in ``checkout``; its result line, or None if it failed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def _warm_up(checkout: Path) -> None:
    """Import ``checkout``'s ``minaction``, then its ``bench/workloads.py``, in one untimed process.

    Python writes their bytecode as it imports them.  A failure is ignored:
    the timed runs report their own.
    """
    paths = [str(checkout / "src"), str(checkout / "bench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import minaction, workloads"
    subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True)


def _harness_difference(parent: Path, change: Path):
    """The first of ``BENCHMARK.json`` and ``bench/*.py`` whose bytes differ between the checkouts."""
    scripts = sorted({p.name for side in (parent, change) for p in (side / "bench").glob("*.py")})
    for rel in ["BENCHMARK.json", *(f"bench/{name}" for name in scripts)]:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return rel
    return None


def _quartiles(xs):
    """First quartile, median and third quartile of ``xs`` (inclusive method)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better: str, bound: float) -> dict:
    """Medians, the parent's spread, pairs won and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = pq3 - pq1
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if len(parent) >= 10 and 10 * won >= 9 * len(parent) and sign * (pmed - cmed) > spread:
        verdict = "gain"
    elif worse > bound:
        verdict = "over bound"
    elif pmed and spread / abs(pmed) > bound:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent_median": pmed, "change_median": cmed, "parent_quartiles": [pq1, pq3],
            "change_quartiles": [cq1, cq3], "parent_spread": spread, "won": won,
            "pairs": len(parent), "verdict": verdict}


def _is_toplevel(checkout: Path) -> bool:
    """Whether ``checkout`` is the top of its own git work tree, not a directory inside another."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel"],
                          capture_output=True, text=True)
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == checkout.resolve()


def _revision(checkout: Path):
    """``git describe --always --dirty`` of ``checkout``, or None if it has no commit."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _host() -> str:
    """The host line of a record: system, CPU count and the numeric stack's versions."""
    stack = []
    for package in ("numpy", "scipy"):
        try:
            stack.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            stack.append(f"no {package}")
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}, " + ", ".join(stack))


def _pairs(sides: dict, workload: str, args, names) -> dict | None:
    """Every metric's values per side over the pairs of one workload; None if a run failed."""
    values = {side: {name: [] for name in names} for side in sides}
    ok = True
    for k in range(args.pairs):
        seed = args.seed0 + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(sides[side], workload, seed, args.seconds, args.smoke)
            if result is None or result["correct"] is not True:
                print(f"{workload} pair {k} seed {seed} {side}: failed or incorrect: {result}")
                ok = False
                continue
            shown = " ".join(f"{name}={m['value']!r}" for name, m in result["metrics"].items())
            print(f"{workload} pair {k} seed {seed} {side}: {shown}", flush=True)
            for name, m in result["metrics"].items():
                values[side][name].append(m["value"])
    return values if ok else None


def _table(workload: str, args, listed, values) -> dict:
    """Print one workload's table and its JSON line; return its metric rows."""
    last = args.seed0 + args.pairs - 1
    print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed0}..{last}, {args.seconds:g} s runs")
    print(f"{'metric':12s} {'unit':5s} {'parent':>12s} {'change':>12s} {'change %':>9s} "
          f"{'spread':>11s} {'spread %':>9s} {'won':>6s}  verdict")
    summary = {}
    for m in listed:
        name = m["name"]
        row = compare(values["parent"][name], values["change"][name], m["better"], m["bound"])
        summary[name] = row
        pmed = row["parent_median"]
        rel = lambda x: f"{100.0 * x / pmed:+.1f}" if pmed else "n/a"
        print(f"{name:12s} {m['unit']:5s} {pmed:12.6g} {row['change_median']:12.6g} "
              f"{rel(row['change_median'] - pmed):>9s} {row['parent_spread']:11.4g} "
              f"{rel(row['parent_spread']).lstrip('+'):>9s} {row['won']:>3d}/{row['pairs']:<2d}  "
              f"{row['verdict']}")
    print(json.dumps({"workload": workload, "metrics": summary}), flush=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to compare (repeatable, run in the order given)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, as in the harness test")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the gain the change claims, noted in the record")
    parser.add_argument("--record", type=Path, help="write the JSON record of every workload here")
    args = parser.parse_args(argv)

    differing = _harness_difference(args.parent, args.change)
    if differing is not None:
        print(f"the checkouts differ in {differing}; both sides must run the same benchmark",
              file=sys.stderr)
        return 1
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    claimed = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or metric not in names:
            parser.error(f"--claim {args.claim}: not a compared workload and listed metric")
        claimed = {"workload": workload, "metric": metric}
    if args.record is not None:
        for checkout in (args.parent, args.change):
            if not _is_toplevel(checkout):
                print(f"{checkout} is not the top of its own git work tree, so --record could "
                      "not name its commit; use git worktree add or git clone", file=sys.stderr)
                return 1
            revision = _revision(checkout)
            if revision is not None and revision.endswith("-dirty"):
                print(f"{checkout} has uncommitted changes to tracked files ({revision}), so "
                      "--record could not name what ran; commit them first", file=sys.stderr)
                return 1

    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        _warm_up(checkout)
    results = []
    ok = True
    for workload in args.workload:
        values = _pairs(sides, workload, args, names)
        if values is None:
            ok = False
            continue
        results.append({"workload": workload, "metrics": _table(workload, args, listed, values)})
    if not ok:
        return 1

    if args.record is not None:
        command = ["python3", "tools/bench_pairs.py", "--parent", "PARENT", "--change", "CHANGE"]
        for workload in args.workload:
            command += ["--workload", workload]
        command += ["--pairs", str(args.pairs), "--seed0", str(args.seed0),
                    "--seconds", f"{args.seconds:g}"] + (["--smoke"] if args.smoke else [])
        record = {
            "parent": _revision(args.parent),
            "change": _revision(args.change),
            "command": shlex.join(command),
            "host": _host(),
            "claimed": claimed,
            "results": results,
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
