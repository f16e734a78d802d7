"""Benchmark runner for minaction: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload case_ii --seed 0 --seconds 20 --trace 0

Workloads (``bench/workloads.py``): ``case_i``, ``case_ii``, ``maier_stein``
and ``callable_field``.  Each runs in a closed loop in this one process: one
warm-up pass, then timed passes back to back for ``--seconds``.  Every pass is
checked.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``      mean wall time of one pass, i.e. timed seconds over passes
                  (the result file adds the median, the highest percentile
                  with at least ten samples beyond it, and the sample count).
                  The mean, not the median: case_ii fits only 4-6 passes in a
                  run, and over ten runs on a shared 2-vCPU host the median
                  spread 0.25 (quartile distance over median) against 0.16
                  for the mean;
* ``setup_s``     median over fresh processes of ``import minaction`` plus
                  building the fields, start paths and configs;
* ``peak_mem_mb`` peak resident memory of this process;
* ``failed_frac`` (failed + 1) / (attempted + 1) over the operations of one
                  pass; the +1 keeps it above 0 on workloads where nothing
                  fails, and the raw counts are the ``attempted`` and
                  ``failed`` of the result line;
* ``action_err``  error of the finest-mesh action against the workload's
                  reference.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``bench/layertrace.py`` (medians over traced passes).  It fails with
exit code 1 if a counter differs between two traced passes or if the layer
self times do not add up to the traced wall time.

``--smoke`` runs every workload at tiny N; ``bench/test_smoke.py`` uses it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
with provenance, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

SETUP_SAMPLES = 5
# Layer self times plus the harness's own share must cover the traced pass.
ATTRIBUTION_TOL = 0.02


def _import_workloads():
    """Import the workloads against this checkout's ``src/minaction``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "minaction" / "__init__.py").is_file():
        raise SystemExit(f"no minaction sources under {src}")
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # noqa: E402  (needs the paths above)

    if not Path(workloads.minaction.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"minaction was imported from {workloads.minaction.__file__}, not {src}")
    return workloads


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(samples)[n - 11]


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if res.returncode != 0:
        return None
    return res.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "minaction").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count in effect of every OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _provenance(seed: int, smoke: bool) -> dict:
    import numpy
    import scipy

    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
        "smoke": smoke,
    }


# ---------------------------------------------------------------------------
# set-up timing in fresh processes
# ---------------------------------------------------------------------------


def _probe_setup(name: str, smoke: bool) -> None:
    """Child process: time the import and the workload's set-up, print seconds."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    WORK_DIR.mkdir(exist_ok=True)
    wl = workloads.build(name, smoke, str(WORK_DIR))
    elapsed = time.perf_counter() - t0
    wl.close()
    print(repr(elapsed))


def _setup_samples(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Loop:
    """Closed-loop pass runner that counts and checks every pass."""

    def __init__(self, workloads, wl):
        self.workloads = workloads
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failed_checks = set()
        self.outcome = None

    def one(self, run_pass):
        """Run one pass through ``run_pass(fn)`` -> (raw, wall, ...), then check it."""
        solves: list = []
        with self.workloads.solve_recorder(solves):
            res = run_pass(self.wl.run)
        outcome = self.wl.check(res[0])
        outcome.solves = len(solves)
        outcome.solves_failed = solves.count(False)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.correct = self.correct and outcome.correct
        self.failed_checks.update(k for k, ok in outcome.checks.items() if not ok)
        self.outcome = outcome
        return res


def _untraced(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _end_to_end(args, loop) -> tuple:
    loop.one(_untraced)  # warm-up, checked but not timed
    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(loop.one(_untraced)[1])
    setup = _setup_samples(args)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = loop.outcome
    pct, pct_value = _tail_percentile(walls)
    metrics = {
        "wall_s": math.fsum(walls) / len(walls),
        "setup_s": _median(setup),
        "peak_mem_mb": peak_mb,
        "failed_frac": (outcome.failed + 1) / (outcome.attempted + 1),
        "action_err": outcome.action_err,
    }
    details = {
        "wall_s": {"mean": metrics["wall_s"], "median": _median(walls), "samples": len(walls),
                   "tail_percentile": pct, "tail_value": pct_value, "values": walls},
        "setup_s": {"median": _median(setup), "samples": len(setup), "values": setup},
        "pass": {"attempted": outcome.attempted, "failed": outcome.failed,
                 "checks": outcome.checks, "solves": outcome.solves,
                 "solves_failed": outcome.solves_failed},
    }
    return metrics, details


def _traced(args, loop) -> tuple:
    import layertrace

    tracer = layertrace.Tracer()
    wl = loop.wl

    def traced_pass(fn):
        with tracer.install():
            return tracer.run_pass(lambda: fn(tracer.wrap_field))

    loop.one(_untraced)  # warm-up
    plain, traced_walls, per_pass, layer_rows = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        plain.append(loop.one(_untraced)[1])
        _, wall, first = loop.one(traced_pass)
        traced_walls.append(wall)
        m, layers = layertrace.layer_metrics(tracer.spans, first, tracer.counts,
                                             {"cli.bytes_written": wl.bytes_written()})
        m["trace.wall_s"] = wall
        per_pass.append(m)
        layer_rows.append((layers, m["bench.self_s"], wall))

    # every counter must repeat exactly across traced passes of the same inputs
    ref = {k: per_pass[0][k] for k in layertrace.COUNTERS}
    for i, m in enumerate(per_pass[1:], start=1):
        diff = {k: (ref[k], m[k]) for k in layertrace.COUNTERS if m[k] != ref[k]}
        if diff:
            raise SystemExit(f"counter mismatch between traced passes 0 and {i}: {diff}")

    # layer self times (plus the harness's own) must add up to the traced wall
    for layers, bench_self, wall in layer_rows:
        total = sum(layers.values()) + bench_self
        if abs(total - wall) > ATTRIBUTION_TOL * wall + 1e-3:
            raise SystemExit(f"layer self times sum to {total:.6f} s, traced wall is {wall:.6f} s")

    metrics = {key: ref[key] if key in ref else _median([m[key] for m in per_pass])
               for key in per_pass[0]}
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(plain)

    layer_self = {layer: _median([row[0][layer] for row in layer_rows]) for layer in layertrace.LAYERS}
    dominant = max(layer_self, key=layer_self.get)
    intended = loop.workloads.INTENDED_LAYER.get(wl.name)
    attribution = {
        "layer_self_s": layer_self,
        "bench_self_s": _median([row[1] for row in layer_rows]),
        "traced_wall_s": _median(traced_walls),
        "untraced_wall_s": _median(plain),
        "tolerance": f"{ATTRIBUTION_TOL:.0%} of traced wall_s + 1 ms",
        "dominant_layer": dominant,
        "intended_layer": intended,
        "intended_dominates": None if intended is None else dominant == intended,
    }
    if intended is not None and dominant != intended and not args.smoke:
        print(f"warning: {dominant} dominates {wl.name}, not {intended}", file=sys.stderr)
    details = {
        "traced_passes": len(traced_walls),
        "untraced_passes": len(plain),
        "attribution": attribution,
        "counters": ref,
    }
    return metrics, details, tracer


def _write_report(args, run_id, report, tracer) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in tracer.spans:
                fh.write(json.dumps({"run": run_id, "pass": pass_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny meshes, for the harness test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _probe_setup(args.workload, args.smoke)
        return 0

    workloads = _import_workloads()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    run_id = uuid.uuid4().hex
    WORK_DIR.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.smoke, str(WORK_DIR))
    tracer = None
    try:
        loop = Loop(workloads, wl)
        if args.trace:
            metrics, details, tracer = _traced(args, loop)
        else:
            metrics, details = _end_to_end(args, loop)
    finally:
        wl.close()

    # BENCHMARK.json names the metrics of the result line and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": args.workload,
        "run_id": run_id,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": _provenance(args.seed, args.smoke),
        "correct": loop.correct,
        "failed_checks": sorted(loop.failed_checks),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": result_metrics,
        "unlisted_metrics": {k: v for k, v in metrics.items() if k not in result_metrics},
        "details": details,
    }
    path = _write_report(args, run_id, report, tracer)
    for key, entry in result_metrics.items():
        print(f"{key:32s} {entry['value']!r} {entry['unit']}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
