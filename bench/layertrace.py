"""Spans and counts around the calls into each layer of ``minaction``.

The tracer replaces the module attributes through which the layers call each
other with timing wrappers, and restores them on exit, so no library file
changes.  A span records its name, start, end, parent span and the id of the
pass it belongs to; spans stay in memory until the run writes them out.  A
span's name is ``<layer>.<kind>``, the layer being a module of
``src/minaction``; the pass itself is the ``bench.pass`` root span.

Self time is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from time import perf_counter

from minaction import cli, optimize, study

__all__ = ["LAYERS", "COUNTERS", "Tracer", "layer_metrics"]

LAYERS = ("drift", "action", "optimize", "pathcore", "linoracle", "study", "cli")

# Counters that must repeat exactly across passes of the same inputs.
COUNTERS = (
    "drift.eval_calls",
    "drift.eval_points",
    "drift.jac_calls",
    "action.value_grad_calls",
    "action.diag_calls",
    "optimize.solves",
    "optimize.iterations",
    "optimize.evals_per_iter",
    "optimize.precond_solve_calls",
    "pathcore.frechet_calls",
    "pathcore.frechet_cells",
    "pathcore.frechet_bytes",
    "linoracle.trajectory_calls",
    "linoracle.trajectory_points",
    "cli.bytes_written",
)

ROOT = "bench.pass"


def _count_eval(counts, args, out):
    counts["drift.eval_points"] += args[0].shape[0]


def _count_solve(counts, args, out):
    counts["optimize.iterations"] += out.iterations


def _count_frechet(counts, args, out):
    p, q = args[0].points.shape[0], args[1].points.shape[0]
    n = args[0].points.shape[1]
    counts["pathcore.frechet_cells"] += p * q
    # the P x Q x n difference array plus the P x Q distance and DP arrays
    counts["pathcore.frechet_bytes"] += 8 * (p * q * n + 2 * p * q)


def _count_trajectory(counts, args, out):
    counts["linoracle.trajectory_points"] += out.points.shape[0]


# (module, attribute, span name, counter) for every wrapped call site
_SITES = (
    (optimize, "tmam_value_grad", "action.value_grad", None),
    (optimize, "fixed_t_value_grad", "action.value_grad", None),
    (optimize, "el_residual", "action.diag", None),
    (optimize, "hamiltonian_violation", "action.diag", None),
    (optimize, "optimal_time", "action.diag", None),
    (optimize, "cholesky_banded", "optimize.precond_factor", None),
    (optimize, "cho_solve_banded", "optimize.precond_solve", None),
    (optimize, "resample_path", "pathcore.resample", None),
    (optimize, "minimize_tmam", "optimize.solve", _count_solve),
    (optimize, "minimize_fixed_T", "optimize.solve", _count_solve),
    (study, "continuation_sweep", "optimize.sweep", None),
    (study, "discrete_frechet", "pathcore.frechet", _count_frechet),
    (study, "trajectory_polyline", "linoracle.trajectory", _count_trajectory),
    (study, "run_case_i", "study.run", None),
    (study, "case_i_assertions", "study.assertions", None),
    (cli, "run_case_ii_full", "study.run", None),
    (cli, "case_ii_assertions", "study.assertions", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; ``install()`` wraps the layer call sites."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, pass id]
        self.counts: Counter = Counter()
        self._open: list = []
        self._pass = -1

    def wrap(self, name: str, fn, count=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else None, self._pass]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def wrap_field(self, fld):
        """Copy of a drift field whose batch eval and Jacobian are traced."""
        return replace(
            fld,
            _eval_many=self.wrap("drift.eval", fld._eval_many, _count_eval),
            _jac_many=self.wrap("drift.jac", fld._jac_many),
        )

    @contextmanager
    def install(self):
        with ExitStack() as stack:
            for module, attr, name, count in _SITES:
                original = getattr(module, attr)
                stack.callback(setattr, module, attr, original)
                setattr(module, attr, self.wrap(name, original, count))
            yield self

    def run_pass(self, pass_fn):
        """Run ``pass_fn`` under a root span.

        Returns (result, wall seconds, index of the pass's first span); the
        counts of the pass are left in ``self.counts``.
        """
        self._pass += 1
        first = len(self.spans)
        self.counts = Counter()
        root = self.wrap(ROOT, pass_fn)
        t0 = perf_counter()
        out = root()
        return out, perf_counter() - t0, first


def _self_times(spans, first: int):
    """Per-span-name self seconds and call counts for the spans of one pass."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[first + i]
        calls[name] += 1
    return self_s, calls


def layer_metrics(spans, first: int, counts: Counter, extra_counts: dict) -> dict:
    """Metrics of one traced pass (times in s, counts as ints) and self seconds per layer."""
    self_s, calls = _self_times(spans[first:], first)
    by_layer = defaultdict(float)
    for name, secs in self_s.items():
        by_layer[name.split(".", 1)[0]] += secs
    iterations = counts["optimize.iterations"]
    m = {
        "drift.eval_calls": calls["drift.eval"],
        "drift.eval_points": counts["drift.eval_points"],
        "drift.eval_s": self_s["drift.eval"],
        "drift.jac_calls": calls["drift.jac"],
        "drift.jac_s": self_s["drift.jac"],
        "action.value_grad_calls": calls["action.value_grad"],
        "action.value_grad_s": self_s["action.value_grad"],
        "action.diag_calls": calls["action.diag"],
        "action.diag_s": self_s["action.diag"],
        "optimize.solves": calls["optimize.solve"],
        "optimize.iterations": iterations,
        "optimize.evals_per_iter": calls["action.value_grad"] / iterations if iterations else 0.0,
        "optimize.precond_factor_s": self_s["optimize.precond_factor"],
        "optimize.precond_solve_calls": calls["optimize.precond_solve"],
        "optimize.precond_solve_s": self_s["optimize.precond_solve"],
        "optimize.lbfgs_self_s": self_s["optimize.solve"],
        "pathcore.frechet_calls": calls["pathcore.frechet"],
        "pathcore.frechet_cells": counts["pathcore.frechet_cells"],
        "pathcore.frechet_bytes": counts["pathcore.frechet_bytes"],
        "pathcore.frechet_s": self_s["pathcore.frechet"],
        "pathcore.resample_s": self_s["pathcore.resample"],
        "linoracle.trajectory_calls": calls["linoracle.trajectory"],
        "linoracle.trajectory_points": counts["linoracle.trajectory_points"],
        "linoracle.trajectory_s": self_s["linoracle.trajectory"],
        "study.self_s": by_layer["study"],
        "cli.self_s": by_layer["cli"],
        "bench.self_s": by_layer["bench"],
    }
    m.update(extra_counts)
    layers = {layer: by_layer[layer] for layer in LAYERS}
    return m, layers
