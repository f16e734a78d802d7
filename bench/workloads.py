"""The four benchmark workloads: fixed inputs, one timed pass, and its checks.

Each workload is built once (``build``), then run pass after pass in a closed
loop: one caller, the next pass starts when the previous one returns.  A pass
returns raw outputs; ``check`` turns them into counted operations.  An
operation is one solve or one correctness check.  A solve fails when it
returns ``converged=False`` or raises an ``ActionError``; a check fails when
it is false.

The inputs do not depend on the seed.  The Maier-Stein solves are chaotic in
their start path: moving the start by 1e-12 moves the gamma=1 iteration
count from 55 to as many as 67, and moving it by 1e-6 moves the gamma=10 count
from 59 to as many as 337.  A seeded start would make the work, not the code, set the timings.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import minaction
from minaction import cli, optimize, study
from minaction.action import ActionError, Quadrature

__all__ = ["NAMES", "INTENDED_LAYER", "Outcome", "build", "solve_recorder"]

NAMES = ("case_i", "case_ii", "maier_stein", "callable_field")

# The layer each workload is built to stress; the traced run reports whether
# it still has the largest self time.
INTENDED_LAYER = {"case_ii": "pathcore", "maier_stein": "action", "callable_field": "drift"}

MS_LEFT = np.array([-1.0, 0.0])
MS_SADDLE = np.zeros(2)
MS_GAMMA = 10.0
MS_SADDLE_ACTION = 0.5      # straight-line critical point at gamma=10, exact action at gamma=1
# Discrete minima of the default inputs at full size.  The gamma=10 value at
# N=1024 is also the reference for the callable field solved at N=256.
REF_MS_GAMMA10 = 0.3400436478817216
REF_MS_GAMMA1 = 0.5000009862105149
REF_CALLABLE = 0.34006400409065274
# Unconverged solves stall with the value settled to ~1e-13; a real change of
# minimizer moves the value by more than 1e-7.
REF_TOL = 1e-9


@dataclass
class Outcome:
    """Counted operations of one pass."""

    solves: int = 0
    solves_failed: int = 0
    checks: dict = field(default_factory=dict)
    action_err: float = math.nan

    @property
    def attempted(self) -> int:
        return self.solves + len(self.checks)

    @property
    def failed(self) -> int:
        return self.solves_failed + sum(not ok for ok in self.checks.values())

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and bool(self.checks)


@contextmanager
def _patched(module, name: str, wrapper):
    original = getattr(module, name)
    setattr(module, name, wrapper)
    try:
        yield original
    finally:
        setattr(module, name, original)


@contextmanager
def solve_recorder(sink: list):
    """Append ``converged`` of every ``minimize_*`` call to ``sink``.

    The solvers are looked up through ``minaction.optimize`` by the sweeps,
    the studies and this module, so wrapping them there sees every solve.
    """
    def record(fn):
        def wrapper(*args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except ActionError:
                sink.append(False)
                raise
            sink.append(bool(res.converged))
            return res
        return wrapper

    with _patched(optimize, "minimize_tmam", record(optimize.minimize_tmam)), \
            _patched(optimize, "minimize_fixed_T", record(optimize.minimize_fixed_T)):
        yield sink


def _bulged_start(num_elements: int) -> minaction.FePath:
    """(-1, 0) -> (0, 0) with u linear and v = 0.3 sin(pi s), off the v=0 axis."""
    mesh = minaction.uniform_mesh(num_elements)
    s = mesh.nodes
    return minaction.FePath(mesh, np.column_stack([-1.0 + s, 0.3 * np.sin(np.pi * s)]))


def _maier_stein_point(x, gamma: float = MS_GAMMA):
    """Pointwise Maier-Stein drift on Python floats (one point in, one out)."""
    u, v = float(x[0]), float(x[1])
    return (u - u**3 - gamma * u * v**2, -(1.0 + u**2) * v)


def _check_ref(checks: dict, name: str, value: float, ref: Optional[float]) -> None:
    if ref is not None:
        checks[name] = abs(value - ref) <= REF_TOL


class Workload:
    """Prepared inputs of one workload.

    ``run(wrap_field)`` does one pass and returns its raw outputs;
    ``wrap_field`` lets the traced run instrument the drift fields the pass
    builds or uses.  ``check(raw)`` turns them into an :class:`Outcome`
    holding the checks; the caller adds the solves it recorded.
    """

    name: str

    def run(self, wrap_field: Callable = lambda f: f):
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        raise NotImplementedError

    def bytes_written(self) -> int:
        """Bytes of output files the last pass wrote."""
        return 0

    def close(self) -> None:
        pass


class CaseI(Workload):
    """``run_case_i`` over N = 8..1024 and its built-in assertions.

    Linear field, no Frechet: the action and optimize layers do the work.
    """

    name = "case_i"

    def __init__(self, smoke: bool):
        self.n_list = [16, 32, 64] if smoke else [8, 16, 32, 64, 128, 256, 512, 1024]

    def run(self, wrap_field=lambda f: f):
        with _patched(study, "two_scale_field", lambda: wrap_field(minaction.two_scale_field())):
            try:
                records, rate_a, rate_t = study.run_case_i(self.n_list)
            except ActionError as err:
                return err
            return records, study.case_i_assertions(records, rate_a, rate_t)

    def check(self, raw):
        out = Outcome()
        if isinstance(raw, ActionError):
            out.checks["no_action_error"] = False
            return out
        records, assertions = raw
        out.checks.update(assertions)
        out.action_err = abs(records[-1].action)  # exact minimum 0
        return out


class CaseII(Workload):
    """The ``case_ii`` study through ``minaction.cli.main`` into a work dir.

    The Frechet distance against the 10x oracle dominates; the solvers do
    little, so a Frechet change shows here and a solver change cannot.
    """

    name = "case_ii"

    def __init__(self, smoke: bool, work_root: str):
        self.dir = tempfile.mkdtemp(prefix="case_ii-", dir=work_root)
        n_list = [16, 32, 64] if smoke else [16, 32, 64, 128, 256, 512]
        config = {
            "study": {"name": "case_ii", "T_fixed": 100.0},
            "mesh": {"N_list": n_list},
            "outputs": {"study_csv": "study.csv", "summary_json": "summary.json"},
        }
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.out_dir = os.path.join(self.dir, "out")
        self.argv = ["study", "--config", self.config_path, "--out-dir", self.out_dir]

    def run(self, wrap_field=lambda f: f):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with _patched(study, "two_scale_field", lambda: wrap_field(minaction.two_scale_field())):
            return cli.main(self.argv)

    def bytes_written(self) -> int:
        return sum(e.stat().st_size for e in os.scandir(self.out_dir) if e.is_file())

    def check(self, raw):
        out = Outcome()
        out.checks["exit_code_0"] = raw == 0
        try:
            with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(self.out_dir, "study.csv"), encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (OSError, ValueError):
            out.checks["outputs_readable"] = False
            return out
        out.checks["passed"] = summary.get("passed") is True
        out.checks.update(summary.get("assertions", {}))
        out.action_err = abs(float(rows[-1]["action"]))  # exact minimum 0
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class MaierStein(Workload):
    """Two ``minimize_tmam`` solves at N=1024, Quadrature(3), default config.

    gamma=10 from the bulged start must escape the on-axis saddle (S < 0.5);
    gamma=1 from the straight line has the exact answer 0.5.  The action
    assembly on a nonlinear field does most of the work.
    """

    name = "maier_stein"

    def __init__(self, smoke: bool):
        n = 32 if smoke else 1024
        self.refs = (None, None) if smoke else (REF_MS_GAMMA10, REF_MS_GAMMA1)
        self.quad = Quadrature(3)
        self.field10 = minaction.maier_stein_field(MS_GAMMA)
        self.field1 = minaction.maier_stein_field(1.0)
        self.start10 = _bulged_start(n)
        self.start1 = minaction.linear_interpolant_path(MS_LEFT, MS_SADDLE, minaction.uniform_mesh(n))

    def run(self, wrap_field=lambda f: f):
        values = []
        for start, fld in ((self.start10, self.field10), (self.start1, self.field1)):
            try:
                values.append(optimize.minimize_tmam(start, wrap_field(fld), quad=self.quad).value)
            except ActionError:
                values.append(math.nan)
        return values

    def check(self, raw):
        s10, s1 = raw
        out = Outcome()
        out.checks["gamma10_escaped_saddle"] = s10 < MS_SADDLE_ACTION
        _check_ref(out.checks, "gamma10_matches_ref", s10, self.refs[0])
        _check_ref(out.checks, "gamma1_matches_ref", s1, self.refs[1])
        out.action_err = abs(s1 - 0.5)
        return out


class CallableField(Workload):
    """The gamma=10 problem with a pointwise drift and finite-difference Jacobian.

    Solved at N=256 from the bulged start.  The per-point Python drift and
    its FD Jacobian do most of the work; ``maier_stein`` does the same solver
    work with the vectorized field.
    """

    name = "callable_field"

    def __init__(self, smoke: bool):
        n = 8 if smoke else 256
        self.ref = None if smoke else REF_CALLABLE
        self.quad = Quadrature(3)
        self.field = minaction.field_from_callable(2, _maier_stein_point)
        self.start = _bulged_start(n)

    def run(self, wrap_field=lambda f: f):
        try:
            return optimize.minimize_tmam(self.start, wrap_field(self.field), quad=self.quad).value
        except ActionError:
            return math.nan

    def check(self, raw):
        out = Outcome()
        out.checks["escaped_saddle"] = raw < MS_SADDLE_ACTION
        _check_ref(out.checks, "matches_ref", raw, self.ref)
        out.action_err = abs(raw - REF_MS_GAMMA10)
        return out


def build(name: str, smoke: bool, work_root: str) -> Workload:
    """Fields, start paths and configs of one workload, before any timed call."""
    if name == "case_i":
        return CaseI(smoke)
    if name == "case_ii":
        return CaseII(smoke, work_root)
    if name == "maier_stein":
        return MaierStein(smoke)
    if name == "callable_field":
        return CallableField(smoke)
    raise ValueError(f"unknown workload: {name!r}")
