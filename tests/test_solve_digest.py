"""``tools/solve_digest.py``: two runs of one checkout print the same lines."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "solve_digest.py"

# case_i and case_ii at N=16..64 (3 and 3+3 solves), two Maier-Stein solves, one callable
SMOKE_SOLVES = {"case_i": 3, "case_ii": 6, "maier_stein": 2, "callable_field": 1}
HEX = r"-?0x[01]\.[0-9a-f]+p[+-]\d+"
LINE = re.compile(
    rf"^(\w+) (\d+) path_sha256=[0-9a-f]{{64}} value={HEX} t_hat={HEX} iterations=\d+ "
    rf"converged=(True|False) grad_norm={HEX} el_residual={HEX} hamiltonian_violation={HEX}$"
)


def run_tool():
    proc = subprocess.run([sys.executable, str(TOOL), "--checkout", str(ROOT), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_smoke_runs_print_identical_lines():
    first, second = run_tool(), run_tool()
    assert first == second
    matches = [LINE.match(line) for line in first]
    assert all(matches), first
    counts = {}
    for m in matches:
        assert int(m.group(2)) == counts.get(m.group(1), 0)  # indices count up per workload
        counts[m.group(1)] = int(m.group(2)) + 1
    assert counts == SMOKE_SOLVES
