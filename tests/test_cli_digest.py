"""``tools/cli_digest.py``: two runs of one checkout print the same lines."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digest.py"

FILES = {
    "case_ii_study": ["study.csv", "study_fixed.csv", "summary.json"],
    "linear_fixed_t_study": ["study.csv", "summary.json"],
    "custom_study": ["study.csv", "summary.json"],
    "trajectory_oracle": ["trajectory.csv"],
    "exact_minimizer_oracle": ["minimizer.csv"],
    "tmam_solve": ["iters.csv", "path.csv", "result.json"],
    "fixed_t_solve": ["iters.csv", "path.csv", "result.json"],
}
EXIT = re.compile(r"^(\w+) exit=(\d+)$")
FILE = re.compile(r"^(\w+) ([\w.]+) sha256=[0-9a-f]{64}$")


def test_two_runs_print_identical_lines():
    # the two runs go side by side: each is seven CLI processes in a row
    procs = [
        subprocess.Popen([sys.executable, str(TOOL), "--checkout", str(ROOT)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=900) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    first, second = (out.splitlines() for out, _ in outs)
    assert first == second

    files: dict = {}
    for line in first:
        if m := EXIT.match(line):
            files[m.group(1)] = []
        else:
            m = FILE.match(line)
            assert m, line
            files[m.group(1)].append(m.group(2))
    assert files == FILES
