"""Fixtures shared by the test modules of ``tools/digest.py``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digest.py"


@pytest.fixture(scope="session")
def digest_smoke_runs():
    """Output lines of two ``digest.py --smoke`` runs of this checkout, run side by side."""
    procs = [
        subprocess.Popen([sys.executable, str(TOOL), "--checkout", str(ROOT), "--smoke"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=600) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    return [out.splitlines() for out, _ in outs]
