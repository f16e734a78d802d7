"""What ``import minaction`` loads, checked in fresh interpreters.

The solver reaches LAPACK through scipy's ``_flapack`` extension, loaded from
its file, so importing the package leaves the ``scipy.linalg`` package out.
When that file cannot be loaded, the module comes from ``scipy.linalg``
instead, and a solve gives the same bits.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the list of scipy.linalg modules in sys.modules
LINALG_MODULES = "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"

# a small Maier-Stein solve, printed bit for bit
SOLVE = """
from minaction import linear_interpolant_path, maier_stein_field, minimize_tmam, uniform_mesh
start = linear_interpolant_path([-1.0, 0.0], [0.0, 0.0], uniform_mesh(32))
res = minimize_tmam(start, maier_stein_field(10.0))
print(res.value.hex(), res.t_hat.hex(), res.iterations, res.path.values.tobytes().hex())
"""


def run_child(*args):
    """stdout and stderr of ``python -W error::RuntimeWarning *args`` with only ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_import_leaves_scipy_linalg_out():
    out, _ = run_child("-c", "import sys\nimport minaction\n" + LINALG_MODULES)
    assert out == "[]\n"


def test_cli_help_imports_no_scipy_linalg_module():
    out, err = run_child("-X", "importtime", "-m", "minaction", "--help")
    assert out.startswith("usage: minaction")
    imported = [line.rsplit("|", 1)[-1].strip() for line in err.splitlines()]
    assert "minaction.optimize" in imported
    assert [name for name in imported if name.startswith("scipy.linalg")] == []


def test_later_scipy_linalg_import_factors_with_the_same_bits():
    code = """
import sys
import numpy as np
from minaction import optimize
rng = np.random.default_rng(2)
band = np.vstack([rng.uniform(-1.0, 1.0, (1, 2046)), rng.uniform(4.0, 5.0, (1, 2046))])
band[0, 0] = 0.0
before = optimize.cholesky_banded(band)
import scipy.linalg
assert scipy.linalg.cholesky_banded(band).tobytes() == before.tobytes()
assert optimize.cholesky_banded(band).tobytes() == before.tobytes()
assert optimize._FLAPACK.dpbtrf is scipy.linalg._flapack.dpbtrf
assert optimize._PBTRS is scipy.linalg.get_lapack_funcs(("pbtrs",), (band,))[0]
print("ok")
"""
    out, _ = run_child("-c", code)
    assert out == "ok\n"


def test_fallback_to_scipy_linalg_gives_the_same_solve():
    main, _ = run_child("-c", "import sys\n" + SOLVE + LINALG_MODULES)
    # scipy.__file__ in a directory with no extension: the file lookup fails
    fallback, _ = run_child("-c", "import sys, scipy\nscipy.__file__ = '/nonexistent/scipy/__init__.py'\n"
                            + SOLVE + LINALG_MODULES
                            + "from minaction import optimize\n"
                            "print(optimize._FLAPACK is sys.modules['scipy.linalg._flapack'])")
    main_lines, fallback_lines = main.splitlines(), fallback.splitlines()
    assert main_lines[1] == "[]"
    assert fallback_lines[0] == main_lines[0]
    assert "'scipy.linalg'" in fallback_lines[1] and fallback_lines[2] == "True"
