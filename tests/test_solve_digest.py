"""``tools/digest.py``: the solve and band lines of two runs of one checkout are the same."""

import re

# case_i and case_ii at N=16..64 (3 and 3+3 solves), two Maier-Stein solves, one callable
SMOKE_SOLVES = {"case_i": 3, "case_ii": 6, "maier_stein": 2, "callable_field": 1}
HEX = r"-?0x[01]\.[0-9a-f]+p[+-]\d+"
LINE = re.compile(
    rf"^(\w+) (\d+) path_sha256=[0-9a-f]{{64}} value={HEX} t_hat={HEX} iterations=\d+ "
    rf"converged=(True|False) grad_norm={HEX} el_residual={HEX} hamiltonian_violation={HEX} "
    rf"log_sha256=[0-9a-f]{{64}} value_grad_calls=[1-9]\d*$"
)
# the Hessian and coupling of each branch of Q: analytic moves, then the stencil's sides
BAND = re.compile(r"^band (\w+) (hessian|coupling) sha256=[0-9a-f]{64}$")
BANDS = [("maier_stein", "hessian"), ("maier_stein", "coupling"),
         ("callable_maier_stein", "hessian"), ("callable_maier_stein", "coupling")]
# the first line of the CLI runs that follow the bands
EXIT = re.compile(r"^\w+ exit=\d+$")


def test_two_smoke_runs_print_identical_lines(digest_smoke_runs):
    first, second = digest_smoke_runs
    assert first == second
    n_solves = next(i for i, line in enumerate(first) if BAND.match(line))
    matches = [LINE.match(line) for line in first[:n_solves]]
    assert all(matches), first[:n_solves]
    counts = {}
    for m in matches:
        assert int(m.group(2)) == counts.get(m.group(1), 0)  # indices count up per workload
        counts[m.group(1)] = int(m.group(2)) + 1
    assert counts == SMOKE_SOLVES
    bands = [BAND.match(line) for line in first[n_solves:n_solves + len(BANDS)]]
    assert [m.groups() for m in bands if m] == BANDS
    assert EXIT.match(first[n_solves + len(BANDS)])
