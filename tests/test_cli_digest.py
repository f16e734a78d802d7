"""``tools/digest.py``: the CLI lines of two runs of one checkout are the same."""

import re

STUDY_FILES = ["study.csv", "summary.json"]
SOLVE_FILES = ["iters.csv", "path.csv", "result.json"]
FILES = {
    "case_ii_study": ["study.csv", "study_fixed.csv", "summary.json"],
    "linear_fixed_t_study": STUDY_FILES,
    "custom_study": STUDY_FILES,
    "trajectory_oracle": ["trajectory.csv"],
    "exact_minimizer_oracle": ["minimizer.csv"],
    "tmam_solve": SOLVE_FILES,
    "fixed_t_solve": SOLVE_FILES,
    "case_i_study": STUDY_FILES,
    "given_linear_fixed_t_study": STUDY_FILES,
    "fixed_t_custom_study": STUDY_FILES,
}
EXIT = re.compile(r"^(\w+) exit=(\d+)$")
FILE = re.compile(r"^(\w+) ([\w.]+) sha256=[0-9a-f]{64}$")


def test_two_runs_print_identical_lines(digest_smoke_runs):
    first, second = digest_smoke_runs
    assert first == second
    start = next(i for i, line in enumerate(first) if EXIT.match(line))
    files: dict = {}
    for line in first[start:]:  # every solve line comes before the CLI runs
        if m := EXIT.match(line):
            files[m.group(1)] = []
        else:
            m = FILE.match(line)
            assert m, line
            files[m.group(1)].append(m.group(2))
    assert list(files.items()) == list(FILES.items())
