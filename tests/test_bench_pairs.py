"""``tools/bench_pairs.py``: the verdict rule, one smoke pair, and the exit code."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([0.5] * 10, "gain"),
        ([0.5] * 9 + [1.2], "gain"),               # 9 of 10 pairs won
        ([0.5] * 8 + [1.2] * 2, "within"),         # 8 of 10 is too few
        ([0.99] * 10, "within"),                   # every pair won, inside the spread
        ([1.3] * 10, "over bound"),
    ],
    ids=["all_won", "nine_won", "eight_won", "inside_spread", "worse"],
)
def test_verdict_rule(change, verdict):
    parent = [1.0, 0.95, 1.05, 1.0, 0.97, 1.03, 1.0, 0.98, 1.02, 1.0]
    row = _load_tool().compare(parent, change, "lower", 0.25)
    assert row["verdict"] == verdict
    assert row["pairs"] == 10


def _committed_copy(dest: Path) -> Path:
    """This checkout's harness and sources committed to a new git work tree at ``dest``.

    ``--record`` needs the top of a git work tree, and the suite may run from
    an unpacked archive that is none.
    """
    skip = shutil.ignore_patterns("__pycache__", "results", ".work")
    for rel in ("bench", "src/minaction"):
        shutil.copytree(ROOT / rel, dest / rel, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    git = ["git", "-C", str(dest), "-c", "user.name=bench", "-c", "user.email=bench@invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(dest)], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "copy"], check=True)
    return dest


def test_smoke_pair_of_this_checkout_against_itself(tmp_path):
    checkout = _committed_copy(tmp_path / "checkout")
    record_path = tmp_path / "BENCH.json"
    proc = run_tool("--parent", str(checkout), "--change", str(checkout), "--workload", "case_i",
                    "--workload", "case_ii", "--pairs", "1", "--smoke", "--seconds", "0",
                    "--claim", "case_ii:wall_s", "--record", str(record_path))
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert [line["workload"] for line in lines] == ["case_i", "case_ii"]
    assert record["results"] == lines
    assert record["claimed"] == {"workload": "case_ii", "metric": "wall_s"}
    assert record["command"] == (
        "python3 tools/bench_pairs.py --parent PARENT --change CHANGE --workload case_i "
        "--workload case_ii --pairs 1 --seed0 1 --seconds 0 --smoke"
    )
    assert record["parent"] == record["change"] and len(record["parent"]) >= 7
    assert "Python" in record["host"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for summary in lines:
        assert list(summary["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        for row in summary["metrics"].values():
            assert row["pairs"] == 1 and 0 <= row["won"] <= 1
            assert row["verdict"] != "gain"  # one pair claims nothing
        for name in ("failed_frac", "action_err"):  # the same code on both sides
            row = summary["metrics"][name]
            assert row["parent_median"] == row["change_median"]


def test_claim_must_name_a_compared_workload_and_metric(tmp_path):
    proc = run_tool("--parent", str(ROOT), "--change", str(ROOT), "--workload", "case_i",
                    "--pairs", "1", "--smoke", "--seconds", "0", "--claim", "case_ii:wall_s",
                    "--record", str(tmp_path / "BENCH.json"))
    assert proc.returncode == 2
    assert "--claim case_ii:wall_s" in proc.stderr
    assert not (tmp_path / "BENCH.json").exists()


def test_different_harnesses_exit_before_any_run(tmp_path):
    sides = []
    for side, extra in (("parent", ""), ("change", "# changed\n")):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        (checkout / "bench" / "run.py").write_text("open('ran', 'w').close()\n" + extra)
        sides.append(checkout)
    proc = run_tool("--parent", str(sides[0]), "--change", str(sides[1]), "--workload", "case_i",
                    "--pairs", "1", "--seconds", "0")
    assert proc.returncode == 1
    assert "bench/run.py" in proc.stderr
    assert not any((side / "ran").exists() for side in sides)


def test_each_checkout_is_imported_before_its_first_timed_run(tmp_path):
    # the runner reports whether its checkout's minaction had bytecode when it
    # started; without the untimed import, pair 0 would compile it on both sides
    sides = []
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "src" / "minaction").mkdir(parents=True)
        (checkout / "src" / "minaction" / "__init__.py").write_text("")
        (checkout / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
        ))
        (checkout / "bench" / "run.py").write_text(
            "import json, pathlib\n"
            "warm = pathlib.Path('src/minaction/__pycache__').is_dir()\n"
            "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,\n"
            "                  'metrics': {'wall_s': {'value': 1.0 if warm else 2.0, 'unit': 's'}}}))\n"
        )
        sides.append(checkout)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", str(sides[0]), "--change",
                           str(sides[1]), "--workload", "case_i", "--pairs", "1", "--seconds", "0"],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    for side in ("parent", "change"):
        assert f"case_i pair 0 seed 1 {side}: wall_s=1.0\n" in proc.stdout


def test_incorrect_run_exits_nonzero(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)  # --record needs a work tree
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    ))
    (tmp_path / "bench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'correct': False, 'attempted': 1, 'failed': 1,\n"
        "                  'metrics': {'wall_s': {'value': 1.0, 'unit': 's'}}}))\n"
    )
    proc = run_tool("--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "case_i",
                    "--pairs", "1", "--seconds", "0", "--record", str(tmp_path / "BENCH.json"))
    assert proc.returncode == 1
    assert "incorrect" in proc.stdout
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["no_work_tree", "inside_another_work_tree"])
def test_record_refuses_a_checkout_that_is_not_its_own_work_tree(tmp_path, nested):
    # A copy of the checkout without .git, as `git archive` unpacks it; inside
    # another work tree, `git -C` would describe the enclosing repository.
    if nested:
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    copy = tmp_path / "copy"
    (copy / "bench").mkdir(parents=True)
    (copy / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (copy / "bench" / "run.py").write_text("open('ran', 'w').close()\n")
    record = tmp_path / "BENCH.json"
    proc = run_tool("--parent", str(copy), "--change", str(copy), "--workload", "case_i",
                    "--pairs", "1", "--seconds", "0", "--record", str(record))
    assert proc.returncode == 1
    assert f"{copy} is not the top of its own git work tree" in proc.stderr
    assert proc.stdout == ""
    assert not record.exists()
    assert not (copy / "ran").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_record_refuses_a_dirty_checkout(tmp_path, side):
    # a committed checkout with one tracked file modified, on either side,
    # against a clean clone of it
    dirty = _committed_copy(tmp_path / "dirty")
    clean = tmp_path / "clean"
    subprocess.run(["git", "clone", "-q", str(dirty), str(clean)], check=True)
    with open(dirty / "src" / "minaction" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("# modified\n")
    parent, change = (dirty, clean) if side == "parent" else (clean, dirty)
    record = tmp_path / "BENCH.json"
    proc = run_tool("--parent", str(parent), "--change", str(change), "--workload", "case_i",
                    "--pairs", "1", "--smoke", "--seconds", "0", "--record", str(record))
    assert proc.returncode == 1
    assert f"{dirty} has uncommitted changes to tracked files (" in proc.stderr
    assert "-dirty)" in proc.stderr
    assert proc.stdout == ""
    assert not record.exists()
    assert not any((c / "bench" / "results").exists() for c in (dirty, clean))  # nothing ran
