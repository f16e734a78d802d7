"""Source hygiene of ``src/minaction``, checked with the standard library alone.

* Every name a module imports is used in it, listed in its ``__all__``, or
  imported by a statement that carries ``# noqa: F401``.
* Every ``__all__`` entry is an attribute of its module.
* Every name in backticks in the function column of the README's "Key
  entry points" table is an attribute of the ``minaction`` package.
* Every function, class and constant a module defines at its top level is
  loaded by name somewhere in ``src``, ``tests``, ``bench`` or ``tools``, so
  no helper outlives its last caller.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import minaction

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "minaction").glob("*.py"))
# every Python file that may use a name of the package; hidden directories
# (scratch checkouts of the benchmark tools) are not the project's own code
SEARCHED = sorted(
    path for folder in ("src", "tests", "bench", "tools") for path in (ROOT / folder).rglob("*.py")
    if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
)


def _dunder_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing uses, exports or excuses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(_dunder_all(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound not in exported:
                unused.append(bound)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used_exported_or_excused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_dunder_all_entry_exists(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    name = "minaction" if path.stem == "__init__" else f"minaction.{path.stem}"
    module = importlib.import_module(name)
    assert [entry for entry in _dunder_all(tree) if not hasattr(module, entry)] == []


def test_readme_entry_points_are_package_attributes():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("Key entry points:") + 1
    while not lines[start].startswith("|"):
        start += 1
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    column = "\n".join(line.split("|")[1] for line in lines[start:end])
    names = re.findall(r"`([A-Za-z_]\w*)`", column)
    assert len(names) > 10
    assert [name for name in names if not hasattr(minaction, name)] == []


def top_level_definitions(tree) -> list:
    """Functions, classes and constants bound at the top level of ``tree``, dunder names aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def loaded_names(tree) -> set:
    """Names ``tree`` loads: read names, attribute names, imported names and ``__all__`` entries."""
    names = set(_dunder_all(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@pytest.fixture(scope="module")
def loaded_anywhere():
    return set().union(*(loaded_names(ast.parse(p.read_text(encoding="utf-8"))) for p in SEARCHED))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_definition_is_loaded_somewhere(path, loaded_anywhere):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [name for name in top_level_definitions(tree) if name not in loaded_anywhere] == []


def test_unloaded_definition_is_found():
    source = (
        "import os\nfrom math import tau\n__all__ = ['Shown']\n_LIMIT: int = 3\nA, B = 1, 2\n"
        "class Shown: pass\ndef _used(): return A + os.sep\ndef _left(): pass\n"
        "def _called(): return _used() + _LIMIT\n_called()\n"
    )
    tree = ast.parse(source)
    assert [n for n in top_level_definitions(tree) if n not in loaded_names(tree)] == ["B", "_left"]
