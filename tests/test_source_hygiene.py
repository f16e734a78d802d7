"""Source hygiene of ``src/minaction``, checked with the standard library alone.

* Every name a module imports is used in it, listed in its ``__all__``, or
  imported by a statement that carries ``# noqa: F401``.
* A ``# noqa: F401`` statement binds only names its module does not load,
  each of them named, as a string or an attribute, by a file under ``bench``
  or ``tools``: it keeps a name there for the benchmark tools to wrap.
* Every ``__all__`` entry is an attribute of its module.
* Every name in backticks in the function column of the README's "Key
  entry points" table is an attribute of the ``minaction`` package.
* Every function, class and constant a module defines at its top level is
  loaded by name somewhere in ``src``, ``tests``, ``bench`` or ``tools``, so
  no helper outlives its last caller.
* Every method and ``self.`` attribute of a class in a module is read as an
  attribute somewhere in those folders, so no member outlives its last reader.
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


def _bound_imports(tree, lines):
    """(bound name, excused) for every name an import in ``tree`` binds, ``__future__`` aside.

    A name is excused when its statement carries ``# noqa: F401``.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        excused = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], excused


def unused_imports(source: str) -> list:
    """Names bound by imports in ``source`` that nothing uses, exports or excuses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(_dunder_all(tree))
    return [bound for bound, excused in _bound_imports(tree, source.splitlines())
            if not excused and bound not in used and bound not in exported]


def misexcused_imports(source: str, named_by_tools: set) -> list:
    """Names a ``# noqa: F401`` import in ``source`` binds that it loads or ``named_by_tools`` lacks."""
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [bound for bound, excused in _bound_imports(tree, source.splitlines())
            if excused and (bound in loaded or bound not in named_by_tools)]


def strings_and_attributes(tree) -> set:
    """String constants and attribute names in ``tree``: how a tool names a module's attribute."""
    return {node.value if isinstance(node, ast.Constant) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Constant) and isinstance(node.value, str))}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used_exported_or_excused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.fixture(scope="module")
def named_by_tools():
    tools = [p for p in SEARCHED if p.relative_to(ROOT).parts[0] in ("bench", "tools")]
    return set().union(*(strings_and_attributes(ast.parse(p.read_text(encoding="utf-8")))
                         for p in tools))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_excused_import_is_unloaded_and_named_by_a_tool(path, named_by_tools):
    assert misexcused_imports(path.read_text(encoding="utf-8"), named_by_tools) == []


def test_misexcused_import_is_found():
    source = ("import os  # noqa: F401\nfrom math import (  # noqa: F401\n    pi,\n    tau,\n"
              "    e,\n)\nimport sys\nprint(pi, sys.path)\n")
    tree = ast.parse('wrap(module, "os")\nwrap(module, "pi")\nmodule.e\n')
    assert misexcused_imports(source, strings_and_attributes(tree)) == ["pi", "tau"]


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


def class_members(tree) -> list:
    """``Class.name`` of each method and ``self.`` attribute of the classes in ``tree``, dunders aside."""
    members = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [node.name for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names += [node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"]
        members += [f"{cls.name}.{name}" for name in dict.fromkeys(names)
                    if not (name.startswith("__") and name.endswith("__"))]
    return members


def read_attributes(tree) -> set:
    """Attribute names ``tree`` reads, as in ``obj.name`` or ``obj.name()``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_attributes(ast.parse(p.read_text(encoding="utf-8")))
                         for p in SEARCHED))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_class_member_is_read_somewhere(path, read_anywhere):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [m for m in class_members(tree) if m.split(".")[1] not in read_anywhere] == []


def test_unread_class_member_is_found():
    source = (
        "class Band:\n    def __init__(self, a):\n        self.a, self.left = a, 1\n"
        "        self.gram = a\n    def at(self):\n        return self.a\n"
        "    def unused(self):\n        self.gram = 2\n"
        "    def __call__(self):\n        return self.at()\n"
        "b = Band(1)\nb.gram_matrix = 0\nprint(b(), b.left)\n"
    )
    tree = ast.parse(source)
    assert [m for m in class_members(tree) if m.split(".")[1] not in read_attributes(tree)] == [
        "Band.unused", "Band.gram"]
