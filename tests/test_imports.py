"""Every module of ``bimlab`` uses each name it imports, and every private
name a module defines at its top level is read somewhere in the package.
The package's ``__init__.py`` imports names to export them, so it is left
out of the first check; instead its ``__all__`` must list exactly the names
it imports. Tests do not count as readers."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import bimlab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bimlab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> Counter[str]:
    """How often ``tree`` reads each name, in code and in quoted
    annotations."""
    used = Counter()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used += used_names(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


def private_definitions(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Each top-level function, class or assignment of a private name (one
    underscore first, not a dunder), with the name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def read_names(tree: ast.AST) -> Counter[str]:
    """``used_names``, and the attributes ``tree`` reads, as in
    ``module._name``."""
    return used_names(tree) + Counter(node.attr for node in ast.walk(tree)
                                      if isinstance(node, ast.Attribute))


def unread_private_names(texts: dict[str, str]) -> list[str]:
    """The private top-level names of the modules ``texts`` (by module
    name) that no module reads outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    reads = sum((read_names(tree) for tree in trees.values()), Counter())
    return [f"{module} line {node.lineno}: {name}" for module, tree in trees.items()
            for node, name in private_definitions(tree)
            if reads[name] <= read_names(node)[name]]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_export_list_is_sorted_and_names_every_import():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert bimlab.__all__ == sorted(bimlab.__all__)
    assert set(bimlab.__all__) == set(imported_names(tree))


def test_an_unused_import_is_found():
    text = ("from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Iterable, Sequence as Seq\n"
            "def f(xs: 'Iterable[int]') -> int:\n"
            "    return len(xs)\n")
    assert unused_imports(text) == ["line 2: os", "line 3: Seq"]


def test_every_private_name_is_read_in_the_package():
    texts = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(texts) == []


def test_an_unread_private_name_is_found():
    texts = {"a.py": ("_LIMIT = 3\n"
                      "_used = 1\n"
                      "def _helper(x):\n"
                      "    return _helper(x - 1) if x else _used\n"
                      "class _Kind:\n"
                      "    def same(self) -> '_Kind':\n"
                      "        return self\n"
                      "def __getattr__(name):\n"
                      "    return name\n"),
             "b.py": ("import a\n"
                      "from a import _helper\n"
                      "print(a._LIMIT)\n")}
    assert unread_private_names(texts) == ["a.py line 3: _helper", "a.py line 5: _Kind"]
