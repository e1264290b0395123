"""Every module of ``bimlab`` uses each name it imports. The package's
``__init__.py`` imports names to export them, so it is left out."""

import ast
from pathlib import Path

import pytest

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


def used_names(tree: ast.AST) -> set[str]:
    """The names the module reads, in code and in quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    text = ("from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Iterable, Sequence as Seq\n"
            "def f(xs: 'Iterable[int]') -> int:\n"
            "    return len(xs)\n")
    assert unused_imports(text) == ["line 2: os", "line 3: Seq"]
