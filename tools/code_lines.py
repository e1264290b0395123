"""Count the code lines of Python files.

A code line is a physical line that holds a token other than a comment,
where the token is not part of a docstring: the string that opens a module,
a class or a function body. Blank lines and comment lines are left out, and
every line of a statement that spans several lines counts.

Usage: python3 tools/code_lines.py PATH [PATH ...]

Each PATH is a file or a directory, which is searched for ``*.py`` files.
Prints one line per file, ``code lines`` then ``lines`` then the path, and
the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code lines, lines)`` of a module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total_code = total_lines = 0
    for path in python_files(argv):
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{code:7} {lines:7}  {path}")
    print(f"{total_code:7} {total_lines:7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
