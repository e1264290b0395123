import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


def f(x):
    """A function docstring."""
    # a comment line
    total = (x +
             1)
    return total
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # Code: the import, the def, both lines of the expression and the return.
    assert code_lines.count(SNIPPET) == (5, 12)


def test_code_lines_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["5", "12", str(tmp_path / "a.py")], ["1", "3", str(tmp_path / "b.py")],
        ["6", "15", "total"]]
