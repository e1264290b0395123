"""The README's command-line example runs as written: each ``bimlab`` line of
its ``sh`` block goes through ``bimlab.cli.main`` in a fresh directory, and
each ``# -> X`` comment is a prefix of that command's output."""

import re
import shlex
from pathlib import Path

from bimlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def example_commands():
    """``(argv, expected prefix or None)`` for each ``bimlab`` line of the
    first ``sh`` block that runs ``bimlab``. A trailing ``...`` in a comment
    marks output that goes on."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    block = next(b for b in blocks if re.search(r"^bimlab ", b, re.M))
    commands = []
    for line in block.splitlines():
        if not line.startswith("bimlab "):
            continue
        command, _, comment = line.partition("#")
        expected = None
        if comment.startswith(" -> "):
            expected = comment[len(" -> "):].strip().removesuffix("...").rstrip()
        commands.append((shlex.split(command)[1:], expected))
    return commands


def test_the_readme_example_runs_as_written(tmp_path, monkeypatch, capsys):
    commands = example_commands()
    assert sum(expected is not None for _, expected in commands) >= 4
    monkeypatch.chdir(tmp_path)
    for argv, expected in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if expected is not None:
            assert out.startswith(expected), (argv, out)
