import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "import_cost.py"
MODULES = sorted(["bimlab"] + [f"bimlab.{path.stem}"
                               for path in (ROOT / "src" / "bimlab").glob("*.py")
                               if path.name != "__init__.py"])


def bytecode_files():
    return {(path, path.stat().st_mtime_ns) for path in ROOT.rglob("*.pyc")}


@pytest.mark.parametrize("flags", [[], ["--warm"]], ids=["cold", "warm"])
def test_import_cost_prints_each_module_and_the_total(flags):
    before = bytecode_files()
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", *flags], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["compile_ms", "exec_ms", "module"]
    assert [line[2] for line in lines] == MODULES
    assert total[2] == "total"
    compiled = [float(line[0]) for line in lines]
    # Cold runs compile every module; warm runs read the bytecode written first.
    assert all(ms > 0 for ms in compiled) if not flags else all(ms == 0 for ms in compiled)
    assert float(total[0]) == pytest.approx(sum(compiled), abs=0.06)
    assert bytecode_files() == before  # nothing is written inside the repository
