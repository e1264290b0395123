"""Measure what importing bimlab costs, module by module.

Each run starts a fresh interpreter (``sys.executable -X importtime``, with
the repository's ``src`` as PYTHONPATH) that imports ``bimlab`` and
``bimlab.cli``, one run after another. Inside it,
``SourceLoader.source_to_code`` is timed: that is where a module's source is
compiled to bytecode. For each ``bimlab`` module the tool prints the median
compile ms and the median exec ms, which is the module's own import time as
``-X importtime`` reports it (without the modules it imports) less its
compile. The last line gives the medians of the per-run totals.

Usage: python3 tools/import_cost.py [--runs N] [--warm]

Cold runs, the default, set PYTHONDONTWRITEBYTECODE=1 and read bytecode
from an empty temporary PYTHONPYCACHEPREFIX, so every module is compiled
from source (the standard library's too, which is not printed). ``--warm``
first runs one interpreter that writes the bytecode to a temporary prefix,
and the runs then read it. Nothing is written inside the repository.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in the fresh interpreter: time each compile, import, print the
# seconds spent compiling per module name.
CHILD = """
import time, _frozen_importlib_external as external
spent = {}
source_to_code = external.SourceLoader.source_to_code
def timed(self, *args, **kwargs):
    started = time.perf_counter()
    try:
        return source_to_code(self, *args, **kwargs)
    finally:
        spent[self.name] = spent.get(self.name, 0.0) + time.perf_counter() - started
external.SourceLoader.source_to_code = timed
import bimlab, bimlab.cli
print(repr(spent))
"""


def one_run(env: dict[str, str], cwd: str) -> dict[str, tuple[float, float]]:
    """``{module: (compile ms, exec ms)}`` for the bimlab modules of one
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"the import failed:\n{proc.stderr}")
    compile_s = ast.literal_eval(proc.stdout.strip())
    costs = {}
    for line in proc.stderr.splitlines():
        # import time: self [us] | cumulative | imported package
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = line.partition(":")[2].split("|")
        name = name.strip()
        if name == "bimlab" or name.startswith("bimlab."):
            compiled = compile_s.get(name, 0.0) * 1000
            costs[name] = (compiled, int(own) / 1000 - compiled)
    return costs


def measure(runs: int, warm: bool) -> list[dict[str, tuple[float, float]]]:
    with tempfile.TemporaryDirectory(prefix="import_cost_") as prefix:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if warm:
            one_run(env, prefix)  # writes the bytecode under the prefix
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return [one_run(env, prefix) for _ in range(runs)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="fresh interpreters to time")
    parser.add_argument("--warm", action="store_true", help="read bytecode written beforehand")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    try:
        results = measure(args.runs, args.warm)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{'compile_ms':>10} {'exec_ms':>9}  module")
    for name in sorted(set().union(*results)):
        compiled = statistics.median(run.get(name, (0.0, 0.0))[0] for run in results)
        executed = statistics.median(run.get(name, (0.0, 0.0))[1] for run in results)
        print(f"{compiled:10.2f} {executed:9.2f}  {name}")
    compiled = statistics.median(sum(c for c, _ in run.values()) for run in results)
    executed = statistics.median(sum(e for _, e in run.values()) for run in results)
    print(f"{compiled:10.2f} {executed:9.2f}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
