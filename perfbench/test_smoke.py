"""Tests of the benchmark harness in smoke mode (tiny cells, about a second
per run). Run from the repository root: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--trace", "0", "--smoke"))
    want = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(bench("--workload", "cli", "--trace", "1", "--smoke"))
    want = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # One cell, three files of 25 words, plus one eval on the malformed file.
    assert values["cli.eval.calls"] == 76
    assert values["textfmt.parse.calls"] > values["cli.eval.calls"]
    assert values["trace.overhead"] > 0


def test_traced_grid_counts_calls_through_every_binding():
    result = result_of(bench("--workload", "grid", "--trace", "1", "--smoke"))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # oracle is called through lowerbound's binding, reduce through
    # bimachine's binding of moore_reduce.
    assert values["instances.oracle.calls"] == values["bimachine.evaluate.calls"] > 0
    assert values["fsm.moore_reduce.calls"] == 2 * 4  # two sides, 2 cells x 2 constructions
    assert 0 < values["lowerbound.verify_share"] < 1


def test_config_matches_the_tracer():
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == list(PER_LAYER)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench("--workload", "grid", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
