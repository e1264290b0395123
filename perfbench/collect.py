"""Run the benchmark several times per workload and summarise it.

From the repository root:

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

For each workload it makes ``--runs`` untraced runs with consecutive seeds
from ``--first-seed`` and one traced run with the first seed, then records, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median), plus the
traced per-layer table, with the Python version, ``nproc`` and the commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """One ``run.py`` invocation: its result line, its env line and its span lines."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    spans = [line for line in lines if line.startswith("span ")]
    return json.loads(lines[-1]), env, spans


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=["grid", "scale", "cli"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary = {"run_seconds": seconds, "runs": args.runs, "first_seed": args.first_seed,
               "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, _ = run_once(workload, seed, seconds, 0)
            results.append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, seed, json.dumps(values),
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"  {workload} {name}: median {stats['median']:.6g} spread {stats['spread']:.4f}"
                  f" (bound {bounds[name]})", flush=True)
        traced, _, spans = run_once(workload, args.first_seed, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["spans"] = spans
        print(f"  {workload} trace.overhead {entry['per_layer']['trace.overhead']:.4f}",
              flush=True)
        summary["workloads"][workload] = entry
    summary["env"] = {k: env[k] for k in ("python", "nproc", "commit")}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
