"""bimlab benchmark: one workload, measured for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Every iteration runs in fresh interpreters (``worker.py``), so caches that
live for the life of a process start cold each time, as they do for a user:
two identical workers at once, each pinned to one of two CPUs. Times are
stated at one reference CPU speed (``speed.py``), so that other tenants of a
shared machine do not move them.
With ``--trace 0`` the run times untraced iterations and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
iterations and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--smoke`` runs tiny cells in seconds for the harness's own tests; its
numbers are never used for a claim.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, layer_metrics

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid", "scale", "cli")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
RUN_LIMIT_S = 170  # every worker is stopped by then, well inside 180 s


def environment(root: Path) -> dict:
    """Python version, usable cores and, in a git checkout, the commit."""
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit}


class Runner:
    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = BENCH / "_work"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = self.failed = 0
        self.iteration = 0
        self.cpus = sorted(os.sched_getaffinity(0))[:2]

    def spawn(self, setup_only: bool = False, trace: bool = False) -> list[dict]:
        """The same iteration in one worker per CPU (at most two), started
        together and each pinned to its CPU; the results of those that
        finished. A lost worker counts as a failed operation."""
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--iteration", str(self.iteration),
               "--work-dir", str(self.work)]
        cmd += ["--smoke"] * self.args.smoke + ["--setup-only"] * setup_only
        cmd += ["--trace"] * trace
        self.iteration += 1
        procs = [subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())], cwd=self.root,
                                  env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
                 for cpu in self.cpus]
        results = []
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                for p in procs:
                    p.kill()
                for p in procs:
                    p.communicate()
                self._lost(f"worker timed out: {' '.join(cmd[2:])}")
                return results
            if proc.returncode != 0 or not out.strip():
                self._lost(f"worker exited {proc.returncode}: {err[-2000:]}")
                continue
            result = json.loads(out.splitlines()[-1])
            if not setup_only:
                self.attempted += result["attempted"]
                self.failed += result["failed"]
                for failure in result["failures"]:
                    print(f"FAILED: {failure}", file=sys.stderr)
            results.append(result)
        return results

    def _lost(self, message: str) -> None:
        print(message, file=sys.stderr)
        self.attempted += 1
        self.failed += 1

    def iterations(self, kinds: tuple[bool, ...], setups: list | None = None):
        """Run iterations cycling through ``kinds`` (traced or not) for
        ``--seconds``: at least one of each kind, and no new one that the
        median time of its kind so far says would end past the budget. With
        ``setups``, a set-up-only worker runs before each iteration, so that
        set-up samples spread over the run like the timed ones."""
        done: dict[bool, list[dict]] = {kind: [] for kind in kinds}
        durations: dict[bool, list[float]] = {kind: [] for kind in kinds}
        started = time.monotonic()
        for count in itertools.count():
            kind = kinds[count % len(kinds)]
            now = time.monotonic()
            if all(durations.values()) and (
                    now - started + statistics.median(durations[kind]) > self.args.seconds):
                break
            if now > self.deadline - 1:
                break
            if setups is not None:
                setups += self.spawn(setup_only=True)
            results = self.spawn(trace=kind)
            durations[kind].append(time.monotonic() - now)
            if results:
                done[kind].append(results)
        return done


def measure(runner: Runner) -> dict[str, float] | None:
    args = runner.args
    runner.spawn(setup_only=True)  # compiles bytecode; not counted
    if not args.trace:
        setups: list[dict] = []
        timed = runner.iterations((False,), setups)[False]
        if not timed:
            return None
        every = [r for pair in timed for r in pair]
        setup_s = [r["setup_s"] for r in setups + every]
        print("iterations work_s " + " ".join(
            "/".join(f"{r['work_s']:.3f}" for r in pair) for pair in timed)
            + " setup_s " + " ".join(f"{s:.3f}" for s in setup_s))
        print(f"wall time (not at reference speed): timed phase median "
              f"{statistics.median(r['wall_s'] for r in every):.4f} s, set-up median "
              f"{statistics.median(r['setup_wall_s'] for r in setups + every):.4f} s")
        return {
            "wall_s": statistics.median(r["work_s"] for r in every),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in every),
            "ok_ratio": (runner.attempted - runner.failed) / max(runner.attempted, 1),
        }
    done = runner.iterations((False, True))
    plain, traced = done[False], done[True]
    if not plain or not traced:
        return None
    every = [r for pair in traced for r in pair]
    per_iteration = [layer_metrics(r["spans"]) for r in every]
    metrics = {name: statistics.median(v[name] for v in per_iteration)
               for name, _ in PER_LAYER if name not in ("trace.wall_s", "trace.overhead")}
    metrics["trace.wall_s"] = statistics.median(r["work_s"] for r in every)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(
        r["work_s"] for pair in plain for r in pair)
    middle = sorted(every, key=lambda r: r["wall_s"])[len(every) // 2]
    for name, span in middle["spans"].items():
        print(f"span {name}: " + " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in span.items()))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells for the harness's own tests; never for a claim")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bimlab" / "__init__.py").is_file():
        print(f"error: no bimlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    print("env " + json.dumps({**environment(root), "workload": args.workload,
                               "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, "smoke": args.smoke}))
    runner = Runner(root, args)
    runner.work.mkdir(exist_ok=True)
    try:
        values = measure(runner)
    finally:
        try:
            runner.work.rmdir()
        except OSError:
            pass
    if values is None:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if not args.trace:
        print(f"metric fail_ratio = {runner.failed / max(runner.attempted, 1)!r} ratio")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
