"""One iteration of one workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``. It starts a speed probe
first, imports bimlab, builds the workload's inputs, and with
``--setup-only`` stops there; otherwise it runs the timed phase, traced when
``--trace`` is given. It prints one JSON line: the set-up seconds (from the
parent's spawn, ``--spawned``), the timed phase's seconds, each as wall time
and at reference speed (see ``speed.py``), the peak resident set, the check
counts and, when traced, the span table.
"""

from __future__ import annotations

import time

from speed import SpeedProbe

PROBE_PERIOD_S = 0.01
probe = SpeedProbe(PROBE_PERIOD_S)
probe.start()

import argparse  # noqa: E402  (after the probe, so that set-up is sampled)
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    setup, run = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(dir=args.work_dir))
    try:
        inputs = setup(args.seed, args.iteration, args.smoke, work)
        ready = time.monotonic()
        result = {"setup_wall_s": ready - args.spawned,
                  "setup_s": probe.at_reference(args.spawned, ready)}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            if tracer:
                tracer.install()
            check = Checker()
            started = time.monotonic()
            run(inputs, check)
            ended = time.monotonic()
            probe.stop()
            result.update(wall_s=ended - started, work_s=probe.at_reference(started, ended))
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result.update(attempted=check.attempted, failed=check.failed,
                          failures=check.failures)
            if tracer:
                result["spans"] = tracer.table()
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
