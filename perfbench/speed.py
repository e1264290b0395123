"""A CPU speed probe, so that times can be stated at one reference speed.

On a shared machine other tenants slow a CPU by up to about 2x, in phases of
one to tens of seconds (measured on the 2-vCPU Xeon VM the benchmark was
built on: a fixed pure-Python loop took 11 ms in fast phases and 20 ms in
slow ones). A phase can cover a whole run, so no choice of fastest or
median iteration removes it.

``SpeedProbe`` runs a fixed pure-Python kernel (dict and tuple work, like
the program's) from a ``SIGALRM`` handler every ``period`` seconds of wall
time, and records how long each run of the kernel took. The handler runs
between the program's bytecodes, so the samples follow the CPU's speed
through the window being timed. ``at_reference`` turns a window's wall time
into the time the program would have taken at the speed where the kernel
takes ``REFERENCE_S``: with samples evenly spaced in wall time, that is the
program's own wall time (the window less the probe's time) times the mean of
``REFERENCE_S / sample``. A change of the program moves this time just as it
moves wall time; only the machine's speed is taken out.
"""

from __future__ import annotations

import signal
import statistics
import time

# The kernel's time in the fast phases of the machine the benchmark was
# built on, so that times at reference speed read close to the wall times
# of a quiet machine there.
REFERENCE_S = 0.28e-3


def _kernel() -> int:
    table: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13, i >> 3)
        table[key] = table.get(key, 0) + len(key)
    return len(table)


class SpeedProbe:
    def __init__(self, period: float):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (monotonic time at start, seconds)

    def _sample(self, signum, frame) -> None:
        started = time.monotonic()
        _kernel()
        self.samples.append((started, time.monotonic() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def at_reference(self, start: float, end: float) -> float:
        """Seconds of program work from ``start`` to ``end`` (``time.monotonic()``
        values) at reference speed. Without a sample in the window, the
        samples of the whole life of the probe give the speed."""
        inside = [s for t, s in self.samples if start <= t < end]
        speed = inside or [s for _, s in self.samples]
        if not speed:
            return end - start
        own = end - start - sum(inside)
        return own * statistics.fmean(REFERENCE_S / s for s in speed)
