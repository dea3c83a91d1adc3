"""Wall time scaled to a machine of fixed speed.

The benchmark runs on shared machines whose speed swings by a factor of two
or more over seconds to hours: other tenants slow the cores down, and CPU
time grows with wall time, so neither clock gives a steady figure.  Both a
fixed Python loop and the library slow down together, so the loop is the
yardstick: it is timed between ops and, by SIGALRM every TICK_S, inside
them, and an op's wall time is multiplied by the mean speed those samples
read.  The result is the op's time on a machine that runs the loop at
NOMINAL_STEP_S per step (about a quiet machine of the baseline's kind).
A change to the library moves it in full; a busy neighbour moves it little.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

NOMINAL_STEP_S = 40e-9  # one step of spin() on the reference machine
BETWEEN_STEPS = 50_000  # a sample between ops: 2 ms at nominal speed
TICK_STEPS = 5_000  # a sample inside an op: 0.2 ms
TICK_S = 0.025


def spin(steps: int) -> int:
    total = 0
    for i in range(steps):
        total += i
    return total


def speed(steps: int) -> tuple[float, float, float]:
    """(start, nominal / measured time, measured time) of spin(steps)."""
    t0 = time.perf_counter()
    spin(steps)
    t1 = time.perf_counter()
    return t0, steps * NOMINAL_STEP_S / (t1 - t0), t1 - t0


class Speedometer:
    """Times blocks of work and scales them to nominal speed."""

    def __init__(self, ticks: bool = True):
        self.tick_s = TICK_S if ticks else 0
        self.ticks: list[tuple[float, float, float]] = []
        self.samples: list[float] = []  # every speed read, for the details
        self.last = speed(BETWEEN_STEPS)[1]
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.ticks.append(speed(TICK_STEPS))

    @contextlib.contextmanager
    def timing(self, inline: bool = True):
        """Yield a dict that holds `wall_s` and `nominal_s` after the block.

        inline: the block runs in this process, so the time the ticks take
        comes out of its wall time; a block that waits for a child process
        is not slowed by them.
        """
        took = {}
        self.ticks.clear()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        t0 = time.perf_counter()
        try:
            yield took
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            inside = [(s, d) for start, s, d in self.ticks if start < t1]
            after = speed(BETWEEN_STEPS)[1]
            reads = [self.last, after] + [s for s, _ in inside]
            self.last = after
            self.samples += reads[1:]
            took["wall_s"] = t1 - t0 - inline * sum(d for _, d in inside)
            took["nominal_s"] = took["wall_s"] * statistics.fmean(reads)
