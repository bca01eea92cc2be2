"""A fixed piece of pure-Python work that gauges the host's current speed.

The benchmark host is shared: other tenants slow every process on it by up to
a third, in phases that last from under a second to minutes, and CPU time
slows with wall time.  The probe runs the same kind of work as carrieslab
(``Fraction`` and bignum arithmetic, small lists and dicts) but never
changes.  ``Gauge`` runs it just before and after a call and, from a timer
signal, every TICK_S seconds during the call, so the ratio of the call's time
to the probe's mean time depends on the program and much less on the phase
the host was in.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Probe runs on each side of a call; one every TICK_S seconds during it.
EDGE_RUNS = 5
TICK_S = 0.1
# The probe's median time during calls over runs of all three workloads on
# the reference host, a 2-vCPU "Intel Xeon Processor" VM at 2.0 GHz with
# Python 3.11.7.  ``wall_ref_s`` is a call's time rescaled to this speed; it
# is fixed, so that figures from different commits compare.
REFERENCE_S = 0.003


def work() -> object:
    """About 2 ms of fixed interpreter work on the reference host."""
    total = Fraction(0)
    counts: dict[int, int] = {}
    row = []
    for i in range(1, 500):
        total += Fraction(i % 7 + 1, i)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        row = sorted([(i * 31) % 17, (i * 7) % 13, i % 5, len(row)])
    return total, counts, row


def sample(runs: int = EDGE_RUNS) -> list[float]:
    """Times of ``runs`` probe runs in a row."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return times


class Gauge:
    """Probes the host's speed around and during one timed call.

    ``start()`` probes EDGE_RUNS times and starts the timer, ``stop()``
    stops it and returns the time the probes took during the call (to be
    taken off the call's elapsed time), and ``close()`` probes EDGE_RUNS
    times more and returns the mean time of every probe.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times += sample(1)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.times += sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return spent

    def close(self) -> float:
        self.times += sample()
        return sum(self.times) / len(self.times)
