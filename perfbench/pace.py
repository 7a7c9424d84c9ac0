"""Times scaled to a reference machine speed.

Shared hosts drift.  On a shared 2-core host, a fixed pure-Python loop was
seen to run anywhere from 28 to 45 times a second within two and a half
minutes, so raw times of identical runs differed by more than any useful
regression bound.  A ``Pace`` therefore runs four small calibration kernels,
which do not touch rdsymm, about every quarter second between claim checks.
The kernels exercise what rdsymm's hot paths do: interpreter arithmetic,
dictionaries keyed by tuples, ``Fraction`` arithmetic, and building and
hashing small object graphs.  The machine's speed is the geometric mean
over the kernels of ``REFERENCE_NS`` over the kernel's fastest of three
runs; each stretch of measured time between two calibrations is multiplied
by the mean speed at its two ends.  The result is the time the work would
have taken on a machine that runs every kernel in ``REFERENCE_NS``.  The
calibrations themselves are left out of the measured time.

Scaling by the geometric mean of the four kernels brought the run-to-run
spread (quartile distance over median) of 10-second windows of the same
work from about 20% to about 3% on that host.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction
from typing import List

REFERENCE_NS = 1_000_000
REPEATS = 3
PERIOD_NS = 250_000_000


def _arithmetic():
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def _tuple_dict():
    d = {}
    for i in range(3_000):
        key = (i % 31, "x", i % 7)
        d[key] = d.get(key, ()) + (i,)
    return sorted(d)


def _fractions():
    acc = Fraction(0)
    for i in range(500):
        acc += Fraction(i % 5 + 1, i % 3 + 1)
    return acc


class _Node:
    __slots__ = ("left", "right", "h")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.h = hash((left, right))


def _object_graph():
    nodes = [_Node(i, None) for i in range(50)]
    for i in range(2_000):
        nodes.append(_Node(nodes[i % len(nodes)], nodes[i * 7 % len(nodes)]))
    return {n.h for n in nodes}


KERNELS = (_arithmetic, _tuple_dict, _fractions, _object_graph)


def speed() -> float:
    """Machine speed now, relative to the reference machine.

    The collector is off meanwhile, so that the kernels' allocations do not
    move the points where it runs inside the measured work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for kernel in KERNELS:
            best = math.inf
            for _ in range(REPEATS):
                start = time.perf_counter_ns()
                kernel()
                best = min(best, time.perf_counter_ns() - start)
            logs += math.log(REFERENCE_NS / max(best, 1))
    finally:
        if enabled:
            gc.enable()
    return math.exp(logs / len(KERNELS))


class Pace:
    """Scaled wall time of one stretch of work and of each check in it."""

    def __init__(self):
        self.wall_ns = 0.0            # scaled, calibrations left out
        self.raw_wall_ns = 0          # unscaled, calibrations left out
        self.times_ns: List[float] = []
        self._pending: List[int] = []
        self._speed = 0.0
        self._start = 0

    def begin(self) -> "Pace":
        self._speed = speed()
        self._start = time.perf_counter_ns()
        return self

    def record(self, raw_ns: int) -> None:
        """One check's unscaled time; calibrates when a period has passed."""
        self._pending.append(raw_ns)
        if time.perf_counter_ns() - self._start >= PERIOD_NS:
            self._close()

    def end(self) -> "Pace":
        self._close()
        return self

    def _close(self) -> None:
        raw = time.perf_counter_ns() - self._start
        now = speed()
        factor = (self._speed + now) / 2
        self.raw_wall_ns += raw
        self.wall_ns += raw * factor
        self.times_ns += [t * factor for t in self._pending]
        self._pending = []
        self._speed = now
        self._start = time.perf_counter_ns()
