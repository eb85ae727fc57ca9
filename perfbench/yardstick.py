"""A yardstick for a machine whose speed will not hold still.

The sandbox this benchmark is sized for switches, every few tens of seconds,
between faster and slower stretches in which the same Python code differs by
a factor of up to 1.8 (a busy host, a sibling hyper-thread, a cache someone
else is flushing): six identical replays of one request list took between
10.8 and 16.7 s, which no regression bound survives.  The slow stretches can
be measured: between requests, off the request's clock, the driver times one
fixed piece of work that has nothing to do with the system under test — the
yardstick — and each request's service time is then expressed at *reference
speed*:

    pace   = yardstick time ÷ the workload's reference yardstick time
    scaled = measured ÷ (1 − follows + follows × median pace around the request)

``follows`` is how far that kind of request follows the yardstick.  The slow
stretches are mostly the memory system's, and the yardstick starts cache-cold
to feel them in full; pointer-chasing Python does the same (``follows`` ≈ 1),
vectorized numpy work notices half of it (≈ 0.5).  Each workload row carries
one fitted value per request kind (``follows_pace`` in ``workloads.py``).

Over runs taken hours apart, at paces from 0.7 to 1.5, this leaves a spread
(standard deviation of the logarithm) of 0.03-0.08 where the wall clock has
0.12-0.17.  A change to ``src/repro`` cannot move the yardstick, so a real
slow-down still shows in full; ``driver.machine_speed`` reports the run's
median pace.  Counts and memory are never scaled.

The disk has slow stretches of its own (minutes in which every fsync takes
half as long again) that this yardstick cannot see.  Where the system under
test waits on the disk (``durable-writes``), :class:`DiskYardstick` does the
same for it: it times one fixed append-and-fsync between requests, and the
part of a request spent inside ``os.fsync`` is divided by that pace, the rest
by the processor's.

How long the yardstick takes depends a little on what ran before it (how
much of the heap the last request dragged through the caches), so each
workload row carries its own reference time, the median it measured on the
sandbox when the benchmark was calibrated.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import List, Sequence

import numpy as np

#: A request is scaled by the median of the yardsticks this many requests
#: either side of it: long enough to ride out one preempted yardstick,
#: short enough to follow a change of pace within the run.
WINDOW = 10


class _Cell:
    __slots__ = ("x", "y", "tag")

    def __init__(self, i: int) -> None:
        self.x = float(i)
        self.y = i * 0.5
        self.tag = i


class Yardstick:
    """Fixed work shaped like the library's: attribute loops, a dict, numpy."""

    def __init__(self, reference_ms: float) -> None:
        self._reference_s = reference_ms / 1e3
        # Every 16th of many small objects: pointer chasing across the heap,
        # as an index traversal does, not a pass over one cache-warm list.
        self._cells = [_Cell(i) for i in range(24_000)][::16]
        self._column = np.arange(25_000, dtype=np.float64)
        self._scrub = np.zeros(500_000)  # 4 MB: more than the private caches hold

    def __call__(self) -> float:
        """Run the work once; returns the pace: duration ÷ reference duration.

        The slow stretches are mostly the memory system's (the yardstick
        tracks them when it has to fetch its data, not when it finds it in
        the cache), so the work must start cold — and equally cold whatever
        the last request left behind.  A pass over the scrub array first
        puts the caches in one known state.
        """
        self._scrub.sum()
        started = time.perf_counter()
        total = 0.0
        for cell in self._cells:
            total += cell.x * cell.y - cell.tag
        table = {}
        for i in range(250):
            table[i] = i
        np.hypot(self._column, self._column[::-1]).sum()
        return (time.perf_counter() - started) / self._reference_s


class DiskYardstick:
    """Fixed disk work, and a meter of how long the program waits on the disk.

    The work is what a write-ahead log does for one request: append a record
    of a few KB to a file next to the store and fsync it.  While the
    yardstick is open, ``os.fsync`` also adds its duration to ``waited``, so
    the driver can tell how much of a request was disk wait.
    """

    def __init__(self, path: str, reference_ms: float) -> None:
        self._reference_s = reference_ms / 1e3
        self._path = path
        self._fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND | os.O_TRUNC)
        self._record = b"\0" * 2048
        self.waited = 0.0
        self.written = 0  # bytes, by the yardstick itself
        self._fsync = fsync = os.fsync  # the program's: maybe a tracer's wrapper

        def metered(fd):
            started = time.perf_counter()
            try:
                return fsync(fd)
            finally:
                self.waited += time.perf_counter() - started

        os.fsync = metered

    def __call__(self) -> float:
        """Append and fsync once, unmetered; returns duration ÷ reference."""
        self.written += os.write(self._fd, self._record)
        started = time.perf_counter()
        _fsync(self._fd)
        return (time.perf_counter() - started) / self._reference_s

    def close(self) -> None:
        os.fsync = self._fsync
        os.close(self._fd)
        os.unlink(self._path)


_fsync = os.fsync  # before anyone wraps it


def local_paces(paces: Sequence[float]) -> List[float]:
    """Per request, the median pace of the requests around it."""
    return [median(paces[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(paces))]


def to_reference(seconds: float, pace: float, follows: float) -> float:
    """A duration measured at ``pace``, as it would read at reference speed.

    ``follows`` is how far this kind of work follows the yardstick: 1 when
    it slows down and speeds up exactly as the yardstick does, 0 when it
    does not notice, above 1 when it overreacts.
    """
    return seconds / (1.0 - follows + follows * pace)
