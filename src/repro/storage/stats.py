"""I/O statistics.

Every experiment in the paper reports average I/O per query and per update.
The :class:`IOStats` object is shared by a :class:`~repro.storage.DiskManager`
and its :class:`~repro.storage.BufferManager`, and is the one ledger of their
cumulative counters: each page access is recorded here exactly once, and
the harness attributes I/O to an operation by differencing the counters
around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counter:
    """A simple read/write counter."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


@dataclass
class BufferCounter:
    """Buffer-pool hit/miss counter (one logical fetch is a hit or a miss)."""

    hits: int = 0
    misses: int = 0


@dataclass
class IOStats:
    """Cumulative physical, logical and buffer-pool counters."""

    physical: Counter = field(default_factory=Counter)
    logical: Counter = field(default_factory=Counter)
    buffer: BufferCounter = field(default_factory=BufferCounter)

    def record_physical_read(self, count: int = 1) -> None:
        self.physical.reads += count

    def record_physical_write(self, count: int = 1) -> None:
        self.physical.writes += count

    def record_logical_read(self) -> None:
        self.logical.reads += 1

    def record_logical_write(self) -> None:
        self.logical.writes += 1

    def record_buffer_hit(self) -> None:
        self.buffer.hits += 1

    def record_buffer_miss(self) -> None:
        self.buffer.misses += 1
