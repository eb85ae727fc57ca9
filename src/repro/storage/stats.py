"""I/O and operation statistics.

Every experiment in the paper reports average I/O per query and per update.
The :class:`IOStats` object is shared by a :class:`~repro.storage.DiskManager`
and its :class:`~repro.storage.BufferManager`, and exposes scoped counters so
the benchmark harness can attribute physical I/O to the operation (query or
update) that caused it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class Counter:
    """A simple read/write counter."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    def snapshot(self) -> "Counter":
        return Counter(self.reads, self.writes)

    def __sub__(self, other: "Counter") -> "Counter":
        return Counter(self.reads - other.reads, self.writes - other.writes)


@dataclass
class BufferCounter:
    """Buffer-pool hit/miss counter (one logical fetch is a hit or a miss)."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> "BufferCounter":
        return BufferCounter(self.hits, self.misses)

    def __sub__(self, other: "BufferCounter") -> "BufferCounter":
        return BufferCounter(self.hits - other.hits, self.misses - other.misses)


@dataclass
class IOStats:
    """Physical I/O statistics, optionally attributed to named scopes."""

    physical: Counter = field(default_factory=Counter)
    logical: Counter = field(default_factory=Counter)
    buffer: BufferCounter = field(default_factory=BufferCounter)
    scopes: Dict[str, Counter] = field(default_factory=dict)
    buffer_scopes: Dict[str, BufferCounter] = field(default_factory=dict)
    _active_scope: Optional[str] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_physical_read(self, count: int = 1) -> None:
        self.physical.reads += count
        if self._active_scope is not None:
            self.scopes[self._active_scope].reads += count

    def record_physical_write(self, count: int = 1) -> None:
        self.physical.writes += count
        if self._active_scope is not None:
            self.scopes[self._active_scope].writes += count

    def record_logical_read(self) -> None:
        self.logical.reads += 1

    def record_logical_write(self) -> None:
        self.logical.writes += 1

    def record_buffer_hit(self) -> None:
        self.buffer.hits += 1
        if self._active_scope is not None:
            self.buffer_scopes[self._active_scope].hits += 1

    def record_buffer_miss(self) -> None:
        self.buffer.misses += 1
        if self._active_scope is not None:
            self.buffer_scopes[self._active_scope].misses += 1

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[Counter]:
        """Attribute physical I/O recorded inside the block to ``name``.

        Nested scopes are not supported; the harness measures one operation
        at a time, which is all the experiments need.
        """
        if self._active_scope is not None:
            raise RuntimeError("nested I/O scopes are not supported")
        counter = self.scopes.setdefault(name, Counter())
        self.buffer_scopes.setdefault(name, BufferCounter())
        before = counter.snapshot()
        self._active_scope = name
        try:
            yield counter
        finally:
            self._active_scope = None
        # The delta for this invocation is available to callers via
        # ``counter - before`` if they captured ``before``; we keep the
        # cumulative counter in ``scopes``.
        del before

    def scoped(self, name: str) -> Counter:
        """Cumulative counter for scope ``name`` (created on demand)."""
        return self.scopes.setdefault(name, Counter())

    def buffer_scoped(self, name: str) -> BufferCounter:
        """Cumulative buffer hit/miss counter for scope ``name`` (on demand)."""
        return self.buffer_scopes.setdefault(name, BufferCounter())

    # ------------------------------------------------------------------
    # Reset / report
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.physical.reset()
        self.logical.reset()
        self.buffer.reset()
        for counter in self.scopes.values():
            counter.reset()
        for counter in self.buffer_scopes.values():
            counter.reset()

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        result = {
            "physical": {"reads": self.physical.reads, "writes": self.physical.writes},
            "logical": {"reads": self.logical.reads, "writes": self.logical.writes},
            "buffer": {"hits": self.buffer.hits, "misses": self.buffer.misses},
        }
        for name, counter in self.scopes.items():
            result[name] = {"reads": counter.reads, "writes": counter.writes}
        for name, counter in self.buffer_scopes.items():
            result[f"buffer:{name}"] = {"hits": counter.hits, "misses": counter.misses}
        return result
