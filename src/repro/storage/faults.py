"""Deterministic fault injection for the simulated storage layer.

Every layer above the disk — buffer manager, indexes, the sharded serving
layer — has an implicit contract that page I/O succeeds.  Real disks (and
real shard workers) do not honor that contract, so this module provides a
:class:`FaultInjectingDiskManager` that wraps any
:class:`~repro.storage.DiskManager` and injects failures according to a
*deterministic, seedable* :class:`FaultProfile`.  Determinism is the whole
point: a chaos test that fails under seed 1337 must fail the same way on
every machine and every rerun, so fault decisions come from a private
``random.Random(seed)`` plus explicit per-operation schedules, never from
wall-clock time or global randomness.

Four fault families are supported:

* **Transient read faults** — :class:`PageReadError` raised *instead of*
  performing the read (the failed attempt reaches no platter, so no
  physical read is recorded).  Triggered by a per-read probability, by
  scheduled read ordinals (``fail_reads_at``), or by page-id triggers
  (``fail_read_pages``, each firing ``page_fault_times`` times so retries
  eventually succeed).
* **Transient write faults** — :class:`PageWriteError`, same trigger
  vocabulary on the write path.
* **Injected latency** — a fixed per-read/per-write delay delivered
  through an injectable ``sleep`` callable, so tests can use a fake clock
  and benchmarks a real one.
* **Shard down** — a kill switch (:meth:`FaultInjectingDiskManager.kill`
  or the scheduled ``kill_at_op``) after which every read *and* write
  raises :class:`ShardDownError` until :meth:`revive` is called.  Unlike
  the transient families this is not retryable: the serving layer treats
  it as a dead worker and recovers by rebuilding the shard.

The wrapper is duck-type compatible with :class:`DiskManager` (same
``allocate`` / ``free`` / ``read`` / ``write`` / ``peek`` / ``stats``
surface), so it can sit under a :class:`~repro.storage.BufferManager`
unchanged — including mid-run, by reassigning ``buffer.disk``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.storage.disk_manager import DiskManager
from repro.storage.page import Page
from repro.storage.stats import IOStats


class InjectedFault(IOError):
    """Base class of every fault this module injects.

    The supervisor layers above catch exactly this type: an
    :class:`InjectedFault` models an infrastructure failure (retry or
    recover), while any other exception is a software bug and must
    propagate unchanged.
    """


class PageReadError(InjectedFault):
    """A transient page read failure (retrying may succeed)."""


class PageWriteError(InjectedFault):
    """A transient page write failure (retrying may succeed)."""


class ShardDownError(InjectedFault):
    """The disk's worker is down; no operation succeeds until revival.

    Not transient: retrying against a dead shard cannot help, so the
    serving layer responds with circuit-breaking and shard recovery
    instead of backoff.
    """


@dataclass(frozen=True)
class FaultProfile:
    """A deterministic, seedable fault schedule.

    All trigger vocabularies compose: an operation fails if *any* trigger
    fires for it (scheduled ordinal, page trigger, or the seeded
    probability draw).  Ordinals count *attempts* per operation kind
    (0-based), including attempts that themselves failed — which is what
    makes retry tests deterministic.

    Attributes:
        seed: seed of the private RNG behind the probability triggers.
        read_error_rate: per-read probability of a :class:`PageReadError`.
        write_error_rate: per-write probability of a :class:`PageWriteError`.
        fail_reads_at: read ordinals that raise (each fires once).
        fail_writes_at: write ordinals that raise (each fires once).
        fail_read_pages: page ids whose first ``page_fault_times`` reads
            raise (transient: later retries succeed).
        fail_write_pages: page ids whose first ``page_fault_times`` writes
            raise.
        page_fault_times: how many times each page trigger fires.
        read_latency_s: injected delay before every read.
        write_latency_s: injected delay before every write.
        kill_at_op: total operation ordinal (reads + writes combined) at
            which the disk goes down, as if the worker died mid-stream;
            ``None`` disables the scheduled kill.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    fail_reads_at: FrozenSet[int] = frozenset()
    fail_writes_at: FrozenSet[int] = frozenset()
    fail_read_pages: FrozenSet[int] = frozenset()
    fail_write_pages: FrozenSet[int] = frozenset()
    page_fault_times: int = 1
    read_latency_s: float = 0.0
    write_latency_s: float = 0.0
    kill_at_op: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.page_fault_times < 0:
            raise ValueError("page_fault_times must be non-negative")


@dataclass
class FaultCounters:
    """What the injector actually did (for assertions and bench reports)."""

    read_errors: int = 0
    write_errors: int = 0
    down_errors: int = 0
    injected_latency_s: float = 0.0


class FaultInjectingDiskManager:
    """A :class:`DiskManager` wrapper that injects faults per a profile.

    Only the physical I/O surface (``read`` / ``write``) injects faults;
    allocation and free are metadata operations and always delegate.  A
    failed operation raises *before* touching the inner disk, so the
    shared :class:`IOStats` never counts I/O that "never reached the
    platter" — the accounting a retry loop then produces is exactly one
    extra buffer miss per failed attempt, which the chaos tests pin.

    Args:
        inner: the wrapped disk (a private one is created if omitted).
        profile: the fault schedule; defaults to a no-fault profile.
        sleep: latency delivery callable (inject a fake clock in tests).
    """

    def __init__(
        self,
        inner: Optional[DiskManager] = None,
        profile: Optional[FaultProfile] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner if inner is not None else DiskManager()
        self.profile = profile if profile is not None else FaultProfile()
        self._sleep = sleep
        self._rng = random.Random(self.profile.seed)
        self.counters = FaultCounters()
        self.reads_attempted = 0
        self.writes_attempted = 0
        self._down = False
        self._page_read_faults: Dict[int, int] = {
            page_id: self.profile.page_fault_times
            for page_id in self.profile.fail_read_pages
        }
        self._page_write_faults: Dict[int, int] = {
            page_id: self.profile.page_fault_times
            for page_id in self.profile.fail_write_pages
        }

    # ------------------------------------------------------------------
    # Kill switch
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Take the disk down: every subsequent read/write raises."""
        self._down = True

    def revive(self) -> None:
        """Bring the disk back up (the transient profiles stay active)."""
        self._down = False

    @property
    def is_down(self) -> bool:
        """Whether the kill switch is currently engaged."""
        return self._down

    # ------------------------------------------------------------------
    # Fault decision
    # ------------------------------------------------------------------
    @property
    def _ops_attempted(self) -> int:
        return self.reads_attempted + self.writes_attempted

    def _maybe_scheduled_kill(self) -> None:
        kill_at = self.profile.kill_at_op
        if kill_at is not None and self._ops_attempted >= kill_at:
            self._down = True

    def _check_down(self, page_id: int) -> None:
        if self._down:
            self.counters.down_errors += 1
            raise ShardDownError(f"disk is down (page {page_id})")

    def _inject_latency(self, seconds: float) -> None:
        if seconds > 0.0:
            self.counters.injected_latency_s += seconds
            self._sleep(seconds)

    def _roll(self, rate: float) -> bool:
        # Consume one RNG sample per attempt *only* when the family is
        # armed, so schedules stay deterministic when rates are mixed in.
        return rate > 0.0 and self._rng.random() < rate

    @staticmethod
    def _page_trigger(pending: Dict[int, int], page_id: int) -> bool:
        remaining = pending.get(page_id, 0)
        if remaining <= 0:
            return False
        pending[page_id] = remaining - 1
        return True

    # ------------------------------------------------------------------
    # Physical I/O (fault-injecting surface)
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> Page:
        """Read a page, or raise per the profile (no I/O is counted then)."""
        self._maybe_scheduled_kill()
        op = self.reads_attempted
        self.reads_attempted += 1
        self._check_down(page_id)
        self._inject_latency(self.profile.read_latency_s)
        if (
            op in self.profile.fail_reads_at
            or self._page_trigger(self._page_read_faults, page_id)
            or self._roll(self.profile.read_error_rate)
        ):
            self.counters.read_errors += 1
            raise PageReadError(f"injected read fault (page {page_id}, read #{op})")
        return self.inner.read(page_id)

    def write(self, page: Page) -> None:
        """Write a page back, or raise per the profile (page stays dirty)."""
        self._maybe_scheduled_kill()
        op = self.writes_attempted
        self.writes_attempted += 1
        self._check_down(page.page_id)
        self._inject_latency(self.profile.write_latency_s)
        if (
            op in self.profile.fail_writes_at
            or self._page_trigger(self._page_write_faults, page.page_id)
            or self._roll(self.profile.write_error_rate)
        ):
            self.counters.write_errors += 1
            raise PageWriteError(f"injected write fault (page {page.page_id}, write #{op})")
        self.inner.write(page)

    # ------------------------------------------------------------------
    # Fault-free delegation (metadata + introspection)
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IOStats:
        """The wrapped disk's stats object (shared with its buffer)."""
        return self.inner.stats

    def allocate(self, payload: Any = None) -> Page:
        """Allocate a page on the wrapped disk (never faulted)."""
        return self.inner.allocate(payload)

    def free(self, page_id: int) -> None:
        """Free a page on the wrapped disk (never faulted)."""
        self.inner.free(page_id)

    def peek(self, page_id: int) -> Page:
        """Access a page without I/O accounting (testing/debugging only)."""
        return self.inner.peek(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def allocated_page_ids(self) -> List[int]:
        """Page ids currently allocated on the wrapped disk."""
        return self.inner.allocated_page_ids


def fault_wrap(buffer, profile: Optional[FaultProfile] = None) -> FaultInjectingDiskManager:
    """Slide a fault injector under an existing buffer manager, in place.

    Wraps ``buffer.disk`` in a :class:`FaultInjectingDiskManager` and
    reassigns it, returning the injector so callers can flip its kill
    switch or read its counters.  Safe on a live index: the wrapper shares
    the inner disk's page table and stats, so accounting is unchanged
    until a fault actually fires.
    """
    injector = FaultInjectingDiskManager(buffer.disk, profile=profile)
    buffer.disk = injector
    return injector


__all__ = [
    "FaultCounters",
    "FaultInjectingDiskManager",
    "FaultProfile",
    "InjectedFault",
    "PageReadError",
    "PageWriteError",
    "ShardDownError",
    "fault_wrap",
]
