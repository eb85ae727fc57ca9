"""The sharded serving layer (supervised fan-out over index shards).

A :class:`ShardedIndex` owns N independent *shards* — complete instances of
any moving-object index family (``BxTree``, ``TPRTree``/``TPRStarTree``,
``VPIndex``), each with its own :class:`~repro.storage.BufferManager` and
:class:`~repro.storage.stats.IOStats` — and itself satisfies the
:class:`~repro.core.index_manager.MovingIndex` protocol its shards do.

**Routing.**  Every object id is owned by exactly one shard, chosen by a
fixed multiplicative hash of the id (:func:`shard_of`).  Updates,
insertions and deletions are grouped by owning shard and each shard
receives one batched call; queries cannot be routed (a range predicate
says nothing about object ids), so they fan out to *all* shards and the
per-shard answers are merged.

**Merge semantics.**  Shards partition the object set, so a range query's
per-shard answers are disjoint; the serving layer returns their union in
ascending-id order (a canonical order, which is what makes the answer
independent of the shard count).  A kNN probe's global ``k`` nearest each
rank among the ``k`` nearest of their own shard, so merging the per-shard
top-``k`` lists by ``(distance, oid)`` and keeping the first ``k`` yields
exactly the unsharded answer — see ``docs/sharding.md`` for the one-line
proof.

**Supervision.**  Every shard call runs under a supervisor (see
``docs/robustness.md``): transient I/O faults
(:class:`~repro.storage.faults.InjectedFault`) on read-only calls are
retried with bounded exponential backoff + jitter; per-shard circuit
breakers stop calling a shard that keeps failing; fanned-out calls can
carry a per-shard timeout.  A failed *mutation* never blind-retries —
the shard's state is suspect — and instead triggers **recovery**: every
routed mutation is appended to a per-shard write-ahead
:class:`~repro.serve.shard_log.ShardLog` *before* execution, so the
shard's recovery source — its durable checkpoint image, or in memory a
deepcopy of the shard as it was handed over (replaced at every
checkpoint) — replayed from the log is equivalent, answer for answer, to
a shard that never failed.  Queries can opt into
**degraded answers** (``partial=True``): open-circuit or failing shards
are skipped and the healthy shards' merged answers come back in a
:class:`~repro.serve.supervisor.PartialResult` instead of an exception.

**Concurrency.**  Shards share no mutable state, so work on different
shards runs in parallel (one call's slices in the process executor's
workers; concurrent callers' on any executor).  Within one shard
everything is serialized by a per-shard lock: the buffer pool's LRU
bookkeeping mutates on every fetch, so even read-only queries must not
interleave on a single shard.  Concurrent *calls into the same
ShardedIndex* are therefore safe; what is not safe is touching a shard's
underlying index directly while the serving layer is live (see
``docs/sharding.md``).
"""

from __future__ import annotations

import copy
import operator
import random
import threading
import time
from concurrent.futures import CancelledError, Future, wait
from contextlib import contextmanager
from functools import partial
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.partitioned_index import make_index
from repro.geometry.rect import Rect
from repro.objects.knn import KNNQuery, ScalarVerbs
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery
from repro.serve.config import ServeConfig, check_constructible
from repro.serve.executor import Executor, ProcessExecutor
from repro.serve.shard_log import Outcome, ShardLog, apply_outcome
from repro.serve.snapshot import VersionedShard
from repro.serve.supervisor import (
    SHARD_FAILED,
    SHARD_SKIPPED,
    CircuitBreaker,
    PartialResult,
    ShardFailedError,
    ShardStatus,
    SupervisorConfig,
)
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES
from repro.storage.faults import InjectedFault, ShardDownError
from repro.storage.stats import BufferCounter, Counter, IOStats

#: Default shard count of the serving layer.
DEFAULT_SHARDS = 4

#: Odd 64-bit multiplier (2^64 / golden ratio) of the routing hash.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def shard_of(oid: int, num_shards: int) -> int:
    """Owning shard of object ``oid`` under the fixed routing hash.

    A multiplicative (Fibonacci) hash: the id is multiplied by an odd
    64-bit constant and the *high* 32 bits pick the shard, so consecutive
    ids — the common allocation pattern — spread evenly instead of
    striping, and the assignment is a pure function of ``(oid,
    num_shards)`` that every layer (router, tests, offline tooling) can
    recompute independently.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards == 1:
        return 0
    mixed = (oid * _HASH_MULTIPLIER) & _MASK64
    return (mixed >> 32) % num_shards


class _ShardSkipped(Exception):
    """Internal control flow: a query skipped a shard whose circuit is open."""

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"shard {shard_id} skipped (circuit open)")
        self.shard_id = shard_id


class AggregateStats:
    """Live read-only sum of several shards' :class:`IOStats`.

    Each property materializes a fresh counter summed across the shards at
    access time, so harness-style ``before = stats.physical.total`` /
    ``after - before`` accounting works unchanged on a sharded index.

    ``parts`` is a callable returning the current sequence of
    :class:`IOStats`, so the aggregate follows shard *recovery* (a rebuilt
    shard brings a fresh stats object; a fixed list would keep summing the
    dead one).
    """

    def __init__(self, parts: Callable[[], Sequence[IOStats]]) -> None:
        self._provider = parts

    @property
    def physical(self) -> Counter:
        """Summed physical read/write counter."""
        parts = self._provider()
        return Counter(
            reads=sum(p.physical.reads for p in parts),
            writes=sum(p.physical.writes for p in parts),
        )

    @property
    def logical(self) -> Counter:
        """Summed logical read/write counter."""
        parts = self._provider()
        return Counter(
            reads=sum(p.logical.reads for p in parts),
            writes=sum(p.logical.writes for p in parts),
        )

    @property
    def buffer(self) -> BufferCounter:
        """Summed buffer hit/miss counter."""
        parts = self._provider()
        return BufferCounter(
            hits=sum(p.buffer.hits for p in parts),
            misses=sum(p.buffer.misses for p in parts),
        )


class _AggregateBuffer:
    """Buffer facade summing the shards' pools (what the harness reads).

    Reads through the live shard list so the aggregate stays correct
    after a shard is swapped out by recovery.
    """

    def __init__(self, shards: Sequence) -> None:
        self.stats = AggregateStats(lambda: [shard.buffer.stats for shard in shards])


class ShardedIndex(ScalarVerbs):
    """Hash-partitioned serving facade over independent index shards.

    Args:
        shards: fully built index instances, one per shard.  Every shard
            must have its *own* buffer pool — shards are the unit of
            parallelism, and a shared pool would race.
        config: a :class:`~repro.serve.ServeConfig` bundling everything
            else (name, space, executor, supervision, stores) — see
            its field docs.  ``None`` means all defaults.
    """

    def __init__(self, shards: Sequence, config: Optional[ServeConfig] = None) -> None:
        if config is not None and not isinstance(config, ServeConfig):
            raise TypeError(
                "the second ShardedIndex argument is a ServeConfig "
                f"(got {type(config).__name__})"
            )
        shards = list(shards)
        resolved = check_constructible(
            config if config is not None else ServeConfig(),
            len(shards),
            buffers=[shard.buffer for shard in shards],
        )
        self.config = resolved
        self.name = resolved.name or (
            f"{getattr(shards[0], 'name', type(shards[0]).__name__)}"
        )
        self.space = resolved.space
        self._config = (
            resolved.supervisor if resolved.supervisor is not None else SupervisorConfig()
        )
        self._locks = [threading.Lock() for _ in shards]
        if resolved.stores is None:
            self._stores: List[Optional[object]] = [None for _ in shards]
            self._logs: List[ShardLog] = [ShardLog() for _ in shards]
        else:
            self._stores = list(resolved.stores)
            self._logs = [store.log for store in self._stores]
        # Epoch-version every shard.  A shard restored from a durable
        # checkpoint arrives already wrapped (the wrapper travels through
        # the checkpoint image, and the store replayed the WAL tail into it
        # epoch by epoch); an in-memory shard has an empty log and starts
        # at epoch 0.
        shards = [
            shard if isinstance(shard, VersionedShard) else VersionedShard(shard)
            for shard in shards
        ]
        self._backend: Executor = resolved.executor
        # Handles: the objects supervised tasks run against.  For the
        # serial executor these are the shard indexes themselves; for the
        # process executor they are worker proxies.
        self.shards = self._backend.attach(shards)
        self.buffer = _AggregateBuffer(self.shards)
        # The in-memory recovery source: a deepcopy of each shard as it was
        # handed over (the WAL holds everything since), replaced by every
        # checkpoint.  Durable shards restore their checkpoint image instead.
        self._baselines: List[Optional[object]] = [
            copy.deepcopy(shard) if store is None else None
            for shard, store in zip(shards, self._stores)
        ]
        self._closed = False
        self._breakers = [
            CircuitBreaker(
                failure_threshold=self._config.failure_threshold,
                reset_timeout_s=self._config.reset_timeout_s,
                clock=self._config.clock,
            )
            for _ in shards
        ]
        # One jitter RNG per shard: backoff schedules stay deterministic
        # even when several shards retry concurrently.
        self._rngs = [random.Random(shard_id) for shard_id in range(len(shards))]
        #: Completed recoveries, oldest first (shard id, wall seconds,
        #: replayed and rejected record counts, attempts) — read by the
        #: fault bench.
        self.recovery_events: List[Dict[str, float]] = []
        # Snapshot-epoch state (see docs/htap.md).  One global counter,
        # advanced per mutation batch under the single-writer lock; the
        # *published* epoch trails it until the batch has scattered to
        # every routed shard, and queries pin the published epoch.  Pins
        # are refcounts keyed by epoch — their minimum is the GC floor no
        # shard may prune past.
        start_epoch = max(shard.epoch for shard in shards)
        self._epoch_counter = start_epoch
        self._published_epoch = start_epoch
        self._pins: Dict[int, int] = {}
        self._write_lock = threading.Lock()
        self._epoch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard_of(self, oid: int) -> int:
        """Owning shard of object ``oid`` (see :func:`shard_of`)."""
        return shard_of(oid, len(self.shards))

    def shard_stats(self) -> List[IOStats]:
        """Per-shard :class:`IOStats` (each shard's own counters)."""
        return [shard.buffer.stats for shard in self.shards]

    def shard_log(self, shard_id: int) -> ShardLog:
        """The write-ahead log of one shard (tests and tooling)."""
        return self._logs[shard_id]

    def breaker_states(self) -> List[str]:
        """Current circuit-breaker state per shard."""
        return [breaker.state for breaker in self._breakers]

    @property
    def executor(self) -> Executor:
        """The executor backend shard calls run on (read-only)."""
        return self._backend

    # ------------------------------------------------------------------
    # Snapshot epochs (see docs/htap.md)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The published snapshot epoch: the highest fully applied batch.

        Advances atomically once a mutation batch has reached every shard
        it routes to; a query that pins this epoch sees exactly the
        batches numbered at or below it, on every shard, regardless of
        what later batches are concurrently applying.
        """
        return self._published_epoch

    @contextmanager
    def pin(self):
        """Pin the published epoch for a multi-call consistent read.

        Yields the pinned epoch and keeps its undo deltas alive (the
        overlay GC never prunes past the oldest live pin), so several
        ``range_query_batch(..., epoch=pinned)`` / ``knn_query_batch``
        calls inside the block all observe the same cross-shard cut even
        while update batches keep streaming in::

            with index.pin() as epoch:
                ids = index.range_query_batch(queries, epoch=epoch)
                nn = index.knn_query_batch(probes, epoch=epoch)
        """
        epoch = self._pin_epoch()
        try:
            yield epoch
        finally:
            self._unpin_epoch(epoch)

    def _pin_epoch(self) -> int:
        """Register a pin on the published epoch and return it."""
        with self._epoch_lock:
            epoch = self._published_epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
        return epoch

    def _unpin_epoch(self, epoch: int) -> None:
        with self._epoch_lock:
            count = self._pins.get(epoch, 0) - 1
            if count > 0:
                self._pins[epoch] = count
            else:
                self._pins.pop(epoch, None)

    def _resolve_pin(self, epoch: Optional[int]) -> Tuple[int, bool]:
        """The epoch a query runs at, and whether this call owns the pin.

        ``None`` auto-pins the published epoch for the duration of the
        call; an explicit epoch is trusted (callers obtain one from
        :meth:`pin`, which keeps its deltas alive) but must already be
        published — pinning the future would break the consistent-cut
        guarantee — and integral (``1.9`` raises ``TypeError``).
        """
        if epoch is None:
            return self._pin_epoch(), True
        epoch = operator.index(epoch)
        if epoch < 0 or epoch > self._published_epoch:
            raise ValueError(
                f"epoch {epoch} is not published yet (published epoch: "
                f"{self._published_epoch})"
            )
        return epoch, False

    @contextmanager
    def _update_epoch(self):
        """Serialize one mutation batch and hand it the next epoch.

        Yields ``(epoch, gc_floor)`` under the single-writer lock; the
        epoch is published in the ``finally`` — its WAL records exist and
        every routed shard applied its slice, rejected it whole, or is
        marked failed (a failed shard cannot silently answer a torn cut:
        strict queries raise on it and partial queries skip it until it
        recovers, and recovery replays the WAL through this very epoch).
        The GC floor is the oldest epoch a live pin still needs — computed
        under the epoch lock so a concurrently registered pin is never starved.
        """
        with self._write_lock:
            with self._epoch_lock:
                self._epoch_counter += 1
                epoch = self._epoch_counter
                gc_floor = min(self._pins) if self._pins else self._published_epoch
            try:
                yield epoch, gc_floor
            finally:
                with self._epoch_lock:
                    if epoch > self._published_epoch:
                        self._published_epoch = epoch

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed index rejects calls)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"ShardedIndex {self.name!r} is closed; build a new one "
                "(or reopen its DurableStore) instead of reusing it"
            )

    def close(self) -> None:
        """Flush every shard, persist durable shards, shut down the executor.

        Every shard's buffer is flushed under its lock — a durable backend
        must never silently drop dirty frames on a clean shutdown (a shard
        whose storage is faulted cannot flush and is skipped; nothing is
        lost in-memory, and a durable shard recovers from its WAL).
        Shards with a durable store are checkpointed and their stores
        closed, so a clean shutdown leaves an empty WAL and reopening
        replays nothing.  Finally the executor itself is torn down: queued
        fan-out calls are cancelled and running ones awaited, so after
        ``close()`` returns no worker can still be touching a shard, and
        worker processes exit here, never via garbage collection.

        ``close()`` is terminal: the index rejects further operations,
        and a second ``close()`` raises ``RuntimeError`` (``with`` blocks
        stay safe — ``__exit__`` only closes an index that is still
        open).
        """
        self._ensure_open()
        for shard_id in range(len(self.shards)):
            store = self._stores[shard_id]
            with self._locks[shard_id]:
                if store is not None:
                    self._compact_locked(shard_id)
                    store.close()
                else:
                    try:
                        self.shards[shard_id].buffer.flush()
                    except InjectedFault:
                        pass
        self._backend.close()
        self._closed = True

    def checkpoint(self) -> None:
        """Checkpoint every shard and truncate its write-ahead log.

        Per shard (under its lock): flush the buffer's dirty frames, then
        either commit a new checkpoint generation through the shard's
        durable store, or — for in-memory shards — replace the shard's
        baseline with a snapshot taken through the executor; in both cases
        the WAL is truncated afterwards, so the next recovery replays only
        the tail logged since this call.
        """
        self._ensure_open()
        for shard_id in range(len(self.shards)):
            with self._locks[shard_id]:
                self._compact_locked(shard_id)

    @classmethod
    def build(
        cls,
        family: Union[str, Callable[[], object]] = "Bx",
        shards: int = DEFAULT_SHARDS,
        executor: Optional[object] = None,
        durable_dir: Optional[str] = None,
        config: Optional[ServeConfig] = None,
        *,
        space: Optional[Rect] = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        page_size: Optional[int] = None,
        max_update_interval: Optional[float] = None,
        key_store: Optional[str] = None,
    ) -> "ShardedIndex":
        """Build a ready-to-serve sharded index from one recipe.

        Wires the shards, the executor and — with ``durable_dir`` — the
        per-shard durable stores.  Every combination that cannot be served
        is refused by :func:`~repro.serve.config.check_constructible`
        before anything is created.

        Args:
            family: an unpartitioned family name (``"Bx"``, ``"TPR"``,
                ``"TPR*"``), built per shard by
                :func:`~repro.core.partitioned_index.make_index` from the
                keyword arguments below, or a zero-argument callable
                building one shard (the VP variants, whose velocity
                partitioning needs workload data:
                ``partial(make_index, "Bx(VP)", partitioning=...)``).
            shards: shard count (default :data:`DEFAULT_SHARDS`).
            executor: ``"serial"`` (the default) / ``"process"`` or an
                :class:`~repro.serve.Executor` instance.
            durable_dir: when set, create a
                :class:`~repro.serve.DurableStore` at this path instead of
                serving from memory — or reopen the one already there,
                provided ``family``/``shards``/``buffer_pages`` are what it
                was created with.  Requires a *named* family, the paged key
                store and the serial executor.
            config: the rest of the recipe (supervisor, name);
                ``executor`` and ``space`` override its fields.
            space: data space for ``"Bx"`` shards and kNN defaults.
            buffer_pages: per-shard buffer-pool capacity.
            page_size: page size in bytes (family default when ``None``).
            max_update_interval: Bx-tree update horizon (family default
                when ``None``).
            key_store: Bx key-store backend of the built shards,
                ``"btree"`` (default) or ``"flat"``; see ``docs/backends.md``.
        """
        if callable(family):
            factory: Callable[[], object] = family
            family_name = getattr(family, "__name__", type(family).__name__)
        else:
            recipe = {
                "space": space,
                "buffer_pages": buffer_pages,
                "page_size": page_size,
                "max_update_interval": max_update_interval,
                "key_store": key_store,
            }
            # ``None`` is "the family's default": make_index is not handed it.
            given = {key: value for key, value in recipe.items() if value is not None}
            factory = partial(make_index, family, **given)
            family_name = family
        base = config if config is not None else ServeConfig()
        base = check_constructible(
            base.merged(name=base.name or family_name, space=space, executor=executor),
            shards,
            durable=durable_dir is not None,
            family=family,
            key_store=key_store,
        )
        if durable_dir is None:
            return cls([factory() for _ in range(shards)], base)
        from repro.serve.durable_store import DurableStore

        store = DurableStore(durable_dir)
        if store.exists:
            return store.open(
                base, expect={"family": family, "num_shards": shards, "buffer_pages": buffer_pages}
            )
        factory()  # dry run: a recipe that cannot build a shard fails before the store exists
        return store.create(
            lambda buffer: factory(buffer=buffer),
            num_shards=shards,
            name=base.name,
            buffer_pages=buffer_pages,
            config=base,
            family=family,
        )

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        # Runs on success *and* when an exception escaped mid-fan-out;
        # _gather has already cancelled/awaited that call's futures, so
        # shutdown cannot deadlock on abandoned work.  Tolerates an index
        # the body already closed (close() itself is once-only).
        if not self._closed:
            self.close()

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------
    def _locked_supervised(
        self,
        shard_id: int,
        task: Callable[[object], T],
        read_only: bool,
        status: ShardStatus,
    ) -> T:
        """Run ``task(shard)`` under the shard lock with the full policy.

        Read-only calls retry transient faults with backoff; mutations
        never blind-retry (the shard may have half-applied the batch) and
        recover from the write-ahead log instead.  Only an
        :class:`InjectedFault` is a failure: a query's other exceptions
        (caller bugs like a bad argument) propagate unchanged and do not
        touch the breaker, and a mutation task returns its rejection as
        an :data:`~repro.serve.shard_log.Outcome` (:func:`apply_outcome`).
        """
        with self._locks[shard_id]:
            breaker = self._breakers[shard_id]
            retry = self._config.retry
            rng = self._rngs[shard_id]
            if not breaker.allow():
                if read_only:
                    status.state = SHARD_SKIPPED
                    status.error = "circuit open"
                    raise _ShardSkipped(shard_id)
                # A mutation routed to an open shard: the WAL already
                # holds it, so recovery both heals the shard and applies
                # the mutation.
                value = self._recover_locked(shard_id)
                status.attempts = 1
                return value
            for attempt in range(retry.max_attempts):
                status.attempts = attempt + 1
                try:
                    value = task(self.shards[shard_id])
                except InjectedFault as fault:
                    transient = not isinstance(fault, ShardDownError)
                    if read_only:
                        if transient and attempt + 1 < retry.max_attempts:
                            self._config.sleep(retry.backoff_delay(attempt, rng))
                            continue
                        breaker.record_failure()
                        status.state = SHARD_FAILED
                        status.error = f"{type(fault).__name__}: {fault}"
                        raise ShardFailedError(shard_id, fault) from fault
                    try:
                        return self._recover_locked(shard_id)
                    except InjectedFault as recovery_fault:
                        breaker.record_failure()
                        status.state = SHARD_FAILED
                        status.error = (
                            f"recovery failed: {type(recovery_fault).__name__}: "
                            f"{recovery_fault}"
                        )
                        raise ShardFailedError(shard_id, recovery_fault) from recovery_fault
                else:
                    breaker.record_success()
                    return value
            raise AssertionError("unreachable: retry loop always returns or raises")

    def _fresh_shard_locked(self, shard_id: int) -> VersionedShard:
        """A shard holding exactly the state the WAL tail replays on top of.

        Durable shards restore their last checkpoint image; in-memory
        shards deepcopy their baseline (the shard as handed over, or as of
        its last checkpoint — the WAL holds every record since).  Either
        is a :class:`VersionedShard`, epoch and retained overlay included.
        """
        store = self._stores[shard_id]
        if store is not None:
            return store.restore_image()
        return copy.deepcopy(self._baselines[shard_id])

    def _compact_locked(self, shard_id: int) -> None:
        """Checkpoint one shard and truncate its WAL (lock held by caller).

        A durable shard commits a new checkpoint generation through its
        store; an in-memory shard flushes its buffer and captures a
        deepcopy baseline.  Either way the log's records are folded into
        the recovery source, so truncating them afterwards preserves the
        recovery invariant (fresh shard + tail replay == never-failed
        shard) while bounding replay to the post-checkpoint tail.
        """
        shard = self.shards[shard_id]
        store = self._stores[shard_id]
        log = self._logs[shard_id]
        if store is not None:
            store.checkpoint(shard, log)
        else:
            shard.buffer.flush()
            # The executor materializes the baseline in the parent: a
            # deepcopy in-process, the worker's pickled state in process
            # mode — either way a real index object, not a handle.
            self._baselines[shard_id] = self._backend.snapshot(shard_id)
            log.truncate()

    def _recover_locked(self, shard_id: int) -> Outcome:
        """Rebuild one shard from its WAL (caller holds the shard lock).

        Builds a fresh shard — restored from its durable checkpoint
        image or deepcopied from its in-memory baseline — and replays the
        write-ahead log into it, retrying with backoff when the replay
        itself meets transient faults (each attempt starts over on a new
        fresh shard, so a half-replayed attempt is simply discarded).
        Records the shard rejected live are rejected again and counted.
        On success the shard is swapped in, its breaker force-closed, the
        log compacted (the recovered state becomes the next checkpoint, so
        future recoveries replay only newer records), and the last
        replayed record's outcome returned — exactly what the mutation
        that triggered the recovery came to on a never-failed shard,
        rejection included.
        """
        retry = self._config.retry
        rng = self._rngs[shard_id]
        started = time.perf_counter()
        for attempt in range(retry.max_attempts):
            fresh = self._fresh_shard_locked(shard_id)
            try:
                outcome, rejected = self._logs[shard_id].replay(fresh)
            except InjectedFault:
                if attempt + 1 < retry.max_attempts:
                    self._config.sleep(retry.backoff_delay(attempt, rng))
                    continue
                raise
            # Hand the recovered shard to the executor: the serial
            # backend swaps it in place, the process backend ships it to
            # a respawned worker and returns a fresh proxy handle.
            self.shards[shard_id] = self._backend.replace(shard_id, fresh)
            self._breakers[shard_id].reset()
            replayed = len(self._logs[shard_id])
            try:
                self._compact_locked(shard_id)
                compacted = True
            except InjectedFault:
                # The shard is healthy either way; an uncompacted WAL just
                # keeps its history until the next successful checkpoint.
                compacted = False
            self.recovery_events.append(
                {
                    "shard_id": shard_id,
                    "wall_s": time.perf_counter() - started,
                    "replayed_records": replayed,
                    "rejected_records": rejected,
                    "attempts": attempt + 1,
                    "compacted": compacted,
                }
            )
            return outcome
        raise AssertionError("unreachable: recovery loop always returns or raises")

    def recover_shard(self, shard_id: int) -> None:
        """Rebuild one shard from its write-ahead log, unconditionally.

        The operational entry point (a health checker or operator would
        call this on a shard whose circuit stays open).
        """
        self._ensure_open()
        with self._locks[shard_id]:
            self._recover_locked(shard_id)

    def _gather(
        self,
        futures: Dict[int, "Future[T]"],
        statuses: Dict[int, ShardStatus],
        timeout: Optional[float],
    ) -> Tuple[Dict[int, T], Dict[int, ShardFailedError]]:
        """Collect fan-out futures; returns the per-shard results and failures.

        A per-call ``timeout`` is a shared deadline: every future must
        resolve within ``timeout`` seconds of the gather starting.  On an
        unexpected (non-supervision) exception the remaining futures are
        cancelled and awaited before it propagates, so ``__exit__`` /
        ``close()`` never races abandoned workers.
        """
        results: Dict[int, T] = {}
        failures: Dict[int, ShardFailedError] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = dict(futures)
        try:
            for shard_id, future in futures.items():
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                try:
                    results[shard_id] = future.result(timeout=remaining)
                except _ShardSkipped:
                    pass
                except ShardFailedError as error:
                    failures[shard_id] = error
                except FutureTimeoutError:
                    # The worker cannot be interrupted; abandon it (it
                    # still holds the shard lock until it finishes) and
                    # record the failure against the breaker.
                    statuses[shard_id].state = SHARD_FAILED
                    statuses[shard_id].error = f"timeout after {timeout}s"
                    self._breakers[shard_id].record_failure()
                    failures[shard_id] = ShardFailedError(
                        shard_id, TimeoutError(f"shard call exceeded {timeout}s")
                    )
                except CancelledError:
                    statuses[shard_id].state = SHARD_FAILED
                    statuses[shard_id].error = "cancelled"
                    failures[shard_id] = ShardFailedError(
                        shard_id, RuntimeError("shard call cancelled")
                    )
                finally:
                    pending.pop(shard_id, None)
        except BaseException:
            for future in pending.values():
                future.cancel()
            wait(pending.values())
            raise
        return results, failures

    def _supervised_run(
        self,
        tasks: Dict[int, Callable[[object], T]],
        read_only: bool,
        timeout: Optional[float],
    ) -> Tuple[Dict[int, T], Dict[int, ShardStatus], Dict[int, ShardFailedError]]:
        """Run one supervised task per shard, in parallel on the process executor.

        Results, statuses and failures are keyed by shard so merge order
        never depends on thread scheduling.
        """
        self._ensure_open()
        statuses = {shard_id: ShardStatus(shard_id) for shard_id in tasks}

        def work(shard_id: int, task: Callable[[object], T]) -> T:
            return self._locked_supervised(shard_id, task, read_only, statuses[shard_id])

        # Only worker processes compute in parallel, so only their calls
        # fan out (pool threads wait on the pipes, and a timed-out one is
        # abandoned) — unless there is one task and no deadline.  The rest
        # runs inline, in ascending shard id: the serial executor's
        # deterministic interleaving.
        backend = self._backend
        if not isinstance(backend, ProcessExecutor) or (len(tasks) <= 1 and timeout is None):
            results: Dict[int, T] = {}
            failures: Dict[int, ShardFailedError] = {}
            for shard_id, task in tasks.items():
                try:
                    results[shard_id] = work(shard_id, task)
                except _ShardSkipped:
                    pass
                except ShardFailedError as error:
                    failures[shard_id] = error
            return results, statuses, failures
        futures = {
            shard_id: backend.pool.submit(work, shard_id, task)
            for shard_id, task in tasks.items()
        }
        results, failures = self._gather(futures, statuses, timeout)
        return results, statuses, failures

    @staticmethod
    def _raise_first(failures: Dict[int, Exception]) -> None:
        """Raise the lowest-shard-id error (deterministic strict mode)."""
        if failures:
            raise failures[min(failures)]

    def _routed(self, items: Sequence[T], oids: Sequence[int]) -> Dict[int, List[T]]:
        """``items`` grouped by the owning shard of their ``oids`` (input order kept)."""
        groups: Dict[int, List[T]] = {}
        for item, oid in zip(items, oids):
            groups.setdefault(self.shard_of(oid), []).append(item)
        return groups

    def _mutate(self, op: str, payloads: Dict[int, object]) -> Dict[int, object]:
        """Log and apply one mutation; returns the per-shard results.

        ``payloads`` maps each routed shard to its record payload (its
        slice of the batch).  Under one epoch, every shard's record is
        appended to its write-ahead log before any shard executes, and each
        shard is then handed that same payload through
        :func:`~repro.serve.shard_log.apply_outcome` — so what a recovery
        replays is, by construction, what the live shard ran, and comes to
        the same outcome.

        Every routed shard runs its slice, on every executor.  A shard
        either applies it, *rejects* it whole (raises anything but a fault:
        a duplicate id, a bad argument), or fails after the supervision
        policy (retry / recovery).  Every record stays logged: a failed
        shard's recovery applies it, a rejected one replays as the same
        rejection.  Then the error of the lowest shard id — failure or
        rejection — is raised, so what survives a raising call does not
        depend on the executor.
        """
        with self._update_epoch() as (epoch, gc_floor):
            for shard_id, payload in payloads.items():
                self._logs[shard_id].append(op, payload, epoch=epoch)
            tasks = {
                shard_id: partial(
                    apply_outcome, op=op, payload=payload, epoch=epoch, gc_floor=gc_floor
                )
                for shard_id, payload in payloads.items()
            }
            outcomes, _, errors = self._supervised_run(tasks, read_only=False, timeout=None)
            for shard_id, (_, rejection) in outcomes.items():
                if rejection is not None:
                    errors[shard_id] = rejection
            self._raise_first(errors)
            return {shard_id: result for shard_id, (result, _) in outcomes.items()}

    def _fan_out(
        self, apply: Callable[[object], T], partial: bool
    ) -> Tuple[Dict[int, T], Dict[int, ShardStatus]]:
        """Run ``apply(shard)`` on every shard (query fan-out).

        Strict mode (``partial=False``) raises on any failed or skipped
        shard; partial mode returns whatever the healthy shards answered
        plus the per-shard statuses.
        """
        tasks = {
            shard_id: (lambda shard: apply(shard)) for shard_id in range(len(self.shards))
        }
        results, statuses, failures = self._supervised_run(
            tasks, read_only=True, timeout=self._config.query_timeout_s
        )
        if not partial:
            # Strict mode: skipped shards are failures too (no silent gaps).
            for shard_id, status in statuses.items():
                if status.state == SHARD_SKIPPED and shard_id not in failures:
                    failures[shard_id] = ShardFailedError(shard_id, RuntimeError("circuit open"))
            self._raise_first(failures)
        return results, statuses

    # ------------------------------------------------------------------
    # Updates (routed by owning shard, write-ahead logged)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._ensure_open()
        return sum(len(shard) for shard in self.shards)

    def bulk_load(self, objects: Sequence[MovingObject]) -> None:
        """Bulk-build every shard from its routed slice of ``objects``.

        Raises:
            ValueError: if the index already holds objects.  Rejected here,
                before anything is logged: every shard would refuse the
                record only after it was appended, and then so would every
                later recovery replaying it.
        """
        objects = list(objects)
        if not objects:
            return
        if len(self):
            raise ValueError("bulk_load requires an empty index")
        self._mutate("bulk_load", self._routed(objects, [obj.oid for obj in objects]))

    def insert_batch(self, objects: Sequence[MovingObject]) -> None:
        """Insert a batch, one grouped ``insert_batch`` per owning shard."""
        objects = list(objects)
        if objects:
            self._mutate("insert_batch", self._routed(objects, [obj.oid for obj in objects]))

    def _flagged(self, op: str, items: List[T], oids: List[int]) -> List[bool]:
        """Route one flag-returning mutation; its shards' flags scattered back to input order."""
        positions = self._routed(range(len(items)), oids)
        flag_groups = self._mutate(
            op, {shard_id: [items[i] for i in members] for shard_id, members in positions.items()}
        )
        flags = [False] * len(items)
        for shard_id, members in positions.items():
            for position, flag in zip(members, flag_groups[shard_id]):
                flags[position] = bool(flag)
        return flags

    def delete_batch(self, objects: Sequence[MovingObject]) -> List[bool]:
        """Delete a batch; per-object success flags aligned with the input."""
        objects = list(objects)
        if not objects:
            return []
        return self._flagged("delete_batch", objects, [obj.oid for obj in objects])

    def update_batch(self, pairs: Sequence[Tuple[MovingObject, MovingObject]]) -> List[bool]:
        """Apply an update batch; per pair, whether its old snapshot existed.

        Pairs are grouped by owning shard (the id routing makes old and
        new snapshots of one object land on the same shard) and each shard
        receives one ``update_batch`` call (in parallel on the process
        executor).
        """
        pairs = list(pairs)
        for old, new in pairs:
            if old.oid != new.oid:
                raise ValueError("an update must keep the object id")
        if not pairs:
            return []
        return self._flagged("update_batch", pairs, [old.oid for old, _ in pairs])

    # ------------------------------------------------------------------
    # Queries (fan out to every shard, merge canonically)
    # ------------------------------------------------------------------
    def range_query_batch(
        self,
        queries: Sequence[RangeQuery],
        partial: bool = False,
        epoch: Optional[int] = None,
    ) -> Union[List[List[int]], PartialResult]:
        """Per query, the qualifying object ids in ascending-id order.

        The union of the per-shard answers equals the unsharded answer
        set (shards partition the objects); ascending-id order is the
        serving layer's canonical answer order, chosen because it is
        shard-count invariant — per-candidate traversal order is not.

        The whole batch is answered at one pinned epoch: either the
        ``epoch`` argument (≤ the published epoch) or, when ``None``, the
        epoch published at call time — so the batch
        sees a consistent cross-shard cut even while update batches are
        applied concurrently (see ``docs/htap.md``).

        With ``partial=True`` the call never raises on shard failure:
        open-circuit shards are skipped, failing/timing-out shards are
        dropped after the retry policy, and the healthy shards' merged
        answers come back in a :class:`PartialResult` (``complete`` iff
        no shard failed — then the payload equals the strict answer).
        """
        queries = list(queries)
        pinned, owned = self._resolve_pin(epoch)
        try:
            if not queries:
                return PartialResult([], [], epoch=pinned) if partial else []
            per_shard, statuses = self._fan_out(
                lambda shard: shard.range_query_batch(queries, epoch=pinned),
                partial=partial,
            )
        finally:
            if owned:
                self._unpin_epoch(pinned)
        results: List[List[int]] = []
        answered = sorted(per_shard)
        for qi in range(len(queries)):
            merged: List[int] = []
            for shard_id in answered:
                merged.extend(per_shard[shard_id][qi])
            merged.sort()
            results.append(merged)
        if partial:
            return PartialResult(
                results, [statuses[sid] for sid in sorted(statuses)], epoch=pinned
            )
        return results

    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
        partial: bool = False,
        epoch: Optional[int] = None,
    ) -> Union[List[List[Tuple[int, float]]], PartialResult]:
        """Answer kNN probes by merging every shard's local top-``k``.

        Each shard answers the whole probe batch over its own objects (in
        parallel on the process executor); per probe, the per-shard
        answers are merged by ``(distance, oid)`` and truncated to ``k``
        — exactly the unsharded answer, because each of the global ``k``
        nearest is among the ``k`` nearest of its own shard (fewer than
        ``k`` objects in total are closer; see ``docs/sharding.md``).

        With ``partial=True`` failing shards are skipped (see
        :meth:`range_query_batch`); the merged ranking then covers only
        healthy shards' candidates — distances remain exact, membership
        may miss nearer objects stored on failed shards.

        The batch is answered at one pinned epoch (``epoch`` when given,
        else the epoch published at call time), so the cross-shard merge
        ranks candidates from a single consistent cut (see
        ``docs/htap.md``).
        """
        queries = list(queries)
        pinned, owned = self._resolve_pin(epoch)
        try:
            if not queries:
                return PartialResult([], [], epoch=pinned) if partial else []
            search_space = space if space is not None else self.space
            per_shard, statuses = self._fan_out(
                lambda shard: shard.knn_query_batch(queries, space=search_space, epoch=pinned),
                partial=partial,
            )
        finally:
            if owned:
                self._unpin_epoch(pinned)
        results: List[List[Tuple[int, float]]] = []
        answered = sorted(per_shard)
        for qi, probe in enumerate(queries):
            merged = [pair for shard_id in answered for pair in per_shard[shard_id][qi]]
            merged.sort(key=lambda pair: (pair[1], pair[0]))
            results.append(merged[: probe.k])
        if partial:
            return PartialResult(
                results, [statuses[sid] for sid in sorted(statuses)], epoch=pinned
            )
        return results
