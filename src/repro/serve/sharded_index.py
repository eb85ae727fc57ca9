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

**Logging, supervision, epochs, placement.**  Every routed mutation is
appended to a per-shard write-ahead
:class:`~repro.serve.shard_log.ShardLog` *before* execution, so a failed
shard rebuilt from its recovery source plus the log is equivalent,
answer for answer, to a shard that never failed.  Three collaborators do
the rest: a :class:`~repro.serve.supervisor.Supervisor` runs every shard
call under the retry / breaker / recovery policy and serializes calls on
one shard (``docs/robustness.md``); an
:class:`~repro.serve.snapshot.EpochClock` numbers mutation batches and
pins the epochs queries read at (``docs/htap.md``); the
:class:`~repro.serve.executor.Executor` places the calls — inline, or
fanned out to worker processes (``docs/serving.md``).  Queries can opt
into **degraded answers** (``partial=True``): open-circuit or failing
shards are skipped and the healthy shards' merged answers come back in a
:class:`~repro.serve.supervisor.PartialResult` instead of an exception.
Concurrent *calls into the same ShardedIndex* are safe; touching a
shard's underlying index directly while the serving layer is live is not
(see ``docs/sharding.md``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.partitioned_index import make_index
from repro.geometry.rect import Rect
from repro.objects.knn import KNNQuery, ScalarVerbs
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery
from repro.serve.config import ServeConfig, check_constructible
from repro.serve.executor import Executor, _stats_tuple
from repro.serve.shard_log import ShardLog, apply_outcome
from repro.serve.snapshot import EpochClock, VersionedShard
from repro.serve.supervisor import PartialResult, ShardStatus, Supervisor
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES
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


class _AggregateStats:
    """The shards' :class:`IOStats`, summed anew at every counter read.

    A caller may hold it across requests and diff its counters, as it
    would an unsharded index's own ``IOStats`` (the harness and perfbench
    do).  It reads through the live shard list, so the sum follows a
    shard swapped out by recovery.
    """

    def __init__(self, shards: Sequence) -> None:
        self._shards = shards

    def _summed(self) -> IOStats:
        columns = zip(*(_stats_tuple(shard.buffer.stats) for shard in self._shards))
        reads, writes, logical_reads, logical_writes, hits, misses = map(sum, columns)
        return IOStats(
            Counter(reads, writes),
            Counter(logical_reads, logical_writes),
            BufferCounter(hits, misses),
        )

    physical = property(lambda self: self._summed().physical, doc="Summed physical counter.")
    logical = property(lambda self: self._summed().logical, doc="Summed logical counter.")
    buffer = property(lambda self: self._summed().buffer, doc="Summed buffer hit/miss counter.")


class _AggregateBuffer:
    """Buffer facade over the shards' pools: ``stats`` is their live sum."""

    def __init__(self, shards: Sequence) -> None:
        self.stats = _AggregateStats(shards)


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
        self._supervisor = Supervisor(
            self.shards, shards, self._backend, resolved.supervisor, resolved.stores
        )
        #: Completed recoveries, oldest first (shard id, wall seconds,
        #: replayed and rejected record counts, attempts) — read by the
        #: fault bench.
        self.recovery_events: List[Dict[str, float]] = self._supervisor.recovery_events
        self._epochs = EpochClock(max(shard.epoch for shard in shards))
        self._closed = False

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
        return self._supervisor.logs[shard_id]

    def breaker_states(self) -> List[str]:
        """Current circuit-breaker state per shard."""
        return self._supervisor.breaker_states()

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
        return self._epochs.published

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
        return self._epochs.pin()

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
        must never silently drop dirty frames on a clean shutdown — and
        durable shards are checkpointed and their stores closed, so
        reopening replays nothing (:meth:`Supervisor.close`).  Then the
        executor is torn down: queued fan-out calls are cancelled and
        running ones awaited, so after ``close()`` returns no worker can
        still be touching a shard, and worker processes exit here, never
        via garbage collection.

        ``close()`` is terminal: the index rejects further operations,
        and a second ``close()`` raises ``RuntimeError`` (``with`` blocks
        stay safe — ``__exit__`` only closes an index that is still
        open).
        """
        self._ensure_open()
        self._supervisor.close()
        self._backend.close()
        self._closed = True

    def checkpoint(self) -> None:
        """Checkpoint every shard and truncate its write-ahead log.

        Per shard, under its lock: a durable shard commits a new checkpoint
        generation; an in-memory one flushes its buffer and its baseline
        becomes a snapshot taken through the executor.  The next recovery
        replays only the tail logged since this call.
        """
        self._ensure_open()
        self._supervisor.checkpoint()

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
        # Executor.run has already cancelled/awaited its pending calls, so
        # shutdown cannot deadlock on abandoned work.  Tolerates an index
        # the body already closed (close() itself is once-only).
        if not self._closed:
            self.close()

    def recover_shard(self, shard_id: int) -> None:
        """Rebuild one shard from its write-ahead log, unconditionally.

        The operational entry point (a health checker or operator would
        call this on a shard whose circuit stays open).
        """
        self._ensure_open()
        self._supervisor.recover(shard_id)

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
        self._ensure_open()
        with self._epochs.advance() as (epoch, gc_floor):
            for shard_id, payload in payloads.items():
                self._supervisor.logs[shard_id].append(op, payload, epoch=epoch)
            tasks = {
                shard_id: partial(
                    apply_outcome, op=op, payload=payload, epoch=epoch, gc_floor=gc_floor
                )
                for shard_id, payload in payloads.items()
            }
            outcomes, _, errors = self._supervisor.run(tasks, read_only=False)
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
        self._ensure_open()
        results, statuses, failures = self._supervisor.run(
            dict.fromkeys(range(len(self.shards)), apply), read_only=True
        )
        if not partial:
            # Strict mode: skipped shards are failures too (no silent gaps).
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
        with self._epochs.pin(epoch) as pinned:
            if not queries:
                return PartialResult([], [], epoch=pinned) if partial else []
            per_shard, statuses = self._fan_out(
                lambda shard: shard.range_query_batch(queries, epoch=pinned),
                partial=partial,
            )
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
        with self._epochs.pin(epoch) as pinned:
            if not queries:
                return PartialResult([], [], epoch=pinned) if partial else []
            search_space = space if space is not None else self.space
            per_shard, statuses = self._fan_out(
                lambda shard: shard.knn_query_batch(queries, space=search_space, epoch=pinned),
                partial=partial,
            )
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
