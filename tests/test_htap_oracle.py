"""Epoch-pinned snapshot serving: the edges of the epoch API.

The claim (``docs/htap.md``): every applied mutation batch atomically
advances a global epoch, and a query batch that pins an epoch sees a
consistent cross-shard cut — bit-identical to a quiescent index that
applied exactly the batches up to that epoch — even while later batches
stream in.  The state machine in ``tests/test_serve_state_machine.py``
checks it on every served cell, held pins, upsert misses, recoveries and
SIGKILLed workers included.  This module pins the edges around it: an
unpublished or non-integral epoch, ``exact=``, empty batches, the GC
floor, a held pin, a durable restart, and the oracle's own verdict.

The concurrent version of the same claim (threads actually racing) is
``tests/test_htap_stress.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_standard_indexes, knn_queries_from_workload
from repro.objects.queries import RectangularRange, TimeSliceRangeQuery
from repro.serve import DurableStore, EpochOracle, ShardedIndex, SnapshotTooOldError, shard_of
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=250, time_duration=30.0, num_queries=8)

SHARDS = 3


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def update_batches(workload):
    return [
        [(event.old, event.new) for event in batch]
        for batch in workload.grouped_events(window=1.0)
        if isinstance(batch[0], UpdateEvent)
    ]


@pytest.fixture(scope="module")
def queries(workload):
    return [event.query for event in workload.query_events]


@pytest.fixture(scope="module")
def probes(workload):
    return knn_queries_from_workload(workload)


def _build(workload):
    return build_standard_indexes(workload, PARAMS, which=("Bx",), shards=SHARDS)["Bx"]


# ----------------------------------------------------------------------
# Epoch API edges (Bx / serial: the semantics are executor-independent)
# ----------------------------------------------------------------------
def test_explicit_epoch_must_be_published(workload, queries):
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        assert index.epoch == 1
        with pytest.raises(ValueError, match="not published"):
            index.range_query_batch(queries, epoch=index.epoch + 1)
        with pytest.raises(ValueError, match="not published"):
            index.range_query_batch(queries, epoch=-1)
        for epoch in (1.9, "1"):  # an epoch is an integer: 1.9 is not truncated to 1
            with pytest.raises(TypeError):
                index.range_query_batch(queries, epoch=epoch)
            with pytest.raises(TypeError):
                EpochOracle().record_answer(epoch, "range", queries, [])


def test_sharded_range_query_batch_takes_no_exact(workload, queries):
    """``exact=`` lives below the VP seam only: a ``ShardedIndex`` answer is always exact."""
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        with pytest.raises(TypeError, match="exact"):
            index.range_query_batch(queries, exact=False)
        with pytest.raises(TypeError, match="exact"):
            index.range_query(queries[0], exact=False)


def test_empty_batches_consume_no_epoch_and_write_no_wal(workload):
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        before_epoch = index.epoch
        before_wal = [len(index.shard_log(s).entries) for s in range(index.num_shards)]
        index.update_batch([])
        index.insert_batch([])
        assert index.delete_batch([]) == []
        index.bulk_load([])
        assert index.epoch == before_epoch
        assert [
            len(index.shard_log(s).entries) for s in range(index.num_shards)
        ] == before_wal


def test_epoch_below_gc_floor_raises_snapshot_too_old(workload, update_batches, queries):
    """Unpinned epochs are pruned; reading one fails loudly, not wrongly."""
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        for pairs in update_batches[:3]:
            index.update_batch(pairs)
        # No pin was held, so the GC floor has advanced past epoch 1.
        with pytest.raises(SnapshotTooOldError, match="floor"):
            index.range_query_batch(queries, epoch=1)
        # The current epoch (and the one the last batch preserved) read fine.
        index.range_query_batch(queries, epoch=index.epoch)


def test_held_pin_blocks_gc_until_released(workload, update_batches, queries):
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        with index.pin() as pinned:
            frozen = index.range_query_batch(queries, epoch=pinned)
            for pairs in update_batches[:4]:
                index.update_batch(pairs)
            # The pin keeps epoch 1 reconstructible arbitrarily far back.
            assert index.range_query_batch(queries, epoch=pinned) == frozen
        # Released: the *next* mutation batch may prune it.
        index.update_batch(update_batches[4])
        with pytest.raises(SnapshotTooOldError):
            index.range_query_batch(queries, epoch=pinned)


# ----------------------------------------------------------------------
# The oracle: a repeatable verdict from a model that shares no merge code
# ----------------------------------------------------------------------
def test_oracle_check_is_repeatable(workload, update_batches, queries, probes):
    """Each ``check()`` replays from an empty model, so it may repeat and recording resume."""
    index, oracle = _build(workload), EpochOracle()
    with index:
        index.bulk_load(workload.initial_objects)
        oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)
        with index.pin() as pinned:
            early = index.knn_query_batch(probes, space=PARAMS.space, epoch=pinned)
            for pairs in update_batches[:3]:
                index.update_batch(pairs)
                oracle.record_mutation(index.epoch, "update_batch", pairs)
        late = index.knn_query_batch(probes, space=PARAMS.space)
        assert early != late  # the two cuts differ
        oracle.record_answer(pinned, "knn", probes, early)
        oracle.record_answer(index.epoch, "knn", probes, late)
        assert oracle.check() == []
        assert oracle.check() == []
        index.update_batch(update_batches[3])
        oracle.record_mutation(index.epoch, "update_batch", update_batches[3])
        oracle.record_answer(index.epoch, "range", queries, index.range_query_batch(queries))
        assert oracle.check() == []


def test_oracle_catches_a_merge_bug_every_sharded_index_shares(workload, monkeypatch):
    """Drop the highest shard's ids from multi-shard range answers: the model disagrees."""
    merged = ShardedIndex.range_query_batch

    def drop_highest_shard(self, queries, **kwargs):
        answers = []
        for ids in merged(self, queries, **kwargs):
            shards = {shard_of(oid, self.num_shards) for oid in ids}
            last = max(shards) if len(shards) > 1 else None
            answers.append([oid for oid in ids if shard_of(oid, self.num_shards) != last])
        return answers

    monkeypatch.setattr(ShardedIndex, "range_query_batch", drop_highest_shard)
    wide = TimeSliceRangeQuery(RectangularRange(PARAMS.space), time=0.0)
    index, oracle = _build(workload), EpochOracle()
    with index:
        index.bulk_load(workload.initial_objects)
        oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)
        with index.pin() as epoch:
            answer = index.range_query_batch([wide], epoch=epoch)
        oracle.record_answer(epoch, "range", [wide], answer)
    [mismatch] = oracle.check()
    assert mismatch.startswith("epoch 1 range answer diverged")


# ----------------------------------------------------------------------
# Durable restart: the published epoch survives a reopen
# ----------------------------------------------------------------------
def test_durable_restart_restores_the_published_epoch(
    tmp_path, workload, update_batches, queries
):
    root = str(tmp_path / "store")
    index = ShardedIndex.build(
        family="Bx",
        shards=2,
        executor="serial",
        durable_dir=root,
        space=PARAMS.space,
        buffer_pages=50,
        max_update_interval=PARAMS.max_update_interval,
    )
    with index:
        index.bulk_load(workload.initial_objects)
        for pairs in update_batches[:3]:
            index.update_batch(pairs)
        saved_epoch = index.epoch
        saved_answers = index.range_query_batch(queries, epoch=saved_epoch)
    reopened = DurableStore(root).open()
    with reopened:
        assert reopened.epoch == saved_epoch
        assert reopened.range_query_batch(queries, epoch=saved_epoch) == saved_answers
        reopened.update_batch(update_batches[3])
        assert reopened.epoch == saved_epoch + 1  # the counter resumes, not resets
