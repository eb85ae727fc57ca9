"""Epoch-pinned snapshot serving, proven against the consistency oracle.

The tentpole claim (``docs/htap.md``): every applied mutation batch
atomically advances a global epoch, and a query batch that pins an epoch
sees a consistent cross-shard cut — bit-identical to a quiescent twin
that applied exactly the batches up to that epoch — even while later
batches stream in.  These tests check the claim deterministically for
all four index families across both executors, plus the epoch
API's edge semantics (held pins, GC floor, empty batches, WAL recovery,
durable restart).

The concurrent version of the same claim (threads actually racing) is
``tests/test_htap_stress.py``.
"""

from __future__ import annotations

import itertools
import os
import signal
import time

import pytest

from repro.bench.harness import build_standard_indexes
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.objects.knn import KNNQuery
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RectangularRange, TimeSliceRangeQuery
from repro.serve import DurableStore, EpochOracle, ShardedIndex, SnapshotTooOldError
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=250, time_duration=30.0, num_queries=8)

SHARDS = 3

INDEX_NAMES = ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")

EXECUTOR_NAMES = ("serial", "process")


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
    events = workload.sorted_events()
    issue_time = events[-1].time if events else 0.0
    return [
        KNNQuery(
            center=event.query.range.center,
            k=(1, 5, 10)[i % 3],
            query_time=issue_time + event.query.predictive_time,
            issue_time=issue_time,
        )
        for i, event in enumerate(workload.query_events)
    ]


def _build(workload, name="Bx", shards=SHARDS, executor="serial"):
    return build_standard_indexes(
        workload, PARAMS, which=(name,), shards=shards, executor=executor
    )[name]


def _oracle(index, workload, name="Bx"):
    """An oracle whose twin is ``index``'s recipe on the serial executor."""
    return EpochOracle(_build(workload, name, shards=index.num_shards), space=PARAMS.space)


def _loaded(index, oracle, workload):
    index.bulk_load(workload.initial_objects)
    oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)


def _pinned_answers(index, queries, probes):
    """One pinned consistent cut: (epoch, range answers, knn answers)."""
    with index.pin() as epoch:
        ranges = index.range_query_batch(queries, epoch=epoch)
        knn = index.knn_query_batch(probes, space=PARAMS.space, epoch=epoch)
    return epoch, ranges, knn


# ----------------------------------------------------------------------
# The tentpole: 4 families x 3 executors, interleaved stream + held pin
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,executor", list(itertools.product(INDEX_NAMES, EXECUTOR_NAMES))
)
def test_pinned_answers_match_quiescent_twin(
    workload, update_batches, queries, probes, name, executor
):
    """Every pinned cut — fresh or held across half the stream — is exact.

    The first half of the stream answers a pinned batch after every
    update batch; a pin taken at the midpoint is then *held* while the
    second half applies, its answers re-read (and required frozen) after
    every batch.  The oracle replays everything into a quiescent twin
    and demands bit-identical answers at every recorded epoch.
    """
    index = _build(workload, name, executor=executor)
    with index, _oracle(index, workload, name) as oracle:
        _loaded(index, oracle, workload)
        mid = len(update_batches) // 2
        for pairs in update_batches[:mid]:
            index.update_batch(pairs)
            oracle.record_mutation(index.epoch, "update_batch", pairs)
            epoch, ranges, knn = _pinned_answers(index, queries, probes)
            oracle.record_answer(epoch, "range", queries, ranges)
            oracle.record_answer(epoch, "knn", probes, knn)
        with index.pin() as stale:
            frozen_ranges = index.range_query_batch(queries, epoch=stale)
            frozen_knn = index.knn_query_batch(probes, space=PARAMS.space, epoch=stale)
            for pairs in update_batches[mid:]:
                index.update_batch(pairs)
                oracle.record_mutation(index.epoch, "update_batch", pairs)
                assert index.range_query_batch(queries, epoch=stale) == frozen_ranges
                assert (
                    index.knn_query_batch(probes, space=PARAMS.space, epoch=stale)
                    == frozen_knn
                )
            oracle.record_answer(stale, "range", queries, frozen_ranges)
            oracle.record_answer(stale, "knn", probes, frozen_knn)
        top, ranges, knn = _pinned_answers(index, queries, probes)
        assert top == index.epoch == 1 + len(update_batches)
        oracle.record_answer(top, "range", queries, ranges)
        oracle.record_answer(top, "knn", probes, knn)
        oracle.assert_consistent()


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


def test_sharded_range_query_batch_takes_no_exact(workload, queries):
    """``exact=`` lives below the VP seam only: a ``ShardedIndex`` answer is always exact."""
    index = _build(workload)
    with index:
        index.bulk_load(workload.initial_objects)
        with pytest.raises(TypeError, match="exact"):
            index.range_query_batch(queries, exact=False)
        with pytest.raises(TypeError, match="exact"):
            index.range_query(queries[0], exact=False)


# ----------------------------------------------------------------------
# Undo pre-images of an update whose old snapshot was never stored
# ----------------------------------------------------------------------
def _moved(obj, time=1.0):
    return obj, obj.with_update(obj.position_at(time), obj.velocity, time)


def _ghost_pairs(index, shard, count):
    """``(old, new)`` pairs of never-inserted objects that route to ``shard``."""
    oids = itertools.islice(
        (oid for oid in itertools.count(10_000) if index.shard_of(oid) == shard), count
    )
    return [
        _moved(MovingObject(oid, Point(20_000.0 + 100.0 * i, 25_000.0), Vector(1.0, 0.5), 0.5))
        for i, oid in enumerate(oids)
    ]


def _assert_pinned_cut_survives(index, apply, pairs):
    """``apply(pairs)`` under a held pin leaves the pinned range and kNN answers as they were."""
    everything = [TimeSliceRangeQuery(RectangularRange(PARAMS.space), time=2.0, issue_time=1.0)]
    nearest = [
        KNNQuery(center=old.position_at(2.0), k=3, query_time=2.0, issue_time=1.0)
        for old, _ in pairs
    ]
    with index.pin() as epoch:
        frozen = index.range_query_batch(everything, epoch=epoch)
        frozen_knn = index.knn_query_batch(nearest, space=PARAMS.space, epoch=epoch)
        apply(pairs)
        assert index.epoch == epoch + 1
        assert index.range_query_batch(everything, epoch=epoch) == frozen
        assert index.knn_query_batch(nearest, space=PARAMS.space, epoch=epoch) == frozen_knn
    live = index.range_query_batch(everything)[0]
    assert all(new.oid in live for _, new in pairs)


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_update_that_misses_leaves_no_phantom_in_a_pinned_cut(workload, executor):
    """An upsert-miss records "absent", not its ``old``, as the undo pre-image.

    A batch of one (the scalar ``update`` included), a batch where every
    old missed, a batch where every old hit.
    """
    index = _build(workload, executor=executor)
    with index:
        index.bulk_load(workload.initial_objects)
        shard = index.shard_of(workload.initial_objects[0].oid)
        stored = [obj for obj in workload.initial_objects if index.shard_of(obj.oid) == shard]
        ghosts = _ghost_pairs(index, shard, 4)
        _assert_pinned_cut_survives(index, lambda pairs: index.update(*pairs[0]), ghosts[:1])
        _assert_pinned_cut_survives(index, index.update_batch, ghosts[1:2])
        _assert_pinned_cut_survives(index, index.update_batch, ghosts[2:])
        _assert_pinned_cut_survives(index, index.update_batch, [_moved(o) for o in stored[:2]])


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_mixed_hit_and_miss_batch_leaves_no_phantom_in_a_pinned_cut(workload, executor):
    """Per-pair flags decide each pre-image when one shard's slice both hits and misses."""
    index = _build(workload, executor=executor)
    with index:
        index.bulk_load(workload.initial_objects)
        hit = workload.initial_objects[0]
        ghost = _ghost_pairs(index, index.shard_of(hit.oid), 1)[0]

        def update(pairs):
            assert index.update_batch(pairs) == [False, True]

        _assert_pinned_cut_survives(index, update, [ghost, _moved(hit)])


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
# Recovery: epochs survive worker death and durable restarts
# ----------------------------------------------------------------------
def test_pinned_answers_survive_worker_sigkill(workload, update_batches, queries, probes):
    """WAL recovery replays epochs: post-recovery cuts stay oracle-exact."""
    index = _build(workload, executor="process")
    with index, _oracle(index, workload) as oracle:
        _loaded(index, oracle, workload)
        for pairs in update_batches[:2]:
            index.update_batch(pairs)
            oracle.record_mutation(index.epoch, "update_batch", pairs)
        victim = 1
        os.kill(index.executor.worker_pid(victim), signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while index.executor.worker_alive(victim) and time.monotonic() < deadline:
            time.sleep(0.01)
        epoch_before = index.epoch
        for pairs in update_batches[2:5]:
            index.update_batch(pairs)
            oracle.record_mutation(index.epoch, "update_batch", pairs)
        assert index.epoch == epoch_before + 3  # recovery did not fork the counter
        assert any(e["shard_id"] == victim for e in index.recovery_events)
        epoch, ranges, knn = _pinned_answers(index, queries, probes)
        oracle.record_answer(epoch, "range", queries, ranges)
        oracle.record_answer(epoch, "knn", probes, knn)
        oracle.assert_consistent()


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
