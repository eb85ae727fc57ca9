"""One index protocol, one mutation record.

Two contracts that everything above the index families leans on:

* every index — the four families, the VP variants, and the serving
  layer's ``VersionedShard``, process-shard handle and ``ShardedIndex`` —
  satisfies :class:`~repro.core.index_manager.MovingIndex`, including a
  ``bulk_load`` that takes the objects and nothing else;
* a ``ShardedIndex`` mutation is exactly one ``(op, payload, epoch)`` WAL
  entry per routed shard, and :func:`~repro.serve.shard_log.apply_record`
  replaying a shard's entries into a fresh shard reproduces that shard's
  answers — on every executor.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_standard_indexes
from repro.core.index_manager import MovingIndex, SubIndex
from repro.objects.knn import KNNQuery
from repro.objects.moving_object import MovingObject
from repro.serve import LOG_OPS, ShardedIndex, VersionedShard
from repro.serve.shard_log import apply_record
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=300, time_duration=30.0, num_queries=10)

MEMBERS = (
    "buffer",
    "__len__",
    *LOG_OPS,
    "range_query",
    "range_query_batch",
    "knn_query",
    "knn_query_batch",
)


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


def _build_sharded(family, shards, executor):
    return ShardedIndex.build(
        family,
        shards=shards,
        executor=executor,
        space=PARAMS.space,
        buffer_pages=PARAMS.buffer_pages,
        page_size=PARAMS.page_size,
        max_update_interval=PARAMS.max_update_interval,
    )


def _family(name):
    def make(workload):
        return build_standard_indexes(workload, PARAMS, which=(name,))[name], None

    return make


def _versioned(workload):
    return VersionedShard(_family("Bx")(workload)[0]), None


def _process_handle(workload):
    owner = _build_sharded("TPR*", 1, "process")
    return owner.shards[0], owner


def _sharded(workload):
    index = _build_sharded("TPR*", 2, "serial")
    return index, index


#: name -> factory returning ``(empty index, what to close afterwards)``.
INDEXES = {
    "Bx": _family("Bx"),
    "TPR": _family("TPR"),
    "TPR*": _family("TPR*"),
    "Bx(VP)": _family("Bx(VP)"),
    "TPR*(VP)": _family("TPR*(VP)"),
    "VersionedShard": _versioned,
    "process handle": _process_handle,
    "ShardedIndex": _sharded,
}


@pytest.mark.parametrize("name", list(INDEXES))
def test_every_index_satisfies_the_protocol(workload, name):
    index, owner = INDEXES[name](workload)
    try:
        assert [member for member in MEMBERS if not hasattr(index, member)] == []
        assert isinstance(index, MovingIndex)
        if name in ("Bx", "TPR", "TPR*"):
            assert isinstance(index, SubIndex)
        objects = workload.initial_objects
        with pytest.raises(TypeError):
            index.bulk_load(objects, strategy="velocity_str")
        assert len(index) == 0
        index.bulk_load(objects)
        assert len(index) == len(objects)
        if isinstance(index, ShardedIndex):
            for sid in range(index.num_shards):
                ((op, payload, _),) = index.shard_log(sid).entries  # the TypeError logged nothing
                assert op == "bulk_load" and isinstance(payload, tuple)
                assert all(isinstance(obj, MovingObject) for obj in payload)
        for event in workload.query_events:
            expected = sorted(obj.oid for obj in objects if event.query.matches(obj))
            assert sorted(index.range_query(event.query)) == expected
    finally:
        if owner is not None:
            owner.close()


def _mutation_script(workload):
    """The seven mutations as ``(op, arguments, oids they route by)`` rows."""
    objects = workload.initial_objects
    loaded, spare = objects[:200], objects[200:]
    moves = {}
    for event in workload.sorted_events():
        if isinstance(event, UpdateEvent):  # each object's first move
            moves.setdefault(event.old.oid, (event.old, event.new))
    pairs = [moves[obj.oid] for obj in loaded if obj.oid in moves][:40]
    untouched = [obj for obj in loaded if obj.oid not in moves]
    rows = [
        ("bulk_load", (loaded,), loaded),
        ("insert", (spare[0],), spare[:1]),
        ("insert_batch", (spare[1:30],), spare[1:30]),
        ("update", pairs[0], [pairs[0][0]]),
        ("update_batch", (pairs[1:],), [old for old, _ in pairs[1:]]),
        ("delete", (untouched[0],), untouched[:1]),
        ("delete_batch", (untouched[1:20],), untouched[1:20]),
    ]
    assert sorted(op for op, _, _ in rows) == sorted(LOG_OPS)
    return rows


@pytest.mark.parametrize("executor", ("serial", "thread", "process"))
def test_each_mutation_is_one_record_per_routed_shard_and_replays(workload, executor):
    index = _build_sharded("Bx", 3, executor)
    try:
        for op, arguments, routed_by in _mutation_script(workload):
            before = [len(index.shard_log(sid)) for sid in range(index.num_shards)]
            getattr(index, op)(*arguments)
            routed = {index.shard_of(obj.oid) for obj in routed_by}
            for sid in range(index.num_shards):
                entries = index.shard_log(sid).entries[before[sid] :]
                if sid not in routed:
                    assert entries == (), (op, sid)
                    continue
                assert len(entries) == 1, (op, sid)
                assert (entries[0][0], entries[0][2]) == (op, index.epoch), (op, sid)

        queries = [event.query for event in workload.query_events]
        probes = [
            KNNQuery(center=query.range.center, k=5, query_time=query.end_time)
            for query in queries
        ]
        for sid in range(index.num_shards):
            fresh = index.shard_factory()
            for op, payload, _ in index.shard_log(sid).entries:
                apply_record(fresh, op, payload)
            live = index.shards[sid]
            assert len(fresh) == len(live)
            assert fresh.range_query_batch(queries) == live.range_query_batch(queries)
            assert fresh.knn_query_batch(probes, space=PARAMS.space) == (
                live.knn_query_batch(probes, space=PARAMS.space)
            )
    finally:
        index.close()
