"""Shard-vs-unsharded equivalence of the serving layer.

The :class:`repro.serve.ShardedIndex` must be a *topology* change, not a
semantics change: for every index family underneath, the sharded answers
(range queries in canonical ascending-id order, kNN in ``(distance, oid)``
order) must be identical to the unsharded index's answers, independent of
the shard count, with the aggregate I/O counters exactly the sum of the
per-shard counters.  A quiescent sharded index must also serve concurrent
query batches safely (per-shard locks serialize the buffer bookkeeping).
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.harness import build_standard_indexes
from repro.objects.knn import KNNQuery
from repro.serve import ServeConfig, ShardedIndex, shard_of
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=400, time_duration=40.0, num_queries=12)

WINDOW = 1.0

INDEX_NAMES = ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def batches(workload):
    return workload.grouped_events(window=WINDOW)


def _build(workload, name, shards=1):
    index = build_standard_indexes(workload, PARAMS, which=(name,), shards=shards)[name]
    index.bulk_load(workload.initial_objects)
    return index


def _replay(index, batches):
    """Replay the grouped event stream; returns the per-query answers."""
    answers = []
    for batch in batches:
        if isinstance(batch[0], UpdateEvent):
            index.update_batch([(event.old, event.new) for event in batch])
        else:
            answers.extend(index.range_query_batch([event.query for event in batch]))
    return answers


def _knn_probes(workload, ks=(1, 5, 10)):
    events = workload.sorted_events()
    issue_time = events[-1].time if events else 0.0
    return [
        KNNQuery(
            center=event.query.range.center,
            k=ks[i % len(ks)],
            query_time=issue_time + event.query.predictive_time,
            issue_time=issue_time,
        )
        for i, event in enumerate(workload.query_events)
    ]


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_shard_routing_is_deterministic_and_balanced():
    for num_shards in (1, 2, 4, 7):
        assignments = [shard_of(oid, num_shards) for oid in range(10_000)]
        assert assignments == [shard_of(oid, num_shards) for oid in range(10_000)]
        assert set(assignments) <= set(range(num_shards))
        counts = [assignments.count(shard) for shard in range(num_shards)]
        # The multiplicative hash must spread sequential ids evenly: no
        # shard may deviate from the fair share by more than 20%.
        fair = 10_000 / num_shards
        assert all(0.8 * fair <= count <= 1.2 * fair for count in counts), counts


# ----------------------------------------------------------------------
# Answer equivalence (the acceptance claim)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_sharded_answers_match_unsharded(workload, batches, name):
    """Range and kNN answers are bit-identical to unsharded, for 2 and 4 shards.

    Range answers are compared in the serving layer's canonical
    ascending-id order (sorted unsharded answer == sharded answer,
    element for element); kNN answers — ids, distances and tie order —
    must match exactly, since both sides rank by ``(distance, oid)``.
    """
    unsharded = _build(workload, name)
    reference = [sorted(result) for result in _replay(unsharded, batches)]
    probes = _knn_probes(workload)
    reference_knn = unsharded.knn_query_batch(probes, space=PARAMS.space)

    per_count = {}
    for shards in (2, 4):
        sharded = _build(workload, name, shards=shards)
        answers = _replay(sharded, batches)
        assert answers == reference, (name, shards)
        knn = sharded.knn_query_batch(probes, space=PARAMS.space)
        assert knn == reference_knn, (name, shards)
        per_count[shards] = (answers, knn)
    # Shard-count invariance follows, but assert it directly too.
    assert per_count[2] == per_count[4], name


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_sharded_contents_and_flags_match(workload, name):
    """Routing by id preserves per-object semantics of the update surface."""
    unsharded = _build(workload, name)
    sharded = _build(workload, name, shards=3)
    updates = workload.update_events[:200]
    pairs = [(event.old, event.new) for event in updates]
    assert sharded.update_batch(pairs) == unsharded.update_batch(pairs)
    assert len(sharded) == len(unsharded)

    deletes = [event.new for event in updates[:50]]
    assert sharded.delete_batch(deletes) == unsharded.delete_batch(deletes)
    assert len(sharded) == len(unsharded)
    # Deleting the same snapshots again fails on both sides, flag for flag.
    assert sharded.delete_batch(deletes) == unsharded.delete_batch(deletes)


def test_single_probe_knn_matches_batch(workload, batches):
    index = _build(workload, "TPR*", shards=4)
    _replay(index, batches)
    probes = _knn_probes(workload)[:4]
    batch_answers = index.knn_query_batch(probes, space=PARAMS.space)
    for probe, expected in zip(probes, batch_answers):
        single = index.knn_query(
            probe.center,
            probe.k,
            probe.query_time,
            issue_time=probe.issue_time,
            space=PARAMS.space,
        )
        assert single == expected


# ----------------------------------------------------------------------
# I/O accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_aggregate_stats_equal_sum_of_shards(workload, batches, shards):
    """The aggregate counters are exactly the sum of the per-shard IOStats.

    The aggregate is taken before the replay and read after it: like an
    unsharded index's own IOStats, it is live, so harness-style callers
    can hold it across requests and diff its counters.
    """
    index = _build(workload, "Bx", shards=shards)
    stats = index.buffer.stats
    _replay(index, batches)
    index.knn_query_batch(_knn_probes(workload), space=PARAMS.space)
    if shards == 1:
        return  # unsharded indexes expose their IOStats directly
    parts = index.shard_stats()
    assert stats.physical.reads == sum(p.physical.reads for p in parts)
    assert stats.physical.writes == sum(p.physical.writes for p in parts)
    assert stats.logical.reads == sum(p.logical.reads for p in parts)
    assert stats.buffer.hits == sum(p.buffer.hits for p in parts)
    assert stats.buffer.misses == sum(p.buffer.misses for p in parts)


@pytest.mark.parametrize("name", ("Bx", "TPR*"))
def test_one_shard_io_equals_unsharded(workload, batches, name):
    """A single-shard ShardedIndex performs exactly the unsharded I/O.

    With one shard the router is the identity, every batch call forwards
    unchanged, and the aggregate counters must equal the plain index's
    totals counter for counter — the anchor for the sum-of-shards
    accounting at higher shard counts.
    """
    plain = _build(workload, name)
    single = _build(workload, name, shards=1)
    wrapped = ShardedIndex(
        [_build(workload, name)], ServeConfig(name=name, space=PARAMS.space)
    )
    # shards=1 from the harness returns the plain index itself.
    assert not isinstance(single, ShardedIndex)

    _replay(plain, batches)
    _replay(wrapped, batches)
    probes = _knn_probes(workload)
    plain_knn = plain.knn_query_batch(probes, space=PARAMS.space)
    wrapped_knn = wrapped.knn_query_batch(probes, space=PARAMS.space)
    assert wrapped_knn == plain_knn

    plain_stats = plain.buffer.stats
    wrapped_stats = wrapped.buffer.stats
    assert wrapped_stats.physical.reads == plain_stats.physical.reads
    assert wrapped_stats.physical.writes == plain_stats.physical.writes
    assert wrapped_stats.logical.reads == plain_stats.logical.reads
    assert wrapped_stats.buffer.hits == plain_stats.buffer.hits
    assert wrapped_stats.buffer.misses == plain_stats.buffer.misses


@pytest.mark.parametrize("name", ("Bx", "TPR*"))
def test_sharded_logical_io_within_tolerance(workload, batches, name):
    """Summed per-shard node accesses stay comparable to the unsharded totals.

    Sharding trades one index of n objects for N of n/N: updates descend
    shallower trees, queries pay N root descents.  The summed logical
    reads (buffer-size independent, unlike physical I/O at N buffers)
    must stay within a factor of the unsharded replay's — the serving
    layer amortizes, it does not multiply, the index work.
    """
    plain = _build(workload, name)
    sharded = _build(workload, name, shards=4)
    _replay(plain, batches)
    _replay(sharded, batches)
    plain_reads = plain.buffer.stats.logical.reads
    sharded_reads = sharded.buffer.stats.logical.reads
    assert 0.3 * plain_reads <= sharded_reads <= 3.0 * plain_reads, (
        name,
        plain_reads,
        sharded_reads,
    )


# ----------------------------------------------------------------------
# Construction guards
# ----------------------------------------------------------------------
def test_shards_must_not_share_a_buffer(workload):
    shard = build_standard_indexes(workload, PARAMS, which=("TPR*",))["TPR*"]
    with pytest.raises(ValueError):
        ShardedIndex([shard, shard])
    with pytest.raises(ValueError):
        ShardedIndex([])


def test_update_must_keep_object_id(workload):
    index = _build(workload, "TPR*", shards=2)
    event = workload.update_events[0]
    bad_new = event.new.__class__(
        oid=event.new.oid + 1,
        position=event.new.position,
        velocity=event.new.velocity,
        reference_time=event.new.reference_time,
    )
    with pytest.raises(ValueError):
        index.update(event.old, bad_new)
    with pytest.raises(ValueError):
        index.update_batch([(event.old, bad_new)])


# ----------------------------------------------------------------------
# Thread safety (quiescent index, concurrent query batches)
# ----------------------------------------------------------------------
def test_concurrent_query_batches_are_safe(workload, batches):
    """Concurrent range/kNN batches against a quiescent sharded index.

    Several caller threads issue interleaved query batches; every answer
    must equal the single-threaded reference and no exception may escape
    (the per-shard locks serialize each shard's buffer bookkeeping).
    """
    index = _build(workload, "TPR*", shards=4)
    _replay(index, batches)
    queries = [event.query for event in workload.query_events]
    probes = _knn_probes(workload)
    reference_range = index.range_query_batch(queries)
    reference_knn = index.knn_query_batch(probes, space=PARAMS.space)

    errors = []
    barrier = threading.Barrier(6)

    def worker():
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                assert index.range_query_batch(queries) == reference_range
                assert index.knn_query_batch(probes, space=PARAMS.space) == reference_knn
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    index.close()
