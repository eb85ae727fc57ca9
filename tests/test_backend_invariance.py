"""Backend invariance: the flat key store is indistinguishable end to end.

Every Bx serving surface must return bit-identical answers whether the
shards run on the paged B+-tree or the flat vectorized array — unsharded
and sharded, scalar and batched, live and epoch-pinned, before and after
a WAL-replay shard recovery, and across worker processes.  The paged
backend is always the reference side of each comparison; the flat side
must match ids, distances and result order exactly (no tolerance).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_standard_indexes, knn_queries_from_workload
from repro.bxtree import BTreeKeyStore, FlatKeyStore
from repro.serve import ServeConfig, ShardedIndex
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=250, time_duration=30.0, num_queries=8)

SHARDS = 3

BACKENDS = ("btree", "flat")


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


def _build(workload, backend, name="Bx", shards=1, executor=None):
    return build_standard_indexes(
        workload,
        PARAMS,
        which=(name,),
        shards=shards,
        executor=executor,
        key_store=backend,
    )[name]


def _replayed_answers(index, workload, update_batches, queries, probes):
    index.bulk_load(workload.initial_objects)
    for pairs in update_batches:
        index.update_batch(pairs)
    ranges = index.range_query_batch(queries)
    knn = index.knn_query_batch(probes, space=PARAMS.space)
    return ranges, knn


# ----------------------------------------------------------------------
# Unsharded: every Bx query surface, scalar and batched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("Bx", "Bx(VP)"))
def test_unsharded_answers_bit_identical(
    workload, update_batches, queries, probes, name
):
    answers = {}
    for backend in BACKENDS:
        index = _build(workload, backend, name=name)
        ranges, knn = _replayed_answers(
            index, workload, update_batches, queries, probes
        )
        scalar_ranges = [index.range_query(q) for q in queries]
        answers[backend] = (ranges, scalar_ranges, knn)
    assert answers["btree"] == answers["flat"]


def test_batch_and_scalar_paths_agree_on_flat(workload, queries):
    """The flat backend's own batch/scalar surfaces must also agree."""
    index = _build(workload, "flat")
    index.bulk_load(workload.initial_objects)
    assert index.range_query_batch(queries) == [
        index.range_query(q) for q in queries
    ]


# ----------------------------------------------------------------------
# Sharded serving: executors, epoch pins, WAL recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", ("serial",))
def test_sharded_answers_bit_identical(
    workload, update_batches, queries, probes, executor
):
    answers = {}
    for backend in BACKENDS:
        with _build(workload, backend, shards=SHARDS, executor=executor) as index:
            for shard in index.shards:
                assert type(shard.store).__name__ == (
                    "FlatKeyStore" if backend == "flat" else "BTreeKeyStore"
                )
            answers[backend] = _replayed_answers(
                index, workload, update_batches, queries, probes
            )
    assert answers["btree"] == answers["flat"]


def test_process_executor_serves_flat_shards(workload, queries, probes):
    """The flat arrays must pickle into worker processes and back."""
    answers = {}
    for backend in BACKENDS:
        with _build(workload, backend, shards=2, executor="process") as index:
            index.bulk_load(workload.initial_objects)
            answers[backend] = (
                index.range_query_batch(queries),
                index.knn_query_batch(probes, space=PARAMS.space),
            )
    assert answers["btree"] == answers["flat"]


def test_epoch_pinned_cuts_bit_identical(workload, update_batches, queries, probes):
    """A pin held across the stream freezes the same cut on both backends."""
    pinned = {}
    for backend in BACKENDS:
        with _build(workload, backend, shards=SHARDS) as index:
            index.bulk_load(workload.initial_objects)
            mid = len(update_batches) // 2
            for pairs in update_batches[:mid]:
                index.update_batch(pairs)
            with index.pin() as epoch:
                frozen_ranges = index.range_query_batch(queries, epoch=epoch)
                frozen_knn = index.knn_query_batch(
                    probes, space=PARAMS.space, epoch=epoch
                )
                for pairs in update_batches[mid:]:
                    index.update_batch(pairs)
                assert index.range_query_batch(queries, epoch=epoch) == frozen_ranges
                assert (
                    index.knn_query_batch(probes, space=PARAMS.space, epoch=epoch)
                    == frozen_knn
                )
            live = index.range_query_batch(queries)
            pinned[backend] = (epoch, frozen_ranges, frozen_knn, live)
    assert pinned["btree"] == pinned["flat"]


def test_wal_recovery_preserves_backend_and_answers(
    workload, update_batches, queries, probes
):
    """A recovered shard is rebuilt on the same backend with the same data."""
    answers = {}
    for backend in BACKENDS:
        with _build(workload, backend, shards=SHARDS) as index:
            ranges, knn = _replayed_answers(
                index, workload, update_batches, queries, probes
            )
            index.recover_shard(0)
            assert type(index.shards[0].store).__name__ == (
                "FlatKeyStore" if backend == "flat" else "BTreeKeyStore"
            )
            assert index.range_query_batch(queries) == ranges
            assert index.knn_query_batch(probes, space=PARAMS.space) == knn
            answers[backend] = (ranges, knn)
    assert answers["btree"] == answers["flat"]


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
def test_build_key_store_reaches_every_shard_and_its_recovery(workload):
    # The backend is part of the shard recipe (a ``build`` keyword), not of
    # the serving policy: ServeConfig has no such field.
    with pytest.raises(TypeError):
        ServeConfig(key_store="flat")
    with ShardedIndex.build(
        family="Bx", shards=2, space=PARAMS.space, key_store="flat"
    ) as index:
        for shard in index.shards:
            assert isinstance(shard.store, FlatKeyStore)
        # A recovered shard keeps the backend choice too.
        index.recover_shard(0)
        assert isinstance(index.shards[0].store, FlatKeyStore)
    with ShardedIndex.build(family="Bx", shards=2, space=PARAMS.space) as index:
        for shard in index.shards:
            assert isinstance(shard.store, BTreeKeyStore)


def test_durable_dir_requires_paged_backend(tmp_path):
    with pytest.raises(ValueError, match="paged 'btree' key store"):
        ShardedIndex.build(
            family="Bx",
            shards=2,
            durable_dir=str(tmp_path / "store"),
            key_store="flat",
        )
    # The paged default (explicit or implied) still works durably.
    with ShardedIndex.build(
        family="Bx",
        shards=2,
        durable_dir=str(tmp_path / "store"),
        key_store="btree",
    ) as index:
        assert index.num_shards == 2
