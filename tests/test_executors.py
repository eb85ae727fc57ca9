"""Executor equivalence and lifecycle tests (the pluggable-backend claim).

The serving layer promises that *where* shard calls run — inline
(``SerialExecutor``) or in worker processes (``ProcessExecutor``) — never
changes *what* they answer: both executors must return bit-identical
range/kNN/update results for every index family, a query timeout is
served only where a stalled shard can be abandoned, and a closed index
must tear its workers down exactly once.  That worker-process death
recovers through the same WAL machinery as any shard fault is a rule of
the state machine in ``tests/test_serve_state_machine.py``.  See
``docs/serving.md``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.bench.harness import build_standard_indexes
from repro.bxtree.bx_tree import BxTree
from repro.objects.knn import KNNQuery
from repro.serve import (
    ProcessExecutor,
    SerialExecutor,
    ServeConfig,
    ShardedIndex,
    SupervisorConfig,
    make_executor,
    shard_of,
)
from repro.storage import BufferManager
from repro.storage.faults import FaultProfile, fault_wrap
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=400, time_duration=40.0, num_queries=12)

WINDOW = 1.0

INDEX_NAMES = ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")

EXECUTOR_NAMES = ("serial", "process")


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def batches(workload):
    return workload.grouped_events(window=WINDOW)


def _build(workload, name, shards=1, executor=None):
    index = build_standard_indexes(
        workload, PARAMS, which=(name,), shards=shards, executor=executor
    )[name]
    index.bulk_load(workload.initial_objects)
    return index


def _replay(index, batches):
    """Replay the grouped event stream; returns (update flags, answers)."""
    flags, answers = [], []
    for batch in batches:
        if isinstance(batch[0], UpdateEvent):
            flags.append(index.update_batch([(e.old, e.new) for e in batch]))
        else:
            answers.extend(index.range_query_batch([e.query for e in batch]))
    return flags, answers


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


def _stats_triple(index):
    stats = index.buffer.stats
    return (
        (stats.physical.reads, stats.physical.writes),
        (stats.logical.reads, stats.logical.writes),
        (stats.buffer.hits, stats.buffer.misses),
    )


# ----------------------------------------------------------------------
# Answer equivalence across executors (all four families)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", INDEX_NAMES)
def test_executors_answer_bit_identical(workload, batches, name):
    """Serial and process answers are bit-identical, family by family.

    Per-pair update flags, range answers (canonical ascending-id order)
    and kNN answers (ids, distances *and* tie order) must all agree with
    the unsharded index — and the executors' aggregate I/O counters must
    agree with each other, which pins the process mode's parent-side
    stats mirror to exact (not sampled) accounting.
    """
    unsharded = _build(workload, name)
    ref_flags, ref_answers = _replay(unsharded, batches)
    ref_answers = [sorted(result) for result in ref_answers]
    probes = _knn_probes(workload)
    ref_knn = unsharded.knn_query_batch(probes, space=PARAMS.space)

    per_executor = {}
    for executor in EXECUTOR_NAMES:
        index = _build(workload, name, shards=2, executor=executor)
        try:
            flags, answers = _replay(index, batches)
            assert flags == ref_flags, (name, executor)
            assert answers == ref_answers, (name, executor)
            knn = index.knn_query_batch(probes, space=PARAMS.space)
            assert knn == ref_knn, (name, executor)
            per_executor[executor] = _stats_triple(index)
        finally:
            index.close()
    assert per_executor["process"] == per_executor["serial"], name


def test_process_shard_count_invariance(workload, batches):
    """Process-mode answers do not depend on the shard count."""
    unsharded = _build(workload, "Bx")
    _, ref_answers = _replay(unsharded, batches)
    ref_answers = [sorted(result) for result in ref_answers]
    probes = _knn_probes(workload)
    ref_knn = unsharded.knn_query_batch(probes, space=PARAMS.space)
    for shards in (2, 4):
        index = _build(workload, "Bx", shards=shards, executor="process")
        try:
            _, answers = _replay(index, batches)
            assert answers == ref_answers, shards
            assert index.knn_query_batch(probes, space=PARAMS.space) == ref_knn, shards
        finally:
            index.close()


# ----------------------------------------------------------------------
# Query timeouts: enforced by the process executor, refused elsewhere
# ----------------------------------------------------------------------
def _slow_disk_index(workload, read_latency_s):
    """A 2-shard process-backed index whose shard 0 pays ``read_latency_s`` per page read.

    The shards are loaded *before* the injector arms (loading through the
    slow disk would dominate the test) and the injector is slid under
    shard 0 before the executor attaches, so it ships to the worker with
    the shard (``time.sleep`` pickles; the latency fires inside the
    worker).  Tiny buffers keep every query reading cold pages.
    """
    shards = [
        BxTree(
            buffer=BufferManager(capacity=2),
            space=PARAMS.space,
            max_update_interval=PARAMS.max_update_interval,
        )
        for _ in range(2)
    ]
    parts = ([], [])
    for obj in workload.initial_objects:
        parts[shard_of(obj.oid, 2)].append(obj)
    for shard, part in zip(shards, parts):
        shard.bulk_load(part)
    fault_wrap(shards[0].buffer, profile=FaultProfile(read_latency_s=read_latency_s))
    return ShardedIndex(
        shards,
        ServeConfig(
            name="Bx-slow",
            space=PARAMS.space,
            executor="process",
            supervisor=SupervisorConfig(query_timeout_s=0.05),
        ),
    )


@pytest.mark.slow
def test_a_stalled_worker_degrades_to_a_partial_result(workload):
    """The worker past the deadline is abandoned; the healthy shard's answers come back."""
    queries = [e.query for e in workload.query_events[:2]]
    healthy = [obj for obj in workload.initial_objects if shard_of(obj.oid, 2) == 1]
    index = _slow_disk_index(workload, read_latency_s=0.2)
    try:
        degraded = index.range_query_batch(queries, partial=True)
        assert degraded.failed_shards == [0]
        assert "timeout" in degraded.statuses[0].error
        assert list(degraded) == [
            sorted(obj.oid for obj in healthy if query.matches(obj)) for query in queries
        ]
    finally:
        index.close()


def test_a_query_timeout_is_refused_where_nothing_can_enforce_it(workload, tmp_path):
    # An inline shard call cannot be abandoned: the timeout used to be
    # accepted and silently never fire.
    supervisor = SupervisorConfig(query_timeout_s=0.05)
    shard = build_standard_indexes(workload, PARAMS, which=("Bx",))["Bx"]
    for executor in (None, "serial"):
        with pytest.raises(ValueError, match="query timeout needs the process executor"):
            ShardedIndex([shard], ServeConfig(executor=executor, supervisor=supervisor))
    root = str(tmp_path / "store")
    with pytest.raises(ValueError, match="query timeout needs the process executor"):
        ShardedIndex.build(
            "Bx", shards=2, durable_dir=root, config=ServeConfig(supervisor=supervisor)
        )
    assert not os.path.exists(root)


# ----------------------------------------------------------------------
# Lifecycle: single-use executors, terminal close, no leaked workers
# ----------------------------------------------------------------------
def test_process_close_terminates_every_worker(workload):
    index = _build(workload, "Bx", shards=2, executor="process")
    backend = index.executor
    pids = [backend.worker_pid(shard_id) for shard_id in range(2)]
    index.close()
    for shard_id, pid in enumerate(pids):
        assert not backend.worker_alive(shard_id)
        with pytest.raises(OSError):
            os.kill(pid, 0)  # the pid is gone, not just disconnected


def test_executor_instances_are_single_use(workload):
    executor = ProcessExecutor()
    index = _build(workload, "Bx", shards=2, executor=executor)
    try:
        shard = build_standard_indexes(workload, PARAMS, which=("Bx",))["Bx"]
        with pytest.raises(RuntimeError, match="already attached"):
            ShardedIndex([shard], ServeConfig(executor=executor))
    finally:
        index.close()


def test_make_executor_specs():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor("serial"), SerialExecutor)
    assert isinstance(make_executor("process"), ProcessExecutor)
    ready = SerialExecutor()
    assert make_executor(ready) is ready
    for name in ("fibers", "thread"):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(name)
    for spec in (42, SerialExecutor):  # a name or an instance: no class spelling
        with pytest.raises(TypeError):
            make_executor(spec)


# ----------------------------------------------------------------------
# ServeConfig surface: the config is the one way in, build() wires everything
# ----------------------------------------------------------------------
def test_config_and_wrong_positional_type_are_rejected(workload):
    shard = build_standard_indexes(workload, PARAMS, which=("Bx",))["Bx"]
    with pytest.raises(TypeError, match="ServeConfig"):
        ShardedIndex([shard], "a-name")
    with pytest.raises(TypeError, match="unexpected keyword"):
        ShardedIndex([shard], name="a-name")  # options live on ServeConfig only


def test_build_classmethod_serves_end_to_end(workload):
    index = ShardedIndex.build(
        family="Bx",
        shards=2,
        executor="process",
        space=PARAMS.space,
        buffer_pages=16,
        max_update_interval=PARAMS.max_update_interval,
    )
    try:
        assert index.num_shards == 2
        assert index.executor.kind == "process"
        index.bulk_load(workload.initial_objects)
        assert len(index) == len(workload.initial_objects)
        # Every shard has a recovery baseline: recovery works out of the box.
        os.kill(index.executor.worker_pid(0), signal.SIGKILL)
        updates = [(e.old, e.new) for e in workload.update_events[:50]]
        index.update_batch(updates)
        assert len(index) == len(workload.initial_objects)
    finally:
        index.close()


def test_build_rejects_unknown_family_and_durable_process():
    with pytest.raises(ValueError, match="unknown index family"):
        ShardedIndex.build(family="quad", shards=2)


def test_durable_stores_reject_the_process_executor(tmp_path, workload):
    from repro.serve import DurableStore

    store = DurableStore(str(tmp_path / "store"))
    with pytest.raises(ValueError, match="in-process executor"):
        store.create(
            lambda buffer: BxTree(buffer=buffer, space=PARAMS.space),
            num_shards=2,
            config=ServeConfig(executor="process"),
        )
