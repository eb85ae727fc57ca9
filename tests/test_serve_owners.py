"""Unit tests of the serving layer's three owners, each on its own.

``ShardedIndex`` routes, logs and merges; it hands the snapshot epochs to
:class:`~repro.serve.snapshot.EpochClock`, the supervision policy and
recovery to :class:`~repro.serve.supervisor.Supervisor`, and fan-out
placement to :meth:`~repro.serve.executor.Executor.run`.  The state
machine (``tests/test_serve_state_machine.py``) checks them together
through the index; these tests pin each owner's contract with fake shards
and plain callables, so a fault in one is named by its own test.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.bench.harness import build_standard_indexes
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    SHARD_FAILED,
    SHARD_OK,
    SHARD_SKIPPED,
    RetryPolicy,
    SerialExecutor,
    ShardFailedError,
    SupervisorConfig,
)
from repro.serve.snapshot import EpochClock
from repro.serve.supervisor import Supervisor
from repro.storage.faults import PageReadError, ShardDownError
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters


# ----------------------------------------------------------------------
# EpochClock
# ----------------------------------------------------------------------
def test_epoch_clock_pins_the_published_epoch_and_releases_it():
    clock = EpochClock(3)
    assert clock.published == 3
    with clock.pin() as outer:
        assert outer == 3
        with clock.pin() as inner:
            assert inner == 3
            assert clock._pins == {3: 2}
        assert clock._pins == {3: 1}
    assert clock._pins == {}


def test_epoch_clock_refuses_unpublished_and_non_integral_epochs():
    clock = EpochClock(2)
    with clock.pin(1) as epoch:
        assert epoch == 1
    # An explicit epoch is trusted: it registers no pin.
    assert clock._pins == {}
    with pytest.raises(ValueError):
        with clock.pin(3):
            pass
    with pytest.raises(ValueError):
        with clock.pin(-1):
            pass
    with pytest.raises(TypeError):
        with clock.pin(1.5):
            pass


def test_epoch_clock_publishes_each_batch_when_it_ends():
    clock = EpochClock(0)
    with clock.advance() as (epoch, _):
        assert epoch == 1
        # Readers keep the last complete cut until the batch is done.
        assert clock.published == 0
    assert clock.published == 1
    with pytest.raises(RuntimeError):
        with clock.advance() as (epoch, _):
            assert epoch == 2
            raise RuntimeError("batch failed mid-scatter")
    # A failed batch still publishes: its shards applied, rejected or failed.
    assert clock.published == 2


def test_epoch_clock_gc_floor_is_the_oldest_live_pin():
    clock = EpochClock(0)
    with clock.advance() as (_, gc_floor):
        assert gc_floor == 0
    with clock.pin() as pinned:
        assert pinned == 1
        for _ in range(3):
            with clock.advance() as (_, gc_floor):
                assert gc_floor == 1
    with clock.advance() as (epoch, gc_floor):
        assert epoch == 5
        assert gc_floor == 4


def test_epoch_clock_serializes_writers():
    clock = EpochClock(0)
    seen = []

    def writer():
        with clock.advance() as (epoch, _):
            seen.append(epoch)

    with clock.advance() as (first, _):
        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=0.1)
        # The second writer waits on the single-writer lock.
        assert thread.is_alive()
        assert seen == []
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert (first, seen) == (1, [2])
    assert clock.published == 2


# ----------------------------------------------------------------------
# Executor.run
# ----------------------------------------------------------------------
def test_serial_run_is_inline_in_order_and_collects_shard_failures():
    executor = SerialExecutor()
    order = []

    def ok(shard_id):
        def call():
            order.append((shard_id, threading.get_ident()))
            return shard_id * 10
        return call

    def failed():
        order.append((1, threading.get_ident()))
        raise ShardFailedError(1)

    results, failures = executor.run({0: ok(0), 1: failed, 2: ok(2)}, None)
    assert results == {0: 0, 2: 20}
    assert list(failures) == [1]
    assert isinstance(failures[1], ShardFailedError)
    me = threading.get_ident()
    assert order == [(0, me), (1, me), (2, me)]


def test_serial_run_propagates_an_unexpected_exception():
    executor = SerialExecutor()
    ran = []

    def bad():
        raise ValueError("caller bug")

    with pytest.raises(ValueError):
        executor.run({0: bad, 1: lambda: ran.append(1)}, None)
    # Inline placement stops at the first unexpected exception.
    assert ran == []


@pytest.fixture(scope="module")
def process_executor():
    params = WorkloadParameters(num_objects=60, time_duration=10.0, num_queries=2)
    workload = build_workload("SA", params)
    index = build_standard_indexes(
        workload, params, which=("Bx",), shards=2, executor="process"
    )["Bx"]
    try:
        yield index.executor
    finally:
        index.close()


def test_process_run_keeps_a_lone_undeadlined_call_inline(process_executor):
    results, failures = process_executor.run({1: threading.get_ident}, None)
    assert failures == {}
    assert results == {1: threading.get_ident()}


def test_process_run_fans_out_on_the_pool(process_executor):
    barrier = threading.Barrier(2, timeout=5)

    def call(shard_id):
        def run():
            # Both calls must be running at once to pass the barrier.
            barrier.wait()
            return shard_id, threading.get_ident()
        return run

    results, failures = process_executor.run({0: call(0), 1: call(1)}, None)
    assert failures == {}
    assert sorted(results) == [0, 1]
    threads = {results[0][1], results[1][1]}
    assert len(threads) == 2 and threading.get_ident() not in threads


def test_process_run_shares_one_deadline_and_abandons_late_calls(process_executor):
    def failed():
        raise ShardFailedError(0)

    def late():
        time.sleep(0.5)
        return "late"

    started = time.monotonic()
    results, failures = process_executor.run({0: failed, 1: late}, 0.05)
    assert time.monotonic() - started < 0.45
    assert results == {}
    assert isinstance(failures[0], ShardFailedError)
    assert isinstance(failures[1], TimeoutError)
    # Let the abandoned call finish before the next test uses the pool.
    time.sleep(0.5)


def test_process_run_awaits_the_other_calls_before_propagating(process_executor):
    progress = {"started": False, "finished": False}

    def bad():
        raise ValueError("caller bug")

    def slow():
        progress["started"] = True
        time.sleep(0.2)
        progress["finished"] = True
        return "done"

    with pytest.raises(ValueError):
        process_executor.run({0: bad, 1: slow}, None)
    # Cancelled before it started, or awaited to its end: never left running.
    assert progress["finished"] == progress["started"]


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Buffer:
    def __init__(self):
        self.flushes = 0

    def flush(self):
        self.flushes += 1


class _FakeShard:
    """A shard that records the batches it applied (epochs included)."""

    def __init__(self):
        self.applied = []
        self.buffer = _Buffer()

    def insert_batch(self, objects, epoch=None):
        self.applied.append((tuple(objects), epoch))
        return len(objects)


def _supervisor(num_shards=2, **config):
    config.setdefault("sleep", lambda seconds: None)
    shards = [_FakeShard() for _ in range(num_shards)]
    executor = SerialExecutor()
    handles = executor.attach(shards)
    return Supervisor(handles, shards, executor, SupervisorConfig(**config), None)


def test_supervisor_retries_a_transient_read_fault():
    supervisor = _supervisor(retry=RetryPolicy(max_attempts=3))
    calls = []

    def flaky(shard):
        calls.append(shard)
        if len(calls) == 1:
            raise PageReadError("transient")
        return "answer"

    results, statuses, failures = supervisor.run({0: flaky}, read_only=True)
    assert results == {0: "answer"}
    assert failures == {}
    assert statuses[0].state == SHARD_OK and statuses[0].attempts == 2
    assert calls == [supervisor.shards[0]] * 2
    assert supervisor.breaker_states() == [BREAKER_CLOSED, BREAKER_CLOSED]


def test_supervisor_skips_reads_on_an_open_breaker():
    supervisor = _supervisor(failure_threshold=1, reset_timeout_s=60.0)

    def down(shard):
        raise ShardDownError("worker gone")

    _, statuses, failures = supervisor.run({0: down, 1: lambda shard: 1}, read_only=True)
    assert statuses[0].state == SHARD_FAILED and statuses[0].attempts == 1
    assert isinstance(failures[0], ShardFailedError)
    assert supervisor.breaker_states() == [BREAKER_OPEN, BREAKER_CLOSED]

    attempted = []
    _, statuses, failures = supervisor.run(
        {0: attempted.append, 1: lambda shard: 1}, read_only=True
    )
    assert attempted == []
    assert statuses[0].state == SHARD_SKIPPED and statuses[0].attempts == 0
    assert statuses[0].error == "circuit open"
    assert statuses[1].ok


def test_supervisor_lets_a_query_bug_through_without_touching_the_breaker():
    supervisor = _supervisor(failure_threshold=1)

    def bug(shard):
        raise KeyError("bad argument")

    with pytest.raises(KeyError):
        supervisor.run({0: bug}, read_only=True)
    assert supervisor.breaker_states() == [BREAKER_CLOSED, BREAKER_CLOSED]


def test_supervisor_maps_an_abandoned_call_to_a_failed_shard():
    class _Abandoning:
        def run(self, calls, timeout):
            return {}, {shard_id: TimeoutError("late") for shard_id in calls}

    supervisor = _supervisor(failure_threshold=1, query_timeout_s=0.25)
    supervisor._backend = _Abandoning()
    _, statuses, failures = supervisor.run({1: lambda shard: 1}, read_only=True)
    assert statuses[1].state == SHARD_FAILED
    assert statuses[1].error == "timeout after 0.25s"
    assert isinstance(failures[1], ShardFailedError)
    assert supervisor.breaker_states() == [BREAKER_CLOSED, BREAKER_OPEN]


def test_supervisor_recovers_a_failed_mutation_from_its_log():
    supervisor = _supervisor()
    log = supervisor.logs[0]
    log.append("insert_batch", [1, 2], 1)
    supervisor.shards[0].insert_batch([1, 2], epoch=1)
    log.append("insert_batch", [3], 2)
    broken = supervisor.shards[0]

    def crash(shard):
        raise ShardDownError("lost mid-batch")

    results, statuses, failures = supervisor.run({0: crash}, read_only=False)
    # The last replayed record's outcome is the mutation's answer.
    assert results == {0: (1, None)}
    assert failures == {} and statuses[0].ok
    healed = supervisor.shards[0]
    assert healed is not broken
    assert healed.applied == [((1, 2), 1), ((3,), 2)]
    (event,) = supervisor.recovery_events
    assert event["shard_id"] == 0
    assert event["replayed_records"] == 2 and event["rejected_records"] == 0
    assert event["compacted"] is True
    # Compaction folded the log into the new baseline.
    assert len(log) == 0
    supervisor.recover(0)
    assert supervisor.shards[0].applied == healed.applied
