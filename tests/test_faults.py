"""Chaos suite: fault injection, supervision, recovery, degraded answers.

Pins the robustness contracts of ``docs/robustness.md``:

* the four fault families of :class:`FaultInjectingDiskManager` fire
  deterministically from seeded/scheduled profiles;
* :class:`BufferManager` survives any injected fault with its pool
  invariants intact — a failed fetch retries cleanly;
* the shard supervisor retries transient query faults with a
  deterministic backoff schedule, trips per-shard circuit breakers, and
  recovers failed shards by replaying their write-ahead log — after
  which answers are **bit-identical** to a never-failed index;
* ``partial=True`` queries degrade instead of raising, and
  ``PartialResult.complete`` holds iff no shard failed.

``CHAOS_SEED`` (environment) reseeds the end-to-end chaos runs; CI runs
the suite under three published seeds.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro import make_index
from repro.bench.harness import build_standard_indexes
from repro.objects.knn import KNNQuery
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    SHARD_SKIPPED,
    CircuitBreaker,
    PartialResult,
    RetryPolicy,
    ServeConfig,
    ShardedIndex,
    ShardFailedError,
    ShardLog,
    SupervisorConfig,
    VersionedShard,
    shard_of,
)
from repro.storage import (
    BufferManager,
    FaultInjectingDiskManager,
    FaultProfile,
    PageReadError,
    PageWriteError,
    ShardDownError,
    fault_wrap,
)
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

#: Seed of the end-to-end chaos runs; CI publishes three values.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

PARAMS = WorkloadParameters(num_objects=400, time_duration=40.0, num_queries=12)

WINDOW = 1.0

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def batches(workload):
    return workload.grouped_events(window=WINDOW)


class FakeClock:
    """A manually advanced monotonic clock for breaker/backoff tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeSleep:
    """Records requested delays instead of sleeping."""

    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


def _supervisor(**overrides):
    """A test supervisor: fake sleep (no real delays) unless overridden."""
    defaults = dict(sleep=FakeSleep())
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _build(workload, shards=1, supervisor=None, name="Bx", executor=None):
    index = build_standard_indexes(
        workload, PARAMS, which=(name,), shards=shards, supervisor=supervisor, executor=executor
    )[name]
    index.bulk_load(workload.initial_objects)
    return index


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
# Fault injector: the four families, deterministically
# ----------------------------------------------------------------------
def test_fault_profile_validation():
    with pytest.raises(ValueError):
        FaultProfile(read_error_rate=1.5)
    with pytest.raises(ValueError):
        FaultProfile(write_error_rate=-0.1)
    with pytest.raises(ValueError):
        FaultProfile(page_fault_times=-1)


def test_scheduled_read_fault_fires_once():
    disk = FaultInjectingDiskManager(profile=FaultProfile(fail_reads_at=frozenset({1})))
    page = disk.allocate("payload")
    assert disk.read(page.page_id).payload == "payload"  # read #0: clean
    with pytest.raises(PageReadError):
        disk.read(page.page_id)  # read #1: scheduled fault
    assert disk.read(page.page_id).payload == "payload"  # read #2: clean again
    assert disk.counters.read_errors == 1
    # The failed attempt never reached the platter.
    assert disk.stats.physical.reads == 2


def test_page_trigger_fires_exactly_n_times():
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(fail_read_pages=frozenset({0}), page_fault_times=2)
    )
    target = disk.allocate("x")
    assert target.page_id == 0  # fresh disks allocate from id 0
    for _ in range(2):
        with pytest.raises(PageReadError):
            disk.read(target.page_id)
    assert disk.read(target.page_id).payload == "x"
    assert disk.counters.read_errors == 2


def test_write_fault_is_transient_and_page_stays_dirty():
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(fail_write_pages=frozenset({0}))
    )
    page = disk.allocate("x")
    page.mark_dirty()
    with pytest.raises(PageWriteError):
        disk.write(page)
    assert page.dirty  # the failed write-back did not clear the flag
    disk.write(page)  # the page trigger fired once; retry succeeds
    assert not page.dirty
    assert disk.counters.write_errors == 1
    assert disk.stats.physical.writes == 1


def test_probability_faults_are_seed_deterministic():
    def failure_ordinals(seed):
        disk = FaultInjectingDiskManager(
            profile=FaultProfile(seed=seed, read_error_rate=0.3)
        )
        page = disk.allocate("x")
        ordinals = []
        for i in range(200):
            try:
                disk.read(page.page_id)
            except PageReadError:
                ordinals.append(i)
        return ordinals

    first = failure_ordinals(1337)
    assert first == failure_ordinals(1337)  # same seed, same schedule
    assert first  # the rate actually fires
    assert first != failure_ordinals(20260808)


def test_injected_latency_goes_through_injected_sleep():
    sleep = FakeSleep()
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(read_latency_s=0.25, write_latency_s=0.5), sleep=sleep
    )
    page = disk.allocate("x")
    disk.read(page.page_id)
    page.mark_dirty()
    disk.write(page)
    assert sleep.delays == [0.25, 0.5]
    assert disk.counters.injected_latency_s == pytest.approx(0.75)


def test_kill_switch_and_revive():
    disk = FaultInjectingDiskManager()
    page = disk.allocate("x")
    disk.kill()
    assert disk.is_down
    with pytest.raises(ShardDownError):
        disk.read(page.page_id)
    page.mark_dirty()
    with pytest.raises(ShardDownError):
        disk.write(page)
    assert disk.counters.down_errors == 2
    disk.revive()
    assert disk.read(page.page_id).payload == "x"


def test_scheduled_kill_fires_at_op_ordinal():
    disk = FaultInjectingDiskManager(profile=FaultProfile(kill_at_op=2))
    page = disk.allocate("x")
    disk.read(page.page_id)  # op 0
    disk.read(page.page_id)  # op 1
    with pytest.raises(ShardDownError):
        disk.read(page.page_id)  # op 2: the worker dies mid-stream
    assert disk.is_down


# ----------------------------------------------------------------------
# Fault-profile interplay: composed trigger families on the same ops
# ----------------------------------------------------------------------
def test_latency_stops_once_scheduled_kill_fires():
    """A dead worker injects no latency: down-check precedes the delay."""
    sleep = FakeSleep()
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(read_latency_s=0.25, write_latency_s=0.5, kill_at_op=3),
        sleep=sleep,
    )
    page = disk.allocate("x")
    disk.read(page.page_id)  # op 0: 0.25s
    page.mark_dirty()
    disk.write(page)  # op 1: 0.5s
    disk.read(page.page_id)  # op 2: 0.25s
    with pytest.raises(ShardDownError):
        disk.read(page.page_id)  # op 3: dies before any delay
    page.mark_dirty()
    with pytest.raises(ShardDownError):
        disk.write(page)  # still down, still no delay
    assert sleep.delays == [0.25, 0.5, 0.25]
    assert disk.counters.injected_latency_s == pytest.approx(1.0)
    assert disk.counters.down_errors == 2
    # Revival does not outlast the schedule: the op counter already sits
    # past kill_at_op, so the very next attempt re-kills (and the shard
    # pays no latency for it either).
    disk.revive()
    with pytest.raises(ShardDownError):
        disk.read(page.page_id)
    assert sleep.delays == [0.25, 0.5, 0.25]


def test_page_trigger_short_circuit_preserves_probability_schedule():
    """Page-targeted and probability faults composed on the same reads.

    The trigger chain short-circuits: an attempt failed by the page
    trigger never consumes an RNG sample, so the probability family's
    failure schedule is the rate-only schedule shifted by exactly the
    number of page-trigger firings — mixing trigger families never
    perturbs the seeded schedule.
    """

    def rate_only_ordinals(attempts):
        disk = FaultInjectingDiskManager(
            profile=FaultProfile(seed=1337, read_error_rate=0.35)
        )
        page = disk.allocate("x")
        ordinals = []
        for i in range(attempts):
            try:
                disk.read(page.page_id)
            except PageReadError:
                ordinals.append(i)
        return ordinals

    mixed = FaultInjectingDiskManager(
        profile=FaultProfile(
            seed=1337,
            read_error_rate=0.35,
            fail_read_pages=frozenset({0}),
            page_fault_times=2,
        )
    )
    page = mixed.allocate("x")
    assert page.page_id == 0
    mixed_ordinals = []
    for i in range(202):
        try:
            mixed.read(page.page_id)
        except PageReadError:
            mixed_ordinals.append(i)
    # The first two attempts fail from the page trigger alone...
    assert mixed_ordinals[:2] == [0, 1]
    # ...and every later failure is the rate-only schedule, shifted by 2.
    assert mixed_ordinals[2:] == [o + 2 for o in rate_only_ordinals(200)]
    assert mixed.counters.read_errors == len(mixed_ordinals)


def test_scheduled_and_page_write_triggers_fire_separately_on_same_op():
    """An op matching two trigger families burns only the first trigger.

    Write attempt 0 matches both ``fail_writes_at`` and the page trigger;
    the or-chain raises on the scheduled ordinal first and short-circuits,
    leaving the page trigger's budget intact — so it fires on the *next*
    attempt, and the attempt after that succeeds.
    """
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(
            fail_writes_at=frozenset({0}),
            fail_write_pages=frozenset({0}),
            page_fault_times=1,
        )
    )
    page = disk.allocate("x")
    page.mark_dirty()
    with pytest.raises(PageWriteError):
        disk.write(page)  # write 0: scheduled ordinal (page budget intact)
    with pytest.raises(PageWriteError):
        disk.write(page)  # write 1: page trigger spends its one firing
    disk.write(page)  # write 2: both families exhausted
    assert disk.counters.write_errors == 2
    assert not page.dirty


# ----------------------------------------------------------------------
# BufferManager: pool invariants under injected faults
# ----------------------------------------------------------------------
def test_fetch_read_fault_leaves_pool_untouched_and_retries_cleanly():
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(fail_read_pages=frozenset({0}))
    )
    buffer = BufferManager(disk=disk, capacity=4)
    page = disk.allocate("victim-of-fate")
    assert page.page_id == 0
    misses_before = buffer.stats.buffer.misses
    reads_before = buffer.stats.physical.reads
    with pytest.raises(PageReadError):
        buffer.fetch(page.page_id)
    # No half-admitted frame: the pool does not contain the page.
    assert page.page_id not in buffer
    assert len(buffer) == 0
    # Retry succeeds; the failed attempt cost exactly one extra miss and
    # no physical read.
    fetched = buffer.fetch(page.page_id)
    assert fetched.payload == "victim-of-fate"
    assert page.page_id in buffer
    assert buffer.stats.buffer.misses == misses_before + 2
    assert buffer.stats.physical.reads == reads_before + 1


def test_eviction_write_fault_keeps_victim_resident_and_dirty():
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(fail_write_pages=frozenset({0}))
    )
    buffer = BufferManager(disk=disk, capacity=1)
    victim = buffer.new_page("dirty-resident")
    assert victim.page_id == 0
    incoming = disk.allocate("incoming")
    with pytest.raises(PageWriteError):
        buffer.fetch(incoming.page_id)
    # The eviction failed mid write-back: the victim is still resident,
    # still dirty, and the incoming page was never admitted.
    assert victim.page_id in buffer
    assert buffer.resident_page(victim.page_id).dirty
    assert incoming.page_id not in buffer
    assert len(buffer) == 1
    # The page trigger is exhausted, so the retry completes the eviction.
    fetched = buffer.fetch(incoming.page_id)
    assert fetched.payload == "incoming"
    assert victim.page_id not in buffer
    assert len(buffer) == 1


def test_new_page_eviction_fault_allocates_no_orphan():
    disk = FaultInjectingDiskManager(
        profile=FaultProfile(fail_write_pages=frozenset({0}))
    )
    buffer = BufferManager(disk=disk, capacity=1)
    victim = buffer.new_page("dirty")
    assert victim.page_id == 0
    allocated_before = len(disk)
    with pytest.raises(PageWriteError):
        buffer.new_page("never-born")
    # Room is made before allocation, so the failed call left no orphan
    # page on disk.
    assert len(disk) == allocated_before
    page = buffer.new_page("born-on-retry")
    assert page.payload == "born-on-retry"


# ----------------------------------------------------------------------
# Retry policy: deterministic backoff schedule
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


def test_backoff_schedule_is_a_pure_function_of_seed():
    policy = RetryPolicy(
        max_attempts=6, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05, jitter=0.2
    )
    delays = [policy.backoff_delay(i, random.Random(7)) for i in range(5)]
    # Recomputing with a fresh, identically seeded RNG reproduces the
    # schedule exactly.
    assert delays == [policy.backoff_delay(i, random.Random(7)) for i in range(5)]
    for i, delay in enumerate(delays):
        bare = min(0.01 * 2.0**i, 0.05)
        assert bare <= delay <= bare * 1.2


def test_backoff_without_jitter_is_exact():
    policy = RetryPolicy(base_delay_s=0.01, multiplier=3.0, max_delay_s=1.0, jitter=0.0)
    rng = random.Random(0)
    assert policy.backoff_delay(0, rng) == pytest.approx(0.01)
    assert policy.backoff_delay(1, rng) == pytest.approx(0.03)
    assert policy.backoff_delay(2, rng) == pytest.approx(0.09)


# ----------------------------------------------------------------------
# Circuit breaker: state machine under a fake clock
# ----------------------------------------------------------------------
def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout_s=-1.0)


def test_breaker_trips_only_on_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0, clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # the streak resets
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()  # third consecutive failure trips it
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()


def test_breaker_half_open_probe_success_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    clock.advance(4.999)
    assert not breaker.allow()  # still cooling down
    clock.advance(0.001)
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()  # exactly one probe is admitted
    assert not breaker.allow()  # concurrent callers are refused
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()  # the probe
    breaker.record_failure()  # probe failed: re-open, restart cool-down
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()
    clock.advance(5.0)
    assert breaker.state == BREAKER_HALF_OPEN  # cools down again


def test_breaker_reset_force_closes():
    breaker = CircuitBreaker(failure_threshold=1)
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    breaker.reset()
    assert breaker.state == BREAKER_CLOSED


# ----------------------------------------------------------------------
# Shard log (WAL) semantics
# ----------------------------------------------------------------------
def test_shard_log_rejects_unknown_ops_and_freezes_payloads(workload):
    log = ShardLog()
    with pytest.raises(ValueError):
        log.append("compact", [], epoch=1)
    batch = list(workload.initial_objects[:3])
    log.append("insert_batch", batch, epoch=1)
    batch.clear()  # mutating the caller's list must not corrupt the log
    op, payload, _ = log.entries[0]
    assert op == "insert_batch"
    assert len(payload) == 3


def test_shard_log_replay_rebuilds_and_returns_last_result(workload):
    objects = list(workload.initial_objects[:20])
    log = ShardLog()
    log.append("bulk_load", objects[:10], epoch=1)
    log.append("insert_batch", objects[10:], epoch=2)
    log.append("delete_batch", objects[:1], epoch=3)
    replica = VersionedShard(make_index("Bx", **PARAMS.index_kwargs()))
    outcome, rejected = log.replay(replica)
    assert outcome == ([True], None)  # delete_batch() of a present object
    assert rejected == 0
    assert len(replica) == 19
    assert replica.epoch == 3  # the replay restored the shard's epoch counter


# ----------------------------------------------------------------------
# ShardedIndex supervision: lifecycle and guard rails
# ----------------------------------------------------------------------
def test_sharded_index_rejects_an_empty_shard_list():
    with pytest.raises(ValueError):
        ShardedIndex([])


def test_close_is_terminal(workload):
    index = _build(workload, shards=2, supervisor=_supervisor())
    probes = _knn_probes(workload)[:2]
    index.knn_query_batch(probes)  # spin the pool up
    index.close()
    assert index.closed
    # close() is terminal: a second close and any further operation both
    # raise (the executor — and with it any worker process — is gone).
    with pytest.raises(RuntimeError, match="closed"):
        index.close()
    with pytest.raises(RuntimeError, match="closed"):
        index.knn_query_batch(probes)
    with pytest.raises(RuntimeError, match="closed"):
        len(index)
    with pytest.raises(RuntimeError, match="closed"):
        index.checkpoint()


def test_context_manager_closes_after_mid_fan_out_exception(workload):
    boom = RuntimeError("shard software bug")

    def broken(*args, **kwargs):
        raise boom

    with pytest.raises(RuntimeError, match="software bug"):
        with _build(workload, shards=2, supervisor=_supervisor()) as index:
            index.shards[1].range_query_batch = broken
            index.range_query_batch([workload.query_events[0].query])
    # __exit__ ran: the executor is torn down and the index is terminal.
    assert index.closed
    with pytest.raises(RuntimeError, match="closed"):
        index.close()


def test_exit_tolerates_a_close_inside_the_block(workload):
    # Closing inside the body must not make __exit__ raise.
    with _build(workload, shards=2, supervisor=_supervisor()) as index:
        index.close()
    assert index.closed


def test_non_fault_exceptions_propagate_raw(workload):
    index = _build(workload, shards=2, supervisor=_supervisor())
    try:
        def broken(*args, **kwargs):
            raise KeyError("caller bug, not infrastructure")

        index.shards[0].range_query_batch = broken
        with pytest.raises(KeyError):
            index.range_query_batch([workload.query_events[0].query])
        # A software bug is not a shard failure: the breaker stays closed.
        assert index.breaker_states() == [BREAKER_CLOSED, BREAKER_CLOSED]
    finally:
        index.close()


# ----------------------------------------------------------------------
# Supervised retries, breakers, timeouts
# ----------------------------------------------------------------------
def test_transient_query_fault_is_retried_with_deterministic_backoff(workload):
    sleep = FakeSleep()
    index = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor(sleep=sleep))
    reference = index.range_query_batch([e.query for e in workload.query_events])
    try:
        # The very next read on shard 0 fails once; the retry succeeds.
        injector = fault_wrap(
            index.shards[0].buffer, FaultProfile(fail_reads_at=frozenset({0}))
        )
        index.shards[0].buffer.clear()  # cold cache: the query must read
        answers = index.range_query_batch([e.query for e in workload.query_events])
        assert answers == reference
        assert injector.counters.read_errors == 1
        # Exactly one backoff, equal to the seeded per-shard schedule.
        expected = RetryPolicy().backoff_delay(0, random.Random(0 * 1_000_003 + 0))
        assert sleep.delays == [pytest.approx(expected)]
    finally:
        index.close()


def test_query_retries_exhaust_into_shard_failed_error(workload):
    index = _build(workload, shards=2, supervisor=_supervisor())
    try:
        fault_wrap(index.shards[1].buffer, FaultProfile(read_error_rate=1.0))
        index.shards[1].buffer.clear()  # cold cache: the query must read
        with pytest.raises(ShardFailedError) as excinfo:
            index.range_query_batch([workload.query_events[0].query])
        assert excinfo.value.shard_id == 1
        assert isinstance(excinfo.value.cause, PageReadError)
    finally:
        index.close()


def test_breaker_opens_after_repeated_failures_then_skips(workload):
    config = _supervisor(failure_threshold=2, reset_timeout_s=10_000.0)
    index = _build(workload, shards=NUM_SHARDS, supervisor=config)
    try:
        injector = fault_wrap(index.shards[2].buffer)
        index.shards[2].buffer.clear()  # cold cache: queries must read
        injector.kill()
        queries = [workload.query_events[0].query]
        for _ in range(2):  # two failed calls trip the breaker
            degraded = index.range_query_batch(queries, partial=True)
            assert degraded.failed_shards == [2]
        assert index.breaker_states()[2] == BREAKER_OPEN
        # The third call never touches the dead shard: it is skipped.
        degraded = index.range_query_batch(queries, partial=True)
        skipped = degraded.statuses[2]
        assert skipped.state == SHARD_SKIPPED
        assert skipped.attempts == 0
    finally:
        index.close()


def test_query_timeout_degrades_and_records_breaker_failure(workload):
    config = _supervisor(query_timeout_s=0.05)
    index = _build(workload, shards=2, supervisor=config, executor="process")
    try:
        real_query = index.shards[0].range_query_batch

        def slow(*args, **kwargs):
            time.sleep(0.25)
            return real_query(*args, **kwargs)

        index.shards[0].range_query_batch = slow
        degraded = index.range_query_batch(
            [workload.query_events[0].query], partial=True
        )
        assert degraded.failed_shards == [0]
        assert "timeout" in degraded.statuses[0].error
    finally:
        index.close()


# ----------------------------------------------------------------------
# Degraded answers
# ----------------------------------------------------------------------
def test_partial_result_complete_iff_no_shard_failed(workload):
    index = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    try:
        queries = [e.query for e in workload.query_events]
        strict = index.range_query_batch(queries)
        healthy = index.range_query_batch(queries, partial=True)
        assert isinstance(healthy, PartialResult)
        assert healthy.complete
        assert healthy.failed_shards == []
        assert healthy == strict  # complete partial answers equal strict mode
        injector = fault_wrap(index.shards[3].buffer)
        index.shards[3].buffer.clear()  # cold cache: queries must read
        injector.kill()
        degraded = index.range_query_batch(queries, partial=True)
        assert not degraded.complete
        assert degraded.failed_shards == [3]
        for partial_ids, full_ids in zip(degraded, strict):
            # The degraded answer is a subset of the true answer, exact
            # for the healthy shards' objects.
            assert set(partial_ids) <= set(full_ids)
            assert [oid for oid in full_ids if shard_of(oid, NUM_SHARDS) != 3] == list(
                partial_ids
            )
    finally:
        index.close()


def test_partial_knn_distances_stay_exact(workload):
    index = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    try:
        probes = _knn_probes(workload)[:4]
        strict = index.knn_query_batch(probes)
        injector = fault_wrap(index.shards[1].buffer)
        index.shards[1].buffer.clear()  # cold cache: queries must read
        injector.kill()
        degraded = index.knn_query_batch(probes, partial=True)
        assert not degraded.complete
        for partial_answer, full_answer in zip(degraded, strict):
            full_distances = dict(full_answer)
            for oid, distance in partial_answer:
                assert shard_of(oid, NUM_SHARDS) != 1  # only healthy shards
                if oid in full_distances:
                    assert distance == full_distances[oid]  # distances exact
    finally:
        index.close()


def test_empty_partial_batches(workload):
    index = _build(workload, shards=2, supervisor=_supervisor())
    try:
        empty = index.range_query_batch([], partial=True)
        assert isinstance(empty, PartialResult)
        assert empty.complete and len(empty) == 0
    finally:
        index.close()


# ----------------------------------------------------------------------
# WAL-based shard recovery: bit-identical answers after a mid-stream kill
# ----------------------------------------------------------------------
def test_shard_kill_recovery_is_bit_identical(workload, batches):
    """Kill 1 of 4 shards mid-stream; recovery must erase every trace."""
    reference = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    faulted = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    try:
        update_batches = [b for b in batches if isinstance(b[0], UpdateEvent)]
        query_batches = [b for b in batches if not isinstance(b[0], UpdateEvent)]
        mid = len(update_batches) // 2
        for batch in update_batches[:mid]:
            pairs = [(e.old, e.new) for e in batch]
            assert faulted.update_batch(pairs) == reference.update_batch(pairs)

        injector = fault_wrap(faulted.shards[2].buffer)
        faulted.shards[2].buffer.clear()  # cold cache: queries must read
        injector.kill()

        # During the outage, degraded queries answer from 3 healthy shards.
        queries = [e.query for batch in query_batches for e in batch][:6]
        strict = reference.range_query_batch(queries)
        degraded = faulted.range_query_batch(queries, partial=True)
        assert not degraded.complete
        assert degraded.failed_shards == [2]
        for partial_ids, full_ids in zip(degraded, strict):
            assert set(partial_ids) <= set(full_ids)

        # The second half of the stream flows into both; the first
        # mutation routed to the dead shard triggers WAL-replay recovery.
        for batch in update_batches[mid:]:
            pairs = [(e.old, e.new) for e in batch]
            assert faulted.update_batch(pairs) == reference.update_batch(pairs)
        assert faulted.recovery_events, "no mutation reached the killed shard"
        event = faulted.recovery_events[0]
        assert event["shard_id"] == 2
        assert event["replayed_records"] > 0
        # Compaction: the successful recovery checkpointed the rebuilt
        # shard and truncated its WAL, so the log now holds only the
        # mutations routed to shard 2 *after* the recovery — strictly
        # fewer than the full-history replay the recovery itself did.
        assert event["compacted"]
        assert len(faulted.shard_log(2)) < event["replayed_records"]

        # Bit-identical from here on: every answer equals the
        # never-failed index's answer.
        assert len(faulted) == len(reference)
        assert faulted.range_query_batch(queries) == reference.range_query_batch(
            queries
        )
        probes = _knn_probes(workload)
        assert faulted.knn_query_batch(probes) == reference.knn_query_batch(probes)
        assert faulted.breaker_states()[2] == BREAKER_CLOSED
        # The aggregate counters read through the recovered (fresh) shard.
        aggregate = faulted.buffer.stats
        per_shard = faulted.shard_stats()
        assert aggregate.physical.reads == sum(s.physical.reads for s in per_shard)
    finally:
        reference.close()
        faulted.close()


def test_write_fault_on_mutation_triggers_recovery_not_blind_retry(
    workload, batches
):
    reference = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    faulted = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    try:
        # Every write on shard 1 fails: the first update batch that
        # evicts a dirty page there must recover, never blind-retry.
        fault_wrap(faulted.shards[1].buffer, FaultProfile(write_error_rate=1.0))
        update_batches = [b for b in batches if isinstance(b[0], UpdateEvent)]
        for batch in update_batches:
            pairs = [(e.old, e.new) for e in batch]
            assert faulted.update_batch(pairs) == reference.update_batch(pairs)
            if faulted.recovery_events:
                break
        assert faulted.recovery_events, "no write fault fired on shard 1"
        assert faulted.recovery_events[0]["shard_id"] == 1
        queries = [e.query for e in workload.query_events]
        assert faulted.range_query_batch(queries) == reference.range_query_batch(
            queries
        )
    finally:
        reference.close()
        faulted.close()


def test_recover_shard_is_explicitly_callable(workload):
    index = _build(workload, shards=2, supervisor=_supervisor())
    try:
        before = index.range_query_batch([e.query for e in workload.query_events])
        index.recover_shard(0)
        assert index.recovery_events[0]["shard_id"] == 0
        after = index.range_query_batch([e.query for e in workload.query_events])
        assert after == before  # a recovery of a healthy shard is invisible
    finally:
        index.close()


@pytest.mark.parametrize("executor", ("serial", "process"))
def test_recovery_keeps_what_a_shard_was_handed_over_with(workload, executor):
    # Shards loaded before the ShardedIndex existed: their WALs never saw
    # the load, so recovery must start from the shard as it was handed over.
    objects = workload.initial_objects
    shards = []
    for shard_id in range(2):
        shard = make_index("Bx", **PARAMS.index_kwargs())
        shard.bulk_load([obj for obj in objects if shard_of(obj.oid, 2) == shard_id])
        shards.append(shard)
    index = ShardedIndex(
        shards, ServeConfig(space=PARAMS.space, executor=executor, supervisor=_supervisor())
    )
    try:
        probes = _knn_probes(workload, ks=(10,))
        before = index.knn_query_batch(probes)
        assert len(index) == len(objects)
        index.recover_shard(0)
        assert index.recovery_events[0]["replayed_records"] == 0
        assert len(index) == len(objects)
        assert index.knn_query_batch(probes) == before
    finally:
        index.close()


# ----------------------------------------------------------------------
# Seeded end-to-end chaos run (CI publishes three CHAOS_SEED values)
# ----------------------------------------------------------------------
def test_seeded_chaos_run_converges_to_reference_answers(workload, batches):
    """Scheduled faults on every shard; final answers must match exactly.

    The schedule is a pure function of ``CHAOS_SEED``: a handful of read
    and write ordinals per shard fail (each once), so bounded retries
    always converge for queries and WAL recovery heals every mutation
    fault.  The run must end with answers bit-identical to a fault-free
    reference, whatever the seed.
    """
    chaos_rng = random.Random(CHAOS_SEED)
    retry = RetryPolicy(max_attempts=6, base_delay_s=0.001, max_delay_s=0.01)
    reference = _build(workload, shards=NUM_SHARDS, supervisor=_supervisor())
    faulted = _build(
        workload, shards=NUM_SHARDS, supervisor=_supervisor(retry=retry)
    )
    injectors = []
    try:
        for shard in faulted.shards:
            profile = FaultProfile(
                seed=chaos_rng.randrange(2**31),
                fail_reads_at=frozenset(chaos_rng.sample(range(300), 4)),
                fail_writes_at=frozenset(chaos_rng.sample(range(300), 4)),
            )
            injectors.append(fault_wrap(shard.buffer, profile))
        queries_seen = 0
        for batch in batches:
            if isinstance(batch[0], UpdateEvent):
                pairs = [(e.old, e.new) for e in batch]
                assert faulted.update_batch(pairs) == reference.update_batch(pairs)
            else:
                queries = [e.query for e in batch]
                assert faulted.range_query_batch(queries) == (
                    reference.range_query_batch(queries)
                )
                queries_seen += len(queries)
        assert queries_seen > 0
        probes = _knn_probes(workload)
        assert faulted.knn_query_batch(probes) == reference.knn_query_batch(probes)
        assert len(faulted) == len(reference)
    finally:
        reference.close()
        faulted.close()
