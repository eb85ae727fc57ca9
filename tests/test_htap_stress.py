"""Seeded concurrent HTAP stress: racing threads, oracle-checked answers.

The deterministic interleavings of ``tests/test_htap_oracle.py`` prove
the epoch semantics; this module makes threads actually race.  An
updater streams real workload batches while query clients pin epochs
and answer range/kNN batches concurrently (``benchmarks/load_driver
.run_htap``); every recorded answer is then checked by
:class:`~repro.serve.EpochOracle` against a brute-force model —
bit-identical or the run fails, with the seed in the test id for replay.

The seed matrix is published as ``load_driver.HTAP_SEEDS``; set the
``HTAP_SEED`` environment variable to pin a single seed (the CI htap
job fans the matrix out that way).  One extra run SIGKILLs a process
worker mid-stream and requires post-recovery cuts to stay consistent.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time

import pytest

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if _BENCH not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _BENCH)

import load_driver

from repro.bench.harness import build_standard_indexes
from repro.objects.knn import KNNQuery
from repro.serve import EpochOracle, ShardFailedError
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

pytestmark = pytest.mark.slow

PARAMS = WorkloadParameters(num_objects=1_000, time_duration=30.0, num_queries=10)

SHARDS = 4

EXECUTOR_NAMES = ("serial", "process")


def _seeds():
    pinned = os.environ.get("HTAP_SEED")
    if pinned is not None:
        return (int(pinned),)
    return load_driver.HTAP_SEEDS


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


def _build(workload, executor):
    return build_standard_indexes(
        workload, PARAMS, which=("Bx",), shards=SHARDS, executor=executor
    )["Bx"]


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
@pytest.mark.parametrize("seed", _seeds())
def test_concurrent_pinned_answers_are_oracle_consistent(
    workload, update_batches, queries, probes, executor, seed
):
    """Racing updater + query clients: every answered cut is bit-exact."""
    index, oracle = _build(workload, executor), EpochOracle()
    with index:
        index.bulk_load(workload.initial_objects)
        oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)
        report = load_driver.run_htap(
            index,
            oracle,
            update_batches,
            queries,
            probes,
            query_clients=2,
            space=PARAMS.space,
            seed=seed,
        )
    assert report["answers_checked"] > 0, (executor, seed)
    assert report["answers_consistent"] == 1.0, report.get("first_mismatch")
    assert report["final_epoch"] == 1 + len(update_batches)
    assert report["epoch_lag_max"] >= report["epoch_lag_mean"] >= 0.0


@pytest.mark.parametrize("seed", _seeds()[:1])
def test_sigkill_mid_stream_keeps_post_recovery_epochs_consistent(
    workload, update_batches, queries, probes, seed
):
    """A process worker dies mid-stream; recovered cuts stay oracle-exact.

    The updater streams batches while a query client pins and answers;
    a killer thread SIGKILLs one worker once a few epochs have landed.
    Mutations heal the shard through WAL replay (epochs included);
    queries that catch the degraded window skip recording (strict reads
    on a dead shard fail loudly, never wrongly).  Afterwards the oracle
    replays every recorded answer — those answered across the recovery
    boundary must still be bit-identical to the model's answers.
    """
    victim = 2
    index, oracle = _build(workload, "process"), EpochOracle()
    with index:
        index.bulk_load(workload.initial_objects)
        oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)

        stop = threading.Event()
        errors: list = []
        skipped = [0]

        def killer() -> None:
            while index.epoch < 4 and not stop.is_set():
                time.sleep(0.005)
            os.kill(index.executor.worker_pid(victim), signal.SIGKILL)

        def updater() -> None:
            try:
                for pairs in update_batches:
                    index.update_batch(pairs)
                    oracle.record_mutation(index.epoch, "update_batch", pairs)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
            finally:
                stop.set()

        def query_client() -> None:
            rng = random.Random(seed * 7919 + 1)
            try:
                while not stop.is_set():
                    batch = rng.sample(queries, min(4, len(queries)))
                    probe_batch = rng.sample(probes, min(4, len(probes)))
                    try:
                        with index.pin() as epoch:
                            ranges = index.range_query_batch(batch, epoch=epoch)
                            knn = index.knn_query_batch(
                                probe_batch, space=PARAMS.space, epoch=epoch
                            )
                    except ShardFailedError:
                        # The dead-worker window: degraded, not wrong.
                        skipped[0] += 1
                        continue
                    oracle.record_answer(epoch, "range", batch, ranges)
                    oracle.record_answer(epoch, "knn", probe_batch, knn)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
                stop.set()

        threads = [
            threading.Thread(target=updater),
            threading.Thread(target=query_client),
            threading.Thread(target=killer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

        # The kill landed mid-stream and WAL recovery healed the shard
        # without forking the epoch counter.
        assert any(e["shard_id"] == victim for e in index.recovery_events)
        assert index.executor.worker_alive(victim)
        assert index.epoch == 1 + len(update_batches)

        assert oracle.answers_recorded > 0
        # Post-recovery cut, answered after the dust settled.
        with index.pin() as epoch:
            oracle.record_answer(
                epoch, "range", queries, index.range_query_batch(queries, epoch=epoch)
            )
            oracle.record_answer(
                epoch,
                "knn",
                probes,
                index.knn_query_batch(probes, space=PARAMS.space, epoch=epoch),
            )
        oracle.assert_consistent()
