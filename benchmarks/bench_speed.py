"""Scenario smokes for the three serving cells ``perfbench`` has no row for.

``perfbench/`` is the repo's one benchmark: it times the build / replay /
kNN path, the flat-key-store process shards and the durable store end to
end, as alternating parent/change pairs with a spread.  This script keeps
only what it does not cover yet (ROADMAP open item 4a ports them):

* ``serve`` — the TPR*-tree at 1/2/4 shards under a chosen executor
  (process workers by default) and an SSD-class device model, the one
  configuration where sharded fan-out wins (``docs/serving.md``);
* ``faults`` — kill 1 of 4 shards mid-stream: recovery time, degraded
  recall, bit-identical answers after WAL-replay recovery
  (``docs/robustness.md``);
* ``htap`` — one updater lane against epoch-pinned query lanes, every
  answer checked by the consistency oracle (``docs/htap.md``).

Each run prints its table and exits 1 iff a 0/1 correctness flag
(:data:`CORRECTNESS_FLAGS`) is not 1.0.  Timings, recall and epoch lag are
printed for the reader, never gated: a single run cannot tell a
regression from machine noise — speed claims go through ``perfbench``
pairs.  Nothing is written unless ``--output`` names a file, and that
file holds this run's report only::

    PYTHONPATH=src python benchmarks/bench_speed.py serve --quick
    PYTHONPATH=src python benchmarks/bench_speed.py faults --quick
    PYTHONPATH=src python benchmarks/bench_speed.py htap --quick --seed 1337
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import load_driver  # noqa: E402

from repro.bench.harness import (  # noqa: E402
    ExperimentRunner,
    build_standard_indexes,
    knn_queries_from_workload,
    run_knn,
)
from repro.serve import EpochOracle, RetryPolicy, SupervisorConfig  # noqa: E402
from repro.storage import fault_wrap  # noqa: E402
from repro.storage.faults import FaultProfile  # noqa: E402
from repro.workload.events import UpdateEvent  # noqa: E402
from repro.workload.generator import build_workload  # noqa: E402
from repro.workload.parameters import WorkloadParameters  # noqa: E402

#: The 0/1 flags a run is judged on: 1.0 means the answers were
#: bit-identical to the cell's reference (the unsharded baseline row, the
#: never-failed twin, the oracle's brute-force model).
CORRECTNESS_FLAGS = (
    "results_match",
    "knn_results_match",
    "post_recovery_results_match",
    "post_recovery_knn_match",
    "answers_consistent",
)

#: The serve cell: 20k objects at serving buffer pressure.  The pool is
#: sized so one box's RAM no longer holds the working set but a quarter of
#: it per shard does — a serving deployment shards precisely at that
#: point, and it is the regime where per-shard buffer pools (N *
#: buffer_pages pages over N-times-smaller trees) pay for the per-request
#: fan-out.
SERVE_PARAMS = dict(
    num_objects=20_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=300,
    page_size=2048,
)

#: Quick scale for the CI `serve` job (the ~120-page tree thrashes a
#: 40-page pool unsharded; a 4-shard slice fits).
SERVE_QUICK_PARAMS = dict(
    num_objects=2_500,
    time_duration=30.0,
    num_queries=30,
    buffer_pages=40,
    page_size=2048,
)

#: The serve device model: every physical page read pays an SSD-class
#: latency (injected by the storage layer's fault injector, which ships
#: into worker processes with the shard).  Without it a simulated read
#: costs only its decode CPU, which no real serving deployment enjoys;
#: with it, shards that fit their buffer pool skip the waits entirely
#: and worker processes overlap the ones that remain.
SERVE_READ_LATENCY_S = 150e-6

#: Shard counts of the serve sweep (1 is the unsharded baseline row).
SERVE_SHARD_COUNTS = (1, 2, 4)

#: TPR*, not Bx: a Bx kNN round pays a curve-interval decomposition per
#: shard whose cost does not shrink with shard size, so sharding cannot
#: help its kNN path on one box — TPR*'s traversal-bound kNN does shrink.
SERVE_INDEX = "TPR*"

#: Default shard executor of the serve cell (the serving claim is the
#: process-per-shard deployment).
SERVE_EXECUTOR = "process"

#: The faults cell.  Rectangular queries wide enough that every query
#: returns ids from every shard — otherwise degraded recall is trivially 1.
FAULT_PARAMS = dict(
    num_objects=5_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=50,
    page_size=4096,
    rectangular_queries=True,
    rectangle_side=10_000.0,
)

#: Quick scale for the CI `chaos` job.
FAULT_QUICK_PARAMS = dict(
    num_objects=800,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=10,
    page_size=1024,
    rectangular_queries=True,
    rectangle_side=15_000.0,
)

#: Shard count, victim and index family of the faults cell.
FAULT_SHARDS = 4
FAULT_KILLED_SHARD = 2
FAULT_INDEX = "Bx"

#: The htap cell: one updater thread streams update batches while query
#: threads answer epoch-pinned range/kNN batches (docs/htap.md).
HTAP_PARAMS = dict(
    num_objects=10_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=50,
    page_size=4096,
)

#: Quick scale for the CI `htap` job.
HTAP_QUICK_PARAMS = dict(
    num_objects=1_500,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=50,
    page_size=4096,
)

#: Shard count, executor, query threads and families of the htap cell.
#: The query lanes are threads under any executor, so readers contend with
#: the updater on serial shards too, and serial sustains the most updates:
#: at full scale on a 2-core machine, Bx 4.2-4.9k and TPR* 1.9-2.3k
#: updates/s against 3.0-3.1k and 1.7-1.9k on a thread-pool fan-out, at
#: equal query answers per second.
HTAP_SHARDS = 4
HTAP_EXECUTOR = "serial"
HTAP_QUERY_CLIENTS = 2
HTAP_INDEXES = ("Bx", "TPR*")

#: Probes per kNN batch (the concurrent-users model of the kNN replay).
KNN_BATCH_SIZE = 10


def _report(dataset: str, params: WorkloadParameters, rows: Dict[str, object], **settings):
    """One run's report: the workload it ran, the cell's settings, the rows."""
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
            **settings,
        },
        "rows": rows,
    }


def _split_batches(workload) -> Tuple[List[list], List[object]]:
    """The workload's update batches (as ``(old, new)`` pairs) and its range queries."""
    batches = workload.grouped_events(window=1.0)
    update_batches = [
        [(event.old, event.new) for event in batch]
        for batch in batches
        if isinstance(batch[0], UpdateEvent)
    ]
    queries = [e.query for b in batches if not isinstance(b[0], UpdateEvent) for e in b]
    return update_batches, queries


def measure_serve(
    params: WorkloadParameters,
    dataset: str = "SA",
    shards: Sequence[int] = SERVE_SHARD_COUNTS,
    executor: str = SERVE_EXECUTOR,
) -> Dict[str, object]:
    """Shard-count sweep of TPR* under ``executor`` and the device model.

    Per shard count the index is bulk-built, the event stream replayed
    through the batch surface and the batched kNN replay run on top.  The
    1-shard row is the plain in-process index — the baseline a serving
    deployment is judged against — and runs first; every other row's
    ``results_match`` / ``knn_results_match`` flag compares its answers
    with that row's (range via the total result count, kNN exactly: the
    ``(distance, oid)`` merge must reproduce the unsharded ranking bit
    for bit).  Every instance pays :data:`SERVE_READ_LATENCY_S` per
    physical page read.
    """
    name = SERVE_INDEX
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    rows: Dict[str, Dict[str, float]] = {}
    baseline = None
    for count in sorted(set(shards) | {1}):
        index = build_standard_indexes(
            workload,
            params,
            which=(name,),
            shards=count,
            executor=executor if count > 1 else None,
            disk_profile=FaultProfile(read_latency_s=SERVE_READ_LATENCY_S),
        )[name]
        try:
            metrics = ExperimentRunner(workload).run(index, name=name)
            knn = run_knn(
                index,
                probes,
                space=params.space,
                batch_size=KNN_BATCH_SIZE,
            )
        finally:
            if count > 1:
                index.close()
        if baseline is None:
            baseline = (metrics.results_returned, knn.results)
        rows[f"shards={count}"] = {
            "build_s": round(metrics.build_time, 4),
            "update_ms": round(metrics.avg_update_time_ms, 4),
            "query_ms": round(metrics.avg_query_time_ms, 4),
            "knn_ms": round(knn.avg_time_ms, 4),
            "update_io": round(metrics.avg_update_io, 4),
            "query_io": round(metrics.avg_query_io, 4),
            "knn_io": round(knn.avg_io, 4),
            "results": metrics.results_returned,
            "results_match": float(metrics.results_returned == baseline[0]),
            "knn_results_match": float(knn.results == baseline[1]),
        }
    return _report(
        dataset,
        params,
        rows,
        index=name,
        executor=executor,
        read_latency_us=round(SERVE_READ_LATENCY_S * 1e6, 1),
    )


def measure_faults(params: WorkloadParameters, dataset: str = "SA") -> Dict[str, object]:
    """Kill one shard mid-stream; measure recovery and degraded answers.

    Two sharded indexes replay the same event stream in lockstep: a
    never-failed *reference* and a *faulted* twin whose shard
    :data:`FAULT_KILLED_SHARD` is killed (cold cache, kill switch) halfway
    through the update batches.  During the outage the faulted index
    answers the full query set with ``partial=True`` — the recorded
    *degraded recall* is the fraction of the reference's result ids (and
    of its kNN result pairs) the healthy shards still returned.  The
    second half of the stream flows into both; the first mutation routed
    to the dead shard triggers WAL-replay recovery (``recovery_ms``), and
    the run ends by comparing the recovered index's strict range and kNN
    answers with the reference's (the ``post_recovery_*_match`` flags).
    """
    name = FAULT_INDEX
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    update_batches, queries = _split_batches(workload)
    supervisor = SupervisorConfig(retry=RetryPolicy(base_delay_s=0.001, max_delay_s=0.01))
    reference = build_standard_indexes(workload, params, which=(name,), shards=FAULT_SHARDS)[name]
    faulted = build_standard_indexes(
        workload, params, which=(name,), shards=FAULT_SHARDS, supervisor=supervisor
    )[name]
    try:
        reference.bulk_load(workload.initial_objects)
        faulted.bulk_load(workload.initial_objects)
        mid = len(update_batches) // 2
        for pairs in update_batches[:mid]:
            reference.update_batch(pairs)
            faulted.update_batch(pairs)

        # The outage: cold the victim's cache so queries must touch the
        # (now dead) disk, then throw the kill switch.
        victim = faulted.shards[FAULT_KILLED_SHARD].buffer
        injector = fault_wrap(victim)
        victim.clear()
        injector.kill()

        strict_mid = reference.range_query_batch(queries)
        started = time.perf_counter()
        degraded = faulted.range_query_batch(queries, partial=True)
        degraded_ms = (time.perf_counter() - started) * 1000.0
        expected_ids = sum(len(ids) for ids in strict_mid)
        returned_ids = sum(len(ids) for ids in degraded)
        reference_knn = reference.knn_query_batch(probes)
        degraded_knn = faulted.knn_query_batch(probes, partial=True)
        expected_pairs = sum(len(answer) for answer in reference_knn)
        hit_pairs = sum(
            len(set(full) & set(part)) for full, part in zip(reference_knn, degraded_knn)
        )

        # Second half: the first mutation routed to the dead shard
        # triggers WAL-replay recovery automatically.
        for pairs in update_batches[mid:]:
            reference.update_batch(pairs)
            faulted.update_batch(pairs)
        recovery_forced = not faulted.recovery_events
        if recovery_forced:
            faulted.recover_shard(FAULT_KILLED_SHARD)
        recovery = faulted.recovery_events[0]

        range_match = faulted.range_query_batch(queries) == reference.range_query_batch(queries)
        knn_match = faulted.knn_query_batch(probes) == reference.knn_query_batch(probes)
    finally:
        reference.close()
        faulted.close()
    row = {
        "recovery_ms": round(recovery["wall_s"] * 1000.0, 4),
        "recovery_attempts": float(recovery["attempts"]),
        "recovery_forced": float(recovery_forced),
        "replayed_records": float(recovery["replayed_records"]),
        "degraded_query_ms": round(degraded_ms, 4),
        "degraded_recall_range": round(returned_ids / expected_ids if expected_ids else 1.0, 4),
        "degraded_recall_knn": round(hit_pairs / expected_pairs if expected_pairs else 1.0, 4),
        "degraded_complete": float(degraded.complete),
        "post_recovery_results_match": float(range_match),
        "post_recovery_knn_match": float(knn_match),
    }
    return _report(
        dataset, params, {name: row}, shards=FAULT_SHARDS, killed_shard=FAULT_KILLED_SHARD
    )


def measure_htap(
    params: WorkloadParameters,
    dataset: str = "SA",
    executor: str = HTAP_EXECUTOR,
    clients: int = HTAP_QUERY_CLIENTS,
    seed: int = 0,
) -> Dict[str, object]:
    """Mixed update/query workload under epoch-pinned snapshot serving.

    For every index family a sharded index is bulk-loaded and then
    hammered by :func:`load_driver.run_htap`: one updater thread streams
    the workload's update batches flat out while ``clients`` threads
    answer epoch-pinned range/kNN batches.  Every mutation and every
    answer is recorded into an :class:`~repro.serve.EpochOracle`, whose
    brute-force model re-evaluates each answer at its pinned epoch — the
    row's ``answers_consistent`` flag is 1.0 only if every concurrent
    answer was bit-identical.  ``update_throughput_ops`` is the sustained
    update rate under that concurrent read load, and ``epoch_lag_max``
    bounds how far behind the published epoch any pinned answer ran.
    """
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    update_batches, queries = _split_batches(workload)
    rows: Dict[str, Dict[str, object]] = {}
    for name in HTAP_INDEXES:
        index = build_standard_indexes(
            workload, params, which=(name,), shards=HTAP_SHARDS, executor=executor
        )[name]
        oracle = EpochOracle()
        try:
            index.bulk_load(workload.initial_objects)
            oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)
            rows[name] = load_driver.run_htap(
                index,
                oracle,
                update_batches,
                queries,
                probes,
                query_clients=clients,
                space=params.space,
                seed=seed,
            )
        finally:
            index.close()
    return _report(
        dataset,
        params,
        rows,
        shards=HTAP_SHARDS,
        executor=executor,
        query_clients=clients,
        seed=seed,
    )


def _serve_line(label: str, row: Dict[str, float]) -> str:
    return (
        f"serve {label:9s} update {row['update_ms']:7.4f}ms  query {row['query_ms']:7.3f}ms  "
        f"knn {row['knn_ms']:7.3f}ms  "
        f"io(u/q/k) {row['update_io']:.1f}/{row['query_io']:.1f}/{row['knn_io']:.1f}  "
        f"match {row['results_match']:.0f}/{row['knn_results_match']:.0f}"
    )


def _faults_line(label: str, row: Dict[str, float]) -> str:
    return (
        f"faults {label:6s} recovery {row['recovery_ms']:8.2f}ms "
        f"({row['replayed_records']:.0f} records, {row['recovery_attempts']:.0f} attempt(s))  "
        f"degraded recall range {row['degraded_recall_range']:.3f} / "
        f"knn {row['degraded_recall_knn']:.3f}  "
        f"post-recovery match {row['post_recovery_results_match']:.0f}/"
        f"{row['post_recovery_knn_match']:.0f}"
    )


def _htap_line(label: str, row: Dict[str, float]) -> str:
    return (
        f"htap {label:6s} updates {row['update_throughput_ops']:9.1f} ops/s "
        f"({row['updates_applied']} over {row['wall_s']:.1f}s)  "
        f"epoch {row['final_epoch']} "
        f"lag mean {row['epoch_lag_mean']:.2f} max {row['epoch_lag_max']:.0f}  "
        f"answers {row['answers_checked']} consistent {row['answers_consistent']:.0f}"
    )


def failed_flags(report: Dict[str, object]) -> Iterator[str]:
    """``"row: flag = value"`` for every correctness flag of the report that is not 1.0."""
    for label, row in report["rows"].items():
        for flag in CORRECTNESS_FLAGS:
            if flag in row and row[flag] != 1.0:
                yield f"{label}: {flag} = {row[flag]}"


def _shard_counts(spec: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in spec.split(",") if part)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quick", action="store_true", help="small smoke-run scale")
    common.add_argument("--dataset", default="SA", help="workload dataset (default %(default)s)")
    common.add_argument("--output", help="also write this run's report as JSON to this path")
    executors = ("serial", "process")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cells = parser.add_subparsers(dest="cell", required=True)
    serve = cells.add_parser(
        "serve",
        parents=[common],
        help=f"executor-backed shard sweep of {SERVE_INDEX} under the SSD-class device "
        f"model ({SERVE_PARAMS['num_objects']} objects at serving buffer pressure)",
    )
    serve.add_argument(
        "--shards",
        type=_shard_counts,
        default=SERVE_SHARD_COUNTS,
        help="comma-separated shard counts; the unsharded baseline (1) is always included "
        f"(default {','.join(map(str, SERVE_SHARD_COUNTS))})",
    )
    serve.add_argument(
        "--executor",
        choices=executors,
        default=SERVE_EXECUTOR,
        help="shard executor backend (default %(default)s)",
    )
    cells.add_parser(
        "faults",
        parents=[common],
        help=f"kill 1 of {FAULT_SHARDS} shards mid-stream; recovery time, degraded-answer "
        "recall, post-recovery answer identity",
    )
    htap = cells.add_parser(
        "htap",
        parents=[common],
        help="stream update batches while epoch-pinned queries run concurrently, every "
        "answer checked against the consistency oracle",
    )
    htap.add_argument(
        "--executor",
        choices=executors,
        default=HTAP_EXECUTOR,
        help="shard executor backend (default %(default)s)",
    )
    htap.add_argument(
        "--clients",
        type=int,
        default=HTAP_QUERY_CLIENTS,
        help="concurrent query threads (default %(default)s)",
    )
    htap.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the query threads' sampling (default %(default)s); the published "
        "stress matrix runs the seeds in load_driver.HTAP_SEEDS",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one cell, print its rows; exit status 1 iff a correctness flag is not 1.0."""
    options = vars(_build_parser().parse_args(argv))
    cell, quick, output = (options.pop(key) for key in ("cell", "quick", "output"))
    # Built per call, so a test can substitute a cell's measure function.
    measure, line, full_scale, quick_scale = {
        "serve": (measure_serve, _serve_line, SERVE_PARAMS, SERVE_QUICK_PARAMS),
        "faults": (measure_faults, _faults_line, FAULT_PARAMS, FAULT_QUICK_PARAMS),
        "htap": (measure_htap, _htap_line, HTAP_PARAMS, HTAP_QUICK_PARAMS),
    }[cell]
    started = time.perf_counter()
    report = measure(WorkloadParameters(**(quick_scale if quick else full_scale)), **options)
    report["cell"] = f"{cell}-quick" if quick else cell
    report["total_wall_s"] = round(time.perf_counter() - started, 2)
    for label, row in report["rows"].items():
        print(line(label, row))
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    failed = list(failed_flags(report))
    for failure in failed:
        print(f"FAILED {cell} {failure}")
    print(f"{cell}: {report['total_wall_s']}s total, {len(failed)} correctness flag(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
