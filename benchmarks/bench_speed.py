"""Build/replay wall-clock micro-harness tracking the perf trajectory.

Runs the figure-19/20-style build + replay pipeline at bench scale and
appends an entry to the ``BENCH_speed.json`` **history** with, per index,

* the **incremental** build (N root-to-leaf insertions — what the harness
  did before bulk loading existed) versus the **bulk** build
  (:func:`bulk_load` bottom-up packing), and
* the **per-event** replay (one ``update`` / ``range_query`` call per
  event) versus the **batched** replay (grouped same-window batches through
  ``update_batch`` / ``range_query_batch``), with per-operation
  milliseconds, physical I/O and the derived speedups side by side.

Earlier runs are retained in the history list so PR-over-PR regressions are
visible instead of being overwritten.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_speed.py            # bench scale
    PYTHONPATH=src python benchmarks/bench_speed.py --quick    # CI smoke run
    PYTHONPATH=src python benchmarks/bench_speed.py scale      # sharded serving
    PYTHONPATH=src python benchmarks/bench_speed.py scale --quick   # CI scale job
    PYTHONPATH=src python benchmarks/bench_speed.py serve --quick   # CI serve job

The non-default modes are subcommands sharing the common options
(``--quick``, ``--dataset``, ``--output``):

* ``scale`` replays the serving-layer workload (20k objects, 4 KB pages)
  through :class:`repro.serve.ShardedIndex` at several shard counts
  (``--shards 1,2,4``) and records per-shard-count ``update_ms`` /
  ``query_ms`` / ``knn_ms`` rows plus answers-match flags against the
  unsharded baseline row;
* ``faults`` kills 1 of 4 shards mid-stream and records recovery time
  and degraded-answer recall;
* ``persist`` measures the durable (file-backed checkpoint/WAL) store
  lifecycle: crash-simulated reopen, cold-vs-warm queries, clean reopen;
* ``serve`` runs the scale workload at serving buffer pressure under a
  chosen shard *executor* (``--executor process`` hosts every shard in
  its own worker process) and adds a ``latency`` section: per-op-type
  p50/p95/p99 from the open-loop Poisson driver in ``load_driver.py``.

The pre-subcommand flag spellings (``--scale``, ``--faults``,
``--persist``) are kept as hidden aliases.

``test_speed_harness.py`` invokes the quick mode as part of the test run
and asserts the two headline claims — bulk loading beats incremental
building, and batched replay does not lose to per-event replay.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.bench.harness import (  # noqa: E402
    STANDARD_INDEXES,
    ExperimentRunner,
    build_standard_indexes,
    knn_queries_from_workload,
    run_knn,
)
from repro.bxtree.bx_tree import BxTree  # noqa: E402
from repro.objects.knn import AdaptiveRadius  # noqa: E402
from repro.serve import DurableStore, RetryPolicy, ServeConfig, SupervisorConfig  # noqa: E402
from repro.storage import fault_wrap  # noqa: E402
from repro.storage.faults import FaultProfile  # noqa: E402
from repro.workload.events import UpdateEvent  # noqa: E402
from repro.workload.generator import build_workload  # noqa: E402
from repro.workload.parameters import WorkloadParameters  # noqa: E402

#: Where the results land unless --output overrides it (the repo root).
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_speed.json"
)

#: Bench scale: the figure-19/20 comparison settings of benchmarks/conftest.py.
BENCH_PARAMS = dict(num_objects=2_000, time_duration=120.0, num_queries=40)

#: Quick scale for the in-suite smoke invocation.
QUICK_PARAMS = dict(num_objects=400, time_duration=40.0, num_queries=10)

#: The serving-layer scale workload: an order of magnitude more objects
#: than the figure benchmarks, at the paper's 4 KB page and 50-page buffer
#: (per shard — the shared-nothing model gives every worker its own RAM).
SCALE_PARAMS = dict(
    num_objects=20_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=50,
    page_size=4096,
)

#: Quick scale for the CI `scale` job's smoke run.
SCALE_QUICK_PARAMS = dict(
    num_objects=2_500,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=50,
    page_size=4096,
)

#: Shard counts of the scale sweep (1 is the unsharded baseline row).
SCALE_SHARD_COUNTS = (1, 2, 4)

#: The serve mode: the scale workload at serving buffer pressure.  The
#: pool is sized so one box's RAM no longer holds the working set but a
#: quarter of it per shard does — a serving deployment shards precisely
#: at that point, and it is the regime where per-shard buffer pools
#: (N * buffer_pages pages over N-times-smaller trees) pay for the
#: per-request fan-out.
SERVE_PARAMS = dict(
    num_objects=20_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=300,
    page_size=2048,
)

#: Quick scale for the CI `serve` job's smoke run (the ~120-page tree
#: thrashes a 40-page pool unsharded; a 4-shard slice fits).
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

#: Index families measured by the serve mode (the latency driver replays
#: the stream once per family and loop mode, so one representative).
#: TPR*, not Bx: a Bx kNN round pays a curve-interval decomposition per
#: shard whose cost does not shrink with shard size, so sharding cannot
#: help its kNN path on one box — TPR*'s traversal-bound kNN does shrink.
SERVE_INDEXES = ("TPR*",)

#: Default shard executor of the serve mode (the serving claim under
#: measurement is the process-per-shard deployment).
SERVE_EXECUTOR = "process"

#: Closed-loop client threads of the latency driver.
SERVE_CLIENTS = 2

#: Fault-injection run: kill 1 of 4 shards mid-stream, measure recovery
#: time and degraded-answer recall (see docs/robustness.md).
#: Rectangular queries wide enough that every query returns ids from
#: every shard — otherwise the degraded-recall metric is trivially 1.0.
FAULT_PARAMS = dict(
    num_objects=5_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=50,
    page_size=4096,
    rectangular_queries=True,
    rectangle_side=10_000.0,
)

#: Quick scale for the CI `chaos` job's fault-injection smoke run.
FAULT_QUICK_PARAMS = dict(
    num_objects=800,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=10,
    page_size=1024,
    rectangular_queries=True,
    rectangle_side=15_000.0,
)

#: Shard count and victim of the fault-injection run.
FAULT_SHARDS = 4
FAULT_KILLED_SHARD = 2

#: Persistence run: durable (file-backed, checkpoint/WAL) serving store.
PERSIST_PARAMS = dict(
    num_objects=2_000,
    time_duration=60.0,
    num_queries=20,
    buffer_pages=50,
    page_size=4096,
)

#: Quick scale for the CI `durability` job's smoke run.
PERSIST_QUICK_PARAMS = dict(
    num_objects=400,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=20,
    page_size=1024,
)

#: Shard count and index families of the persistence run (durability
#: currently covers the picklable families; Bx is the representative).
PERSIST_SHARDS = 2
PERSIST_INDEXES = ("Bx",)

#: Index families measured by the fault-injection run.
FAULT_INDEXES = ("Bx",)

#: HTAP (mixed-workload) run: one updater thread streams update batches
#: while query threads answer epoch-pinned range/kNN batches, and every
#: answer is checked bit for bit against the consistency oracle's
#: quiescent twin (docs/htap.md).
HTAP_PARAMS = dict(
    num_objects=10_000,
    time_duration=60.0,
    num_queries=40,
    buffer_pages=50,
    page_size=4096,
)

#: Quick scale for the CI `htap` job's smoke run.
HTAP_QUICK_PARAMS = dict(
    num_objects=1_500,
    time_duration=30.0,
    num_queries=10,
    buffer_pages=50,
    page_size=4096,
)

#: Shard count, executor, query threads and families of the HTAP run.
#: The thread executor is the default: the consistency claim is about
#: concurrent readers, which need a parallel backend to contend at all.
HTAP_SHARDS = 4
HTAP_EXECUTOR = "thread"
HTAP_QUERY_CLIENTS = 2
HTAP_INDEXES = ("Bx", "TPR*")

#: Index families measured by the scale sweep: one representative per
#: family keeps the pure-Python replay tractable at 20k objects.
SCALE_INDEXES = ("Bx", "TPR*")

#: Key-store backends of the `backend` comparison mode; the paged B+-tree
#: row is measured first and is the answers baseline the flat rows are
#: pinned against (see docs/backends.md).
BACKENDS = ("btree", "flat")

#: Index families of the backend comparison: the Bx-tree is the family
#: with a pluggable 1-D key store (the TPR family has none).
BACKEND_INDEXES = ("Bx",)

#: Probes per kNN batch (the concurrent-users model of the kNN replay).
KNN_BATCH_SIZE = 10

#: Repetitions of the (read-only) kNN replay; the fastest rep per mode is
#: recorded.  A replay is only a few hundred milliseconds of wall-clock, so
#: scheduler noise would otherwise dominate the per-probe figure.
KNN_REPS = 3


def measure_knn(index, probes, space):
    """Per-event versus batched kNN replay on one (already replayed) index.

    The two modes alternate rep by rep on the same index, so both sample the
    same buffer state and the same few hundred milliseconds of machine load
    — measuring them in separate phases made the ratio hostage to load
    drift between the phases.  The fastest rep per mode is kept; answers
    are asserted identical across modes and reps.
    """
    per_event = []
    batched = []
    for _ in range(KNN_REPS):
        per_event.append(run_knn(index, probes, space=space, batch=False))
        batched.append(
            run_knn(
                index,
                probes,
                space=space,
                batch=True,
                batch_size=KNN_BATCH_SIZE,
                radius_state=AdaptiveRadius(),
            )
        )
    best_pe = min(per_event, key=lambda metrics: metrics.avg_time_ms)
    best_bat = min(batched, key=lambda metrics: metrics.avg_time_ms)
    results_match = all(m.results == per_event[0].results for m in per_event + batched)
    return best_pe, best_bat, results_match


def measure(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    which: Sequence[str] = STANDARD_INDEXES,
) -> Dict[str, object]:
    """Build every index both ways and replay the event stream both ways."""
    if params is None:
        params = WorkloadParameters(**BENCH_PARAMS)
    workload = build_workload(dataset, params)

    # Warm the process-wide Hilbert encode table so its one-time build cost
    # does not land inside whichever replay happens to run first.
    import numpy as np

    from repro.bxtree.bx_tree import DEFAULT_CURVE_ORDER
    from repro.bxtree.spacefill import HilbertCurve

    HilbertCurve(DEFAULT_CURVE_ORDER).encode_many(
        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    )

    results: Dict[str, Dict[str, float]] = {}

    # Incremental ("before") builds: one root-to-leaf insertion per object.
    for name, index in build_standard_indexes(workload, params, which=which).items():
        started = time.perf_counter()
        for obj in workload.initial_objects:
            index.insert(obj)
        results[name] = {"build_incremental_s": time.perf_counter() - started}

    # The kNN replay probes one kNN query per range-query event.
    knn_probes = knn_queries_from_workload(workload)

    # Per-event replay: the pre-batching execution model.
    per_event = ExperimentRunner(workload, batch=False)
    for name, index in build_standard_indexes(workload, params, which=which).items():
        metrics = per_event.run(index, name=name)
        row = results[name]
        row["per_event_query_ms"] = metrics.avg_query_time_ms
        row["per_event_update_ms"] = metrics.avg_update_time_ms
        row["per_event_query_io"] = metrics.avg_query_io
        row["per_event_update_io"] = metrics.avg_update_io
        row["per_event_update_nodes"] = metrics.avg_update_node_accesses
        row["per_event_results"] = metrics.results_returned

    # Batched replay (grouped batches through the batch execution path),
    # which also provides the bulk-build timing.
    batched = ExperimentRunner(workload, batch=True)
    for name, index in build_standard_indexes(workload, params, which=which).items():
        metrics = batched.run(index, name=name)
        row = results[name]
        row["build_bulk_s"] = metrics.build_time
        row["build_speedup"] = (
            row["build_incremental_s"] / metrics.build_time
            if metrics.build_time > 0.0
            else float("inf")
        )
        row["query_ms"] = metrics.avg_query_time_ms
        row["update_ms"] = metrics.avg_update_time_ms
        row["query_io"] = metrics.avg_query_io
        row["update_io"] = metrics.avg_update_io
        row["update_nodes"] = metrics.avg_update_node_accesses
        row["results"] = metrics.results_returned
        row["update_speedup"] = (
            row["per_event_update_ms"] / metrics.avg_update_time_ms
            if metrics.avg_update_time_ms > 0.0
            else float("inf")
        )
        row["query_speedup"] = (
            row["per_event_query_ms"] / metrics.avg_query_time_ms
            if metrics.avg_query_time_ms > 0.0
            else float("inf")
        )
        row["results_match"] = float(row["results"] == row["per_event_results"])
        row["update_hit_ratio"] = metrics.update_buffer_hit_ratio
        row["query_hit_ratio"] = metrics.query_buffer_hit_ratio
        # kNN replay on the replayed index: per-probe versus batched
        # (shared expanding-range rounds, adaptive initial radii seeded
        # batch to batch), alternating rep by rep so both modes sample the
        # same machine-load window.
        knn_pe, knn_bat, knn_match = measure_knn(index, knn_probes, params.space)
        row["per_event_knn_ms"] = knn_pe.avg_time_ms
        row["per_event_knn_io"] = knn_pe.avg_io
        row["knn_ms"] = knn_bat.avg_time_ms
        row["knn_io"] = knn_bat.avg_io
        row["knn_speedup"] = (
            knn_pe.avg_time_ms / knn_bat.avg_time_ms
            if knn_bat.avg_time_ms > 0.0
            else float("inf")
        )
        row["knn_results_match"] = float(knn_match)
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
        },
        "indexes": {
            name: {key: round(value, 4) for key, value in row.items()}
            for name, row in results.items()
        },
    }


def measure_scale(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    shard_counts: Sequence[int] = SCALE_SHARD_COUNTS,
    which: Sequence[str] = SCALE_INDEXES,
) -> Dict[str, object]:
    """Shard-count sweep of the serving layer on the scale workload.

    For every shard count, each index family is built sharded
    (``build_standard_indexes(shards=N)``; ``N == 1`` is the plain
    unsharded index), the full event stream is replayed through the batch
    surface, and the batched kNN replay runs on top.  Per-row equivalence
    flags compare every sharded row's answers against the unsharded
    baseline row: range answers via the total result count, kNN answers
    exactly (the serving layer's ``(distance, oid)`` merge must reproduce
    the unsharded ranking bit for bit).  The unsharded row *is* that
    baseline, so shard count 1 is always added to the sweep and the
    sweep runs in ascending order.
    """
    if params is None:
        params = WorkloadParameters(**SCALE_PARAMS)
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    shard_rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, Dict[str, object]] = {}
    for count in sorted(set(shard_counts) | {1}):
        indexes = build_standard_indexes(workload, params, which=which, shards=count)
        runner = ExperimentRunner(workload, batch=True)
        for name, index in indexes.items():
            metrics = runner.run(index, name=name)
            knn = run_knn(
                index,
                probes,
                space=params.space,
                batch=True,
                batch_size=KNN_BATCH_SIZE,
                radius_state=AdaptiveRadius(),
            )
            row = {
                "build_s": metrics.build_time,
                "update_ms": metrics.avg_update_time_ms,
                "query_ms": metrics.avg_query_time_ms,
                "knn_ms": knn.avg_time_ms,
                "update_io": metrics.avg_update_io,
                "query_io": metrics.avg_query_io,
                "knn_io": knn.avg_io,
                "results": metrics.results_returned,
            }
            baseline = baselines.setdefault(
                name, {"results": metrics.results_returned, "knn": knn.results}
            )
            row["results_match"] = float(metrics.results_returned == baseline["results"])
            row["knn_results_match"] = float(knn.results == baseline["knn"])
            shard_rows.setdefault(str(count), {})[name] = {
                key: round(value, 4) for key, value in row.items()
            }
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
        },
        "shards": shard_rows,
    }


def measure_backend(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    backends: Sequence[str] = BACKENDS,
    which: Sequence[str] = BACKEND_INDEXES,
) -> Dict[str, object]:
    """Key-store backend comparison on the scale workload.

    Each index family is built once per backend
    (``build_standard_indexes(key_store=...)``), the full event stream is
    replayed through the batch surface, and the batched kNN replay runs
    on top — the same replay as :func:`measure_scale`, so the rows are
    comparable across modes.  The first backend's row (the paged B+-tree,
    the paper's I/O-model reference) is the answers baseline: every other
    backend must reproduce its range result count and its exact kNN
    ``(oid, distance)`` rankings (``results_match``/``knn_results_match``),
    and its rows carry ``update_speedup``/``query_speedup``/``knn_speedup``
    ratios against that baseline.  The flat backend does no paged I/O, so
    its io columns reading 0 is the expected shape, not a bug.
    """
    if params is None:
        params = WorkloadParameters(**SCALE_PARAMS)
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    backend_rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, Dict[str, object]] = {}
    for backend in backends:
        indexes = build_standard_indexes(
            workload, params, which=which, key_store=backend
        )
        runner = ExperimentRunner(workload, batch=True)
        for name, index in indexes.items():
            metrics = runner.run(index, name=name)
            knn = run_knn(
                index,
                probes,
                space=params.space,
                batch=True,
                batch_size=KNN_BATCH_SIZE,
                radius_state=AdaptiveRadius(),
            )
            row = {
                "build_s": metrics.build_time,
                "update_ms": metrics.avg_update_time_ms,
                "query_ms": metrics.avg_query_time_ms,
                "knn_ms": knn.avg_time_ms,
                "update_io": metrics.avg_update_io,
                "query_io": metrics.avg_query_io,
                "knn_io": knn.avg_io,
                "results": metrics.results_returned,
            }
            baseline = baselines.setdefault(
                name,
                {
                    "results": metrics.results_returned,
                    "knn": knn.results,
                    "update_ms": metrics.avg_update_time_ms,
                    "query_ms": metrics.avg_query_time_ms,
                    "knn_ms": knn.avg_time_ms,
                },
            )
            row["results_match"] = float(metrics.results_returned == baseline["results"])
            row["knn_results_match"] = float(knn.results == baseline["knn"])
            for metric in ("update_ms", "query_ms", "knn_ms"):
                if row[metric] > 0:
                    row[metric.replace("_ms", "_speedup")] = (
                        baseline[metric] / row[metric]
                    )
            backend_rows.setdefault(backend, {})[name] = {
                key: round(value, 4) for key, value in row.items()
            }
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
        },
        "backend": backend_rows,
    }


def measure_serve(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    shard_counts: Sequence[int] = SERVE_SHARD_COUNTS,
    which: Sequence[str] = SERVE_INDEXES,
    executor: str = SERVE_EXECUTOR,
    workers: Optional[int] = None,
    clients: int = SERVE_CLIENTS,
    rate_ops_s: Optional[float] = None,
    read_latency_s: float = SERVE_READ_LATENCY_S,
) -> Dict[str, object]:
    """Shard-count sweep under a chosen executor, plus request latency.

    The sweep mirrors :func:`measure_scale` — batched replay and batched
    kNN per shard count, every row's answers checked against the
    unsharded (1-shard) baseline row — but the sharded rows run under
    ``executor`` (``process`` hosts every shard in a worker process;
    queries cross as one batched message per shard per call), and every
    instance (the unsharded baseline included) runs under the serve
    device model: each physical page read pays ``read_latency_s``.  The
    1-shard row is always the plain in-process index: it *is* the
    baseline the serving deployment is judged against.

    On top, ``load_driver.drive`` replays the mixed update/range/kNN
    request stream against a fresh index at the largest shard count:
    closed-loop saturation first, then open-loop Poisson arrivals at
    ~70% of it (or ``rate_ops_s``), recording per-op-type p50/p95/p99
    into the report's ``latency`` section.
    """
    import load_driver

    if params is None:
        params = WorkloadParameters(**SERVE_PARAMS)
    disk_profile = (
        FaultProfile(read_latency_s=read_latency_s) if read_latency_s > 0.0 else None
    )
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    counts = sorted(set(shard_counts) | {1})
    shard_rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, Dict[str, object]] = {}
    for count in counts:
        indexes = build_standard_indexes(
            workload,
            params,
            which=which,
            shards=count,
            executor=executor if count > 1 else None,
            max_workers=workers,
            disk_profile=disk_profile,
        )
        runner = ExperimentRunner(workload, batch=True)
        for name, index in indexes.items():
            metrics = runner.run(index, name=name)
            knn = run_knn(
                index,
                probes,
                space=params.space,
                batch=True,
                batch_size=KNN_BATCH_SIZE,
                radius_state=AdaptiveRadius(),
            )
            row = {
                "build_s": metrics.build_time,
                "update_ms": metrics.avg_update_time_ms,
                "query_ms": metrics.avg_query_time_ms,
                "knn_ms": knn.avg_time_ms,
                "update_io": metrics.avg_update_io,
                "query_io": metrics.avg_query_io,
                "knn_io": knn.avg_io,
                "results": metrics.results_returned,
            }
            baseline = baselines.setdefault(
                name, {"results": metrics.results_returned, "knn": knn.results}
            )
            row["results_match"] = float(metrics.results_returned == baseline["results"])
            row["knn_results_match"] = float(knn.results == baseline["knn"])
            shard_rows.setdefault(str(count), {})[name] = {
                key: round(value, 4) for key, value in row.items()
            }
            if hasattr(index, "close"):
                index.close()

    # Request latency at the largest shard count under the executor.
    name = which[0]
    top = max(counts)

    def make_index():
        index = build_standard_indexes(
            workload,
            params,
            which=(name,),
            shards=top,
            executor=executor if top > 1 else None,
            max_workers=workers,
            disk_profile=disk_profile,
        )[name]
        index.bulk_load(workload.initial_objects)
        return index

    operations = load_driver.build_operations(workload, probes)
    latency = load_driver.drive(
        make_index,
        operations,
        clients=clients,
        rate_ops_s=rate_ops_s,
        space=params.space,
    )
    latency["index"] = name
    latency["shards"] = top
    latency["operations"] = len(operations)
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
            "executor": executor,
            "workers": workers,
            "read_latency_us": round(read_latency_s * 1e6, 1),
        },
        "serve": shard_rows,
        "latency": latency,
    }


def measure_htap(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    which: Sequence[str] = HTAP_INDEXES,
    shards: int = HTAP_SHARDS,
    executor: str = HTAP_EXECUTOR,
    query_clients: int = HTAP_QUERY_CLIENTS,
    seed: int = 0,
) -> Dict[str, object]:
    """Mixed update/query workload under epoch-pinned snapshot serving.

    For every index family a sharded index is bulk-loaded and then
    hammered by :func:`load_driver.run_htap`: one updater thread streams
    the workload's update batches flat out while ``query_clients``
    threads answer epoch-pinned range/kNN batches.  Every mutation and
    every answer is recorded into an :class:`~repro.serve.EpochOracle`,
    whose quiescent twin re-evaluates each answer at its pinned epoch —
    the row's ``answers_consistent`` flag is 1.0 only if every
    concurrent answer was bit-identical.  ``update_throughput_ops`` is
    the sustained update rate under that concurrent read load, and
    ``epoch_lag_max`` bounds how far behind the published epoch any
    pinned answer ran.
    """
    import load_driver

    from repro.serve import EpochOracle

    if params is None:
        params = WorkloadParameters(**HTAP_PARAMS)
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    batches = workload.grouped_events(window=1.0)
    update_batches = [
        [(event.old, event.new) for event in batch]
        for batch in batches
        if isinstance(batch[0], UpdateEvent)
    ]
    queries = [e.query for b in batches if not isinstance(b[0], UpdateEvent) for e in b]
    rows: Dict[str, Dict[str, object]] = {}
    for name in which:
        index = build_standard_indexes(
            workload, params, which=(name,), shards=shards, executor=executor
        )[name]
        oracle = EpochOracle(
            num_shards=shards, shard_factory=index.shard_factory, space=params.space
        )
        try:
            index.bulk_load(workload.initial_objects)
            oracle.record_mutation(index.epoch, "bulk_load", workload.initial_objects)
            report = load_driver.run_htap(
                index,
                oracle,
                update_batches,
                queries,
                probes,
                query_clients=query_clients,
                space=params.space,
                seed=seed,
            )
        finally:
            oracle.close()
            index.close()
        rows[name] = report
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
            "shards": shards,
            "executor": executor,
            "query_clients": query_clients,
            "seed": seed,
        },
        "htap": rows,
    }


def measure_faults(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    which: Sequence[str] = FAULT_INDEXES,
    shards: int = FAULT_SHARDS,
    killed_shard: int = FAULT_KILLED_SHARD,
) -> Dict[str, object]:
    """Kill one shard mid-stream; measure recovery and degraded answers.

    Two sharded indexes replay the same event stream in lockstep: a
    never-failed *reference* and a *faulted* twin whose shard
    ``killed_shard`` is killed (cold cache, kill switch) halfway through
    the update batches.  During the outage the faulted index answers the
    full query set with ``partial=True`` — the recorded *degraded recall*
    is the fraction of the reference's result ids (and of its kNN result
    pairs) the healthy shards still returned.  The second half of the
    stream flows into both; the first mutation routed to the dead shard
    triggers WAL-replay recovery (time recorded as ``recovery_ms``), and
    the run ends by asserting the recovered index's strict range and kNN
    answers match the reference's exactly (the ``post_recovery_*_match``
    flags).
    """
    if params is None:
        params = WorkloadParameters(**FAULT_PARAMS)
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    batches = workload.grouped_events(window=1.0)
    update_batches = [b for b in batches if isinstance(b[0], UpdateEvent)]
    queries = [e.query for b in batches if not isinstance(b[0], UpdateEvent) for e in b]
    supervisor = SupervisorConfig(retry=RetryPolicy(base_delay_s=0.001, max_delay_s=0.01))
    rows: Dict[str, Dict[str, float]] = {}
    for name in which:
        reference = build_standard_indexes(workload, params, which=(name,), shards=shards)[
            name
        ]
        faulted = build_standard_indexes(
            workload, params, which=(name,), shards=shards, supervisor=supervisor
        )[name]
        reference.bulk_load(workload.initial_objects)
        faulted.bulk_load(workload.initial_objects)
        mid = len(update_batches) // 2
        for batch in update_batches[:mid]:
            pairs = [(event.old, event.new) for event in batch]
            reference.update_batch(pairs)
            faulted.update_batch(pairs)

        # The outage: cold the victim's cache so queries must touch the
        # (now dead) disk, then throw the kill switch.
        injector = fault_wrap(faulted.shards[killed_shard].buffer)
        faulted.shards[killed_shard].buffer.clear()
        injector.kill()

        strict_mid = reference.range_query_batch(queries)
        started = time.perf_counter()
        degraded = faulted.range_query_batch(queries, partial=True)
        degraded_ms = (time.perf_counter() - started) * 1000.0
        expected_ids = sum(len(ids) for ids in strict_mid)
        returned_ids = sum(len(ids) for ids in degraded)
        recall_range = returned_ids / expected_ids if expected_ids else 1.0
        reference_knn = reference.knn_query_batch(probes)
        degraded_knn = faulted.knn_query_batch(probes, partial=True)
        expected_pairs = sum(len(answer) for answer in reference_knn)
        hit_pairs = sum(
            len(set(full) & set(part))
            for full, part in zip(reference_knn, degraded_knn)
        )
        recall_knn = hit_pairs / expected_pairs if expected_pairs else 1.0

        # Second half: the first mutation routed to the dead shard
        # triggers WAL-replay recovery automatically.
        for batch in update_batches[mid:]:
            pairs = [(event.old, event.new) for event in batch]
            reference.update_batch(pairs)
            faulted.update_batch(pairs)
        recovery_forced = 0.0
        if not faulted.recovery_events:
            faulted.recover_shard(killed_shard)
            recovery_forced = 1.0
        recovery = faulted.recovery_events[0]

        range_match = faulted.range_query_batch(queries) == reference.range_query_batch(
            queries
        )
        knn_match = faulted.knn_query_batch(probes) == reference.knn_query_batch(probes)
        rows[name] = {
            key: round(value, 4)
            for key, value in {
                "killed_shard": float(killed_shard),
                "recovery_ms": recovery["wall_s"] * 1000.0,
                "recovery_attempts": float(recovery["attempts"]),
                "recovery_forced": recovery_forced,
                "replayed_records": float(recovery["replayed_records"]),
                "degraded_query_ms": degraded_ms,
                "degraded_recall_range": recall_range,
                "degraded_recall_knn": recall_knn,
                "degraded_complete": float(degraded.complete),
                "post_recovery_results_match": float(range_match),
                "post_recovery_knn_match": float(knn_match),
            }.items()
        }
        reference.close()
        faulted.close()
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
        },
        "faults": rows,
    }


def measure_persistence(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    persist_dir: Optional[str] = None,
    which: Sequence[str] = PERSIST_INDEXES,
    shards: int = PERSIST_SHARDS,
) -> Dict[str, object]:
    """Durable-store lifecycle: build, checkpoint, crash, recover, reopen.

    For every index family a durable :class:`~repro.serve.DurableStore`
    is created under ``persist_dir``, bulk-loaded and checkpointed, then
    driven through the workload's update stream (every mutation lands in
    the per-shard durable WALs).  Three reopen scenarios are measured on
    top:

    * **crash-sim reopen** — the live process state is abandoned without
      a close (dirty buffer pages never reach the page file), and
      ``recovery_ms`` is the wall time of ``DurableStore.open()``:
      checkpoint-image restore plus WAL-tail replay (``wal_tail_records``
      is the bounded tail length).  The recovered answers are compared
      bit for bit against the live index's (the ``recovered_match_*``
      flags — 1.0 means identical range/kNN answers);
    * **cold queries** — the first post-recovery query batch runs on cold
      buffers against checksummed on-disk pages (``cold_query_ms`` versus
      the live index's ``warm_query_ms``);
    * **clean reopen** — after a proper ``close()`` (which checkpoints),
      ``cold_reopen_ms`` is the reopen wall time with an empty WAL
      (``clean_reopen_replayed`` stays 0.0).
    """
    if params is None:
        params = WorkloadParameters(**PERSIST_PARAMS)
    workload = build_workload(dataset, params)
    probes = knn_queries_from_workload(workload)
    batches = workload.grouped_events(window=1.0)
    update_batches = [b for b in batches if isinstance(b[0], UpdateEvent)]
    queries = [e.query for b in batches if not isinstance(b[0], UpdateEvent) for e in b]
    if persist_dir is None:
        persist_dir = tempfile.mkdtemp(prefix="repro_persist_")
    rows: Dict[str, Dict[str, float]] = {}
    for name in which:
        root = os.path.join(persist_dir, name.replace("*", "star").replace("(", "_").replace(")", ""))
        if os.path.exists(root):
            shutil.rmtree(root)

        def factory(buffer, params=params):
            return BxTree(
                buffer=buffer,
                space=params.space,
                max_update_interval=params.max_update_interval,
                page_size=params.page_size,
            )

        started = time.perf_counter()
        index = DurableStore(root).create(
            factory,
            num_shards=shards,
            name=name,
            space=params.space,
            buffer_pages=params.buffer_pages,
            config=ServeConfig(max_workers=1),
        )
        index.bulk_load(workload.initial_objects)
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        index.checkpoint()
        checkpoint_ms = (time.perf_counter() - started) * 1000.0
        num_updates = 0
        started = time.perf_counter()
        for batch in update_batches:
            pairs = [(event.old, event.new) for event in batch]
            index.update_batch(pairs)
            num_updates += len(pairs)
        update_ms = (time.perf_counter() - started) * 1000.0 / max(1, num_updates)
        started = time.perf_counter()
        warm_range = index.range_query_batch(queries)
        warm_query_ms = (time.perf_counter() - started) * 1000.0 / max(1, len(queries))
        warm_knn = index.knn_query_batch(probes)

        # Crash simulation: abandon the live index — no close, no final
        # checkpoint — and recover the store from disk alone.
        started = time.perf_counter()
        crashed = DurableStore(root)
        recovered = crashed.open(ServeConfig(max_workers=1))
        recovery_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        cold_range = recovered.range_query_batch(queries)
        cold_query_ms = (time.perf_counter() - started) * 1000.0 / max(1, len(queries))
        cold_knn = recovered.knn_query_batch(probes)
        recovered_match_range = float(cold_range == warm_range)
        recovered_match_knn = float(cold_knn == warm_knn)
        recovered.close()

        # Clean shutdown happened above: the reopen replays nothing.
        started = time.perf_counter()
        clean = DurableStore(root)
        reopened = clean.open(ServeConfig(max_workers=1))
        cold_reopen_ms = (time.perf_counter() - started) * 1000.0
        clean_match_range = float(reopened.range_query_batch(queries) == warm_range)
        reopened.close()

        rows[name] = {
            key: round(value, 4)
            for key, value in {
                "build_s": build_s,
                "checkpoint_ms": checkpoint_ms,
                "update_ms": update_ms,
                "warm_query_ms": warm_query_ms,
                "recovery_ms": recovery_ms,
                "wal_tail_records": float(sum(crashed.replayed_on_open)),
                "cold_query_ms": cold_query_ms,
                "recovered_match_range": recovered_match_range,
                "recovered_match_knn": recovered_match_knn,
                "cold_reopen_ms": cold_reopen_ms,
                "clean_reopen_replayed": float(sum(clean.replayed_on_open)),
                "clean_match_range": clean_match_range,
            }.items()
        }
    return {
        "dataset": dataset,
        "params": {
            "num_objects": params.num_objects,
            "time_duration": params.time_duration,
            "num_queries": params.num_queries,
            "buffer_pages": params.buffer_pages,
            "page_size": params.page_size,
        },
        "persistence": rows,
    }


def load_history(path: str) -> List[Dict[str, object]]:
    """Existing run history at ``path`` (empty when absent).

    The pre-history format — a single snapshot dictionary — is migrated by
    treating it as the sole prior entry.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    if isinstance(data, dict) and isinstance(data.get("history"), list):
        return data["history"]
    if isinstance(data, dict) and "indexes" in data:
        return [data]
    return []


def run(
    quick: bool = False,
    output: str = DEFAULT_OUTPUT,
    dataset: str = "SA",
    which: Sequence[str] = STANDARD_INDEXES,
    scale: bool = False,
    faults: bool = False,
    persist: bool = False,
    serve: bool = False,
    htap: bool = False,
    backend: bool = False,
    persist_dir: Optional[str] = None,
    shard_counts: Sequence[int] = SCALE_SHARD_COUNTS,
    executor: str = SERVE_EXECUTOR,
    workers: Optional[int] = None,
    clients: int = SERVE_CLIENTS,
    rate_ops_s: Optional[float] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Measure, append to the history at ``output``, and return the report.

    ``scale=True`` runs the serving-layer shard-count sweep
    (:func:`measure_scale`), ``faults=True`` the fault-injection run
    (:func:`measure_faults`), ``persist=True`` the durable-store
    lifecycle run (:func:`measure_persistence`), ``serve=True`` the
    executor-backed sweep plus the open-loop latency driver
    (:func:`measure_serve`), ``htap=True`` the mixed-workload
    snapshot-consistency run (:func:`measure_htap`), and ``backend=True``
    the key-store backend comparison (:func:`measure_backend`) instead of
    the standard build/replay comparison; ``quick`` selects the
    smoke-scale parameter set in every mode.
    """
    started = time.perf_counter()
    if htap:
        overrides = HTAP_QUICK_PARAMS if quick else HTAP_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_htap(
            dataset=dataset,
            params=params,
            executor=executor,
            query_clients=clients,
            seed=seed,
        )
        report["mode"] = "htap-quick" if quick else "htap"
    elif serve:
        overrides = SERVE_QUICK_PARAMS if quick else SERVE_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_serve(
            dataset=dataset,
            params=params,
            shard_counts=shard_counts,
            executor=executor,
            workers=workers,
            clients=clients,
            rate_ops_s=rate_ops_s,
        )
        report["mode"] = "serve-quick" if quick else "serve"
    elif persist:
        overrides = PERSIST_QUICK_PARAMS if quick else PERSIST_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_persistence(
            dataset=dataset, params=params, persist_dir=persist_dir
        )
        report["mode"] = "persist-quick" if quick else "persist"
    elif faults:
        overrides = FAULT_QUICK_PARAMS if quick else FAULT_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_faults(dataset=dataset, params=params)
        report["mode"] = "faults-quick" if quick else "faults"
    elif backend:
        overrides = SCALE_QUICK_PARAMS if quick else SCALE_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_backend(dataset=dataset, params=params)
        report["mode"] = "backend-quick" if quick else "backend"
    elif scale:
        overrides = SCALE_QUICK_PARAMS if quick else SCALE_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure_scale(dataset=dataset, params=params, shard_counts=shard_counts)
        report["mode"] = "scale-quick" if quick else "scale"
    else:
        overrides = QUICK_PARAMS if quick else BENCH_PARAMS
        params = WorkloadParameters(**overrides)
        report = measure(dataset=dataset, params=params, which=which)
        report["mode"] = "quick" if quick else "bench"
    report["total_wall_s"] = round(time.perf_counter() - started, 2)
    history = load_history(output)
    history.append(report)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"history": history}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def _build_parser() -> argparse.ArgumentParser:
    """The subcommand CLI (`scale`/`faults`/`persist`/`serve`).

    The common options live on a shared parent parser so they work both
    before and after the subcommand; their parent-parser defaults are
    ``argparse.SUPPRESS`` because a subparser's defaults would otherwise
    overwrite values already parsed at the top level (``--quick serve``
    must mean the same as ``serve --quick``).  The pre-subcommand mode
    flags (``--scale``/``--faults``/``--persist``) stay as hidden
    aliases, as do the top-level spellings of the per-mode options.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quick",
        action="store_true",
        default=argparse.SUPPRESS,
        help="small smoke-run scale",
    )
    common.add_argument(
        "--dataset", default=argparse.SUPPRESS, help="workload dataset (default SA)"
    )
    common.add_argument(
        "--output", default=argparse.SUPPRESS, help="JSON output path"
    )

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], parents=[common]
    )
    parser.set_defaults(mode=None)
    # Hidden aliases: the pre-subcommand spellings keep working.
    parser.add_argument("--scale", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--faults", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--persist", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--shards", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    parser.add_argument(
        "--persist-dir", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )

    subparsers = parser.add_subparsers(
        dest="mode", metavar="{scale,faults,persist,serve,htap,backend}"
    )
    shards_help = (
        "comma-separated shard counts; the unsharded baseline (1) is "
        "always included (default %(default)s)"
    )
    scale = subparsers.add_parser(
        "scale",
        parents=[common],
        help="serving-layer shard-count sweep "
        f"({SCALE_PARAMS['num_objects']} objects)",
    )
    scale.add_argument(
        "--shards",
        default=",".join(str(count) for count in SCALE_SHARD_COUNTS),
        help=shards_help,
    )
    subparsers.add_parser(
        "faults",
        parents=[common],
        help=f"kill 1 of {FAULT_SHARDS} shards mid-stream; record recovery "
        "time and degraded-answer recall",
    )
    persist = subparsers.add_parser(
        "persist",
        parents=[common],
        help="durable-store lifecycle: checkpoint/WAL store, crash-simulated "
        "reopen, cold-vs-warm queries, clean reopen",
    )
    persist.add_argument(
        "--persist-dir",
        default=None,
        help="directory for the store files (default: a fresh temp "
        "directory); kept on disk after the run for inspection",
    )
    serve = subparsers.add_parser(
        "serve",
        parents=[common],
        help="executor-backed shard sweep plus the open-loop latency driver "
        f"({SERVE_PARAMS['num_objects']} objects at serving buffer pressure)",
    )
    serve.add_argument(
        "--shards",
        default=",".join(str(count) for count in SERVE_SHARD_COUNTS),
        help=shards_help,
    )
    serve.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default=SERVE_EXECUTOR,
        help="shard executor backend (default %(default)s)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan-out width per call (default: one per shard)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=SERVE_CLIENTS,
        help="closed-loop client threads of the latency driver "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in ops/s (default: 70%% of the "
        "measured closed-loop throughput)",
    )
    htap = subparsers.add_parser(
        "htap",
        parents=[common],
        help="mixed-workload snapshot-consistency run: stream update "
        "batches while epoch-pinned queries run concurrently, every "
        "answer checked against the consistency oracle",
    )
    htap.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
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
        help="seed of the query threads' sampling (default %(default)s); "
        "the published stress matrix runs the seeds in "
        "load_driver.HTAP_SEEDS",
    )
    subparsers.add_parser(
        "backend",
        parents=[common],
        help="key-store backend comparison: the Bx replay under the paged "
        f"B+-tree vs the flat vectorized array "
        f"({SCALE_PARAMS['num_objects']} objects), answers pinned identical",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    mode = args.mode
    if mode is None:
        if getattr(args, "scale", False):
            mode = "scale"
        elif getattr(args, "faults", False):
            mode = "faults"
        elif getattr(args, "persist", False):
            mode = "persist"
    default_counts = SERVE_SHARD_COUNTS if mode == "serve" else SCALE_SHARD_COUNTS
    shards_spec = getattr(
        args, "shards", ",".join(str(count) for count in default_counts)
    )
    shard_counts = tuple(int(part) for part in shards_spec.split(",") if part)
    output = getattr(args, "output", DEFAULT_OUTPUT)
    report = run(
        quick=getattr(args, "quick", False),
        output=output,
        dataset=getattr(args, "dataset", "SA"),
        scale=mode == "scale",
        faults=mode == "faults",
        persist=mode == "persist",
        serve=mode == "serve",
        htap=mode == "htap",
        backend=mode == "backend",
        persist_dir=getattr(args, "persist_dir", None),
        shard_counts=shard_counts,
        executor=getattr(
            args, "executor", HTAP_EXECUTOR if mode == "htap" else SERVE_EXECUTOR
        ),
        workers=getattr(args, "workers", None),
        clients=getattr(args, "clients", SERVE_CLIENTS),
        rate_ops_s=getattr(args, "rate", None),
        seed=getattr(args, "seed", 0),
    )
    for name, row in report.get("persistence", {}).items():
        print(
            f"persist {name:10s} recovery {row['recovery_ms']:8.2f}ms "
            f"({row['wal_tail_records']:.0f} WAL records)  "
            f"clean reopen {row['cold_reopen_ms']:8.2f}ms "
            f"({row['clean_reopen_replayed']:.0f} replayed)  "
            f"query warm {row['warm_query_ms']:7.3f} -> cold "
            f"{row['cold_query_ms']:7.3f}ms  "
            f"recovered match {row['recovered_match_range']:.0f}/"
            f"{row['recovered_match_knn']:.0f}"
        )
    for name, row in report.get("htap", {}).items():
        print(
            f"htap {name:10s} updates {row['update_throughput_ops']:9.1f} ops/s "
            f"({row['updates_applied']} over {row['wall_s']:.1f}s)  "
            f"epoch {row['final_epoch']} "
            f"lag mean {row['epoch_lag_mean']:.2f} max {row['epoch_lag_max']:.0f}  "
            f"answers {row['answers_checked']} "
            f"consistent {row['answers_consistent']:.0f}"
        )
    for name, row in report.get("faults", {}).items():
        print(
            f"faults {name:10s} recovery {row['recovery_ms']:8.2f}ms "
            f"({row['replayed_records']:.0f} records, "
            f"{row['recovery_attempts']:.0f} attempt(s))  "
            f"degraded recall range {row['degraded_recall_range']:.3f} / "
            f"knn {row['degraded_recall_knn']:.3f}  "
            f"post-recovery match {row['post_recovery_results_match']:.0f}/"
            f"{row['post_recovery_knn_match']:.0f}"
        )
    for count, rows in sorted(report.get("serve", {}).items(), key=lambda item: int(item[0])):
        for name, row in rows.items():
            print(
                f"serve shards={count} {name:6s} "
                f"update {row['update_ms']:7.4f}ms  "
                f"query {row['query_ms']:7.3f}ms  "
                f"knn {row['knn_ms']:7.3f}ms  "
                f"io(u/q/k) {row['update_io']:.1f}/{row['query_io']:.1f}/"
                f"{row['knn_io']:.1f}  "
                f"match {row['results_match']:.0f}/{row['knn_results_match']:.0f}"
            )
    latency = report.get("latency", {})
    for loop in ("closed", "open"):
        section = latency.get(loop)
        if not section:
            continue
        rate = f" @ {section['rate_ops_s']:.1f} ops/s" if "rate_ops_s" in section else ""
        print(
            f"latency {loop}{rate}: {section['throughput_ops']:.1f} ops/s "
            f"over {section['wall_s']:.1f}s"
        )
        for kind in ("update", "range", "knn"):
            row = section.get(kind)
            if not row:
                continue
            print(
                f"  {kind:6s} n={row['count']:<5d} "
                f"p50 {row['p50_ms']:8.3f}ms  p95 {row['p95_ms']:8.3f}ms  "
                f"p99 {row['p99_ms']:8.3f}ms  mean {row['mean_ms']:8.3f}ms"
            )
    for backend_name, rows in report.get("backend", {}).items():
        for name, row in rows.items():
            speedup = (
                f"  speedup(u/q/k) {row['update_speedup']:.2f}/"
                f"{row['query_speedup']:.2f}/{row['knn_speedup']:.2f}x"
                if "update_speedup" in row
                else ""
            )
            print(
                f"backend={backend_name:5s} {name:6s} "
                f"update {row['update_ms']:7.4f}ms  "
                f"query {row['query_ms']:7.3f}ms  "
                f"knn {row['knn_ms']:7.3f}ms  "
                f"io(u/q/k) {row['update_io']:.1f}/{row['query_io']:.1f}/"
                f"{row['knn_io']:.1f}  "
                f"match {row['results_match']:.0f}/{row['knn_results_match']:.0f}"
                f"{speedup}"
            )
    for count, rows in sorted(report.get("shards", {}).items(), key=lambda item: int(item[0])):
        for name, row in rows.items():
            print(
                f"shards={count} {name:10s} "
                f"update {row['update_ms']:7.4f}ms  "
                f"query {row['query_ms']:7.3f}ms  "
                f"knn {row['knn_ms']:7.3f}ms  "
                f"io(u/q/k) {row['update_io']:.1f}/{row['query_io']:.1f}/"
                f"{row['knn_io']:.1f}  "
                f"match {row['results_match']:.0f}/{row['knn_results_match']:.0f}"
            )
    for name, row in report.get("indexes", {}).items():
        print(
            f"{name:10s} build {row['build_incremental_s']:7.3f}s -> "
            f"{row['build_bulk_s']:6.3f}s ({row['build_speedup']:5.1f}x)  "
            f"update {row['per_event_update_ms']:7.4f} -> {row['update_ms']:7.4f}ms "
            f"({row['update_speedup']:4.2f}x)  "
            f"query {row['per_event_query_ms']:7.3f} -> {row['query_ms']:7.3f}ms "
            f"({row['query_speedup']:4.2f}x)  "
            f"knn {row['per_event_knn_ms']:7.3f} -> {row['knn_ms']:7.3f}ms "
            f"({row['knn_speedup']:4.2f}x)"
        )
    print(f"wrote {output} ({report['total_wall_s']}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
