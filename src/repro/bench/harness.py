"""Core experiment harness.

The harness mirrors the paper's methodology: an index is bulk-loaded with
the workload's initial objects, the time-ordered event stream (updates and
range queries) is replayed against it, and the average physical I/O and
wall-clock time per query and per update are reported.

The same harness runs both unpartitioned indexes (Bx-tree, TPR*-tree) and
their VP counterparts, because they all satisfy
:class:`~repro.core.index_manager.MovingIndex` and expose their buffer pool
for I/O accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.partitioned_index import FAMILIES, make_index
from repro.core.velocity_analyzer import VelocityAnalyzer
from repro.geometry.rect import Rect
from repro.objects.knn import KNNQuery
from repro.serve import ServeConfig, ShardedIndex, SupervisorConfig
from repro.storage.faults import fault_wrap
from repro.workload.events import UpdateEvent, Workload
from repro.workload.parameters import WorkloadParameters


@dataclass
class IndexMetrics:
    """Per-index metrics of one experiment run (the paper's four plots)."""

    index_name: str
    dataset: str = ""
    num_queries: int = 0
    num_updates: int = 0
    query_io_total: int = 0
    update_io_total: int = 0
    query_node_accesses: int = 0
    query_time_total: float = 0.0
    update_time_total: float = 0.0
    build_time: float = 0.0
    results_returned: int = 0
    query_buffer_hits: int = 0
    query_buffer_misses: int = 0
    update_buffer_hits: int = 0
    update_buffer_misses: int = 0

    @property
    def avg_query_io(self) -> float:
        """Average physical I/O per range query."""
        return self.query_io_total / self.num_queries if self.num_queries else 0.0

    @property
    def avg_query_node_accesses(self) -> float:
        """Logical node accesses per query (buffer hits included)."""
        return self.query_node_accesses / self.num_queries if self.num_queries else 0.0

    @property
    def avg_update_io(self) -> float:
        """Average physical I/O per update."""
        return self.update_io_total / self.num_updates if self.num_updates else 0.0

    @property
    def avg_query_time_ms(self) -> float:
        """Average wall-clock milliseconds per range query."""
        if not self.num_queries:
            return 0.0
        return 1000.0 * self.query_time_total / self.num_queries

    @property
    def avg_update_time_ms(self) -> float:
        """Average wall-clock milliseconds per update."""
        if not self.num_updates:
            return 0.0
        return 1000.0 * self.update_time_total / self.num_updates

    @property
    def query_buffer_hit_ratio(self) -> float:
        """Buffer hit ratio over the replay's query operations."""
        total = self.query_buffer_hits + self.query_buffer_misses
        return self.query_buffer_hits / total if total else 0.0

    @property
    def update_buffer_hit_ratio(self) -> float:
        """Buffer hit ratio over the replay's update operations."""
        total = self.update_buffer_hits + self.update_buffer_misses
        return self.update_buffer_hits / total if total else 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by the reporting helpers."""
        return {
            "index": self.index_name,
            "dataset": self.dataset,
            "query_io": round(self.avg_query_io, 2),
            "query_nodes": round(self.avg_query_node_accesses, 2),
            "query_ms": round(self.avg_query_time_ms, 3),
            "update_io": round(self.avg_update_io, 2),
            "update_ms": round(self.avg_update_time_ms, 3),
            "queries": self.num_queries,
            "updates": self.num_updates,
            "results": self.results_returned,
            "build_s": round(self.build_time, 3),
            "query_hit_ratio": round(self.query_buffer_hit_ratio, 4),
            "update_hit_ratio": round(self.update_buffer_hit_ratio, 4),
        }


#: Default width (in timestamps) of the batch-replay grouping window: the
#: granularity at which a location tracker would group co-arriving reports.
#: Event times are continuous, so exact-timestamp groups are singletons and
#: only a positive window produces real batches.
DEFAULT_BATCH_WINDOW = 1.0


class ExperimentRunner:
    """Replays a workload against one index and records metrics.

    Events are grouped into same-window, same-type batches
    (:data:`DEFAULT_BATCH_WINDOW`) and each group is replayed through the
    index's ``update_batch`` / ``range_query_batch``; a singleton group is
    a batch of one and runs the family's one mutation path or range
    traversal like any other group.  So does the insertion-built phase:
    ``insert`` is a batch of one.

    Args:
        workload: the workload to replay.
        bulk_build: when True (default) the build phase uses the index's
            ``bulk_load``, so the figure drivers measure
            steady-state update/query I/O rather than the Python overhead of
            N root-to-leaf insertions; pass False to force the incremental
            build path (used by the build-cost comparisons).
    """

    def __init__(self, workload: Workload, bulk_build: bool = True) -> None:
        self.workload = workload
        self.bulk_build = bulk_build

    def run(self, index, name: Optional[str] = None) -> IndexMetrics:
        """Load the initial objects, replay the events, and report metrics."""
        metrics = IndexMetrics(
            index_name=name or getattr(index, "name", type(index).__name__),
            dataset=self.workload.name,
        )
        stats = index.buffer.stats
        build_start = time.perf_counter()
        if self.bulk_build:
            index.bulk_load(self.workload.initial_objects)
        else:
            for obj in self.workload.initial_objects:
                index.insert(obj)
        metrics.build_time = time.perf_counter() - build_start

        # Identical event order, with timing and I/O accounting per batch.
        for batch in self.workload.grouped_events(window=DEFAULT_BATCH_WINDOW):
            before = stats.physical.total
            before_logical = stats.logical.reads
            before_hits = stats.buffer.hits
            before_misses = stats.buffer.misses
            if isinstance(batch[0], UpdateEvent):
                started = time.perf_counter()
                index.update_batch([(event.old, event.new) for event in batch])
                metrics.update_time_total += time.perf_counter() - started
                metrics.update_io_total += stats.physical.total - before
                metrics.update_buffer_hits += stats.buffer.hits - before_hits
                metrics.update_buffer_misses += stats.buffer.misses - before_misses
                metrics.num_updates += len(batch)
            else:
                returned = 0
                started = time.perf_counter()
                for result in index.range_query_batch([event.query for event in batch]):
                    returned += len(result)
                metrics.query_time_total += time.perf_counter() - started
                metrics.query_io_total += stats.physical.total - before
                metrics.query_node_accesses += stats.logical.reads - before_logical
                metrics.query_buffer_hits += stats.buffer.hits - before_hits
                metrics.query_buffer_misses += stats.buffer.misses - before_misses
                metrics.num_queries += len(batch)
                metrics.results_returned += returned
        return metrics


# ----------------------------------------------------------------------
# kNN replay (the batched expanding-range surface)
# ----------------------------------------------------------------------
#: Default number of neighbours per probe in the kNN replay.
DEFAULT_KNN_K = 10


@dataclass
class KNNMetrics:
    """Metrics of one kNN replay (per-probe I/O, node accesses and latency)."""

    index_name: str
    num_queries: int = 0
    io_total: int = 0
    node_accesses: int = 0
    time_total: float = 0.0
    results: List[List] = field(default_factory=list)

    @property
    def avg_io(self) -> float:
        """Average physical I/O per kNN probe."""
        return self.io_total / self.num_queries if self.num_queries else 0.0

    @property
    def avg_time_ms(self) -> float:
        """Average wall-clock milliseconds per kNN probe."""
        if not self.num_queries:
            return 0.0
        return 1000.0 * self.time_total / self.num_queries


def knn_queries_from_workload(workload: Workload, k: int = DEFAULT_KNN_K) -> List[KNNQuery]:
    """One kNN probe per range-query event of ``workload``.

    The probes reuse the events' range centers and *predictive offsets*
    (how far each query looks ahead of its issue time), but are issued at
    the end of the event stream: the kNN replay runs against the fully
    replayed index, and a moving-object index only answers questions about
    the present and future of its clock — an entry's time-parameterized
    bound does not cover the object's past positions, so the TPR family
    refuses a probe issued before its clock (``ValueError``).
    """
    events = workload.sorted_events()
    issue_time = events[-1].time if events else 0.0
    probes: List[KNNQuery] = []
    for event in workload.query_events:
        query = event.query
        probes.append(
            KNNQuery(
                center=query.range.center,
                k=k,
                query_time=issue_time + query.predictive_time,
                issue_time=issue_time,
            )
        )
    return probes


def run_knn(
    index,
    probes: Sequence[KNNQuery],
    space: Optional[Rect] = None,
    batch_size: Optional[int] = None,
) -> KNNMetrics:
    """Replay kNN probes against ``index`` and record per-probe metrics.

    The probes are grouped into fixed-size batches (the concurrent-users
    model: a tracking service ranks nearest vehicles for many subscribers
    at once) and each group runs through the index's ``knn_query_batch``
    with shared expanding-range rounds.  Answers do not depend on the
    grouping — batching only amortizes traversals and filter rounds.

    Args:
        index: any index exposing ``knn_query_batch``.
        probes: the kNN probes to replay, in order.
        space: data space (initial radius seed and expansion cap).
        batch_size: probes per batch; None runs one batch.

    Returns:
        The replay's :class:`KNNMetrics`, including the per-probe answers.
    """
    probes = list(probes)
    metrics = KNNMetrics(index_name=getattr(index, "name", type(index).__name__))
    stats = index.buffer.stats
    step = batch_size if batch_size is not None else max(len(probes), 1)
    for start in range(0, len(probes), step):
        group = probes[start : start + step]
        io_before = stats.physical.total
        nodes_before = stats.logical.reads
        started = time.perf_counter()
        answers = index.knn_query_batch(group, space=space)
        metrics.time_total += time.perf_counter() - started
        metrics.io_total += stats.physical.total - io_before
        metrics.node_accesses += stats.logical.reads - nodes_before
        metrics.num_queries += len(group)
        metrics.results.extend(answers)
    return metrics


# ----------------------------------------------------------------------
# Standard index line-up of the experiments
# ----------------------------------------------------------------------
STANDARD_INDEXES = ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")

#: Extended line-up including the original TPR-tree baseline (used by the
#: TPR-family ablation benchmark; the paper's figures only plot the four
#: standard indexes): every family :func:`make_index` builds.
EXTENDED_INDEXES = FAMILIES


def build_standard_indexes(
    workload: Workload,
    params: Optional[WorkloadParameters] = None,
    which: Sequence[str] = STANDARD_INDEXES,
    shards: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    executor: Optional[object] = None,
    disk_profile: Optional[object] = None,
    key_store: Optional[str] = None,
) -> Dict[str, object]:
    """Build the paper's four competing indexes for one workload.

    Every index comes from :func:`~repro.core.partitioned_index.make_index`
    with the one Table-1 setting ``params.index_kwargs()``.  The VP variants
    run the velocity analyzer over the workload's velocity sample (10,000
    points maximum, as in the paper) before the indexes are created.

    With ``shards > 1`` every family is served by a
    :class:`~repro.serve.ShardedIndex` built through
    :meth:`~repro.serve.ShardedIndex.build`: ``shards`` independent instances
    (each with its own buffer pool — the shared-nothing serving model gives
    every worker its own RAM) behind the hash router; each shard's as-built
    state is its in-memory recovery baseline, which WAL replay rebuilds a
    failed shard from (``docs/robustness.md``).
    The velocity analysis still runs once; the shards share its result.
    ``supervisor`` tunes the retry/breaker/timeout policy and ``executor``
    picks where shard calls run (``"serial"``, the default, or
    ``"process"``).  See ``docs/serving.md``.

    ``disk_profile`` (a :class:`~repro.storage.faults.FaultProfile`)
    slides a fault injector under every built instance's simulated disk —
    sharded and unsharded alike, and through the recovery baseline every
    recovered shard too — so a
    whole comparison runs under one device model (e.g. an SSD-class
    ``read_latency_s``).  The injector travels with the shard into worker
    processes under the ``process`` executor.

    ``key_store`` names the Bx key-store backend (``"btree"``/``"flat"``,
    see ``docs/backends.md``) of the ``Bx`` and ``Bx(VP)`` families — the
    TPR family has no 1-D key store and is built without it.
    """
    if params is None:
        params = WorkloadParameters()
    partitioning = None
    if any(name.endswith("(VP)") for name in which):
        partitioning = VelocityAnalyzer().analyze(workload.velocity_sample())

    def make_instance(name: str) -> object:
        """One unsharded instance of the family, on the shared device model."""
        index = make_index(
            name,
            partitioning=partitioning,
            key_store=key_store if name.startswith("Bx") else None,
            **params.index_kwargs(),
        )
        if disk_profile is not None:
            fault_wrap(index.buffer, profile=disk_profile)
        return index

    if shards == 1:
        return {name: make_instance(name) for name in which}
    return {
        name: ShardedIndex.build(
            partial(make_instance, name),
            shards=shards,
            executor=executor,
            config=ServeConfig(name=name, space=params.space, supervisor=supervisor),
        )
        for name in which
    }


def run_comparison(
    workload: Workload,
    params: Optional[WorkloadParameters] = None,
    bulk_build: bool = True,
) -> List[IndexMetrics]:
    """Run the full comparison of the standard indexes on one workload."""
    runner = ExperimentRunner(workload, bulk_build=bulk_build)
    indexes = build_standard_indexes(workload, params=params)
    return [runner.run(index, name=name) for name, index in indexes.items()]
