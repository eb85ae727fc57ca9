"""The four workloads, as data, and the seeded request lists they replay.

A workload is a row of :data:`WORKLOADS`: which system serves it, how many
objects it holds and how much event time, how many range and kNN requests
ride along per second of measuring budget.  :func:`make_inputs` turns a row,
a seed and a budget into an ordered request list; nothing else in the
benchmark knows one workload from another.

Every count below is *per second of ``--seconds``*, calibrated on the
2-core sandbox so the timed phase lasts about ``--seconds`` there.  The
request list is a pure function of ``(workload, seed, seconds, scale)`` —
the same arguments give the same requests, byte for byte, which the digest
pins.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    CircularRange,
    KNNQuery,
    Point,
    TimeSliceRangeQuery,
    WorkloadParameters,
    build_workload,
)
from repro.workload import UpdateEvent, Workload
from repro.workload.parameters import PAPER_SPACE

#: Road network with skewed velocities (San Francisco stand-in): the data
#: the paper's claim is about.
DATASET = "SA"
PAGE_SIZE = 4096
KNN_K = 10
#: How far ahead of its issue time a query looks (Table 1 default / half).
RANGE_PREDICTIVE_TS = 60.0
KNN_PREDICTIVE_TS = 30.0

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "replay-bx": {
        "why": "Bx(VP) in-process on a 50-page pool: core routing and bxtree curve "
        "decomposition do the work, tprtree and serve none, pool misses dominate storage",
        "system": "Bx(VP)",
        "twin": "Bx",
        "yardstick_ms": 0.53,
        "follows_pace": {"update": 1.0, "range": 1.0, "knn": 0.8},
        "objects": 50_000,
        "pool_pages": 50,
        "ts_per_second": 14.0,
        "update_chunk": 128,
        "ranges_per_second": 40.0,
        "knn_requests_per_second": 5.0,
        "knn_batch": 10,
    },
    "replay-tpr": {
        "why": "TPR*(VP) in-process on a 50-page pool: tprtree and geometry kernels dominate, "
        "bxtree and serve are bypassed, so a shared core/storage regression shows here too",
        "system": "TPR*(VP)",
        "twin": "TPR*",
        "yardstick_ms": 0.53,
        "follows_pace": {"update": 0.6, "range": 0.5, "knn": 0.55},
        "objects": 20_000,
        "pool_pages": 50,
        "ts_per_second": 11.0,
        "update_chunk": 64,
        "ranges_per_second": 40.0,
        "knn_requests_per_second": 5.0,
        "knn_batch": 10,
    },
    "serve-mixed": {
        "why": "2 process shards over the flat key store: index work is cheapest, so route, "
        "log, pickle/pipe and merge dominate; the open loop shows kNN head-of-line blocking",
        "system": "sharded",
        "executor": "process",
        "key_store": "flat",
        "yardstick_ms": 0.58,
        "follows_pace": {"update": 0.55, "range": 0.65, "knn": 1.0},
        "objects": 20_000,
        "pool_pages": 50,
        "ts_per_second": 6.0,
        "update_chunk": 16,
        "ranges_per_second": 40.0,
        "knn_requests_per_second": 8.0,
        "knn_batch": 1,
        # Open-loop phase: the first half of the list at a fixed arrival
        # rate, 40-50% of the closed-loop saturation measured on the sandbox
        # (whose speed drifts by that much).
        "open_rate_per_second": 110.0,
        "open_share": 0.5,
    },
    "durable-writes": {
        "why": "2 serial shards on a file-backed store whose tree fits the pool: the cost is "
        "WAL fsyncs and checkpoints, then a SIGKILL and recovery; only here durable code runs",
        "system": "sharded",
        "executor": "serial",
        "durable": True,
        "yardstick_ms": 0.38,
        # One 2 KB append + fsync; the fsync part of a request follows this,
        # the rest of an update the processor's yardstick in full.
        "disk_yardstick_ms": 0.40,
        "follows_pace": {"update": 1.0, "range": 0.6, "knn": 0.75},
        "objects": 20_000,
        "pool_pages": 1000,
        "ts_per_second": 23.0,
        "update_chunk": 32,
        "ranges_per_second": 40.0,
        "knn_requests_per_second": 20.0,
        "knn_batch": 1,
        "checkpoints": 4,
        # Unmeasured update requests applied after the timed phase; the
        # kill lands at a seeded ordinal among them.
        "tail_requests": 32,
    },
}

#: ``--scale tiny`` (the smoke test): the same rows with far fewer objects.
SCALES = {"full": 1.0, "tiny": 0.04}


@dataclass
class Request:
    """One client request: an update chunk, one range query or a kNN batch."""

    kind: str  # "update" | "range" | "knn"
    time: float  # event time the request is issued at
    payload: Any  # [(old, new), ...] | RangeQuery | [KNNQuery, ...]
    #: Updates only: oid/x/y/vx/vy/t columns of the new snapshots.
    columns: Optional[Tuple[np.ndarray, ...]] = None
    #: Updates only: run ``index.checkpoint()`` as part of this request.
    checkpoint: bool = False

    @property
    def ops(self) -> int:
        """Updates in the chunk, probes in the batch, 1 for a range query."""
        return len(self.payload) if self.kind != "range" else 1


@dataclass
class Inputs:
    """Everything a run needs that comes from the seed."""

    name: str
    seed: int
    seconds: float
    scale: str
    spec: Dict[str, Any]
    params: WorkloadParameters
    workload: Workload  # initial objects + the velocity sample
    requests: List[Request]
    tail: List[Request]  # durable-writes: applied unmeasured, until the kill
    digest: str
    generate_s: float
    counts: Dict[str, int] = field(default_factory=dict)


def spread_centers(rng: random.Random, space, count: int) -> List[Point]:
    """``count`` query centers, one per cell of a grid over ``space``, row by row.

    Query cost follows the local density of the road network, which is very
    uneven.  Centers drawn independently would give each seed its own share
    of down-town queries and move every query metric with it; one jittered
    center per grid cell gives every seed the same spatial mix, and leaves
    to the seed the place within the cell and which surplus cells stay empty.
    """
    side = 1
    while side * side < count:
        side += 1
    width = (space.x_max - space.x_min) / side
    height = (space.y_max - space.y_min) / side
    cells = sorted(rng.sample(range(side * side), count))
    return [
        Point(
            space.x_min + (cell % side + rng.random()) * width,
            space.y_min + (cell // side + rng.random()) * height,
        )
        for cell in cells
    ]


def _object_columns(objects) -> Tuple[np.ndarray, ...]:
    n = len(objects)
    return (
        np.fromiter((o.oid for o in objects), np.int64, n),
        np.fromiter((o.position.x for o in objects), np.float64, n),
        np.fromiter((o.position.y for o in objects), np.float64, n),
        np.fromiter((o.velocity.vx for o in objects), np.float64, n),
        np.fromiter((o.velocity.vy for o in objects), np.float64, n),
        np.fromiter((o.reference_time for o in objects), np.float64, n),
    )


def _digest(initial_columns, requests: List[Request]) -> str:
    """sha256 of the packed request list (and the objects it starts from)."""
    sha = hashlib.sha256()
    for column in initial_columns:
        sha.update(column.tobytes())
    for request in requests:
        sha.update(request.kind.encode() + (b"!" if request.checkpoint else b"."))
        if request.kind == "update":
            for column in request.columns:
                sha.update(column.tobytes())
        elif request.kind == "range":
            query = request.payload
            sha.update(
                struct.pack(
                    "<6d",
                    query.range.center.x,
                    query.range.center.y,
                    query.range.radius,
                    query.start_time,
                    query.end_time,
                    query.issue_time,
                )
            )
        else:
            for probe in request.payload:
                sha.update(
                    struct.pack(
                        "<2dq2d",
                        probe.center.x,
                        probe.center.y,
                        probe.k,
                        probe.query_time,
                        probe.issue_time,
                    )
                )
    return sha.hexdigest()


def make_inputs(name: str, seed: int, seconds: float, scale: str = "full") -> Inputs:
    """Generate one workload's request list from the seed."""
    started = time.perf_counter()
    spec = WORKLOADS[name]
    duration = spec["ts_per_second"] * seconds
    params = WorkloadParameters(
        num_objects=max(200, int(spec["objects"] * SCALES[scale])),
        time_duration=duration,
        num_queries=max(1, round(spec["ranges_per_second"] * seconds)),
        query_predictive_time=RANGE_PREDICTIVE_TS,
        buffer_pages=spec["pool_pages"],
        page_size=PAGE_SIZE,
        space=PAPER_SPACE,
        seed=seed,
    )
    workload = build_workload(DATASET, params, seed=seed)
    space = params.space

    # kNN requests at evenly spread event times, offset half a step so they
    # do not coincide with the range queries.  The generator's range queries
    # keep their times and radius and get their centers here.
    rng = random.Random(seed * 2_654_435_761 % (1 << 32))
    knn_count = max(1, round(spec["knn_requests_per_second"] * seconds))
    knn_times = [duration * (i + 0.5) / knn_count for i in range(knn_count)]
    probe_centers = spread_centers(rng, space, knn_count * spec["knn_batch"])
    # Every knn_count-th center: each batch samples the whole space, so
    # batches cost about the same and their median holds still across seeds.
    knn_centers = [probe_centers[i::knn_count] for i in range(knn_count)]
    rng.shuffle(knn_centers)
    range_centers = spread_centers(rng, space, params.num_queries)
    rng.shuffle(range_centers)
    range_centers = iter(range_centers)

    requests: List[Request] = []
    pending: List[Tuple[Any, Any]] = []
    chunk = max(4, int(spec["update_chunk"] * SCALES[scale]))
    next_knn = 0

    def flush() -> None:
        news = [new for _, new in pending]
        requests.append(
            Request("update", news[-1].reference_time, list(pending), _object_columns(news))
        )
        pending.clear()

    def knn_request(at: float) -> Request:
        # A probe is issued at the stream position's time: a moving-object
        # index only answers about the present and future of its clock.
        probes = [
            KNNQuery(center=c, k=KNN_K, query_time=at + KNN_PREDICTIVE_TS, issue_time=at)
            for c in knn_centers[next_knn]
        ]
        return Request("knn", at, probes)

    for event in workload.events:  # already in event-time order
        while next_knn < knn_count and knn_times[next_knn] <= event.time:
            requests.append(knn_request(knn_times[next_knn]))
            next_knn += 1
        if isinstance(event, UpdateEvent):
            pending.append((event.old, event.new))
            if len(pending) == chunk:
                flush()
        else:
            query = TimeSliceRangeQuery(
                CircularRange(center=next(range_centers), radius=params.query_radius),
                time=event.query.start_time,
                issue_time=event.time,
            )
            requests.append(Request("range", event.time, query))
    if pending:
        flush()

    tail: List[Request] = []
    if spec.get("tail_requests"):
        # The last update requests become the unmeasured tail; queries that
        # fall among them are dropped with it.
        wanted = max(4, int(spec["tail_requests"] * max(SCALES[scale], 0.25)))
        update_positions = [i for i, r in enumerate(requests) if r.kind == "update"]
        cut = update_positions[-wanted]
        tail = [r for r in requests[cut:] if r.kind == "update"]
        requests = requests[:cut]
    if spec.get("checkpoints"):
        updates = [r for r in requests if r.kind == "update"]
        cycles = spec["checkpoints"]
        for cycle in range(1, cycles + 1):
            # The last cycle ends on the last timed update, so every tail
            # update lives in the write-ahead log alone when the kill lands.
            updates[len(updates) * cycle // cycles - 1].checkpoint = True

    counts = {
        kind: sum(1 for r in requests if r.kind == kind) for kind in ("update", "range", "knn")
    }
    counts["updates"] = sum(r.ops for r in requests if r.kind == "update")
    digest = _digest(_object_columns(workload.initial_objects), requests + tail)
    return Inputs(
        name=name,
        seed=seed,
        seconds=seconds,
        scale=scale,
        spec=spec,
        params=params,
        workload=workload,
        requests=requests,
        tail=tail,
        digest=digest,
        generate_s=time.perf_counter() - started,
        counts=counts,
    )
