#!/usr/bin/env python3
"""Batched k-nearest-neighbour tracking: rank nearest vehicles for many users.

A live tracking service rarely answers one kNN question at a time: every
refresh tick, *all* connected users want their k nearest vehicles at once.
This example shows the batched kNN surface end to end:

1. build a city workload and index the fleet in a Bx-tree and a TPR*(VP)
   index;
2. answer a screenful of kNN probes one at a time (the classic
   expanding-range algorithm per probe) and then as one batch
   (``knn_query_batch``: every expanding-range round is shared by all
   still-unfinished probes, so the index is traversed once per round
   instead of once per probe per round);
3. in both modes a probe's filter circle doubles each round until the
   candidates it has pooled number ``k``, and from then on it never grows
   past the k-th nearest of them: that circle already holds ``k``
   vehicles, so the next round is the probe's last.

Answers are identical in both modes — batching only cuts traversals and
physical I/O.

Run it with:  python examples/knn_tracking.py
"""

import random

from repro import (
    KNNQuery,
    WorkloadParameters,
    build_standard_indexes,
    build_workload,
)
from repro.geometry.point import Point


def make_probes(rng: random.Random, params: WorkloadParameters, users: int, tick: float):
    """One kNN probe per connected user: "my 10 nearest vehicles, 30 ts ahead"."""
    return [
        KNNQuery(
            center=Point(
                rng.uniform(0.0, params.space.width),
                rng.uniform(0.0, params.space.height),
            ),
            k=10,
            query_time=tick + 30.0,
            issue_time=tick,
        )
        for _ in range(users)
    ]


def main() -> None:
    params = WorkloadParameters(num_objects=1_000, num_queries=10, time_duration=60.0)
    workload = build_workload("CH", params)
    rng = random.Random(42)

    indexes = build_standard_indexes(workload, params, which=("Bx", "TPR*(VP)"))
    for index in indexes.values():
        index.bulk_load(workload.initial_objects)

    print(f"fleet: {workload.num_objects} vehicles; 3 refresh ticks x 25 users\n")
    for name, index in indexes.items():
        stats = index.buffer.stats

        # Per-probe baseline: one expanding-range search per user.
        ticks = [make_probes(rng, params, users=25, tick=t) for t in (0.0, 5.0, 10.0)]
        io_before = stats.physical.total
        per_event = [
            index.knn_query(p.center, p.k, p.query_time, issue_time=p.issue_time,
                            space=params.space)
            for probes in ticks
            for p in probes
        ]
        per_event_io = stats.physical.total - io_before

        # Batched: one call per refresh tick.
        io_before = stats.physical.total
        batched = []
        for probes in ticks:
            batched.extend(index.knn_query_batch(probes, space=params.space))
        batched_io = stats.physical.total - io_before

        assert batched == per_event, "batching must never change answers"
        print(
            f"{name:9s} physical I/O: {per_event_io:5d} per-probe -> {batched_io:5d} "
            f"batched ({per_event_io / max(batched_io, 1):.1f}x)"
        )

    name, index = next(iter(indexes.items()))
    probe = make_probes(rng, params, users=1, tick=15.0)[0]
    nearest = index.knn_query(
        probe.center, probe.k, probe.query_time, issue_time=probe.issue_time,
        space=params.space,
    )
    print(f"\nsample answer ({name}, user at {probe.center.x:.0f},{probe.center.y:.0f}):")
    for oid, distance in nearest[:5]:
        print(f"  vehicle {oid:5d} predicted {distance:7.1f} m away")


if __name__ == "__main__":
    main()
