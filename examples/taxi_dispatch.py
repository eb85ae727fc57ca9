#!/usr/bin/env python3
"""Taxi dispatch: continuous "who is near this passenger soon?" queries.

The paper motivates circular range queries with exactly this scenario: "a
taxi driver is interested in potential passengers within 200 meters of
itself".  This example plays the dispatcher's side:

* a fleet of taxis drives on a San Francisco-like road network (a grid whose
  streets are rotated off the coordinate axes — the case where the VP
  technique must *discover* the dominant directions rather than inherit them
  from the coordinate system);
* passengers appear at random street corners and the dispatcher asks, for
  each passenger, which taxis will be within pickup range shortly; and
* the same queries run against a velocity-partitioned TPR*-tree and a plain
  TPR*-tree so the I/O savings are visible per dispatch decision.

Run it with:  python examples/taxi_dispatch.py
"""

import random

from repro import (
    CircularRange,
    TimeSliceRangeQuery,
    VelocityAnalyzer,
    WorkloadParameters,
    make_index,
)
from repro.network.generators import san_francisco_like
from repro.workload.network_workload import NetworkWorkloadGenerator

#: How far ahead the dispatcher looks when matching taxis to passengers (ts).
PICKUP_HORIZON = 30.0

#: Pickup range around the passenger, in meters.
PICKUP_RADIUS = 1_500.0


def main() -> None:
    params = WorkloadParameters(
        num_objects=1_200,
        max_speed=80.0,
        time_duration=120.0,
        num_queries=0,  # dispatch queries are issued by this script instead
        seed=2024,
    )
    network = san_francisco_like(space=params.space)
    workload = NetworkWorkloadGenerator(network, params).generate(include_queries=False)
    print(
        f"fleet of {workload.num_objects} taxis on the {network.name} network "
        f"({network.num_nodes} intersections, {network.num_edges} street segments)"
    )

    # Analyze the fleet's velocity distribution and build both indexes.
    partitioning = VelocityAnalyzer(k=2).analyze(workload.velocity_sample())
    print("dominant travel directions (degrees):",
          [round(d.angle_degrees(), 1) for d in partitioning.dvas])

    vp_index = make_index("TPR*(VP)", partitioning=partitioning, **params.index_kwargs())
    plain_index = make_index("TPR*", **params.index_kwargs())

    latest = {}
    for taxi in workload.initial_objects:
        vp_index.insert(taxi)
        plain_index.insert(taxi)
        latest[taxi.oid] = taxi

    # Replay the drive and interleave dispatch decisions.
    rng = random.Random(7)
    dispatches = 0
    vp_io = plain_io = 0
    update_events = workload.update_events
    for i, event in enumerate(update_events):
        vp_index.update(event.old, event.new)
        plain_index.update(event.old, event.new)
        latest[event.new.oid] = event.new

        # Every ~50 fleet updates a passenger requests a ride somewhere.
        if i % 50 != 0:
            continue
        corner = network.position(network.random_node(rng))
        query = TimeSliceRangeQuery(
            CircularRange(center=corner, radius=PICKUP_RADIUS),
            time=event.time + PICKUP_HORIZON,
            issue_time=event.time,
        )
        before = vp_index.buffer.stats.physical.total
        vp_hits = set(vp_index.range_query(query))
        vp_io += vp_index.buffer.stats.physical.total - before

        before = plain_index.buffer.stats.physical.total
        plain_hits = set(plain_index.range_query(query))
        plain_io += plain_index.buffer.stats.physical.total - before

        assert vp_hits == plain_hits, "both indexes must agree on the candidate taxis"
        dispatches += 1
        if dispatches <= 5:
            print(
                f"  t={event.time:6.1f}  passenger at ({corner.x:8.0f}, {corner.y:8.0f})  "
                f"{len(vp_hits):3d} taxis reachable within {PICKUP_HORIZON:.0f} ts"
            )

    print()
    print(f"dispatch decisions: {dispatches}")
    print(f"average I/O per dispatch  —  TPR*: {plain_io / dispatches:6.2f}   "
          f"TPR*(VP): {vp_io / dispatches:6.2f}")
    if vp_io < plain_io:
        print(f"velocity partitioning saved {100 * (1 - vp_io / plain_io):.0f}% of dispatch I/O")


if __name__ == "__main__":
    main()
