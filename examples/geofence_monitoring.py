#!/usr/bin/env python3
"""Geofence monitoring with moving and time-interval range queries.

The paper's query model (Section 2.1) covers three query types; the
benchmark figures focus on time-slice queries, so this example exercises the
other two on a realistic scenario:

* **time-interval queries** — "which delivery vans will pass through the
  depot geofence at any point in the next 20 timestamps?"; and
* **moving range queries** — "which vans will come near the street-sweeper
  convoy (itself moving along a street) during its next sweep?".

Both are answered on a velocity-partitioned Bx-tree and cross-checked
against exhaustive evaluation, demonstrating that the VP query
transformation (Algorithm 3) preserves every query type the underlying
index supports.

Run it with:  python examples/geofence_monitoring.py
"""

import random

from repro import (
    CircularRange,
    MovingRangeQuery,
    RectangularRange,
    TimeIntervalRangeQuery,
    VelocityAnalyzer,
    Vector,
    WorkloadParameters,
    make_index,
)
from repro.geometry.rect import Rect
from repro.network.generators import melbourne_like
from repro.workload.network_workload import NetworkWorkloadGenerator


def main() -> None:
    params = WorkloadParameters(
        num_objects=1_000,
        max_speed=70.0,
        time_duration=80.0,
        num_queries=0,
        seed=99,
    )
    network = melbourne_like(space=params.space)
    workload = NetworkWorkloadGenerator(network, params).generate(include_queries=False)
    print(f"{workload.num_objects} delivery vans on the {network.name} network")

    partitioning = VelocityAnalyzer(k=2).analyze(workload.velocity_sample())
    index = make_index("Bx(VP)", partitioning=partitioning, **params.index_kwargs())

    live = {}
    for van in workload.initial_objects:
        index.insert(van)
        live[van.oid] = van
    for event in workload.update_events:
        index.update(event.old, event.new)
        live[event.new.oid] = event.new
    now = max((e.time for e in workload.update_events), default=0.0)
    vans = list(live.values())
    print(f"replayed {len(workload.update_events)} updates; clock is now t={now:.0f}")

    rng = random.Random(5)

    # --- Time-interval geofence around a depot -----------------------------
    depot_center = network.position(network.random_node(rng))
    depot = Rect.from_center(depot_center, 2_000.0, 2_000.0)
    geofence = TimeIntervalRangeQuery(
        RectangularRange(depot), start_time=now, end_time=now + 20.0, issue_time=now
    )
    hits = set(index.range_query(geofence))
    expected = {van.oid for van in vans if geofence.matches(van)}
    assert hits == expected
    print(
        f"depot geofence ({depot.width:.0f} m square): "
        f"{len(hits)} vans will enter within the next 20 ts"
    )

    # --- Moving range around a convoy ---------------------------------------
    convoy_anchor = network.position(network.random_node(rng))
    convoy_velocity = Vector(40.0, 5.0)
    convoy_query = MovingRangeQuery(
        CircularRange(center=convoy_anchor, radius=1_200.0),
        velocity=convoy_velocity,
        start_time=now,
        end_time=now + 15.0,
        issue_time=now,
    )
    hits = set(index.range_query(convoy_query))
    expected = {van.oid for van in vans if convoy_query.matches(van)}
    assert hits == expected
    print(
        f"moving convoy range (1.2 km radius, velocity {convoy_velocity.magnitude:.0f} m/ts): "
        f"{len(hits)} vans will come within range during the sweep"
    )

    sizes = index.partition_sizes()
    print("objects per partition:", {k: v for k, v in sorted(sizes.items())})


if __name__ == "__main__":
    main()
