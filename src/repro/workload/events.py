"""Workload event types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Union

from repro.geometry.rect import Rect
from repro.geometry.record import value_record
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery


@value_record
class UpdateEvent:
    """A velocity/position update for one object (deletion + insertion)."""

    time: float
    old: MovingObject
    new: MovingObject

    def __post_init__(self) -> None:
        if self.old.oid != self.new.oid:
            raise ValueError("an update must keep the object id")


@value_record
class QueryEvent:
    """A predictive range query issued at ``time``."""

    time: float
    query: RangeQuery


Event = Union[UpdateEvent, QueryEvent]


@dataclass
class Workload:
    """A complete benchmark workload.

    Attributes:
        name: dataset name (CH, SA, MEL, NY, uniform, ...).
        space: data space of the workload.
        initial_objects: objects present at time 0 (the index is bulk-built
            from these before the event stream starts).
        events: time-ordered update and query events.
        max_speed: maximum object speed used by the generator.
        max_update_interval: maximum time between two updates of one object.
    """

    name: str
    space: Rect
    initial_objects: List[MovingObject]
    events: List[Event] = field(default_factory=list)
    max_speed: float = 0.0
    max_update_interval: float = 120.0

    @property
    def num_objects(self) -> int:
        return len(self.initial_objects)

    @property
    def update_events(self) -> List[UpdateEvent]:
        return [e for e in self.events if isinstance(e, UpdateEvent)]

    @property
    def query_events(self) -> List[QueryEvent]:
        return [e for e in self.events if isinstance(e, QueryEvent)]

    def velocity_sample(self, limit: int = 10_000) -> List[Vector]:
        """Velocity points of (up to ``limit``) initial objects.

        This is the sample the velocity analyzer consumes; the paper uses
        10,000 sample velocity points.
        """
        velocities = [obj.velocity for obj in self.initial_objects[:limit]]
        return velocities

    def sorted_events(self) -> List[Event]:
        """Events in time order (stable for equal timestamps)."""
        return sorted(self.events, key=lambda e: e.time)

    def grouped_events(self, window: float = 0.0) -> List[List[Event]]:
        """Sorted events grouped into same-window, same-type batches.

        Each batch is a maximal run of consecutive events that share a type
        (all updates or all queries) and fall in the same time window, in
        the same relative order as :meth:`sorted_events` — replaying the
        batches in sequence is behaviorally identical to replaying the flat
        stream, because a batch never spans a type change (a query always
        sees exactly the updates that precede it).

        Args:
            window: width of the grouping window in timestamps.  ``0``
                (the default) groups only events with exactly equal
                timestamps; event times are continuous in the generated
                workloads, so those batches are almost always singletons.
                A positive window buckets events by ``floor(time /
                window)`` — the granularity at which a real tracker would
                group co-arriving reports — which is what gives the batch
                execution path actual batches to amortize.
        """
        batches: List[List[Event]] = []
        last_bucket: object = None
        for event in self.sorted_events():
            bucket = event.time if window <= 0.0 else math.floor(event.time / window)
            if (
                batches
                and bucket == last_bucket
                and type(batches[-1][0]) is type(event)
            ):
                batches[-1].append(event)
            else:
                batches.append([event])
                last_bucket = bucket
        return batches
