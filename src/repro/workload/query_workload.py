"""Range-query workload generation."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.objects.queries import (
    CircularRange,
    RangeQuery,
    RectangularRange,
    TimeSliceRangeQuery,
)
from repro.workload.events import QueryEvent
from repro.workload.parameters import WorkloadParameters


class QueryWorkloadGenerator:
    """Generates predictive range queries spread uniformly over the duration.

    The default query is the paper's default: a circular time-slice range
    query with a random center, fixed radius, and a fixed predictive time
    (the query asks about ``issue_time + predictive_time``).  Rectangular
    queries use a square window of the configured side length.
    """

    def __init__(self, params: WorkloadParameters, seed: Optional[int] = None) -> None:
        self.params = params
        self._rng = random.Random(params.seed if seed is None else seed)

    def generate(self) -> List[QueryEvent]:
        """Query events spread over ``[0, time_duration]``."""
        events: List[QueryEvent] = []
        count = self.params.num_queries
        if count <= 0:
            return events
        duration = self.params.time_duration
        for index in range(count):
            issue_time = duration * index / count
            events.append(QueryEvent(time=issue_time, query=self.make_query(issue_time)))
        return events

    def make_query(self, issue_time: float) -> RangeQuery:
        """A single query issued at ``issue_time``."""
        predictive_time = self.params.query_predictive_time
        center = self._random_center()
        if self.params.rectangular_queries:
            half = self.params.rectangle_side / 2.0
            spatial = RectangularRange(Rect.from_center(center, half, half))
        else:
            spatial = CircularRange(center=center, radius=self.params.query_radius)
        return TimeSliceRangeQuery(
            spatial, time=issue_time + predictive_time, issue_time=issue_time
        )

    def _random_center(self) -> Point:
        space = self.params.space
        return Point(
            self._rng.uniform(space.x_min, space.x_max),
            self._rng.uniform(space.y_min, space.y_max),
        )
