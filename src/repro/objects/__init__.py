"""Moving-object data model and query types."""

from repro.objects.moving_object import MovingObject
from repro.objects.queries import (
    RangeQuery,
    CircularRange,
    RectangularRange,
    TimeSliceRangeQuery,
    TimeIntervalRangeQuery,
    MovingRangeQuery,
)
from repro.objects.knn import (
    KNNQuery,
    expanding_knn_batch,
)

__all__ = [
    "MovingObject",
    "RangeQuery",
    "CircularRange",
    "RectangularRange",
    "TimeSliceRangeQuery",
    "TimeIntervalRangeQuery",
    "MovingRangeQuery",
    "KNNQuery",
    "expanding_knn_batch",
]
