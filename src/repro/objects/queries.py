"""Predictive range query types (Section 2.1 of the paper).

Three query types are supported:

* **time-slice range query** — objects inside the range at one future timestamp;
* **time-interval range query** — objects inside the range at any time within
  a future interval;
* **moving range query** — the range itself moves with a velocity during the
  interval.

The range shape is either rectangular or circular (the paper's default is a
circular range of radius 100-1000 m).  Every query knows how to decide, for
a given :class:`~repro.objects.MovingObject`, whether the object qualifies —
this exact predicate is the ground truth used by tests and by the final
filtering step of the VP range-query algorithm (Algorithm 3, line 8).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.record import value_record
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject


@value_record
class CircularRange:
    """A circular spatial range."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("radius must be non-negative")

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside (or on) the circle."""
        return self.center.squared_distance_to(point) <= self.radius * self.radius

    def bounding_rect(self) -> Rect:
        """Axis-aligned MBR of the circle."""
        return Rect.from_center(self.center, self.radius, self.radius)


@value_record
class RectangularRange:
    """A rectangular spatial range."""

    rect: Rect

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside (or on) the rectangle."""
        return self.rect.contains_point(point)

    def bounding_rect(self) -> Rect:
        """The rectangle itself (already an axis-aligned MBR)."""
        return self.rect

    @property
    def center(self) -> Point:
        """Center of the rectangle."""
        return self.rect.center


SpatialRange = Union[CircularRange, RectangularRange]


@value_record
class RangeQuery:
    """A predictive range query.

    Attributes:
        range: the spatial range (circular or rectangular), given at ``issue_time``.
        start_time: start of the query time interval (absolute timestamp).
        end_time: end of the query time interval; equal to ``start_time`` for
            a time-slice query.
        velocity: velocity of the range itself (moving range query); ``None``
            for a stationary range.
        issue_time: the time the query was issued (current time); the range is
            anchored at this time and projected forward when it moves.
    """

    range: SpatialRange
    start_time: float
    end_time: float
    velocity: Optional[Vector] = None
    issue_time: float = 0.0

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError("end_time must not precede start_time")
        if self.start_time < self.issue_time:
            raise ValueError("query interval cannot start before the issue time")

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_time_slice(self) -> bool:
        """Whether the query asks about one instant with a stationary range."""
        return self.end_time == self.start_time and self.velocity is None

    @property
    def is_moving(self) -> bool:
        """Whether the range itself moves during the interval."""
        return self.velocity is not None

    @property
    def predictive_time(self) -> float:
        """How far into the future the query looks (from the issue time)."""
        return self.end_time - self.issue_time

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def range_at(self, time: float) -> SpatialRange:
        """The spatial range at absolute ``time`` (moved if the query moves)."""
        if self.velocity is None or time == self.issue_time:
            return self.range
        elapsed = time - self.issue_time
        dx = self.velocity.vx * elapsed
        dy = self.velocity.vy * elapsed
        if isinstance(self.range, CircularRange):
            return CircularRange(self.range.center.translate(dx, dy), self.range.radius)
        return RectangularRange(self.range.rect.translated(dx, dy))

    def bounding_rect_over_interval(self) -> Rect:
        """MBR covering the range over the whole query interval."""
        start_rect = self.range_at(self.start_time).bounding_rect()
        end_rect = self.range_at(self.end_time).bounding_rect()
        return start_rect.union(end_rect)

    def as_moving_rect(self) -> MovingRect:
        """The query as a moving rectangle anchored at ``start_time``.

        Used by the TPR cost model and by the TPR-tree search, which both
        reason about the query's bounding rectangle and velocity.
        """
        rect = self.range_at(self.start_time).bounding_rect()
        vx = self.velocity.vx if self.velocity is not None else 0.0
        vy = self.velocity.vy if self.velocity is not None else 0.0
        return MovingRect(
            rect=rect,
            v_x_min=vx,
            v_y_min=vy,
            v_x_max=vx,
            v_y_max=vy,
            reference_time=self.start_time,
        )

    # ------------------------------------------------------------------
    # Exact qualification predicate
    # ------------------------------------------------------------------
    def matches(self, obj: MovingObject) -> bool:
        """Whether ``obj`` qualifies for this query (exact for our query types).

        For a stationary range the object's relative trajectory is linear, so
        containment over the interval can be decided from the minimum
        distance (circular range) or from a per-axis interval intersection
        (rectangular range).  For a moving range we subtract the query
        velocity from the object velocity, reducing to the stationary case.
        """
        return self.matches_motion(
            obj.position.x,
            obj.position.y,
            obj.velocity.vx,
            obj.velocity.vy,
            obj.reference_time,
        )

    def matches_motion(
        self, x: float, y: float, vx: float, vy: float, reference_time: float
    ) -> bool:
        """Flat-motion-state twin of :meth:`matches` (the leaf-filter hot path).

        Index scans hold candidate positions and velocities as plain floats
        (a degenerate leaf bound, a B+-tree record); this entry point decides
        qualification without reconstructing ``MovingObject``/``Point``/
        ``Vector`` objects per candidate.
        """
        rel_vx, rel_vy = vx, vy
        if self.velocity is not None:
            rel_vx -= self.velocity.vx
            rel_vy -= self.velocity.vy
        # Object position relative to the (possibly moving) range, expressed
        # in the frame where the range is fixed at its start_time location.
        start_range = self.range_at(self.start_time)
        elapsed = self.start_time - reference_time
        px = x + vx * elapsed
        py = y + vy * elapsed
        duration = self.end_time - self.start_time

        if isinstance(start_range, CircularRange):
            center = start_range.center
            return kernels.segment_intersects_circle(
                px, py, rel_vx, rel_vy, duration, center.x, center.y, start_range.radius
            )
        rect = start_range.rect
        return kernels.segment_intersects_rect(
            px, py, rel_vx, rel_vy, duration, rect.x_min, rect.y_min, rect.x_max, rect.y_max
        )

    def matches_rows(self, rows: np.ndarray) -> np.ndarray:
        """Array twin of :meth:`matches_motion`: one boolean per :data:`MOTION` row.

        ``rows`` is a ``repro.objects.knn.MOTION`` array (``oid``, ``x``,
        ``y``, ``vx``, ``vy``, ``t``).  The arithmetic is
        :meth:`matches_motion`'s, operation for operation, through the row
        twins of its kernels, so each row gets exactly the boolean the
        scalar predicate gives that row's object.  It is the predicate of
        the VP range filter (Algorithm 3, Line 8) and of the serving
        layer's brute-force model.
        """
        vx = rows["vx"]
        vy = rows["vy"]
        rel_vx, rel_vy = vx, vy
        if self.velocity is not None:
            rel_vx = vx - self.velocity.vx
            rel_vy = vy - self.velocity.vy
        start_range = self.range_at(self.start_time)
        elapsed = self.start_time - rows["t"]
        px = rows["x"] + vx * elapsed
        py = rows["y"] + vy * elapsed
        duration = self.end_time - self.start_time

        if isinstance(start_range, CircularRange):
            center = start_range.center
            return kernels.segment_intersects_circle_rows(
                px, py, rel_vx, rel_vy, duration, center.x, center.y, start_range.radius
            )
        rect = start_range.rect
        return kernels.segment_intersects_rect_rows(
            px, py, rel_vx, rel_vy, duration, rect.x_min, rect.y_min, rect.x_max, rect.y_max
        )


# ----------------------------------------------------------------------
# Convenience constructors for the three query types of Section 2.1
# ----------------------------------------------------------------------
def TimeSliceRangeQuery(
    range: SpatialRange, time: float, issue_time: float = 0.0
) -> RangeQuery:
    """Objects inside ``range`` at the single future timestamp ``time``."""
    return RangeQuery(range=range, start_time=time, end_time=time, issue_time=issue_time)


def TimeIntervalRangeQuery(
    range: SpatialRange, start_time: float, end_time: float, issue_time: float = 0.0
) -> RangeQuery:
    """Objects inside ``range`` at any time in ``[start_time, end_time]``."""
    return RangeQuery(
        range=range, start_time=start_time, end_time=end_time, issue_time=issue_time
    )


def MovingRangeQuery(
    range: SpatialRange,
    velocity: Vector,
    start_time: float,
    end_time: float,
    issue_time: float = 0.0,
) -> RangeQuery:
    """Objects intersecting the moving ``range`` during ``[start_time, end_time]``."""
    return RangeQuery(
        range=range,
        velocity=velocity,
        start_time=start_time,
        end_time=end_time,
        issue_time=issue_time,
    )
