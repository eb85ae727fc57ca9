"""Axis-aligned rectangle type.

Rectangles are used as MBRs of index nodes, as rectangular range queries,
and as the bounding boxes of transformed (rotated) circular queries.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Tuple

from repro.geometry.point import Point
from repro.geometry.record import value_record


@value_record
class Rect:
    """Axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``.

    A rectangle may be degenerate (zero width and/or height), which is how a
    point is represented when inserted into an R-tree-family index.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(
                "invalid rectangle: "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Point) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return cls(point.x, point.y, point.x, point.y)

    @classmethod
    def from_center(cls, center: Point, half_width: float, half_height: float) -> "Rect":
        """Rectangle centered on ``center`` with the given half extents."""
        return cls(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimum bounding rectangle of a non-empty collection of rectangles."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot bound an empty collection of rectangles")
        return cls(
            min(r.x_min for r in rects),
            min(r.y_min for r in rects),
            max(r.x_max for r in rects),
            max(r.y_max for r in rects),
        )

    @classmethod
    def bounding_points(cls, points: Iterable[Point]) -> "Rect":
        """Minimum bounding rectangle of a non-empty collection of points."""
        points = list(points)
        if not points:
            raise ValueError("cannot bound an empty collection of points")
        return cls(
            min(p.x for p in points),
            min(p.y for p in points),
            max(p.x for p in points),
            max(p.y for p in points),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def corners(self) -> Iterator[Point]:
        """Yield the four corner points."""
        yield Point(self.x_min, self.y_min)
        yield Point(self.x_max, self.y_min)
        yield Point(self.x_max, self.y_max)
        yield Point(self.x_min, self.y_max)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Point) -> bool:
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x_min > self.x_max
            or other.x_max < self.x_min
            or other.y_min > self.y_max
            or other.y_max < self.y_min
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x_min, other.x_min),
            min(self.y_min, other.y_min),
            max(self.x_max, other.x_max),
            max(self.y_max, other.y_max),
        )

    def intersection(self, other: "Rect") -> "Rect":
        """Intersection rectangle.

        Raises:
            ValueError: if the rectangles do not intersect.
        """
        if not self.intersects(other):
            raise ValueError("rectangles do not intersect")
        return Rect(
            max(self.x_min, other.x_min),
            max(self.y_min, other.y_min),
            min(self.x_max, other.x_max),
            min(self.y_max, other.y_max),
        )

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap, 0.0 when disjoint."""
        dx = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        dy = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def enlarged(self, margin_x: float, margin_y: float) -> "Rect":
        """Rectangle grown by ``margin_x`` on each side in x and ``margin_y`` in y."""
        return Rect(
            self.x_min - margin_x,
            self.y_min - margin_y,
            self.x_max + margin_x,
            self.y_max + margin_y,
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def min_distance_to_point(self, point: Point) -> float:
        """Minimum Euclidean distance from the rectangle to ``point``."""
        dx = max(self.x_min - point.x, 0.0, point.x - self.x_max)
        dy = max(self.y_min - point.y, 0.0, point.y - self.y_max)
        return math.hypot(dx, dy)
