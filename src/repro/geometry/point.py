"""2-D point type.

Points are immutable value objects.  They intentionally carry only the two
coordinates; anything that moves is modeled by :class:`repro.objects.MovingObject`,
which pairs a reference :class:`Point` with a :class:`repro.geometry.Vector`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Tuple

from repro.geometry.record import value_record

if TYPE_CHECKING:  # pragma: no cover - import used only for type hints
    from repro.geometry.vector import Vector


@value_record
class Point:
    """A point in the 2-D data space.

    Attributes:
        x: coordinate along the first dimension (meters in the paper's setup).
        y: coordinate along the second dimension.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def as_tuple(self) -> Tuple[float, float]:
        """Return the point as an ``(x, y)`` tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance between this point and ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt when only comparing)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def at_time(self, velocity: "Vector", elapsed: float) -> "Point":
        """Project the point along ``velocity`` for ``elapsed`` time units."""
        return Point(self.x + velocity.vx * elapsed, self.y + velocity.vy * elapsed)
