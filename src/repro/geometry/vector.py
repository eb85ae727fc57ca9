"""2-D vector type used for object velocities and DVA directions."""

from __future__ import annotations

import math
from typing import Iterator, Tuple

from repro.geometry.record import value_record


@value_record
class Vector:
    """A 2-D vector.

    Velocities in the paper live in "velocity space": a velocity is a 2-D
    point whose coordinates are the speed along the x- and y-axes.  The same
    type also represents dominant velocity axes (DVAs), which are unit
    vectors produced by PCA.
    """

    vx: float
    vy: float

    def __iter__(self) -> Iterator[float]:
        yield self.vx
        yield self.vy

    def as_tuple(self) -> Tuple[float, float]:
        """Return the vector as a ``(vx, vy)`` tuple."""
        return (self.vx, self.vy)

    @property
    def magnitude(self) -> float:
        """Euclidean length of the vector (the object's speed)."""
        return math.hypot(self.vx, self.vy)

    @property
    def angle(self) -> float:
        """Angle of the vector in radians, in ``(-pi, pi]``."""
        return math.atan2(self.vy, self.vx)

    def normalized(self) -> "Vector":
        """Return a unit vector in the same direction.

        Raises:
            ValueError: if the vector is the zero vector.
        """
        mag = self.magnitude
        if mag == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vector(self.vx / mag, self.vy / mag)

    def dot(self, other: "Vector") -> float:
        """Dot product with ``other``."""
        return self.vx * other.vx + self.vy * other.vy

    def cross(self, other: "Vector") -> float:
        """2-D cross product (signed area) with ``other``."""
        return self.vx * other.vy - self.vy * other.vx

    def scaled(self, factor: float) -> "Vector":
        """Return the vector scaled by ``factor``."""
        return Vector(self.vx * factor, self.vy * factor)

    def rotated(self, angle: float) -> "Vector":
        """Return the vector rotated counter-clockwise by ``angle`` radians."""
        cos_a = math.cos(angle)
        sin_a = math.sin(angle)
        return Vector(
            self.vx * cos_a - self.vy * sin_a,
            self.vx * sin_a + self.vy * cos_a,
        )

    def perpendicular(self) -> "Vector":
        """Return the vector rotated by +90 degrees."""
        return Vector(-self.vy, self.vx)

    def perpendicular_distance_to_axis(self, axis: "Vector") -> float:
        """Perpendicular distance from this velocity point to the axis ``axis``.

        The axis is treated as an infinite line through the origin in the
        direction of ``axis``.  This is the distance measure used by the
        paper's DVA clustering (Algorithm 2) and by the outlier test
        (Section 5.2): the component of the velocity orthogonal to the DVA.
        """
        unit = axis.normalized()
        return abs(self.cross(unit))

    def component_along(self, axis: "Vector") -> float:
        """Signed component of this vector along the (normalized) ``axis``."""
        return self.dot(axis.normalized())

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(self.vx + other.vx, self.vy + other.vy)

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(self.vx - other.vx, self.vy - other.vy)

    def __neg__(self) -> "Vector":
        return Vector(-self.vx, -self.vy)
