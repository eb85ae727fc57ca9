"""Dominant velocity axes (DVAs) and their coordinate frames.

A DVA is a unit axis in velocity space along which most objects travel
(Section 1 of the paper).  Each DVA induces a rotated coordinate frame whose
x-axis is the DVA direction; the objects of the DVA's partition are indexed
in that frame so that their movement is (nearly) one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject


@dataclass(frozen=True)
class CoordinateFrame:
    """A rotated (orthonormal, right-handed) coordinate frame about the origin.

    The frame maps original coordinates to the frame's coordinates by
    projecting onto ``axis`` (new x) and ``axis.perpendicular()`` (new y).
    Rotation preserves distances, so circles stay circles and velocities keep
    their magnitudes — which is why the VP query transformation only needs an
    axis-aligned MBR plus a final filter (Algorithm 3).
    """

    axis: Vector

    def __post_init__(self) -> None:
        magnitude = self.axis.magnitude
        if abs(magnitude - 1.0) > 1e-9:
            if magnitude == 0.0:
                raise ValueError("frame axis cannot be the zero vector")
            object.__setattr__(self, "axis", self.axis.normalized())

    @property
    def normal(self) -> Vector:
        """Unit vector orthogonal to the axis (the frame's y direction)."""
        return self.axis.perpendicular()

    # ------------------------------------------------------------------
    # Forward transform (original -> frame)
    # ------------------------------------------------------------------
    def to_frame_point(self, point: Point) -> Point:
        """Express an original-frame point in the frame's coordinates."""
        as_vector = Vector(point.x, point.y)
        return Point(as_vector.dot(self.axis), as_vector.dot(self.normal))

    def to_frame_vector(self, vector: Vector) -> Vector:
        """Express an original-frame vector in the frame's coordinates."""
        return Vector(vector.dot(self.axis), vector.dot(self.normal))

    def to_frame_object(self, obj: MovingObject) -> MovingObject:
        """Express a moving object in the frame's coordinates.

        Inlines the rotation arithmetic (bit-identical to the point/vector
        helpers and to :meth:`to_frame_arrays`) because the index manager
        rotates every batch below :data:`~repro.bulk.MIN_VECTOR_BATCH`
        objects through it, where the intermediate ``Vector`` allocations
        are measurable.
        """
        ax, ay = self.axis.vx, self.axis.vy
        position = obj.position
        velocity = obj.velocity
        return MovingObject(
            oid=obj.oid,
            position=Point(
                position.x * ax + position.y * ay,
                position.x * -ay + position.y * ax,
            ),
            velocity=Vector(
                velocity.vx * ax + velocity.vy * ay,
                velocity.vx * -ay + velocity.vy * ax,
            ),
            reference_time=obj.reference_time,
        )

    def to_frame_arrays(self, xs, ys):
        """Rotate parallel coordinate arrays into the frame (vectorized).

        ``xs``/``ys`` are numpy arrays of x/y components (positions or
        velocities — the same rigid rotation applies to both).  Returns the
        rotated component arrays.  The arithmetic is element-for-element the
        same as :meth:`to_frame_object`, so scalars and arrays produce
        bit-identical coordinates — which is what lets the index manager
        rotate a whole update batch in one pass without perturbing query
        answers.
        """
        ax, ay = self.axis.vx, self.axis.vy
        return xs * ax + ys * ay, xs * -ay + ys * ax

    def to_frame_rect(self, rect: Rect) -> Rect:
        """Axis-aligned MBR (in the frame) of the transformed rectangle."""
        corners = [self.to_frame_point(c) for c in rect.corners()]
        return Rect.bounding_points(corners)


@dataclass(frozen=True)
class DominantVelocityAxis:
    """A DVA together with its outlier threshold.

    Attributes:
        axis: unit vector of the dominant direction (sign is irrelevant —
            objects travel both ways along a road).
        tau: maximum perpendicular speed (distance from the axis in velocity
            space) accepted by this DVA's partition; objects farther from
            every DVA go to the outlier partition.
        frame: the rotated coordinate frame induced by the axis.
    """

    axis: Vector
    tau: float = float("inf")
    frame: CoordinateFrame = field(init=False)

    def __post_init__(self) -> None:
        unit = self.axis.normalized()
        object.__setattr__(self, "axis", unit)
        object.__setattr__(self, "frame", CoordinateFrame(unit))
        if self.tau < 0:
            raise ValueError("tau must be non-negative")

    @cached_property
    def unit_axis(self) -> Vector:
        """``axis.normalized()``, computed once.

        Not ``axis`` itself: re-normalizing a unit vector can move its last
        bit, and routing measures against the re-normalized axis, as
        ``Vector.perpendicular_distance_to_axis`` does.  It is no dataclass
        field: equality and hashing stay those of ``(axis, tau, frame)``,
        and a DVA pickled without the cached value computes it on first use.
        """
        return self.axis.normalized()

    def perpendicular_speed(self, velocity: Vector) -> float:
        """Perpendicular distance from a velocity point to this axis.

        ``velocity.perpendicular_distance_to_axis(self.axis)`` without
        normalizing the axis again on every call.
        """
        return abs(velocity.cross(self.unit_axis))

    def accepts(self, velocity: Vector) -> bool:
        """Whether an object with ``velocity`` may live in this DVA's partition."""
        return self.perpendicular_speed(velocity) <= self.tau

    def angle_degrees(self) -> float:
        """Orientation of the axis in degrees, folded into [0, 180)."""
        import math

        angle = math.degrees(self.axis.angle)
        return angle % 180.0

    def with_tau(self, tau: float) -> "DominantVelocityAxis":
        """Copy of the DVA with a refreshed outlier threshold."""
        return DominantVelocityAxis(axis=self.axis, tau=tau)
