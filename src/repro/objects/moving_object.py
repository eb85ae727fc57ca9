"""The linear-motion moving-object model (Section 2.1 of the paper).

A moving object is a point whose near-future trajectory is described by a
reference position, a velocity vector, and the reference time at which the
position was reported.  The object issues an *update* (a deletion followed
by an insertion) whenever its velocity changes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.record import value_record
from repro.geometry.vector import Vector


@value_record
class MovingObject:
    """A moving point object.

    Attributes:
        oid: unique object identifier.
        position: position at ``reference_time``.
        velocity: current velocity vector (m per timestamp in the paper's units).
        reference_time: timestamp at which ``position`` was reported.
    """

    oid: int
    position: Point
    velocity: Vector
    reference_time: float = 0.0

    def position_at(self, time: float) -> Point:
        """Predicted position at absolute time ``time`` under linear motion."""
        elapsed = time - self.reference_time
        return Point(
            self.position.x + self.velocity.vx * elapsed,
            self.position.y + self.velocity.vy * elapsed,
        )

    def as_moving_rect(self) -> MovingRect:
        """Degenerate moving rectangle used when inserting into a TPR-tree."""
        return MovingRect.from_moving_point(
            self.position, self.velocity, self.reference_time
        )

    def with_update(
        self, position: Point, velocity: Vector, reference_time: float
    ) -> "MovingObject":
        """A new snapshot of the same object after a location/velocity update."""
        return replace(
            self, position=position, velocity=velocity, reference_time=reference_time
        )

    @property
    def speed(self) -> float:
        """Scalar speed of the object."""
        return self.velocity.magnitude
