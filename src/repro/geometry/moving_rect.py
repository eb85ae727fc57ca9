"""Time-parameterized rectangles: an MBR paired with a VBR.

A :class:`MovingRect` is the fundamental bounding structure of the TPR-tree
family (Section 3.1 of the paper).  It captures a minimum bounding rectangle
(MBR) valid at a *reference time* and a velocity bounding rectangle (VBR)
whose four components give the expansion speed of each MBR edge:

* ``v_x_min`` — speed of the lower x boundary (negative means it moves left),
* ``v_x_max`` — speed of the upper x boundary,
* ``v_y_min`` / ``v_y_max`` — same for the y boundaries.

The MBR at a later time ``t`` is obtained by moving every edge at its own
speed for ``t - reference_time`` time units.
"""

from __future__ import annotations

from typing import Iterable

from repro.geometry import kernels
from repro.geometry.point import Point
from repro.geometry.record import value_record
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector


@value_record
class MovingRect:
    """A rectangle whose edges move linearly with time."""

    rect: Rect
    v_x_min: float
    v_y_min: float
    v_x_max: float
    v_y_max: float
    reference_time: float = 0.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_moving_point(
        cls, position: Point, velocity: Vector, reference_time: float = 0.0
    ) -> "MovingRect":
        """Degenerate moving rectangle for a moving point object."""
        return cls(
            rect=Rect.from_point(position),
            v_x_min=velocity.vx,
            v_y_min=velocity.vy,
            v_x_max=velocity.vx,
            v_y_max=velocity.vy,
            reference_time=reference_time,
        )

    @classmethod
    def bounding(cls, children: Iterable["MovingRect"], reference_time: float) -> "MovingRect":
        """Tight bound over ``children``, all expressed at ``reference_time``.

        Children whose reference time differs are first projected to
        ``reference_time``; the resulting MBR is the union of the projected
        MBRs and each VBR component is the extreme of the children's
        components (the rate of expansion of an edge is the fastest child
        edge in that direction — exactly the TPR-tree's bounding rule).

        The projection/union loop runs in the float kernels, so children
        already anchored at ``reference_time`` (and everything in between)
        cost no intermediate allocations; a single already-anchored child is
        returned as-is.
        """
        if not isinstance(children, (list, tuple)):
            children = list(children)
        if not children:
            raise ValueError("cannot bound an empty collection of moving rectangles")
        if len(children) == 1 and children[0].reference_time == reference_time:
            return children[0]
        x0, y0, x1, y1, vx0, vy0, vx1, vy1 = kernels.bound_extent(children, reference_time)
        return cls(
            rect=Rect(x0, y0, x1, y1),
            v_x_min=vx0,
            v_y_min=vy0,
            v_x_max=vx1,
            v_y_max=vy1,
            reference_time=reference_time,
        )

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def rect_at(self, time: float) -> Rect:
        """The (expanded) MBR at absolute time ``time``.

        The TPR-tree never shrinks bounds when projecting forward, and when
        asked about a time before the reference time it conservatively uses
        the reference-time rectangle.
        """
        elapsed = time - self.reference_time
        if elapsed <= 0.0:
            return self.rect
        return Rect(
            self.rect.x_min + self.v_x_min * elapsed,
            self.rect.y_min + self.v_y_min * elapsed,
            self.rect.x_max + self.v_x_max * elapsed,
            self.rect.y_max + self.v_y_max * elapsed,
        )

    def projected_to(self, time: float) -> "MovingRect":
        """Re-anchor the moving rectangle at a new reference time."""
        if time == self.reference_time:
            return self
        return MovingRect(
            rect=self.rect_at(time),
            v_x_min=self.v_x_min,
            v_y_min=self.v_y_min,
            v_x_max=self.v_x_max,
            v_y_max=self.v_y_max,
            reference_time=time,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def expansion_rate_x(self) -> float:
        """Rate at which the x extent grows per time unit (>= 0 for a valid bound)."""
        return self.v_x_max - self.v_x_min

    @property
    def expansion_rate_y(self) -> float:
        """Rate at which the y extent grows per time unit."""
        return self.v_y_max - self.v_y_min

    def contains(self, other: "MovingRect", start: float, end: float) -> bool:
        """Conservative containment test over the interval ``[start, end]``.

        True when ``other`` is inside this bound both at ``start`` and at
        ``end`` *and* every edge of this bound moves at least as fast
        outward; sufficient for the bounding invariant checks in tests.
        """
        return (
            self.rect_at(start).contains_rect(other.rect_at(start))
            and self.rect_at(end).contains_rect(other.rect_at(end))
            and self.v_x_min <= other.v_x_min
            and self.v_y_min <= other.v_y_min
            and self.v_x_max >= other.v_x_max
            and self.v_y_max >= other.v_y_max
        )

    def intersects_during(self, other: "MovingRect", start: float, end: float) -> bool:
        """Whether two moving rectangles intersect at any time in ``[start, end]``.

        The boundaries are piecewise linear in time (frozen before their
        reference time), so the window is split at any reference time falling
        strictly inside it and each purely linear piece is solved exactly:
        per axis the sub-interval during which the projections overlap, then
        the rectangles intersect iff the per-axis intervals share a point.
        In index workloads the reference times precede the window, making the
        whole window one linear piece — that common case is also what the
        float kernel in :func:`repro.geometry.kernels.intersects_interval`
        inlines.
        """
        if end < start:
            raise ValueError("end must not precede start")
        cuts = {start, end}
        for ref in (self.reference_time, other.reference_time):
            if start < ref < end:
                cuts.add(ref)
        points = sorted(cuts)
        pieces = list(zip(points, points[1:])) or [(start, end)]
        for lo, hi in pieces:
            if self._intersects_linear_piece(other, lo, hi):
                return True
        return False

    def _intersects_linear_piece(self, other: "MovingRect", lo: float, hi: float) -> bool:
        """Intersection test over ``[lo, hi]`` with no reference time inside.

        Each rectangle is either frozen for the whole piece (its reference
        time is at or past ``hi``) or moves linearly with its full VBR.
        """
        duration = hi - lo

        def axis_window(a_lo, a_hi, a_v_lo, a_v_hi, a_ref, b_lo, b_hi, b_v_lo, b_v_hi, b_ref):
            if a_ref <= lo:
                a_lo += a_v_lo * (lo - a_ref)
                a_hi += a_v_hi * (lo - a_ref)
            else:  # frozen for the whole piece
                a_v_lo = a_v_hi = 0.0
            if b_ref <= lo:
                b_lo += b_v_lo * (lo - b_ref)
                b_hi += b_v_hi * (lo - b_ref)
            else:
                b_v_lo = b_v_hi = 0.0
            return _linear_overlap_interval(
                a_lo, a_hi, a_v_lo, a_v_hi, b_lo, b_hi, b_v_lo, b_v_hi, 0.0, duration, lo
            )

        x_window = axis_window(
            self.rect.x_min,
            self.rect.x_max,
            self.v_x_min,
            self.v_x_max,
            self.reference_time,
            other.rect.x_min,
            other.rect.x_max,
            other.v_x_min,
            other.v_x_max,
            other.reference_time,
        )
        if x_window is None:
            return False
        y_window = axis_window(
            self.rect.y_min,
            self.rect.y_max,
            self.v_y_min,
            self.v_y_max,
            self.reference_time,
            other.rect.y_min,
            other.rect.y_max,
            other.v_y_min,
            other.v_y_max,
            other.reference_time,
        )
        if y_window is None:
            return False
        return max(x_window[0], y_window[0]) <= min(x_window[1], y_window[1])


def _linear_overlap_interval(
    a_lo: float,
    a_hi: float,
    a_v_lo: float,
    a_v_hi: float,
    b_lo: float,
    b_hi: float,
    b_v_lo: float,
    b_v_hi: float,
    t0: float,
    t1: float,
    offset: float,
):
    """Overlap interval of two linearly moving 1-D intervals over ``[t0, t1]``.

    All positions are given at local time ``t0``; ``offset`` converts local
    times back to absolute times in the returned pair.
    """
    # Overlap requires a_lo(t) <= b_hi(t) and b_lo(t) <= a_hi(t).
    lo, hi = t0, t1
    for (p, pv, q, qv) in (
        (a_lo, a_v_lo, b_hi, b_v_hi),  # a_lo <= b_hi
        (b_lo, b_v_lo, a_hi, a_v_hi),  # b_lo <= a_hi
    ):
        # Constraint: p + pv * (t - t0) <= q + qv * (t - t0)
        diff0 = p - q
        rate = pv - qv
        if rate == 0.0:
            if diff0 > 1e-12:
                return None
            continue
        crossing = t0 - diff0 / rate
        if rate > 0.0:
            # Constraint satisfied for t <= crossing.
            hi = min(hi, crossing)
        else:
            lo = max(lo, crossing)
        if lo > hi:
            return None
    if lo > hi:
        return None
    return (lo + (offset - t0), hi + (offset - t0))
