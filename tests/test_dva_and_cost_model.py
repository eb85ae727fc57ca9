"""Tests for DVA coordinate frames and the analytic cost model of Section 4."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost_model import (
    compare,
    crossover_time,
    partitioned_search_area,
    partitioned_search_volume,
    search_volume_difference,
    search_volume_difference_rate,
    unpartitioned_search_area,
    unpartitioned_search_volume,
)
from repro.core.dva import CoordinateFrame, DominantVelocityAxis
from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.sweep import sweeping_area
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject

angles = st.floats(min_value=-math.pi, max_value=math.pi)
coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


class TestCoordinateFrame:
    def test_axis_is_normalized(self):
        frame = CoordinateFrame(Vector(3.0, 4.0))
        assert frame.axis.magnitude == pytest.approx(1.0)

    def test_zero_axis_raises(self):
        with pytest.raises(ValueError):
            CoordinateFrame(Vector(0.0, 0.0))

    def test_identity_frame(self):
        frame = CoordinateFrame(Vector(1.0, 0.0))
        assert frame.to_frame_point(Point(3.0, 4.0)) == Point(3.0, 4.0)

    def test_quarter_turn_frame(self):
        frame = CoordinateFrame(Vector(0.0, 1.0))
        transformed = frame.to_frame_point(Point(3.0, 4.0))
        assert transformed.x == pytest.approx(4.0)
        assert transformed.y == pytest.approx(-3.0)

    @settings(max_examples=100, deadline=None)
    @given(angles, coords, coords, coords, coords)
    def test_rotation_preserves_distances(self, angle, x1, y1, x2, y2):
        frame = CoordinateFrame(Vector(math.cos(angle), math.sin(angle)))
        a, b = Point(x1, y1), Point(x2, y2)
        original = a.distance_to(b)
        rotated = frame.to_frame_point(a).distance_to(frame.to_frame_point(b))
        assert rotated == pytest.approx(original, rel=1e-9, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(angles, coords, coords)
    def test_vector_rotation_preserves_magnitude(self, angle, vx, vy):
        frame = CoordinateFrame(Vector(math.cos(angle), math.sin(angle)))
        v = Vector(vx, vy)
        assert frame.to_frame_vector(v).magnitude == pytest.approx(v.magnitude, abs=1e-6)

    def test_rect_transform_bounds_rotated_corners(self):
        frame = CoordinateFrame(Vector(math.cos(0.3), math.sin(0.3)))
        rect = Rect(0.0, 0.0, 10.0, 4.0)
        bound = frame.to_frame_rect(rect)
        for corner in rect.corners():
            transformed = frame.to_frame_point(corner)
            assert bound.contains_point(transformed)

    def test_object_transform_keeps_oid_and_time(self):
        frame = CoordinateFrame(Vector(0.0, 1.0))
        obj = MovingObject(5, Point(1.0, 2.0), Vector(3.0, 4.0), 7.0)
        transformed = frame.to_frame_object(obj)
        assert transformed.oid == 5
        assert transformed.reference_time == 7.0
        assert transformed.speed == pytest.approx(obj.speed)

    def test_trajectory_commutes_with_transform(self):
        """Transforming then projecting equals projecting then transforming."""
        frame = CoordinateFrame(Vector(math.cos(1.1), math.sin(1.1)))
        obj = MovingObject(1, Point(10.0, -5.0), Vector(2.0, 3.0), 0.0)
        direct = frame.to_frame_point(obj.position_at(13.0))
        via_frame = frame.to_frame_object(obj).position_at(13.0)
        assert direct.x == pytest.approx(via_frame.x, abs=1e-9)
        assert direct.y == pytest.approx(via_frame.y, abs=1e-9)


class TestDominantVelocityAxis:
    def test_axis_normalized_and_tau_checked(self):
        dva = DominantVelocityAxis(axis=Vector(2.0, 0.0), tau=3.0)
        assert dva.axis.magnitude == pytest.approx(1.0)
        with pytest.raises(ValueError):
            DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=-1.0)

    def test_accepts_respects_tau(self):
        dva = DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=2.0)
        assert dva.accepts(Vector(100.0, 1.5))
        assert not dva.accepts(Vector(100.0, 2.5))

    def test_angle_degrees_folded(self):
        dva = DominantVelocityAxis(axis=Vector(-1.0, 0.0))
        assert dva.angle_degrees() == pytest.approx(0.0) or dva.angle_degrees() == pytest.approx(180.0) % 180

    def test_with_tau(self):
        dva = DominantVelocityAxis(axis=Vector(0.0, 1.0), tau=5.0)
        assert dva.with_tau(1.0).tau == 1.0
        assert dva.with_tau(1.0).axis == dva.axis


class TestCostModelEquations:
    def test_equation2_matches_sweeping_area(self):
        """Equation 2 is the swept area of the transformed node: a d x d square
        expanding at speed v on all sides."""
        d, v = 10.0, 3.0
        node = MovingRect(Rect(0, 0, d, d), -v, -v, v, v)
        for t in (0.0, 1.0, 5.0, 20.0):
            assert sweeping_area(node, t) == pytest.approx(unpartitioned_search_area(d, v, t))

    def test_equation3_is_linear_in_time(self):
        d, v = 10.0, 3.0
        a1 = partitioned_search_area(d, v, 1.0) - partitioned_search_area(d, v, 0.0)
        a2 = partitioned_search_area(d, v, 2.0) - partitioned_search_area(d, v, 1.0)
        assert a1 == pytest.approx(a2)

    def test_equations_4_and_5_are_integrals_of_2_and_3(self):
        d, v, th = 8.0, 2.5, 17.0
        steps = 20000
        dt = th / steps
        numeric_unpart = sum(
            unpartitioned_search_area(d, v, (i + 0.5) * dt) for i in range(steps)
        ) * dt
        numeric_part = sum(
            partitioned_search_area(d, v, (i + 0.5) * dt) for i in range(steps)
        ) * dt
        assert unpartitioned_search_volume(d, v, th) == pytest.approx(numeric_unpart, rel=1e-4)
        assert partitioned_search_volume(d, v, th) == pytest.approx(numeric_part, rel=1e-4)

    def test_equation6_consistency(self):
        d, v, th = 5.0, 1.5, 9.0
        assert search_volume_difference(d, v, th) == pytest.approx(
            partitioned_search_volume(d, v, th) - unpartitioned_search_volume(d, v, th)
        )

    def test_equation7_is_derivative_of_equation6(self):
        d, v, th, eps = 5.0, 1.5, 9.0, 1e-6
        numeric = (
            search_volume_difference(d, v, th + eps) - search_volume_difference(d, v, th - eps)
        ) / (2 * eps)
        assert search_volume_difference_rate(d, v, th) == pytest.approx(numeric, rel=1e-4)

    def test_crossover_time_formula(self):
        d, v = 12.0, 4.0
        t_cross = crossover_time(d, v)
        assert t_cross == pytest.approx(d * math.sqrt(3.0) / (2.0 * v))
        assert search_volume_difference(d, v, t_cross * 0.99) > 0.0
        assert search_volume_difference(d, v, t_cross * 1.01) < 0.0

    def test_crossover_undefined_for_stationary(self):
        with pytest.raises(ValueError):
            crossover_time(10.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            unpartitioned_search_area(-1.0, 1.0, 1.0)

    def test_partitioned_wins_eventually_and_by_growing_margin(self):
        d, v = 10.0, 5.0
        comparison_early = compare(d, v, 0.5)
        comparison_late = compare(d, v, 60.0)
        assert comparison_early.improvement_factor < 1.5
        assert comparison_late.improvement_factor > 10.0
