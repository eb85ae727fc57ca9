"""Unit tests for Point and Vector."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.vector import Vector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance_to_is_euclidean(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_squared_distance_matches_distance(self):
        a, b = Point(1.0, 2.0), Point(4.0, 6.0)
        assert a.squared_distance_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_translate(self):
        assert Point(1.0, 1.0).translate(2.0, -3.0) == Point(3.0, -2.0)

    def test_iter_and_tuple(self):
        p = Point(3.5, -2.0)
        assert tuple(p) == (3.5, -2.0)
        assert p.as_tuple() == (3.5, -2.0)

    def test_points_are_value_objects(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))


class TestVector:
    def test_magnitude(self):
        assert Vector(3.0, 4.0).magnitude == pytest.approx(5.0)

    def test_angle(self):
        assert Vector(0.0, 2.0).angle == pytest.approx(math.pi / 2)
        assert Vector(-1.0, 0.0).angle == pytest.approx(math.pi)

    def test_normalized_has_unit_length(self):
        assert Vector(10.0, -5.0).normalized().magnitude == pytest.approx(1.0)

    def test_normalized_zero_vector_raises(self):
        with pytest.raises(ValueError):
            Vector(0.0, 0.0).normalized()

    def test_dot_and_cross(self):
        a, b = Vector(1.0, 2.0), Vector(3.0, 4.0)
        assert a.dot(b) == pytest.approx(11.0)
        assert a.cross(b) == pytest.approx(-2.0)

    def test_perpendicular_is_rotation_by_90_degrees(self):
        v = Vector(1.0, 0.0)
        assert v.perpendicular() == Vector(0.0, 1.0)
        assert v.perpendicular().dot(v) == pytest.approx(0.0)

    def test_rotated_by_half_pi(self):
        v = Vector(1.0, 0.0).rotated(math.pi / 2)
        assert v.vx == pytest.approx(0.0, abs=1e-12)
        assert v.vy == pytest.approx(1.0)

    def test_scaled(self):
        assert Vector(1.0, -2.0).scaled(3.0) == Vector(3.0, -6.0)

    def test_arithmetic(self):
        assert Vector(1.0, 2.0) + Vector(3.0, 4.0) == Vector(4.0, 6.0)
        assert Vector(1.0, 2.0) - Vector(3.0, 4.0) == Vector(-2.0, -2.0)
        assert -Vector(1.0, -2.0) == Vector(-1.0, 2.0)

    def test_perpendicular_distance_to_axis(self):
        # Velocity (3, 4) against the x-axis: perpendicular component is 4.
        assert Vector(3.0, 4.0).perpendicular_distance_to_axis(Vector(1.0, 0.0)) == pytest.approx(4.0)
        # Against the y-axis: perpendicular component is 3.
        assert Vector(3.0, 4.0).perpendicular_distance_to_axis(Vector(0.0, 5.0)) == pytest.approx(3.0)

    def test_perpendicular_distance_is_sign_invariant(self):
        axis = Vector(1.0, 1.0)
        v = Vector(2.0, -1.0)
        assert v.perpendicular_distance_to_axis(axis) == pytest.approx(
            v.perpendicular_distance_to_axis(-axis)
        )

    @given(finite, finite)
    def test_perpendicular_and_parallel_components_reconstruct_magnitude(self, vx, vy):
        v = Vector(vx, vy)
        axis = Vector(1.0, 2.0)
        parallel = v.dot(axis.normalized())
        perpendicular = v.perpendicular_distance_to_axis(axis)
        assert math.hypot(parallel, perpendicular) == pytest.approx(v.magnitude, abs=1e-6)

    @given(finite, finite, st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rotation_preserves_magnitude(self, vx, vy, angle):
        v = Vector(vx, vy)
        assert v.rotated(angle).magnitude == pytest.approx(v.magnitude, rel=1e-9, abs=1e-9)
