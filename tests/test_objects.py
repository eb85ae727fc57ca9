"""Tests for the moving-object model and the query predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import (
    CircularRange,
    MovingRangeQuery,
    RangeQuery,
    RectangularRange,
    TimeIntervalRangeQuery,
    TimeSliceRangeQuery,
)
from repro.workload.events import UpdateEvent


def obj(x, y, vx, vy, t=0.0, oid=1):
    return MovingObject(oid=oid, position=Point(x, y), velocity=Vector(vx, vy), reference_time=t)


class TestMovingObject:
    def test_position_at_future(self):
        o = obj(0.0, 0.0, 2.0, -1.0)
        assert o.position_at(5.0) == Point(10.0, -5.0)

    def test_position_at_respects_reference_time(self):
        o = obj(0.0, 0.0, 1.0, 0.0, t=10.0)
        assert o.position_at(15.0) == Point(5.0, 0.0)

    def test_speed(self):
        assert obj(0, 0, 3.0, 4.0).speed == pytest.approx(5.0)

    def test_as_moving_rect_is_degenerate(self):
        mr = obj(1.0, 2.0, 3.0, 4.0).as_moving_rect()
        assert mr.rect.area == 0.0
        assert mr.v_x_min == 3.0 and mr.v_y_max == 4.0

    def test_with_update_keeps_oid(self):
        o = obj(0, 0, 1, 1, oid=9)
        updated = o.with_update(Point(5, 5), Vector(0, 0), 10.0)
        assert updated.oid == 9
        assert updated.reference_time == 10.0

    def test_object_update_requires_same_oid(self):
        with pytest.raises(ValueError):
            UpdateEvent(time=1.0, old=obj(0, 0, 0, 0, oid=1), new=obj(0, 0, 0, 0, oid=2))


class TestQueryConstruction:
    def test_time_slice_is_flagged(self):
        q = TimeSliceRangeQuery(CircularRange(Point(0, 0), 10.0), time=5.0)
        assert q.is_time_slice
        assert not q.is_moving
        assert q.predictive_time == 5.0

    def test_interval_query(self):
        q = TimeIntervalRangeQuery(CircularRange(Point(0, 0), 10.0), 5.0, 8.0, issue_time=2.0)
        assert not q.is_time_slice
        assert q.predictive_time == 6.0

    def test_moving_query(self):
        q = MovingRangeQuery(
            RectangularRange(Rect(0, 0, 10, 10)), Vector(1, 0), 0.0, 5.0
        )
        assert q.is_moving

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            RangeQuery(CircularRange(Point(0, 0), 1.0), start_time=5.0, end_time=4.0)

    def test_interval_before_issue_raises(self):
        with pytest.raises(ValueError):
            RangeQuery(
                CircularRange(Point(0, 0), 1.0), start_time=1.0, end_time=2.0, issue_time=3.0
            )

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            CircularRange(Point(0, 0), -1.0)


class TestQueryGeometry:
    def test_range_at_moves_with_velocity(self):
        q = MovingRangeQuery(CircularRange(Point(0, 0), 1.0), Vector(2.0, 0.0), 0.0, 5.0)
        assert q.range_at(3.0).center == Point(6.0, 0.0)

    def test_bounding_rect_over_interval_covers_both_ends(self):
        q = MovingRangeQuery(RectangularRange(Rect(0, 0, 1, 1)), Vector(1.0, 0.0), 0.0, 4.0)
        bound = q.bounding_rect_over_interval()
        assert bound.contains_rect(Rect(0, 0, 1, 1))
        assert bound.contains_rect(Rect(4, 0, 5, 1))

    def test_as_moving_rect_matches_query_velocity(self):
        q = MovingRangeQuery(RectangularRange(Rect(0, 0, 2, 2)), Vector(1.5, -0.5), 0.0, 4.0)
        mr = q.as_moving_rect()
        assert mr.v_x_min == mr.v_x_max == 1.5
        assert mr.v_y_min == mr.v_y_max == -0.5


class TestMatches:
    def test_time_slice_circle_hit_and_miss(self):
        q = TimeSliceRangeQuery(CircularRange(Point(10.0, 0.0), 1.0), time=5.0)
        assert q.matches(obj(0.0, 0.0, 2.0, 0.0))  # at (10, 0) at t=5
        assert not q.matches(obj(0.0, 0.0, 0.0, 0.0))

    def test_time_slice_rectangle(self):
        q = TimeSliceRangeQuery(RectangularRange(Rect(9.0, -1.0, 11.0, 1.0)), time=5.0)
        assert q.matches(obj(0.0, 0.0, 2.0, 0.0))
        assert not q.matches(obj(0.0, 5.0, 2.0, 0.0))

    def test_interval_query_catches_pass_through(self):
        # The object crosses the circle between t=4 and t=6 only.
        q_hit = TimeIntervalRangeQuery(CircularRange(Point(10.0, 0.0), 1.0), 0.0, 10.0)
        q_miss = TimeIntervalRangeQuery(CircularRange(Point(10.0, 0.0), 1.0), 0.0, 3.0)
        o = obj(0.0, 0.0, 2.0, 0.0)
        assert q_hit.matches(o)
        assert not q_miss.matches(o)

    def test_moving_query_relative_motion(self):
        # Query chases the object at the same speed: relative position constant.
        inside = obj(0.5, 0.5, 1.0, 0.0)
        outside = obj(5.0, 5.0, 1.0, 0.0)
        q = MovingRangeQuery(RectangularRange(Rect(0, 0, 1, 1)), Vector(1.0, 0.0), 0.0, 10.0)
        assert q.matches(inside)
        assert not q.matches(outside)

    def test_stationary_object_inside_range(self):
        q = TimeIntervalRangeQuery(RectangularRange(Rect(0, 0, 10, 10)), 0.0, 5.0)
        assert q.matches(obj(5.0, 5.0, 0.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0, max_value=20),
    )
    def test_matches_agrees_with_dense_sampling_circle(self, x, y, vx, vy, duration):
        o = obj(x, y, vx, vy)
        q = TimeIntervalRangeQuery(CircularRange(Point(0.0, 0.0), 30.0), 0.0, duration)
        sampled = any(
            CircularRange(Point(0.0, 0.0), 30.0).contains(o.position_at(duration * i / 300.0))
            for i in range(301)
        )
        if sampled:
            assert q.matches(o)
        if not q.matches(o):
            assert not sampled

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0, max_value=20),
    )
    def test_matches_agrees_with_dense_sampling_rectangle(self, x, y, vx, vy, duration):
        o = obj(x, y, vx, vy)
        rect = Rect(-25.0, -15.0, 25.0, 15.0)
        q = TimeIntervalRangeQuery(RectangularRange(rect), 0.0, duration)
        sampled = any(
            rect.contains_point(o.position_at(duration * i / 300.0)) for i in range(301)
        )
        if sampled:
            assert q.matches(o)
