"""Unit tests for the Rect type."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect

coord = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_invalid_rect_raises(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)

    def test_from_point_is_degenerate(self):
        r = Rect.from_point(Point(2.0, 3.0))
        assert r.area == 0.0
        assert r.contains_point(Point(2.0, 3.0))

    def test_from_center(self):
        r = Rect.from_center(Point(5.0, 5.0), 2.0, 3.0)
        assert r.as_tuple() == (3.0, 2.0, 7.0, 8.0)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])
        with pytest.raises(ValueError):
            Rect.bounding_points([])

    def test_bounding_points(self):
        r = Rect.bounding_points([Point(0, 0), Point(2, 5), Point(-1, 3)])
        assert r.as_tuple() == (-1, 0, 2, 5)


class TestProperties:
    def test_width_height_area(self):
        r = Rect(0.0, 0.0, 4.0, 3.0)
        assert r.width == 4.0
        assert r.height == 3.0
        assert r.area == 12.0

    def test_center(self):
        assert Rect(0.0, 0.0, 4.0, 2.0).center == Point(2.0, 1.0)

    def test_corners(self):
        corners = list(Rect(0.0, 0.0, 1.0, 2.0).corners())
        assert len(corners) == 4
        assert Point(0.0, 2.0) in corners


class TestPredicates:
    def test_contains_point_boundary_inclusive(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.contains_point(Point(0.0, 1.0))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        assert outer.contains_rect(Rect(1.0, 1.0, 9.0, 9.0))
        assert not outer.contains_rect(Rect(5.0, 5.0, 11.0, 9.0))

    def test_intersects(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        assert a.intersects(Rect(1.0, 1.0, 3.0, 3.0))
        assert a.intersects(Rect(2.0, 2.0, 3.0, 3.0))  # touching counts
        assert not a.intersects(Rect(2.1, 2.1, 3.0, 3.0))


class TestCombinators:
    def test_union(self):
        assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)).as_tuple() == (0, 0, 3, 3)

    def test_intersection(self):
        assert Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3)).as_tuple() == (1, 1, 2, 2)

    def test_intersection_disjoint_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3))

    def test_intersection_area(self):
        assert Rect(0, 0, 2, 2).intersection_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).intersection_area(Rect(5, 5, 6, 6)) == 0.0

    def test_enlarged(self):
        assert Rect(1, 1, 2, 2).enlarged(1.0, 2.0).as_tuple() == (0, -1, 3, 4)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(5, -1).as_tuple() == (5, -1, 6, 0)

    def test_min_distance_to_point(self):
        r = Rect(0, 0, 1, 1)
        assert r.min_distance_to_point(Point(0.5, 0.5)) == 0.0
        assert r.min_distance_to_point(Point(4.0, 5.0)) == pytest.approx(5.0)


class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_rect(a)
        assert union.contains_rect(b)

    @given(rects(), rects())
    def test_intersection_area_symmetric(self, a, b):
        assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))

    @given(rects(), rects())
    def test_intersection_area_bounded_by_each_area(self, a, b):
        overlap = a.intersection_area(b)
        assert overlap <= a.area + 1e-6
        assert overlap <= b.area + 1e-6

    @given(rects())
    def test_union_with_self_is_identity(self, r):
        assert r.union(r) == r
