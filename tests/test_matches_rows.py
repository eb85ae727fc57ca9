"""``RangeQuery.matches_rows`` against ``RangeQuery.matches_motion``, row by row.

The array twin of the exact range predicate must return the scalar
predicate's boolean for every row, not a close one: it decides the VP range
filter (Algorithm 3, Line 8) above a candidate count and the serving
layer's brute-force model always, while the scalar predicate decides the
same objects everywhere else.  Both tests build ``MOTION`` tables around
one query and compare the two predicates on every row.

* **Adversarial rows** (deterministic): zero velocity; circles touched at
  exactly the radius, and at the radius plus exactly the ``1e-9``
  tolerance; rows half a tolerance and two tolerances outside; closest
  approaches before the window, inside it and after it (``t_star`` on
  either clamp); rectangle slabs with ``v == 0`` on and around each edge;
  slab crossings that miss each other by less than the tolerance.  Each
  row's expected boolean is written down, so the scalar kernels are held
  too.
* **Random tables** (Hypothesis): every query type (time slice, interval,
  moving, circle and rectangle) over rows whose coordinates are random or
  sit on the range's edges plus or minus the tolerance, with zero and
  unit velocities mixed in.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import MOTION
from repro.objects.queries import CircularRange, RangeQuery, RectangularRange

TOL = 1e-9


def _table(rows):
    """A ``MOTION`` array of ``(x, y, vx, vy, t)`` rows, oids 0, 1, …"""
    return np.array([(oid, *row) for oid, row in enumerate(rows)], dtype=MOTION)


def _assert_rowwise(query, table):
    """The array twin's booleans are the scalar predicate's, row by row; returns them."""
    expected = [query.matches_motion(*row[1:]) for row in table.tolist()]
    got = query.matches_rows(table)
    assert got.dtype == np.bool_ and got.shape == (len(table),)
    assert got.tolist() == expected
    return expected


def _at_distance_squared(cx, target):
    """An ``x`` with ``(x - cx) * (x - cx) == target`` exactly, or ``None``."""
    x = cx + math.sqrt(target)
    for _ in range(400):
        d = x - cx
        square = d * d
        if square == target:
            return x
        x = math.nextafter(x, math.inf if square < target else -math.inf)
    return None


# ----------------------------------------------------------------------
# Adversarial rows, with the answers written down
# ----------------------------------------------------------------------
def _circle_slice(cx=0.0, cy=0.0, radius=5.0, start=10.0, duration=0.0, velocity=None):
    return RangeQuery(
        range=CircularRange(Point(cx, cy), radius),
        start_time=start,
        end_time=start + duration,
        velocity=velocity,
        issue_time=start,
    )


def test_circle_boundaries_at_the_radius_and_the_tolerance():
    radius = 5.0
    limit = radius * radius + TOL
    query = _circle_slice(radius=radius)
    on_limit = _at_distance_squared(0.0, limit)
    inside_tol = math.sqrt(radius * radius + TOL / 2)
    assert on_limit is not None and radius * radius < inside_tol * inside_tol < limit
    rows = [
        (5.0, 0.0, 0.0, 0.0, 10.0),  # exactly on the circle, still
        (0.0, -5.0, 0.0, 0.0, 10.0),
        (on_limit, 0.0, 0.0, 0.0, 10.0),  # exactly radius**2 + 1e-9 away
        (inside_tol, 0.0, 0.0, 0.0, 10.0),  # inside the tolerance only
        (math.nextafter(on_limit, math.inf), 0.0, 0.0, 0.0, 10.0),  # one ulp past it
        (5.0 + 2 * TOL, 0.0, 0.0, 0.0, 10.0),
        (3.0, 4.0, 0.0, 0.0, 10.0),  # 3-4-5: on the circle
        (0.0, 0.0, 0.0, 0.0, 10.0),  # the centre
        (5.0, 5.0, 0.0, 0.0, 10.0),  # the bounding square's corner
        (9.0, 0.0, -1.0, 0.0, 6.0),  # moved onto the circle by the start time
    ]
    expected = [True, True, True, True, False, False, True, True, False, True]
    assert _assert_rowwise(query, _table(rows)) == expected


def test_circle_closest_approach_on_either_clamp():
    # Interval [10, 12]; the circle of radius 5 at the origin.
    query = _circle_slice(duration=2.0)
    rows = [
        # Tangent at exactly the radius inside the window (t_star = 1).
        (-1.0, 5.0, 1.0, 0.0, 10.0),
        # The same line, closest approach at t_star = -3: clamped to 0.
        (3.0, 5.0, 1.0, 0.0, 10.0),
        (3.0, 5.0 + 1e-3, 1.0, 0.0, 10.0),
        # Closest approach at t_star = 4, past the window: clamped to 2.
        (-4.0, 5.0, 1.0, 0.0, 10.0),
        (-6.5, 0.0, 1.0, 0.0, 10.0),  # reaches x = -4.5 at the window's end
        (-7.5, 0.0, 1.0, 0.0, 10.0),  # stops half a unit short
        (6.0, 0.0, 1.0, 0.0, 10.0),  # moving away from just outside
        (6.0, 0.0, -0.5, 0.0, 10.0),  # arrives at the end of the window
        (6.0, 0.0, -0.4, 0.0, 10.0),  # arrives too late
    ]
    expected = [True, False, False, False, True, False, False, True, False]
    assert _assert_rowwise(query, _table(rows)) == expected


def test_circle_moving_query_and_zero_relative_velocity():
    # The range moves with (1, 0) from the origin over [10, 12].
    query = _circle_slice(duration=2.0, velocity=Vector(1.0, 0.0))
    rows = [
        (7.0, 0.0, 1.0, 0.0, 10.0),  # moves with the range: relative velocity 0
        (5.0, 0.0, 1.0, 0.0, 10.0),
        (7.0, 0.0, 0.0, 0.0, 10.0),  # still: the range arrives at t = 2
        (8.0, 0.0, 0.0, 0.0, 10.0),
        (0.0, 6.0, 1.0, 0.0, 9.0),  # anchored before the window start
    ]
    assert _assert_rowwise(query, _table(rows)) == [False, True, True, False, False]


def _rect_query(duration=0.0, velocity=None, start=10.0):
    return RangeQuery(
        range=RectangularRange(Rect(0.0, 0.0, 10.0, 10.0)),
        start_time=start,
        end_time=start + duration,
        velocity=velocity,
        issue_time=start,
    )


def test_rect_still_slabs_on_and_around_each_edge():
    query = _rect_query()
    rows = []
    expected = []
    for edge, outward in ((0.0, -1.0), (10.0, 1.0)):
        for offset, inside in ((0.0, True), (TOL / 2, True), (TOL, True), (2 * TOL, False)):
            x = edge + outward * offset
            if offset == TOL:
                # Exactly ``lo - 1e-9`` / ``hi + 1e-9``, as the kernel computes it.
                x = edge - TOL if outward < 0 else edge + TOL
            rows.append((x, 5.0, 0.0, 0.0, 10.0))
            rows.append((5.0, x, 0.0, 0.0, 10.0))
            expected += [inside, inside]
    assert _assert_rowwise(query, _table(rows)) == expected


def test_rect_crossings_that_miss_by_less_than_the_tolerance():
    query = _rect_query(duration=2.0)
    rows = [
        # Leaves the x slab at t = 1 and enters the y slab at 1 + 5e-10.
        (9.0, 11.0 + TOL / 2, 1.0, -1.0, 10.0),
        # Enters the y slab at 1 + 3e-9: a miss.
        (9.0, 11.0 + 3 * TOL, 1.0, -1.0, 10.0),
        # Still on x inside the slab, moving into y over the window.
        (5.0, 11.0, 0.0, -1.0, 10.0),
        (5.0, 13.0, 0.0, -1.0, 10.0),  # reaches y = 11 only
        (-1.0, -1.0, 1.0, 1.0, 10.0),  # through the corner
        (-3.0, 5.0, 1.0, 0.0, 10.0),  # stops one unit short
        (12.0, 5.0, -1.0, 0.0, 10.0),  # arrives exactly at the end
        # Leaves x at t = 1 and enters y at exactly 1 + 1e-9, as the kernel
        # computes the tolerance.
        (9.0, -(1.0 + TOL), 1.0, 1.0, 10.0),
    ]
    expected = [True, False, True, False, True, False, True, True]
    assert _assert_rowwise(query, _table(rows)) == expected


def test_rect_moving_query_and_still_relative_motion():
    query = _rect_query(duration=2.0, velocity=Vector(0.0, 1.0))
    rows = [
        (5.0, 11.0, 0.0, 1.0, 10.0),  # keeps pace just outside: relative velocity 0
        (5.0, 10.0, 0.0, 1.0, 10.0),  # keeps pace on the edge
        (5.0, 12.0, 0.0, 0.0, 10.0),  # still: the range arrives at t = 2
        (5.0, 12.5, 0.0, 0.0, 10.0),
    ]
    assert _assert_rowwise(query, _table(rows)) == [False, True, True, False]


def test_an_empty_table_gives_an_empty_mask():
    for query in (_circle_slice(), _rect_query(duration=1.0, velocity=Vector(1.0, 1.0))):
        mask = query.matches_rows(np.empty(0, dtype=MOTION))
        assert mask.dtype == np.bool_ and mask.shape == (0,)


# ----------------------------------------------------------------------
# Random tables around random queries
# ----------------------------------------------------------------------
_coords = st.floats(min_value=-50.0, max_value=1_050.0, allow_nan=False, allow_subnormal=False)
_speeds = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_subnormal=False),
)
_offsets = st.sampled_from([0.0, TOL / 2, -TOL / 2, TOL, -TOL, 2 * TOL, -2 * TOL, 1.0, -1.0])


@st.composite
def _queries(draw):
    start = draw(st.sampled_from([10.0, 12.5]))
    duration = draw(st.one_of(st.sampled_from([0.0, 0.0, 1.0, 5.0]), st.floats(0.0, 20.0)))
    velocity = draw(
        st.one_of(
            st.none(),
            st.just(Vector(0.0, 0.0)),
            st.builds(Vector, _speeds, _speeds),
        )
    )
    issue_time = draw(st.sampled_from([start, start - 2.5]))
    x, y = draw(st.floats(0.0, 1_000.0)), draw(st.floats(0.0, 1_000.0))
    if draw(st.booleans()):
        shape = CircularRange(Point(x, y), draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0))))
    else:
        width = draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0)))
        height = draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0)))
        shape = RectangularRange(Rect(x, y, x + width, y + height))
    return RangeQuery(shape, start, start + duration, velocity, issue_time)


def _edges(query):
    """Coordinates on the query's range at its start time, per axis."""
    shape = query.range_at(query.start_time)
    if isinstance(shape, CircularRange):
        c, r = shape.center, shape.radius
        return [c.x - r, c.x, c.x + r], [c.y - r, c.y, c.y + r]
    rect = shape.rect
    return [rect.x_min, rect.x_max], [rect.y_min, rect.y_max]


@st.composite
def _tables(draw, query):
    xs, ys = _edges(query)
    start = query.start_time

    def coordinate(edges):
        on_edge = st.builds(lambda e, d: e + d, st.sampled_from(edges), _offsets)
        return draw(st.one_of(_coords, on_edge))

    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t = draw(st.one_of(st.sampled_from([start, start, start - 1.0]), st.floats(0.0, start)))
        rows.append((coordinate(xs), coordinate(ys), draw(_speeds), draw(_speeds), t))
    return _table(rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), query=_queries())
def test_the_array_twin_is_the_scalar_predicate_row_by_row(data, query):
    _assert_rowwise(query, data.draw(_tables(query)))


@pytest.mark.parametrize("velocity", [None, Vector(0.0, 0.0), Vector(3.0, -4.0)])
def test_a_shared_table_agrees_for_every_query_type(velocity):
    rng = np.random.default_rng(7)
    n = 2_000
    rows = [
        tuple(row)
        for row in np.column_stack(
            (
                rng.uniform(0.0, 1_000.0, n),
                rng.uniform(0.0, 1_000.0, n),
                np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-20.0, 20.0, n)),
                np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-20.0, 20.0, n)),
                rng.choice([5.0, 8.0, 10.0], n),
            )
        ).tolist()
    ]
    table = _table(rows)
    shapes = [
        CircularRange(Point(500.0, 500.0), 150.0),
        RectangularRange(Rect(300.0, 350.0, 650.0, 600.0)),
    ]
    for shape in shapes:
        for duration in (0.0, 4.0):
            query = RangeQuery(shape, 10.0, 10.0 + duration, velocity, 10.0)
            assert any(_assert_rowwise(query, table))
