"""Bx query windows, step by step, against slow references.

A Bx range or kNN filter query costs one window per (query, partition):
the velocity histogram's extrema over a block of cells, the iterative
enlargement of the window back to the partition's label time, and the
window's curve ranges.  The fast paths (sentinel extrema instead of an
occupancy mask, bare-float refinement, a slice of the memoized cell →
index table) are pinned here to references that spell each step out the
slow way:

* the histogram against a per-cell Python model, after every step of a
  random add / add_batch / remove / remove_batch / rebuild sequence;
* ``enlarged_window`` against the ``Rect``-based refinement loop it
  replaced, kept below as the oracle;
* ``_ranges_for_window`` against the scalar encoding of every cell in
  the window's block, merged by a plain loop.

Bounds compare as floats: equal values, though a zero's sign may differ,
which moves no cell.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bxtree.bx_tree import DEFAULT_RANGE_MERGE_GAP, MAX_ENLARGEMENT_ITERATIONS, BxTree
from repro.bxtree.grid import Grid
from repro.bxtree.velocity_histogram import VelocityHistogram
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, RangeQuery, RectangularRange

SPACE = Rect(0.0, 0.0, 100.0, 100.0)

coordinate = st.floats(min_value=-20.0, max_value=120.0)
speed = st.floats(min_value=-5.0, max_value=5.0)


# ----------------------------------------------------------------------
# The histogram against a per-cell model
# ----------------------------------------------------------------------
class HistogramModel:
    """Per cell: a count and the extrema of every velocity since it was empty."""

    def __init__(self, grid):
        self.grid = grid
        self.cells = {}

    def add(self, x, y, vx, vy):
        cell = self.grid.cell_of(Point(x, y))
        count, extrema = self.cells.get(cell, (0, None))
        if count == 0:
            extrema = (vx, vy, vx, vy)
        else:
            extrema = (
                min(extrema[0], vx),
                min(extrema[1], vy),
                max(extrema[2], vx),
                max(extrema[3], vy),
            )
        self.cells[cell] = (count + 1, extrema)

    def remove(self, x, y):
        cell = self.grid.cell_of(Point(x, y))
        count, extrema = self.cells.get(cell, (0, None))
        self.cells[cell] = (max(count - 1, 0), extrema)

    def extrema_in(self, x_min, y_min, x_max, y_max):
        lo_x, lo_y = self.grid.cell_of(Point(x_min, y_min))
        hi_x, hi_y = self.grid.cell_of(Point(x_max, y_max))
        found = [
            extrema
            for (cx, cy), (count, extrema) in self.cells.items()
            if count > 0 and lo_x <= cx <= hi_x and lo_y <= cy <= hi_y
        ]
        if not found:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            min(e[0] for e in found),
            min(e[1] for e in found),
            max(e[2] for e in found),
            max(e[3] for e in found),
        )


entry = st.tuples(coordinate, coordinate, speed, speed)
histogram_step = st.one_of(
    st.tuples(st.just("add"), entry),
    st.tuples(st.just("add_batch"), st.lists(entry, max_size=12)),
    # Removals pick earlier entries by number, so they empty occupied cells.
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("remove_batch"), st.lists(st.integers(min_value=0), max_size=12)),
    st.tuples(st.just("rebuild"), st.lists(entry, max_size=12)),
)
probe = st.tuples(coordinate, coordinate, coordinate, coordinate).map(
    lambda c: (min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)


def _columns(entries):
    return tuple(np.array([e[i] for e in entries], dtype=np.float64) for i in range(4))


@settings(max_examples=150, deadline=None)
@given(st.lists(histogram_step, min_size=1, max_size=25), st.lists(probe, min_size=4, max_size=4))
def test_histogram_extrema_match_the_per_cell_model(steps, probes):
    grid = Grid(SPACE, 5, 5)
    histogram = VelocityHistogram(grid)
    model = HistogramModel(grid)
    added = []
    for kind, arg in steps:
        if kind == "add":
            histogram.add(Point(arg[0], arg[1]), Vector(arg[2], arg[3]))
            model.add(*arg)
            added.append(arg)
        elif kind == "add_batch":
            if arg:
                histogram.add_batch(*_columns(arg))
            for e in arg:
                model.add(*e)
            added.extend(arg)
        elif kind == "remove":
            if added:
                x, y = added[arg % len(added)][:2]
                histogram.remove(Point(x, y))
                model.remove(x, y)
        elif kind == "remove_batch":
            gone = [added[i % len(added)] for i in arg] if added else []
            if gone:
                xs, ys, _, _ = _columns(gone)
                histogram.remove_batch(xs, ys)
            for x, y, _, _ in gone:
                model.remove(x, y)
        else:
            histogram.rebuild((Point(x, y), Vector(vx, vy)) for x, y, vx, vy in arg)
            model = HistogramModel(grid)
            for e in arg:
                model.add(*e)
            added = list(arg)
        for bounds in probes + [SPACE.as_tuple()]:
            assert histogram.extrema_in(*bounds) == model.extrema_in(*bounds)
        assert histogram.global_extrema() == model.extrema_in(*SPACE.as_tuple())
        assert histogram.total_objects == sum(count for count, _ in model.cells.values())


# ----------------------------------------------------------------------
# The enlargement against the Rect-based loop it replaced
# ----------------------------------------------------------------------
def _reference_enlarge(base, label_time, start_time, end_time, min_vx, min_vy, max_vx, max_vy):
    dt_start = start_time - label_time
    dt_end = end_time - label_time

    def displacement_extremes(v_min, v_max):
        products = (v_min * dt_start, v_min * dt_end, v_max * dt_start, v_max * dt_end)
        return min(products), max(products)

    x_disp_min, x_disp_max = displacement_extremes(min_vx, max_vx)
    y_disp_min, y_disp_max = displacement_extremes(min_vy, max_vy)
    return Rect(
        base.x_min - x_disp_max,
        base.y_min - y_disp_max,
        base.x_max - x_disp_min,
        base.y_max - y_disp_min,
    )


def reference_window(tree, query, partition, rounds=MAX_ENLARGEMENT_ITERATIONS):
    """The refinement loop as it was written on ``Rect`` objects."""
    base = query.bounding_rect_over_interval()
    label = tree.label_time(partition)
    extrema = tree.histogram.global_extrema()
    window = _reference_enlarge(base, label, query.start_time, query.end_time, *extrema)
    for _ in range(rounds):
        clipped = window.intersection(tree.space) if window.intersects(tree.space) else window
        extrema = tree.histogram.extrema_in(*clipped.as_tuple())
        refined = _reference_enlarge(base, label, query.start_time, query.end_time, *extrema)
        if refined.area >= window.area - 1e-9:
            window = refined
            break
        window = refined
    return window.intersection(tree.space) if window.intersects(tree.space) else window


def _object(oid, x, y, vx, vy, t):
    return MovingObject(oid, Point(x, y), Vector(vx, vy), t)


moving_object = st.tuples(coordinate, coordinate, speed, speed, st.floats(0.0, 100.0))
circle = st.builds(CircularRange, st.builds(Point, coordinate, coordinate), st.floats(0.0, 40.0))
rectangle = st.tuples(coordinate, coordinate, st.floats(0.0, 40.0), st.floats(0.0, 40.0)).map(
    lambda r: RectangularRange(Rect(r[0], r[1], r[0] + r[2], r[1] + r[3]))
)
query = st.builds(
    lambda shape, start, length, moving, velocity: RangeQuery(
        shape, start, start + length, velocity if moving else None
    ),
    st.one_of(circle, rectangle),
    st.floats(0.0, 200.0),
    st.one_of(st.just(0.0), st.floats(0.0, 60.0)),  # time slice or interval
    st.booleans(),
    st.builds(Vector, speed, speed),
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(moving_object, min_size=1, max_size=40),
    st.integers(min_value=0, max_value=40),
    st.lists(query, min_size=1, max_size=6),
)
def test_enlarged_window_matches_the_rect_loop(objects, deleted, queries):
    tree = BxTree(space=SPACE, curve_order=4, max_update_interval=20.0)
    snapshots = [_object(oid, *row) for oid, row in enumerate(objects)]
    tree.insert_batch(snapshots)
    # Deleting empties cells: their sentinels must not widen any window.
    tree.delete_batch(snapshots[:deleted])
    for q in queries:
        for partition in tree.active_partitions + [0, 11]:
            window = tree.enlarged_window(q, partition)
            assert window.as_tuple() == reference_window(tree, q, partition).as_tuple()


def test_enlarged_window_runs_every_refinement_round():
    # Rings of objects left of the query, moving right: each ring is half
    # as fast as the one outside it and lies beyond the window its own
    # speed gives, by more than a histogram cell (1,000 units), but inside
    # the window of the ring outside it.  So every round shrinks the
    # window, and the fifth differs from the fourth.
    tree = BxTree(space=Rect(0.0, 0.0, 100_000.0, 100_000.0))
    label = tree.label_time(0)
    dt = 1_300.0
    x, y = 95_500.0, 50_500.0
    rings = ((64.0, 88_000.0), (32.0, 62_400.0), (16.0, 31_200.0), (8.0, 15_600.0))
    rings += ((4.0, 7_800.0), (2.0, 3_900.0))
    snapshots = [
        _object(oid, x - distance - v * label, y, v, 0.0, 0.0)
        for oid, (v, distance) in enumerate(rings)
    ]
    tree.insert_batch(snapshots)
    q = RangeQuery(CircularRange(Point(x, y), 1.0), label + dt, label + dt)
    window = tree.enlarged_window(q, 0)
    shorter = reference_window(tree, q, 0, rounds=MAX_ENLARGEMENT_ITERATIONS - 1)
    assert window.as_tuple() != shorter.as_tuple()
    assert window.as_tuple() == reference_window(tree, q, 0).as_tuple()
    # Only the slowest ring is left: the base shifted left by 2 * dt.
    assert window.as_tuple() == (x - 1.0 - 2 * dt, y - 1.0, x + 1.0 - 2 * dt, y + 1.0)


# ----------------------------------------------------------------------
# Curve ranges against the enumerated, scalar-encoded block
# ----------------------------------------------------------------------
def reference_ranges(tree, window):
    lo_x, lo_y = tree.grid.cell_of(Point(window.x_min, window.y_min))
    hi_x, hi_y = tree.grid.cell_of(Point(window.x_max, window.y_max))
    indexes = sorted(
        tree.curve.encode(cx, cy) for cx in range(lo_x, hi_x + 1) for cy in range(lo_y, hi_y + 1)
    )
    ranges = [[indexes[0], indexes[0]]]
    for index in indexes[1:]:
        if index - ranges[-1][1] > DEFAULT_RANGE_MERGE_GAP + 1:
            ranges.append([index, index])
        else:
            ranges[-1][1] = index
    return [tuple(r) for r in ranges]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["hilbert", "z"]),
    st.sampled_from([3, 6, 8]),
    st.tuples(coordinate, coordinate, coordinate, coordinate),
)
def test_window_ranges_are_the_merged_block(curve, order, corners):
    tree = BxTree(space=SPACE, curve=curve, curve_order=order)
    x0, y0, x1, y1 = corners
    window = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    assert tree._ranges_for_window(window) == reference_ranges(tree, window)
