"""The flat float kernels must agree exactly with the object API.

Every kernel in :mod:`repro.geometry.kernels` re-implements a hot-path
computation that also exists (or used to exist) as allocating object-API
code; these tests pin the two against each other on randomized inputs so
the index refactors cannot silently drift.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.rect import Rect


def random_moving_rect(rng: random.Random, degenerate: bool = False) -> MovingRect:
    x0 = rng.uniform(-100.0, 100.0)
    y0 = rng.uniform(-100.0, 100.0)
    w = 0.0 if degenerate else rng.uniform(0.0, 50.0)
    h = 0.0 if degenerate else rng.uniform(0.0, 50.0)
    vx = rng.uniform(-10.0, 10.0)
    vy = rng.uniform(-10.0, 10.0)
    return MovingRect(
        rect=Rect(x0, y0, x0 + w, y0 + h),
        v_x_min=vx if degenerate else vx - rng.uniform(0.0, 5.0),
        v_y_min=vy if degenerate else vy - rng.uniform(0.0, 5.0),
        v_x_max=vx,
        v_y_max=vy,
        reference_time=rng.uniform(0.0, 5.0),
    )


def as_extent(bound: MovingRect, time: float) -> kernels.Extent:
    projected = bound.projected_to(time)
    return (
        projected.rect.x_min,
        projected.rect.y_min,
        projected.rect.x_max,
        projected.rect.y_max,
        projected.v_x_min,
        projected.v_y_min,
        projected.v_x_max,
        projected.v_y_max,
    )


class TestProjectionKernels:
    def test_project_matches_rect_at(self):
        rng = random.Random(1)
        for _ in range(200):
            bound = random_moving_rect(rng)
            time = rng.uniform(-5.0, 20.0)
            rect = bound.rect_at(time)
            assert kernels.project(bound, time) == (
                rect.x_min,
                rect.y_min,
                rect.x_max,
                rect.y_max,
            )

    def test_extent_of_matches_projected_to(self):
        rng = random.Random(2)
        for _ in range(200):
            bound = random_moving_rect(rng)
            time = bound.reference_time + rng.uniform(0.0, 10.0)
            assert kernels.extent_of(bound, time) == as_extent(bound, time)

    def test_batch_helpers_match_scalar(self):
        rng = random.Random(3)
        bounds = [random_moving_rect(rng) for _ in range(20)]
        time = 7.0
        for (cx, cy), b in zip(kernels.batch_centers(bounds, time), bounds):
            center = b.rect_at(time).center
            assert cx == pytest.approx(center.x)
            assert cy == pytest.approx(center.y)


class TestBoundKernels:
    def test_bound_extent_matches_moving_rect_bounding(self):
        rng = random.Random(4)
        for _ in range(50):
            bounds = [random_moving_rect(rng) for _ in range(rng.randint(1, 12))]
            time = rng.uniform(0.0, 15.0)
            bound = MovingRect.bounding(bounds, time)
            assert kernels.bound_extent(bounds, time) == pytest.approx(
                as_extent(bound, time)
            )

    def test_bound_extent_empty_raises(self):
        with pytest.raises(ValueError):
            kernels.bound_extent([], 0.0)

    def test_bounding_returns_anchored_single_child_unchanged(self):
        rng = random.Random(5)
        bound = random_moving_rect(rng)
        anchored = bound.projected_to(9.0)
        assert MovingRect.bounding([anchored], 9.0) is anchored

    def test_remove_one_matches_naive_rebounding(self):
        rng = random.Random(6)
        for _ in range(30):
            bounds = [random_moving_rect(rng) for _ in range(rng.randint(2, 10))]
            time = 3.0
            extents = [kernels.extent_of(b, time) for b in bounds]
            leave_one_out = kernels.remove_one_extents(extents)
            for index in range(len(bounds)):
                rest = bounds[:index] + bounds[index + 1 :]
                assert leave_one_out[index] == pytest.approx(
                    kernels.bound_extent(rest, time)
                )

    def test_cumulative_extents_are_prefix_unions(self):
        rng = random.Random(7)
        bounds = [random_moving_rect(rng) for _ in range(8)]
        extents = [kernels.extent_of(b, 1.0) for b in bounds]
        prefix = kernels.cumulative_extents(extents)
        for index in range(len(bounds)):
            assert prefix[index] == pytest.approx(
                kernels.bound_extent(bounds[: index + 1], 1.0)
            )

    def test_intersection_area_now_and_projected(self):
        a = (0.0, 0.0, 10.0, 10.0, 1.0, 0.0, 1.0, 0.0)
        b = (8.0, 2.0, 20.0, 8.0, -1.0, 0.0, -1.0, 0.0)
        assert kernels.intersection_area(a, b) == pytest.approx(2.0 * 6.0)
        # After 1 time unit a spans [1, 11], b spans [7, 19]: overlap 4 x 6.
        assert kernels.intersection_area(a, b, 1.0) == pytest.approx(4.0 * 6.0)
        disjoint = (100.0, 100.0, 110.0, 110.0, 0.0, 0.0, 0.0, 0.0)
        assert kernels.intersection_area(a, disjoint) == 0.0


class TestSweepKernels:
    def test_sweep_volume_is_the_closed_form(self):
        # Expanding bounds (v_min <= 0 <= v_max) sweep (w + px t)(h + py t);
        # a translating bound (v_min == v_max) sweeps wh + (w |vy| + h |vx|) t.
        rng = random.Random(8)
        for _ in range(100):
            w, h = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
            horizon = rng.uniform(0.0, 30.0)
            lo_x, lo_y = rng.uniform(-10.0, 0.0), rng.uniform(-10.0, 0.0)
            hi_x, hi_y = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
            px, py = hi_x - lo_x, hi_y - lo_y
            expanding = (
                w * h * horizon
                + (w * py + h * px) * horizon**2 / 2.0
                + px * py * horizon**3 / 3.0
            )
            got = kernels.sweep_volume(w, h, lo_x, lo_y, hi_x, hi_y, horizon)
            assert got == pytest.approx(expanding, rel=1e-12)
            vx, vy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            translating = w * h * horizon + (w * abs(vy) + h * abs(vx)) * horizon**2 / 2.0
            got = kernels.sweep_volume(w, h, vx, vy, vx, vy, horizon)
            assert got == pytest.approx(translating, rel=1e-12, abs=1e-9)

    def test_extent_sweep_volume_matches_enlarged_rect(self):
        rng = random.Random(9)
        for _ in range(50):
            bound = random_moving_rect(rng)
            ext = kernels.extent_of(bound, 4.0)
            grow = rng.uniform(0.0, 100.0)
            expected = kernels.sweep_volume(
                (ext[2] - ext[0]) + grow,
                (ext[3] - ext[1]) + grow,
                ext[4],
                ext[5],
                ext[6],
                ext[7],
                25.0,
            )
            assert kernels.extent_sweep_volume(ext, grow, 25.0) == expected


class TestIntersectionKernel:
    def _kernel_args(self, a: MovingRect, b: MovingRect, start: float, end: float):
        return (
            a.rect.x_min,
            a.rect.y_min,
            a.rect.x_max,
            a.rect.y_max,
            a.v_x_min,
            a.v_y_min,
            a.v_x_max,
            a.v_y_max,
            a.reference_time,
            b.rect.x_min,
            b.rect.y_min,
            b.rect.x_max,
            b.rect.y_max,
            b.v_x_min,
            b.v_y_min,
            b.v_x_max,
            b.v_y_max,
            b.reference_time,
            start,
            end,
        )

    def test_matches_intersects_during_on_random_pairs(self):
        rng = random.Random(10)
        for _ in range(500):
            a = random_moving_rect(rng, degenerate=rng.random() < 0.5)
            b = random_moving_rect(rng)
            start = max(a.reference_time, b.reference_time) + rng.uniform(0.0, 5.0)
            end = start + rng.uniform(0.0, 10.0)
            assert kernels.intersects_interval(
                *self._kernel_args(a, b, start, end)
            ) == a.intersects_during(b, start, end)

    def test_reference_time_inside_window_falls_back(self):
        # b's reference time lies inside the query window, exercising the
        # piecewise (object API) fallback path.
        a = MovingRect(Rect(0.0, 0.0, 1.0, 1.0), 0.0, 0.0, 0.0, 0.0, 0.0)
        b = MovingRect(Rect(5.0, 0.0, 6.0, 1.0), -1.0, 0.0, -1.0, 0.0, 2.0)
        args = self._kernel_args(a, b, 0.0, 10.0)
        assert kernels.intersects_interval(*args) == a.intersects_during(b, 0.0, 10.0)
        assert kernels.intersects_interval(*args)

    def test_invalid_interval_raises(self):
        a = random_moving_rect(random.Random(11))
        with pytest.raises(ValueError):
            kernels.intersects_interval(*self._kernel_args(a, a, 9.0, 8.0))


class TestSegmentKernels:
    def test_circle_predicate_matches_dense_sampling(self):
        rng = random.Random(12)
        for _ in range(300):
            px, py = rng.uniform(-20, 20), rng.uniform(-20, 20)
            vx, vy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            duration = rng.uniform(0.0, 10.0)
            cx, cy, radius = rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0.1, 10)
            sampled = any(
                (px + vx * t - cx) ** 2 + (py + vy * t - cy) ** 2 <= radius * radius
                for t in [duration * i / 200.0 for i in range(201)]
            )
            reported = kernels.segment_intersects_circle(
                px, py, vx, vy, duration, cx, cy, radius
            )
            if sampled:
                assert reported
            # The exact predicate may be True when sampling narrowly misses a
            # grazing contact, so only the inclusion above is asserted.

    def test_rect_predicate_matches_dense_sampling(self):
        rng = random.Random(13)
        for _ in range(300):
            px, py = rng.uniform(-20, 20), rng.uniform(-20, 20)
            vx, vy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            duration = rng.uniform(0.0, 10.0)
            x0, y0 = rng.uniform(-20, 10), rng.uniform(-20, 10)
            x1, y1 = x0 + rng.uniform(0.0, 15.0), y0 + rng.uniform(0.0, 15.0)
            sampled = any(
                x0 <= px + vx * t <= x1 and y0 <= py + vy * t <= y1
                for t in [duration * i / 200.0 for i in range(201)]
            )
            reported = kernels.segment_intersects_rect(
                px, py, vx, vy, duration, x0, y0, x1, y1
            )
            if sampled:
                assert reported


class TestSoaIntersectHits:
    """The fused per-node intersect scan versus the scalar kernel, slot by slot."""

    @staticmethod
    def _bound(bound):
        return (
            bound.rect.x_min,
            bound.rect.y_min,
            bound.rect.x_max,
            bound.rect.y_max,
            bound.v_x_min,
            bound.v_y_min,
            bound.v_x_max,
            bound.v_y_max,
            bound.reference_time,
        )

    def _check(self, entries, info):
        """Assert the kernel's slots are the scalar kernel's; return them."""
        columns = [array("d") for _ in range(9)]
        for entry in entries:
            for column, value in zip(columns, self._bound(entry)):
                column.append(value)
        expected = [
            slot
            for slot, entry in enumerate(entries)
            if kernels.intersects_interval(*self._bound(entry), *info)
        ]
        assert kernels.soa_intersect_hits(*columns, info) == expected
        return expected

    @staticmethod
    def _anchored(bound, reference_time):
        return MovingRect(
            bound.rect,
            bound.v_x_min,
            bound.v_y_min,
            bound.v_x_max,
            bound.v_y_max,
            reference_time,
        )

    def test_random_nodes_match_the_scalar_kernel(self):
        rng = random.Random(77)
        total = 0
        for _ in range(300):
            entries = [
                random_moving_rect(rng, degenerate=rng.random() < 0.5)
                for _ in range(rng.randint(0, 40))
            ]
            query = random_moving_rect(rng)
            start = max([query.reference_time] + [e.reference_time for e in entries])
            start += rng.uniform(0.0, 3.0)
            end = start + (0.0 if rng.random() < 0.3 else rng.uniform(0.0, 10.0))
            total += len(self._check(entries, (*self._bound(query), start, end)))
        assert total > 500, "the seeded nodes must produce hits"

    def test_entries_and_queries_anchored_after_the_start_take_the_fallback(self):
        rng = random.Random(78)
        for _ in range(100):
            entries = [random_moving_rect(rng) for _ in range(12)]
            query = random_moving_rect(rng)
            start = query.reference_time + rng.uniform(0.0, 2.0)
            entries = [
                self._anchored(e, start + rng.uniform(0.1, 15.0)) if rng.random() < 0.5 else e
                for e in entries
            ]
            if rng.random() < 0.25:
                query = self._anchored(query, start + rng.uniform(0.1, 15.0))
            self._check(entries, (*self._bound(query), start, start + 20.0))

    def test_a_zero_rate_keeps_an_edge_exactly_the_slack_away(self):
        slack = kernels.FILTER_SLACK
        past = math.nextafter(slack, math.inf)
        query = MovingRect(Rect(0.0, 0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0, 5.0)
        info = (*self._bound(query), 5.0, 8.0)
        entries = []
        for gap in (slack, past):
            # Each gap opens on one side: past x_max, before x_min, past
            # y_max, before y_min (the other side's difference is -gap);
            # every relative rate is zero.
            for x0, y0 in ((gap, 0.0), (-gap, 0.0), (0.0, gap), (0.0, -gap)):
                entries.append(MovingRect(Rect(x0, y0, x0, y0), 0.0, 0.0, 0.0, 0.0, 5.0))
        assert self._check(entries, info) == [0, 1, 2, 3]

    def test_a_window_shut_exactly_by_the_slack_still_meets(self):
        slack = kernels.FILTER_SLACK
        query = MovingRect(Rect(0.0, 0.0, 0.0, 0.0), 0.0, 0.0, 0.0, 0.0, 5.0)
        info = (*self._bound(query), 5.0, 5.0)
        # Closing at rate 1 from `slack` (x) or crossing zero at `slack`
        # from either y edge: lo ends at exactly hi + FILTER_SLACK.
        inside = [
            MovingRect(Rect(slack, 0.0, 1.0, 0.0), -1.0, 0.0, 0.0, 0.0, 5.0),
            MovingRect(Rect(-1.0, slack, 0.0, 1.0), 0.0, -1.0, 0.0, 0.0, 5.0),
            MovingRect(Rect(-1.0, -1.0, 1.0, -slack), 0.0, 0.0, 0.0, 1.0, 5.0),
            MovingRect(Rect(-1.0, -1.0, -slack, 1.0), 0.0, 0.0, 1.0, 0.0, 5.0),
        ]
        past = math.nextafter(2 * slack, math.inf)
        outside = [MovingRect(Rect(past, 0.0, 1.0, 0.0), -1.0, 0.0, 0.0, 0.0, 5.0)]
        assert self._check(inside + outside, info) == [0, 1, 2, 3]

    def test_an_empty_node_has_no_hits(self):
        assert kernels.soa_intersect_hits(*[array("d")] * 9, (0.0,) * 11) == []

    def test_rejects_inverted_window(self):
        rng = random.Random(79)
        entry = random_moving_rect(rng)
        query = random_moving_rect(rng)
        info = (*self._bound(query), query.reference_time + 5.0, query.reference_time + 1.0)
        with pytest.raises(ValueError):
            kernels.soa_intersect_hits(*[array("d", [v]) for v in self._bound(entry)], info)


# ----------------------------------------------------------------------
# Choose-subtree: the fused column kernels versus the hook-driven loop
# ----------------------------------------------------------------------
def _reference_choose(columns, ext_new, time, extent_cost):
    """The scan the kernels replaced (``TPRTree._pick_child`` before PR 24), verbatim."""
    best_slot = -1
    best_key = None
    for slot, ext in enumerate(kernels.soa_extents(*columns, time=time)):
        cost = extent_cost(ext)
        enlargement = extent_cost(kernels.union_extent(ext, ext_new)) - cost
        key = (enlargement, cost)
        if best_key is None or key < best_key:
            best_key = key
            best_slot = slot
    return best_slot


# Small pools make exact ties, shared edges and equal VBR components common;
# the float ranges keep the arithmetic honest between them.
_positions = st.sampled_from([-40.0, 0.0, 10.0, 25.0, 80.0]) | st.floats(-1e4, 1e4)
_sizes = st.sampled_from([0.0, 0.0, 5.0, 30.0]) | st.floats(0.0, 500.0)
_speeds = st.sampled_from([-7.5, -1.0, -0.0, 0.0, 1.0, 7.5]) | st.floats(-60.0, 60.0)
_times = st.sampled_from([0.0, 4.0, 9.0, 15.0])
_fractions = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def _children(draw):
    """One child bound ``(x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref)``.

    A zero size with one speed per axis is a leaf-style (object) bound;
    two sorted speeds give a VBR of every sign pattern, ``(0.0, -0.0)``
    included.
    """
    x0, y0 = draw(_positions), draw(_positions)
    vx0, vx1 = sorted((draw(_speeds), draw(_speeds)))
    vy0, vy1 = sorted((draw(_speeds), draw(_speeds)))
    if draw(st.booleans()):
        vx1, vy1 = vx0, vy0
    return (x0, y0, x0 + draw(_sizes), y0 + draw(_sizes), vx0, vy0, vx1, vy1, draw(_times))


def _inside(draw, lo, hi):
    return min(hi, lo + draw(_fractions) * (hi - lo))


@st.composite
def _choose_cases(draw):
    """``(columns, ext_new, time)`` built to tie: copies of children, an entry inside one.

    A copy is either exact (a full tie, the lower slot must win) or has one
    VBR component pushed outward; the entry lies inside one child's box and
    VBR (enlargement exactly 0.0 there and in every copy) or strays outward
    on one VBR component by less than the widened copies cover, so the
    copy wins on enlargement alone and loses the moment the original is
    not charged for its wider union VBR.
    """
    children = draw(st.lists(_children(), min_size=1, max_size=6))
    for slot in draw(st.lists(st.integers(0, len(children) - 1), max_size=4)):
        copy = list(children[slot])
        component = draw(st.sampled_from([None, 4, 5, 6, 7]))
        if component is not None:
            copy[component] += draw(st.sampled_from([1.0, 100.0])) * (-1 if component < 6 else 1)
        children.append(tuple(copy))
    time = draw(_times)
    columns = [array("d", column) for column in zip(*children)]
    if draw(st.booleans()):
        return columns, draw(_children())[:8], time
    host = draw(st.sampled_from(kernels.soa_extents(*columns, time=time)))
    x0, x1 = sorted(_inside(draw, host[0], host[2]) for _ in range(2))
    y0, y1 = sorted(_inside(draw, host[1], host[3]) for _ in range(2))
    vx0, vx1 = sorted(_inside(draw, host[4], host[6]) for _ in range(2))
    vy0, vy1 = sorted(_inside(draw, host[5], host[7]) for _ in range(2))
    ext_new = [x0, y0, x1, y1, vx0, vy0, vx1, vy1]
    component = draw(st.sampled_from([None, 4, 5, 6, 7]))
    if component is not None:
        ext_new[component] += draw(st.sampled_from([0.5, 90.0])) * (-1 if component < 6 else 1)
    return columns, tuple(ext_new), time


_sweep_parameters = st.tuples(
    st.sampled_from([0.0, 3.5, 1000.0]), st.sampled_from([0.5, 1.0, 60.0, 120.0])
)


def _nodes_to_scan(columns):
    """The node itself, then every two of its children as a node of their own.

    A kernel returns only the winning slot; scanning each pair as well pins
    the order of every two keys, so a mispriced child shows even when it is
    not the one that wins the whole node.
    """
    yield columns
    for low in range(len(columns[0])):
        for high in range(low + 1, len(columns[0])):
            yield [array("d", (column[low], column[high])) for column in columns]


class TestChooseChildKernels:
    @settings(max_examples=200, deadline=None)
    @given(_choose_cases())
    def test_area_kernel_picks_the_reference_slot(self, case):
        columns, ext_new, time = case
        for node in _nodes_to_scan(columns):
            assert kernels.soa_choose_child_area(*node, ext_new, time) == _reference_choose(
                node, ext_new, time, kernels.extent_area
            )

    @settings(max_examples=200, deadline=None)
    @given(_choose_cases(), _sweep_parameters)
    def test_sweep_kernel_picks_the_reference_slot(self, case, parameters):
        columns, ext_new, time = case
        query_extent, horizon = parameters
        cost = partial(kernels.extent_sweep_volume, query_extent=query_extent, horizon=horizon)
        for node in _nodes_to_scan(columns):
            assert kernels.soa_choose_child_sweep(
                *node, ext_new, time, query_extent, horizon
            ) == _reference_choose(node, ext_new, time, cost)

    def test_hand_built_ties_and_late_anchors(self):
        """The cases the strategy aims at, once each with the slot spelled out."""
        big = (0.0, 0.0, 100.0, 100.0, -2.0, -2.0, 2.0, 2.0, 0.0)
        small = (10.0, 10.0, 60.0, 60.0, -1.0, 0.0, -0.0, 1.0, 0.0)
        late = (10.0, 10.0, 60.0, 60.0, -1.0, 0.0, -0.0, 1.0, 9.0)  # anchored after the scan
        far = (500.0, 500.0, 510.0, 510.0, 3.0, 3.0, 3.0, 3.0, 0.0)
        inside_both = (20.0, 20.0, 20.0, 20.0, -0.5, 0.5, -0.5, 0.5)
        off_vbr = (20.0, 20.0, 20.0, 20.0, 40.0, 0.5, 40.0, 0.5)

        def slots(children, ext_new, time):
            columns = [array("d", column) for column in zip(*children)]
            area = kernels.soa_choose_child_area(*columns, ext_new, time)
            sweep = kernels.soa_choose_child_sweep(*columns, ext_new, time, 1000.0, 60.0)
            cost = partial(kernels.extent_sweep_volume, query_extent=1000.0, horizon=60.0)
            assert area == _reference_choose(columns, ext_new, time, kernels.extent_area)
            assert sweep == _reference_choose(columns, ext_new, time, cost)
            return area, sweep

        # Zero enlargement in three children: the cheaper pair wins, and of
        # the full tie between `small` and its copy the lower slot.
        assert slots([far, big, small, small], inside_both, 0.0) == (2, 2)
        # At time 4 `small` has grown, its twin anchored at 9 has not.
        assert slots([far, big, small, late], inside_both, 4.0) == (3, 3)
        # Off every VBR (the arm that recomputes the union's velocity
        # terms): spatial containment still decides the area scan, the
        # sweep scan pays for the widened VBR everywhere.
        assert slots([far, big, small, small], off_vbr, 0.0)[0] == 2

    def test_an_empty_node_has_no_child_to_choose(self):
        columns = [array("d") for _ in range(9)]
        ext_new = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            kernels.soa_choose_child_area(*columns, ext_new, 0.0)
        with pytest.raises(ValueError):
            kernels.soa_choose_child_sweep(*columns, ext_new, 0.0, 1000.0, 60.0)
