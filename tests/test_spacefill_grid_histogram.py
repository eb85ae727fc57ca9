"""Tests for space-filling curves, the grid, and the velocity histogram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bxtree.grid import Grid
from repro.bxtree.spacefill import HilbertCurve, ZCurve
from repro.bxtree.velocity_histogram import VelocityHistogram
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector


class TestCurvesCommon:
    @pytest.mark.parametrize("curve_cls", [HilbertCurve, ZCurve])
    def test_encode_decode_roundtrip_exhaustive_small(self, curve_cls):
        curve = curve_cls(order=3)
        seen = set()
        for cx in range(curve.cells_per_side):
            for cy in range(curve.cells_per_side):
                index = curve.encode(cx, cy)
                assert 0 <= index <= curve.max_index
                assert curve.decode(index) == (cx, cy)
                seen.add(index)
        assert len(seen) == curve.cells_per_side**2  # bijection

    @pytest.mark.parametrize("curve_cls", [HilbertCurve, ZCurve])
    def test_out_of_range_cell_raises(self, curve_cls):
        curve = curve_cls(order=2)
        with pytest.raises(ValueError):
            curve.encode(4, 0)
        with pytest.raises(ValueError):
            curve.decode(curve.max_index + 1)

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            HilbertCurve(0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_hilbert_roundtrip_order8(self, cx, cy):
        curve = HilbertCurve(order=8)
        assert curve.decode(curve.encode(cx, cy)) == (cx, cy)

    def test_hilbert_consecutive_indexes_are_adjacent_cells(self):
        """The defining locality property of the Hilbert curve."""
        curve = HilbertCurve(order=4)
        for index in range(curve.max_index):
            x1, y1 = curve.decode(index)
            x2, y2 = curve.decode(index + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    @pytest.mark.parametrize("curve_cls", [HilbertCurve, ZCurve])
    def test_index_table_matches_encode(self, curve_cls):
        curve = curve_cls(order=4)
        table = curve.index_table()
        assert table is curve_cls(order=4).index_table()  # one memoized table
        assert not table.flags.writeable
        for cx in range(curve.cells_per_side):
            for cy in range(curve.cells_per_side):
                assert table[cx, cy] == curve.encode(cx, cy)

    def test_orders_beyond_the_index_table_are_refused(self):
        from repro.bxtree.bx_tree import BxTree

        with pytest.raises(ValueError, match="above order 9"):
            BxTree(curve_order=10)
        with pytest.raises(ValueError, match="above order 9"):
            ZCurve(order=10).encode_many(np.array([0]), np.array([0]))

    def test_ranges_merge_consecutive_indexes(self):
        curve = HilbertCurve(order=3)
        indexes = np.array([4, 5, 6, 10, 12])
        assert curve.ranges_from_sorted_indexes(indexes) == [(4, 6), (10, 10), (12, 12)]

    def test_ranges_merge_gap(self):
        curve = HilbertCurve(order=3)
        indexes = np.array([4, 8, 20])
        assert curve.ranges_from_sorted_indexes(indexes, merge_gap=4) == [(4, 8), (20, 20)]
        assert curve.ranges_from_sorted_indexes(indexes[:0], merge_gap=4) == []
        with pytest.raises(ValueError):
            curve.ranges_from_sorted_indexes(indexes, merge_gap=-1)


class TestGrid:
    def setup_method(self):
        self.grid = Grid(Rect(0.0, 0.0, 100.0, 50.0), cells_x=10, cells_y=5)

    def test_cell_dimensions(self):
        assert self.grid.cell_width == 10.0
        assert self.grid.cell_height == 10.0

    def test_cell_of_interior_point(self):
        assert self.grid.cell_of(Point(25.0, 15.0)) == (2, 1)

    def test_cell_of_clamps_outside_points(self):
        assert self.grid.cell_of(Point(-5.0, -5.0)) == (0, 0)
        assert self.grid.cell_of(Point(1000.0, 1000.0)) == (9, 4)

    def test_cell_rect_roundtrip(self):
        width, height = self.grid.cell_width, self.grid.cell_height
        for cx in range(self.grid.cells_x):
            for cy in range(self.grid.cells_y):
                center = Point((cx + 0.5) * width, (cy + 0.5) * height)
                assert self.grid.cell_of(center) == (cx, cy)

    def test_cell_span(self):
        assert self.grid.cell_span(5.0, 5.0, 25.0, 15.0) == (0, 0, 2, 1)
        # Corners outside the space clamp to the border cells.
        assert self.grid.cell_span(-50.0, 20.0, 1000.0, 1000.0) == (0, 2, 9, 4)
        assert self.grid.cell_span(-50.0, -50.0, -10.0, -10.0) == (0, 0, 0, 0)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            Grid(Rect(0, 0, 1, 1), 0, 5)


class TestVelocityHistogram:
    def setup_method(self):
        self.hist = VelocityHistogram(Grid(Rect(0, 0, 100, 100), 10, 10))

    def test_extrema_of_empty_histogram_are_zero(self):
        assert self.hist.extrema_in(0, 0, 100, 100) == (0.0, 0.0, 0.0, 0.0)

    def test_add_updates_extrema(self):
        self.hist.add(Point(5, 5), Vector(10.0, -3.0))
        self.hist.add(Point(6, 6), Vector(-2.0, 7.0))
        assert self.hist.extrema_in(0, 0, 10, 10) == (-2.0, -3.0, 10.0, 7.0)

    def test_extrema_respect_region(self):
        self.hist.add(Point(5, 5), Vector(50.0, 50.0))
        self.hist.add(Point(95, 95), Vector(-50.0, -50.0))
        min_vx, min_vy, max_vx, max_vy = self.hist.extrema_in(0, 0, 20, 20)
        # Only the slow-corner object is in the region, so the fast negative
        # velocities of the far corner must not leak into the extrema.
        assert (min_vx, min_vy, max_vx, max_vy) == (50.0, 50.0, 50.0, 50.0)

    def test_remove_decrements_count(self):
        self.hist.add(Point(5, 5), Vector(1.0, 1.0))
        self.hist.remove(Point(5, 5))
        assert self.hist.total_objects == 0

    def test_rebuild(self):
        self.hist.add(Point(5, 5), Vector(99.0, 99.0))
        self.hist.rebuild([(Point(50, 50), Vector(1.0, 2.0))])
        assert self.hist.total_objects == 1
        assert self.hist.global_extrema() == (1.0, 2.0, 1.0, 2.0)

    def test_global_extrema_covers_everything(self):
        self.hist.add(Point(1, 1), Vector(-5.0, 0.0))
        self.hist.add(Point(99, 99), Vector(8.0, -1.0))
        assert self.hist.global_extrema() == (-5.0, -1.0, 8.0, 0.0)


def _interleave_reference(value: int) -> int:
    """The original per-bit interleaving loop, kept as the ground truth."""
    result = 0
    bit = 0
    while value:
        result |= (value & 1) << (2 * bit)
        value >>= 1
        bit += 1
    return result


def _deinterleave_reference(value: int) -> int:
    """The original per-bit de-interleaving loop, kept as the ground truth."""
    result = 0
    bit = 0
    while value:
        result |= (value & 1) << bit
        value >>= 2
        bit += 1
    return result


class TestMagicNumberInterleave:
    """The constant-time bit spreading must match the old per-bit loops."""

    from repro.bxtree.spacefill import _deinterleave, _interleave

    _interleave = staticmethod(_interleave)
    _deinterleave = staticmethod(_deinterleave)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 31) - 1))
    def test_interleave_matches_reference(self, value):
        assert self._interleave(value) == _interleave_reference(value)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    def test_deinterleave_matches_reference(self, value):
        assert self._deinterleave(value) == _deinterleave_reference(value)

    def test_boundary_values(self):
        for value in (0, 1, 2, 3, (1 << 31) - 1, 1 << 30):
            assert self._interleave(value) == _interleave_reference(value)
            assert self._deinterleave(self._interleave(value)) == value

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 31) - 1),
        st.integers(min_value=0, max_value=(1 << 31) - 1),
    )
    def test_zcurve_encode_matches_reference_composition(self, cx, cy):
        curve = ZCurve(order=31)
        assert curve.encode(cx, cy) == _interleave_reference(cx) | (
            _interleave_reference(cy) << 1
        )
