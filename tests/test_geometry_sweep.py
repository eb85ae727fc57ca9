"""Tests for sweeping regions and the TPR cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.rect import Rect
from repro.geometry.sweep import sweeping_area, sweeping_volume

speed = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestSweepingArea:
    def test_stationary_node_area_is_constant(self):
        node = MovingRect(Rect(0, 0, 2, 3), 0, 0, 0, 0)
        assert sweeping_area(node, 0.0) == pytest.approx(6.0)
        assert sweeping_area(node, 10.0) == pytest.approx(6.0)

    def test_expanding_node_area_grows_quadratically(self):
        # Unit square expanding at speed 1 on every side: (1 + 2t)^2 at time t.
        node = MovingRect(Rect(0, 0, 1, 1), -1.0, -1.0, 1.0, 1.0)
        assert sweeping_area(node, 2.0) == pytest.approx(25.0)

    def test_translating_node_sweeps_l_shape(self):
        # Unit square moving diagonally by (2, 2): bbox 3x3 minus two 2x2
        # triangles-worth (the drift term 2*2).
        node = MovingRect(Rect(0, 0, 1, 1), 2.0, 2.0, 2.0, 2.0)
        assert sweeping_area(node, 1.0) == pytest.approx(9.0 - 4.0)

    def test_negative_elapsed_raises(self):
        node = MovingRect(Rect(0, 0, 1, 1), 0, 0, 0, 0)
        with pytest.raises(ValueError):
            sweeping_area(node, -1.0)


class TestSweepingVolume:
    def test_zero_interval_is_zero(self):
        node = MovingRect(Rect(0, 0, 1, 1), -1, -1, 1, 1)
        assert sweeping_volume(node, 0.0) == 0.0

    def test_stationary_volume_is_area_times_time(self):
        node = MovingRect(Rect(0, 0, 2, 2), 0, 0, 0, 0)
        assert sweeping_volume(node, 5.0) == pytest.approx(20.0)

    def test_matches_closed_form_for_expanding_square(self):
        node = MovingRect(Rect(0, 0, 1, 1), -1.0, -1.0, 1.0, 1.0)
        # Integral of (1+2t)^2 from 0 to 3 = [ (1+2t)^3 / 6 ] = (343 - 1)/6.
        assert sweeping_volume(node, 3.0) == pytest.approx(342.0 / 6.0)

    @settings(max_examples=80, deadline=None)
    @given(extent, extent, speed, speed, speed, speed, st.floats(min_value=0.1, max_value=60.0))
    def test_closed_form_matches_numeric_integration(self, w, h, v1, v2, v3, v4, horizon):
        v_x_min, v_x_max = sorted((v1, v2))
        v_y_min, v_y_max = sorted((v3, v4))
        node = MovingRect(Rect(0.0, 0.0, w, h), v_x_min, v_y_min, v_x_max, v_y_max)
        numeric = sweeping_volume(node, horizon, steps=256)
        closed = kernels.sweep_volume(w, h, v_x_min, v_y_min, v_x_max, v_y_max, horizon)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-6)


class TestTransformedNode:
    """The TPR* cost model's transformed node, fused into ``extent_sweep_volume``."""

    def test_transformed_node_grows_by_half_query_extent(self):
        # A 10 x 10 node and a nominal 4 x 4 query: the transformed node is
        # the node grown by 2 on every side.
        ext = (10.0, 10.0, 20.0, 20.0, -1.0, 0.5, 2.0, 1.5)
        grown = MovingRect(Rect(8.0, 8.0, 22.0, 22.0), -1.0, 0.5, 2.0, 1.5)
        cost = kernels.extent_sweep_volume(ext, 4.0, 10.0)
        assert cost == pytest.approx(sweeping_volume(grown, 10.0, steps=512), rel=1e-6)
        # A stationary node sweeps its transformed area for the whole horizon.
        still = (10.0, 10.0, 20.0, 20.0, 0.0, 0.0, 0.0, 0.0)
        assert kernels.extent_sweep_volume(still, 4.0, 10.0) == pytest.approx(14.0 * 14.0 * 10.0)


class TestExpectedNodeAccesses:
    """The per-node term of Equation 1, as the TPR*-tree prices it."""

    def test_faster_nodes_cost_more(self):
        slow = (0.0, 0.0, 5.0, 5.0, -1.0, -1.0, 1.0, 1.0)
        fast = (0.0, 0.0, 5.0, 5.0, -10.0, -10.0, 10.0, 10.0)
        assert kernels.extent_sweep_volume(fast, 10.0, 10.0) > kernels.extent_sweep_volume(
            slow, 10.0, 10.0
        )
