"""Tests for the kNN filter-and-refine query and the Section 5.5 τ adaptation."""

import math
import random

import pytest

from repro.bxtree.bx_tree import BxTree
from repro.bxtree.grid import CountGrid
from repro.core.adaptation import TauMonitor, refresh_taus
from repro.core.dva import DominantVelocityAxis
from repro.core.partitioned_index import (
    analyze_sample,
    make_vp_tprstar_tree,
    sample_velocities_from_objects,
)
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.objects.knn import MIN_SEED_RADIUS, density_seed
from repro.storage.buffer_manager import BufferManager
from repro.tprtree.tprstar_tree import TPRStarTree

from tests.conftest import SMALL_SPACE, make_objects


def brute_force_knn(objects, center, k, time):
    ranked = sorted(
        ((obj.position_at(time).distance_to(center), obj.oid) for obj in objects)
    )
    return [(oid, dist) for dist, oid in ranked[:k]]


class TestKNN:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_knn_on_tprstar_matches_brute_force(self, k):
        objects = make_objects(150, seed=31, max_speed=40.0)
        tree = TPRStarTree(buffer=BufferManager(capacity=64), max_entries=8)
        for obj in objects:
            tree.insert(obj)
        rng = random.Random(4)
        for _ in range(5):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            time = rng.uniform(0.0, 30.0)
            result = tree.knn_query(center, k, time, space=SMALL_SPACE)
            expected = brute_force_knn(objects, center, k, time)
            assert [oid for oid, _ in result] == [oid for oid, _ in expected]

    def test_knn_on_bx_tree(self):
        objects = make_objects(120, seed=33, max_speed=30.0)
        tree = BxTree(
            buffer=BufferManager(capacity=64),
            space=SMALL_SPACE,
            curve_order=6,
            max_update_interval=40.0,
            page_size=512,
        )
        for obj in objects:
            tree.insert(obj)
        center = Point(5_000.0, 5_000.0)
        result = tree.knn_query(center, 7, 15.0, space=SMALL_SPACE)
        assert [oid for oid, _ in result] == [
            oid for oid, _ in brute_force_knn(objects, center, 7, 15.0)
        ]

    def test_knn_on_vp_index(self):
        objects = make_objects(150, seed=35, axis_aligned=True, max_speed=40.0)
        partitioning = analyze_sample(sample_velocities_from_objects(objects), k=2)
        index = make_vp_tprstar_tree(partitioning, buffer_pages=32, max_entries=8)
        for obj in objects:
            index.insert(obj)
        center = Point(4_000.0, 6_000.0)
        result = index.knn_query(center, 9, 20.0, space=SMALL_SPACE)
        assert [oid for oid, _ in result] == [
            oid for oid, _ in brute_force_knn(objects, center, 9, 20.0)
        ]

    def test_distances_are_sorted_and_correct(self):
        objects = make_objects(80, seed=37)
        tree = TPRStarTree(buffer=BufferManager(capacity=32), max_entries=8)
        for obj in objects:
            tree.insert(obj)
        center = Point(2_000.0, 2_000.0)
        result = tree.knn_query(center, 10, 5.0, space=SMALL_SPACE)
        distances = [d for _, d in result]
        assert distances == sorted(distances)
        for oid, distance in result:
            obj = next(o for o in objects if o.oid == oid)
            assert obj.position_at(5.0).distance_to(center) == pytest.approx(distance)

    def test_k_larger_than_population(self):
        objects = make_objects(5, seed=39)
        tree = TPRStarTree(buffer=BufferManager(capacity=16), max_entries=8)
        for obj in objects:
            tree.insert(obj)
        result = tree.knn_query(Point(0.0, 0.0), 50, 1.0, space=SMALL_SPACE)
        assert len(result) == 5

    def test_k_zero(self):
        tree = TPRStarTree(buffer=BufferManager(capacity=16))
        assert tree.knn_query(Point(0, 0), 0, 1.0) == []

    def test_the_seed_radius_follows_the_cell_counts(self):
        rng = random.Random(5)
        center = Point(5_000.0, 5_000.0)

        def seeded(count):
            density = CountGrid.over(SMALL_SPACE, 50)
            xs = [rng.uniform(0.0, SMALL_SPACE.width) for _ in range(count)]
            ys = [rng.uniform(0.0, SMALL_SPACE.height) for _ in range(count)]
            density.add(xs, ys, 1)
            return density_seed(density, center, 6)

        assert seeded(10) > seeded(10_000) >= MIN_SEED_RADIUS
        # Fewer than ``target`` objects in the whole grid: the diagonal.
        empty = CountGrid.over(SMALL_SPACE, 50)
        diagonal = math.hypot(SMALL_SPACE.width, SMALL_SPACE.height)
        assert density_seed(empty, center, 6) == diagonal
        # Two objects in the probe's own cell and four in a cell 3 columns
        # away: the sum reaches 6 at that cell's centre.
        cell = empty.grid.cell_width
        empty.add([center.x, center.x], [center.y, center.y], 1)
        assert density_seed(empty, center, 6) == diagonal
        empty.add([center.x + 3 * cell] * 4, [center.y] * 4, 1)
        probe_cx = SMALL_SPACE.x_min + (int(center.x / cell) + 3.5) * cell
        probe_cy = SMALL_SPACE.y_min + (int(center.y / cell) + 0.5) * cell
        expected = math.hypot(probe_cx - center.x, probe_cy - center.y)
        assert density_seed(empty, center, 6) == pytest.approx(expected)
        assert density_seed(empty, center, 2) == pytest.approx(
            math.hypot(probe_cx - 3 * cell - center.x, probe_cy - center.y)
        )


class TestTauAdaptation:
    def _partitioning(self):
        return VelocityPartitioning(
            dvas=[
                DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=1.0),
                DominantVelocityAxis(axis=Vector(0.0, 1.0), tau=1.0),
            ]
        )

    def test_monitor_routes_to_nearest_axis(self):
        monitor = TauMonitor(self._partitioning(), reservoir_size=100)
        monitor.observe(Vector(50.0, 2.0))   # x-axis traveler
        monitor.observe(Vector(3.0, 40.0))   # y-axis traveler
        assert monitor.observations(0) == 1
        assert monitor.observations(1) == 1
        assert list(monitor.samples(0)) == [pytest.approx(2.0)]

    def test_reservoir_is_bounded(self):
        monitor = TauMonitor(self._partitioning(), reservoir_size=50)
        for i in range(500):
            monitor.observe(Vector(30.0, (i % 10) / 10.0))
        assert len(monitor.samples(0)) == 50
        assert monitor.observations(0) == 500

    def test_refresh_keeps_tau_without_enough_samples(self):
        partitioning = self._partitioning()
        monitor = TauMonitor(partitioning)
        for _ in range(10):
            monitor.observe(Vector(30.0, 0.5))
        updated = refresh_taus(monitor, min_samples=50)
        assert updated.dvas[0].tau == partitioning.dvas[0].tau

    def test_refresh_adapts_to_slower_traffic(self):
        """Rush hour: perpendicular speeds drop, so the recomputed τ drops too
        (and vice versa), while the axes stay fixed (Section 5.5)."""
        rng = random.Random(0)
        partitioning = self._partitioning()
        monitor = TauMonitor(partitioning, reservoir_size=1_000)
        # Phase 1: wide perpendicular spread plus clear outliers.
        for _ in range(800):
            monitor.observe(Vector(60.0, rng.uniform(0.0, 8.0)))
        for _ in range(80):
            monitor.observe(Vector(60.0, rng.uniform(40.0, 50.0)))
        wide = refresh_taus(monitor)
        # Phase 2: a fresh monitor sees only slow perpendicular drift.
        monitor2 = TauMonitor(wide, reservoir_size=1_000)
        for _ in range(800):
            monitor2.observe(Vector(60.0, rng.uniform(0.0, 2.0)))
        narrow = refresh_taus(monitor2)
        assert narrow.dvas[0].tau < wide.dvas[0].tau
        assert narrow.dvas[0].axis == wide.dvas[0].axis

    def test_invalid_reservoir_size(self):
        with pytest.raises(ValueError):
            TauMonitor(self._partitioning(), reservoir_size=1)
