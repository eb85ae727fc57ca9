"""Tests for the Bx-tree."""

import random

import pytest

from repro.bxtree.bx_tree import BxTree
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RectangularRange, TimeSliceRangeQuery
from repro.storage.buffer_manager import BufferManager

from tests.conftest import SMALL_SPACE, brute_force_range, make_circular_query, make_objects


def small_bx(**kwargs) -> BxTree:
    kwargs.setdefault("space", SMALL_SPACE)
    kwargs.setdefault("buffer", BufferManager(capacity=64))
    kwargs.setdefault("curve_order", 6)
    kwargs.setdefault("max_update_interval", 40.0)
    kwargs.setdefault("page_size", 512)
    return BxTree(**kwargs)


class TestKeying:
    def test_partition_and_label_time(self):
        tree = small_bx(num_buckets=2, max_update_interval=40.0)
        assert tree.bucket_duration == 20.0
        assert tree.partition_of(0.0) == 0
        assert tree.partition_of(19.9) == 0
        assert tree.partition_of(20.0) == 1
        assert tree.label_time(0) == 20.0
        assert tree.label_time(1) == 40.0

    def test_key_distinguishes_partitions(self):
        tree = small_bx()
        obj_a = MovingObject(1, Point(100, 100), Vector(0, 0), reference_time=0.0)
        obj_b = MovingObject(2, Point(100, 100), Vector(0, 0), reference_time=25.0)
        assert tree._batch_key_data([obj_a])[0] != tree._batch_key_data([obj_b])[0]

    def test_key_uses_label_time_position(self):
        tree = small_bx()
        still = MovingObject(1, Point(500, 500), Vector(0, 0), reference_time=0.0)
        mover = MovingObject(2, Point(500, 500), Vector(50.0, 0.0), reference_time=0.0)
        assert tree._batch_key_data([still])[0] != tree._batch_key_data([mover])[0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            small_bx(num_buckets=0)
        with pytest.raises(ValueError):
            small_bx(max_update_interval=0.0)
        with pytest.raises(ValueError):
            small_bx(curve="unknown-curve")


class TestUpdates:
    def test_insert_delete_roundtrip(self):
        tree = small_bx()
        objects = make_objects(50, seed=1)
        for obj in objects:
            tree.insert(obj)
        assert len(tree) == 50
        for obj in objects:
            assert tree.delete(obj)
        assert len(tree) == 0
        assert tree.active_partitions == []

    def test_delete_unknown_object(self):
        tree = small_bx()
        tree.insert(MovingObject(1, Point(10, 10), Vector(0, 0)))
        assert not tree.delete(MovingObject(2, Point(10, 10), Vector(0, 0)))

    def test_update_moves_to_new_partition(self):
        tree = small_bx()
        obj = MovingObject(1, Point(100, 100), Vector(1.0, 0.0), reference_time=0.0)
        tree.insert(obj)
        new = obj.with_update(Point(200, 100), Vector(0.0, 1.0), reference_time=25.0)
        assert tree.update(obj, new)
        assert tree.partition_of(25.0) in tree.active_partitions
        assert len(tree) == 1

    def test_rebuild_histogram_reflects_live_objects(self):
        tree = small_bx()
        fast = MovingObject(1, Point(100, 100), Vector(40.0, 0.0))
        slow = MovingObject(2, Point(200, 200), Vector(1.0, 0.0))
        tree.insert(fast)
        tree.insert(slow)
        tree.delete(fast)
        tree.rebuild_histogram()
        assert tree.histogram.global_extrema()[2] == pytest.approx(1.0)


class TestQueries:
    def test_matches_brute_force_time_slice(self):
        tree = small_bx()
        objects = make_objects(150, seed=3, max_speed=40.0)
        for obj in objects:
            tree.insert(obj)
        rng = random.Random(5)
        for _ in range(15):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            query = make_circular_query(center, 1500.0, time=rng.uniform(0, 30))
            assert set(tree.range_query(query)) == brute_force_range(objects, query)

    def test_matches_brute_force_after_updates(self):
        tree = small_bx()
        rng = random.Random(13)
        objects = {obj.oid: obj for obj in make_objects(100, seed=7, max_speed=30.0)}
        for obj in objects.values():
            tree.insert(obj)
        for time in (10.0, 25.0, 35.0):
            for oid in rng.sample(sorted(objects), 30):
                old = objects[oid]
                new = MovingObject(
                    oid,
                    old.position_at(time),
                    Vector(rng.uniform(-30, 30), rng.uniform(-30, 30)),
                    time,
                )
                tree.update(old, new)
                objects[oid] = new
        for _ in range(10):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            query = make_circular_query(center, 1500.0, time=rng.uniform(35, 60), issue_time=35.0)
            assert set(tree.range_query(query)) == brute_force_range(
                list(objects.values()), query
            )

    def test_rectangular_query(self):
        tree = small_bx()
        objects = make_objects(120, seed=9, max_speed=30.0)
        for obj in objects:
            tree.insert(obj)
        query = TimeSliceRangeQuery(
            RectangularRange(Rect(2000, 2000, 5000, 5000)), time=15.0
        )
        assert set(tree.range_query(query)) == brute_force_range(objects, query)

    def test_query_empty_tree(self):
        tree = small_bx()
        query = make_circular_query(Point(100, 100), 50.0, time=5.0)
        assert tree.range_query(query) == []

    def test_candidate_set_is_superset_of_exact(self):
        tree = small_bx()
        objects = make_objects(80, seed=15, max_speed=30.0)
        for obj in objects:
            tree.insert(obj)
        query = make_circular_query(Point(5000, 5000), 2000.0, time=20.0)
        assert set(tree.range_query(query, exact=True)) <= set(
            tree.range_query(query, exact=False)
        )

    def test_enlargement_grows_with_predictive_time(self):
        tree = small_bx()
        for obj in make_objects(100, seed=17, max_speed=40.0):
            tree.insert(obj)
        # Objects live in partition 0, whose label time is 20: a query at
        # t=21 is 1 ts away from the label, a query at t=39 is 19 ts away.
        near = make_circular_query(Point(5000, 5000), 500.0, time=21.0)
        far = make_circular_query(Point(5000, 5000), 500.0, time=39.0)
        partition = tree.active_partitions[0]
        assert tree.enlarged_window(far, partition).area >= tree.enlarged_window(
            near, partition
        ).area

    def test_z_curve_variant_answers_correctly(self):
        tree = small_bx(curve="z")
        objects = make_objects(100, seed=19, max_speed=30.0)
        for obj in objects:
            tree.insert(obj)
        query = make_circular_query(Point(4000, 6000), 1800.0, time=12.0)
        assert set(tree.range_query(query)) == brute_force_range(objects, query)

    def test_queries_cost_io(self):
        tree = small_bx(buffer=BufferManager(capacity=4))
        for obj in make_objects(200, seed=23, max_speed=40.0):
            tree.insert(obj)
        before = tree.buffer.stats.physical.reads
        tree.range_query(make_circular_query(Point(5000, 5000), 2500.0, time=30.0))
        assert tree.buffer.stats.physical.reads > before
