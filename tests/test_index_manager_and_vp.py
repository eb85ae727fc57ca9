"""Tests for the index manager (:class:`VPIndex`, Algorithm 3) and its factories."""

import copy
import pickle
import random

import pytest

from repro.bxtree.bx_tree import BxTree
from repro.core.dva import DominantVelocityAxis
from repro.core.index_manager import OUTLIER_PARTITION, VPIndex
from repro.core.partitioned_index import (
    analyze_sample,
    make_vp_bx_tree,
    make_vp_tprstar_tree,
    rotated_space_bounds,
    sample_velocities_from_objects,
)
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, MovingRangeQuery, RectangularRange, TimeSliceRangeQuery
from repro.storage.buffer_manager import BufferManager
from repro.tprtree.tprstar_tree import TPRStarTree

from tests.conftest import SMALL_SPACE, brute_force_range, make_circular_query, make_objects


def xy_partitioning(tau: float = 5.0) -> VelocityPartitioning:
    return VelocityPartitioning(
        dvas=[
            DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=tau),
            DominantVelocityAxis(axis=Vector(0.0, 1.0), tau=tau),
        ]
    )


def tpr_manager(tau: float = 5.0) -> VPIndex:
    """A hand-built TPR*(VP) index over the x and y axes."""
    buffer = BufferManager(capacity=64)
    return VPIndex(
        xy_partitioning(tau),
        lambda partition: TPRStarTree(buffer=buffer, max_entries=8),
        buffer,
        name="TPR*(VP)",
    )


def vp_index(flavour: str, objects) -> VPIndex:
    """An empty Bx(VP) or TPR*(VP) index partitioned by ``objects``' velocities."""
    partitioning = analyze_sample(sample_velocities_from_objects(objects), k=2)
    if flavour == "bx":
        return make_vp_bx_tree(partitioning, space=SMALL_SPACE, buffer_pages=32, page_size=1024)
    return make_vp_tprstar_tree(
        partitioning, buffer_pages=32, page_size=1024, space=SMALL_SPACE
    )


class TestRouting:
    def test_insert_routes_by_direction(self):
        manager = tpr_manager()
        along_x = MovingObject(1, Point(100, 100), Vector(30.0, 1.0))
        along_y = MovingObject(2, Point(200, 200), Vector(1.0, 30.0))
        diagonal = MovingObject(3, Point(300, 300), Vector(20.0, 20.0))
        for obj in (along_x, along_y, diagonal):
            manager.insert(obj)
        assert [manager.partition_of(oid) for oid in (1, 2, 3)] == [0, 1, OUTLIER_PARTITION]
        sizes = manager.partition_sizes()
        assert sizes[0] == 1 and sizes[1] == 1 and sizes[OUTLIER_PARTITION] == 1

    def test_duplicate_insert_rejected(self):
        manager = tpr_manager()
        obj = MovingObject(1, Point(0, 0), Vector(1.0, 0.0))
        manager.insert(obj)
        with pytest.raises(KeyError):
            manager.insert(obj)

    def test_delete_uses_directory(self):
        manager = tpr_manager()
        obj = MovingObject(1, Point(50, 50), Vector(25.0, 0.0))
        manager.insert(obj)
        assert manager.delete(obj)
        assert not manager.delete(obj)
        assert len(manager) == 0

    def test_update_migrates_partition_on_turn(self):
        manager = tpr_manager()
        obj = MovingObject(1, Point(50, 50), Vector(25.0, 0.0))
        manager.insert(obj)
        assert manager.partition_of(1) == 0
        turned = obj.with_update(Point(60, 50), Vector(0.5, 25.0), 5.0)
        assert manager.update(obj, turned)
        assert manager.partition_of(1) == 1
        assert len(manager) == 1

    @pytest.mark.parametrize("flavour", ["bx", "tprstar"])
    def test_update_must_keep_the_object_id(self, flavour):
        objects = make_objects(6, seed=2)
        index = vp_index(flavour, objects)
        index.insert_batch(objects[:4])
        stranger, other = objects[4], objects[5]
        with pytest.raises(ValueError, match="must keep the object id"):
            index.update(objects[0], stranger)
        moved = objects[1].with_update(objects[1].position_at(2.0), objects[1].velocity, 2.0)
        with pytest.raises(ValueError, match="must keep the object id"):
            index.update_batch([(objects[1], moved), (objects[2], other)])
        # Neither call touched the index: nothing replaced, nothing added.
        assert len(index) == 4
        assert [index.stored_object(o.oid) for o in objects] == objects[:4] + [None, None]

    def test_stored_object_returns_original_coordinates(self):
        manager = tpr_manager()
        obj = MovingObject(7, Point(123.0, 456.0), Vector(0.0, 10.0))
        manager.insert(obj)
        assert manager.stored_object(7) == obj
        assert manager.stored_object(99) is None


class TestBatchSurface:
    def test_insert_batch_matches_sequential(self):
        objects = make_objects(60, seed=11)
        sequential = tpr_manager()
        batched = tpr_manager()
        for obj in objects:
            sequential.insert(obj)
        batched.insert_batch(objects)
        assert len(batched) == len(sequential)
        for obj in objects:
            assert batched.partition_of(obj.oid) == sequential.partition_of(obj.oid)
            assert batched.stored_object(obj.oid) == obj

    def test_insert_batch_rejects_duplicates_atomically(self):
        manager = tpr_manager()
        obj = MovingObject(1, Point(50, 50), Vector(25.0, 0.0))
        manager.insert(obj)
        fresh = MovingObject(2, Point(60, 60), Vector(25.0, 0.0))
        with pytest.raises(KeyError):
            manager.insert_batch([fresh, obj])
        # Nothing from the rejected batch may have been committed.
        assert len(manager) == 1
        assert manager.partition_of(2) is None
        with pytest.raises(KeyError):
            manager.insert_batch([fresh, fresh])
        assert manager.partition_of(2) is None

    def test_delete_batch_matches_sequential(self):
        objects = make_objects(60, seed=12)
        sequential = tpr_manager()
        batched = tpr_manager()
        sequential.insert_batch(objects)
        batched.insert_batch(objects)
        stranger = MovingObject(999, Point(1, 1), Vector(1.0, 0.0))
        victims = objects[:20] + [stranger, objects[0]]
        expected = [sequential.delete(obj) for obj in victims]
        assert batched.delete_batch(victims) == expected
        assert len(batched) == len(sequential)

    def test_vp_facade_insert_delete_batch(self, axis_objects):
        partitioning = analyze_sample(
            sample_velocities_from_objects(axis_objects), k=2
        )
        index = make_vp_tprstar_tree(partitioning, buffer_pages=64, max_entries=8)
        index.insert_batch(axis_objects)
        assert len(index) == len(axis_objects)
        flags = index.delete_batch(axis_objects[:30])
        assert flags == [True] * 30
        assert len(index) == len(axis_objects) - 30
        assert index.delete_batch(axis_objects[:1]) == [False]


class TestQueryTransformation:
    def test_circular_query_stays_circular(self):
        manager = tpr_manager()
        query = TimeSliceRangeQuery(CircularRange(Point(10, 20), 5.0), time=3.0)
        transformed = manager.transform_query(query, 1)
        assert isinstance(transformed.range, CircularRange)
        assert transformed.range.radius == 5.0

    def test_rectangular_query_becomes_mbr(self):
        partitioning = VelocityPartitioning(
            dvas=[DominantVelocityAxis(axis=Vector(1.0, 1.0), tau=5.0)]
        )
        buffer = BufferManager(capacity=16)
        manager = VPIndex(
            partitioning,
            lambda p: TPRStarTree(buffer=buffer, max_entries=8),
            buffer,
            name="TPR*(VP)",
        )
        query = TimeSliceRangeQuery(RectangularRange(Rect(0, 0, 10, 10)), time=1.0)
        transformed = manager.transform_query(query, 0)
        assert isinstance(transformed.range, RectangularRange)
        # A rotated square's MBR is strictly larger than the original.
        assert transformed.range.rect.area >= 100.0

    def test_outlier_query_untouched(self):
        manager = tpr_manager()
        query = TimeSliceRangeQuery(CircularRange(Point(10, 20), 5.0), time=3.0)
        assert manager.transform_query(query, OUTLIER_PARTITION) is query

    def test_moving_query_velocity_is_rotated(self):
        manager = tpr_manager()
        query = MovingRangeQuery(
            CircularRange(Point(0, 0), 5.0), Vector(3.0, 0.0), 0.0, 5.0
        )
        transformed = manager.transform_query(query, 1)
        assert transformed.velocity is not None
        assert transformed.velocity.magnitude == pytest.approx(3.0)


class TestManagerQueriesMatchBruteForce:
    def test_range_query_correct_on_axis_aligned_objects(self):
        manager = tpr_manager(tau=8.0)
        objects = make_objects(150, axis_aligned=True, seed=71)
        for obj in objects:
            manager.insert(obj)
        rng = random.Random(5)
        for _ in range(12):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            query = make_circular_query(center, 1500.0, time=rng.uniform(0.0, 30.0))
            assert set(manager.range_query(query)) == brute_force_range(objects, query)


class TestVPFactories:
    def test_rotated_space_bounds_cover_space(self):
        partitioning = analyze_sample(
            [Vector(30.0, 1.0), Vector(-40.0, 0.5), Vector(1.0, 30.0), Vector(0.5, -20.0)], k=2
        )
        bounds = rotated_space_bounds(SMALL_SPACE, partitioning)
        assert len(bounds) == 2
        for dva, bound in zip(partitioning.dvas, bounds):
            for corner in SMALL_SPACE.corners():
                assert bound.contains_point(dva.frame.to_frame_point(corner))

    def test_sample_velocities_from_objects(self):
        objects = make_objects(10, seed=1)
        sample = sample_velocities_from_objects(objects)
        assert len(sample) == 10
        assert sample[0] == objects[0].velocity

    def _check_vp_index(self, index: VPIndex, objects):
        for obj in objects:
            index.insert(obj)
        assert len(index) == len(objects)
        rng = random.Random(3)
        for _ in range(8):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            query = make_circular_query(center, 1500.0, time=rng.uniform(0.0, 25.0))
            assert set(index.range_query(query)) == brute_force_range(objects, query)
        # Update a handful of objects and re-check.
        updated = list(objects)
        for i in rng.sample(range(len(objects)), 20):
            old = updated[i]
            new = MovingObject(
                old.oid,
                old.position_at(30.0),
                Vector(rng.uniform(-40, 40), rng.uniform(-40, 40)),
                30.0,
            )
            index.update(old, new)
            updated[i] = new
        query = make_circular_query(Point(5000, 5000), 2500.0, time=45.0, issue_time=30.0)
        assert set(index.range_query(query)) == brute_force_range(updated, query)
        # Delete everything.
        for obj in updated:
            assert index.delete(obj)
        assert len(index) == 0

    def test_vp_bx_tree_end_to_end(self):
        objects = make_objects(120, axis_aligned=True, seed=81, max_speed=40.0)
        partitioning = analyze_sample(sample_velocities_from_objects(objects), k=2)
        index = make_vp_bx_tree(
            partitioning,
            space=SMALL_SPACE,
            buffer_pages=32,
            max_update_interval=40.0,
            curve_order=6,
            page_size=512,
        )
        assert index.name == "Bx(VP)"
        assert len(index.dva_indexes) == 2
        assert isinstance(index.outlier_index, BxTree)
        self._check_vp_index(index, objects)

    def test_vp_tprstar_tree_end_to_end(self):
        objects = make_objects(120, axis_aligned=True, seed=83, max_speed=40.0)
        partitioning = analyze_sample(sample_velocities_from_objects(objects), k=2)
        index = make_vp_tprstar_tree(partitioning, buffer_pages=32, max_entries=8)
        assert index.name == "TPR*(VP)"
        assert all(isinstance(t, TPRStarTree) for t in index.dva_indexes)
        self._check_vp_index(index, objects)

    def test_partition_sizes_add_up(self):
        objects = make_objects(60, axis_aligned=True, seed=85)
        partitioning = analyze_sample(sample_velocities_from_objects(objects), k=2)
        index = make_vp_tprstar_tree(partitioning, buffer_pages=16, max_entries=8)
        for obj in objects:
            index.insert(obj)
        sizes = index.partition_sizes()
        assert sum(sizes.values()) == len(objects)

    @pytest.mark.parametrize("flavour", ["bx", "tprstar"])
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda i: pickle.loads(pickle.dumps(i))])
    def test_loaded_index_survives_pickle_and_deepcopy(self, flavour, clone):
        # VP shards are pickled into process workers and deep-copied as
        # recovery baselines: the index must hold no closure.
        objects = make_objects(150, axis_aligned=True, seed=87)
        index = vp_index(flavour, objects)
        index.bulk_load(objects)
        twin = clone(index)
        assert twin is not index and twin.buffer is twin.outlier_index.buffer
        moved = [
            (obj, obj.with_update(obj.position_at(4.0), obj.velocity, 4.0))
            for obj in objects[:30]
        ]
        for each in (index, twin):
            assert each.update_batch(moved) == [True] * len(moved)
        rng = random.Random(13)
        queries = [
            make_circular_query(
                Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                1500.0,
                time=rng.uniform(4.0, 25.0),
                issue_time=4.0,
            )
            for _ in range(8)
        ]
        assert twin.range_query_batch(queries) == index.range_query_batch(queries)
        probe = dict(center=Point(5000, 5000), k=7, query_time=10.0, issue_time=4.0)
        assert twin.knn_query(**probe) == index.knn_query(**probe)
        assert twin.partition_sizes() == index.partition_sizes()
