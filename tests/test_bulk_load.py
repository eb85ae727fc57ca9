"""Bulk loading must be indistinguishable from incremental building.

For seeded workloads, a bulk-loaded index must return exactly the same
range- and kNN-query result sets as an index built by N individual
insertions, keep every structural invariant (balanced height, min/max node
fill), and behave identically under subsequent incremental updates.  The
Bx bulk load is also held, bit for bit, to the per-object loop it replaced.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import bulk
from repro.btree.bplus_tree import BPlusTree
from repro.bxtree.bx_tree import BxTree
from repro.core.partitioned_index import (
    analyze_sample,
    make_index,
    make_vp_bx_tree,
    make_vp_tprstar_tree,
    sample_velocities_from_objects,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.objects.queries import (
    CircularRange,
    TimeIntervalRangeQuery,
    TimeSliceRangeQuery,
)
from repro.core.velocity_analyzer import VelocityAnalyzer
from repro.storage.buffer_manager import BufferManager
from repro.tprtree.tpr_tree import TPRTree
from repro.tprtree.tprstar_tree import TPRStarTree
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

from tests.conftest import SMALL_SPACE, brute_force_range, make_objects


def some_queries(space: Rect, seed: int = 21, count: int = 12, earliest: float = 0.0):
    """Seeded time-slice / time-interval queries starting no earlier than ``earliest``.

    The TPR family refuses a query before its clock, so a fixture that
    moved objects to time t asks with ``earliest=t``.
    """
    rng = random.Random(seed)
    queries = []
    for index in range(count):
        center = Point(
            rng.uniform(space.x_min, space.x_max),
            rng.uniform(space.y_min, space.y_max),
        )
        radius = rng.uniform(300.0, 1500.0)
        if index % 2:
            queries.append(
                TimeSliceRangeQuery(
                    CircularRange(center, radius), time=earliest + rng.uniform(0.0, 30.0)
                )
            )
        else:
            queries.append(
                TimeIntervalRangeQuery(
                    CircularRange(center, radius),
                    start_time=earliest + rng.uniform(0.0, 10.0),
                    end_time=earliest + rng.uniform(10.0, 40.0),
                )
            )
    return queries


def assert_equivalent_queries(bulk_index, incremental_index, objects, queries):
    """Both indexes answer every query with byte-identical result sets."""
    for query in queries:
        bulk_results = sorted(bulk_index.range_query(query))
        incremental_results = sorted(incremental_index.range_query(query))
        assert bulk_results == incremental_results
        assert set(bulk_results) == brute_force_range(objects, query)


def assert_tpr_invariants(tree: TPRTree):
    """Uniform leaf depth and min/max fill on every non-root node."""
    depths = set()

    def walk(page_id: int, depth: int):
        node = tree._node(page_id)
        if page_id != tree.root_page_id:
            assert node.num_entries >= tree.min_entries
        assert node.num_entries <= tree.max_entries
        if node.is_leaf:
            depths.add(depth)
            return
        for child_page_id in node.refs:
            walk(child_page_id, depth + 1)

    walk(tree.root_page_id, 1)
    assert depths == {tree.height}


class TestBPlusTreeBulkLoad:
    def test_bulk_matches_incremental(self):
        rng = random.Random(5)
        items = [(rng.randint(0, 500), f"value-{i}") for i in range(800)]
        bulk = BPlusTree(page_size=512)
        bulk.bulk_load(items)
        incremental = BPlusTree(page_size=512)
        for pair in items:
            incremental.apply_batch((), [pair])
        assert len(bulk) == len(incremental) == len(items)
        # Both keep duplicates in arrival order, so even the order agrees.
        assert list(bulk.items()) == list(incremental.items())
        for key in {k for k, _ in items[:100]}:
            assert bulk.range_search(key, key) == incremental.range_search(key, key)
        assert bulk.range_search(100, 300) == incremental.range_search(100, 300)

    def test_bulk_load_leaf_chain_is_key_ordered(self):
        tree = BPlusTree(leaf_capacity=4, interior_capacity=4)
        tree.bulk_load([(i * 3 % 97, i) for i in range(97)])
        keys = [key for key, _ in tree.items()]
        assert keys == sorted(keys)
        assert len(keys) == 97

    def test_updates_after_bulk_load(self):
        tree = BPlusTree(leaf_capacity=6, interior_capacity=5)
        tree.bulk_load([(i, i) for i in range(200)])
        assert tree.apply_batch([(13, 13)], ()) == ([True], [])
        tree.apply_batch((), [(13, "replaced")])
        assert tree.range_search(13, 13) == [(13, "replaced")]
        assert len(tree) == 200

    def test_bulk_load_requires_empty_tree(self):
        tree = BPlusTree()
        tree.apply_batch((), [(1, "one")])
        with pytest.raises(ValueError):
            tree.bulk_load([(2, "two")])

    def test_bulk_load_empty_is_noop(self):
        tree = BPlusTree()
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.range_search(0, 10) == []


@pytest.mark.parametrize("tree_cls", [TPRTree, TPRStarTree])
class TestTPRBulkLoad:
    def build_pair(self, tree_cls, objects):
        bulk = tree_cls(buffer=BufferManager(capacity=64), page_size=1024)
        bulk.bulk_load(objects)
        incremental = tree_cls(buffer=BufferManager(capacity=64), page_size=1024)
        for obj in objects:
            incremental.insert(obj)
        return bulk, incremental

    def test_query_equivalence(self, tree_cls):
        objects = make_objects(400, seed=11)
        bulk, incremental = self.build_pair(tree_cls, objects)
        assert len(bulk) == len(incremental) == 400
        assert_equivalent_queries(
            bulk, incremental, objects, some_queries(SMALL_SPACE)
        )

    def test_structure_invariants(self, tree_cls):
        for count in (5, 37, 150, 400):
            tree = tree_cls(buffer=BufferManager(capacity=64), page_size=1024)
            tree.bulk_load(make_objects(count, seed=count))
            assert len(tree) == count
            assert_tpr_invariants(tree)

    def test_knn_equivalence(self, tree_cls):
        objects = make_objects(300, seed=13)
        bulk, incremental = self.build_pair(tree_cls, objects)
        for center in (Point(2_000.0, 2_000.0), Point(8_000.0, 5_000.0)):
            expected = incremental.knn_query(center, 10, 15.0, space=SMALL_SPACE)
            assert len(expected) == 10
            assert bulk.knn_query(center, 10, 15.0, space=SMALL_SPACE) == expected

    def test_updates_after_bulk_load(self, tree_cls):
        objects = make_objects(200, seed=17)
        bulk, incremental = self.build_pair(tree_cls, objects)
        rng = random.Random(3)
        for obj in rng.sample(objects, 40):
            moved = obj.with_update(
                position=obj.position_at(20.0),
                velocity=obj.velocity,
                reference_time=20.0,
            )
            assert bulk.update(obj, moved)
            incremental.update(obj, moved)
        updated = {obj.oid: obj for obj in objects}
        assert_equivalent_queries(
            bulk,
            incremental,
            list(updated.values()),
            some_queries(SMALL_SPACE, seed=33, earliest=20.0),
        )
        assert_tpr_invariants(bulk)

    def test_bulk_load_requires_empty_tree(self, tree_cls):
        objects = make_objects(10, seed=1)
        tree = tree_cls()
        tree.insert(objects[0])
        with pytest.raises(ValueError):
            tree.bulk_load(objects[1:])


class TestBxBulkLoad:
    def build_pair(self, objects):
        bulk = BxTree(space=SMALL_SPACE, page_size=1024)
        bulk.bulk_load(objects)
        incremental = BxTree(space=SMALL_SPACE, page_size=1024)
        for obj in objects:
            incremental.insert(obj)
        return bulk, incremental

    def test_query_equivalence(self):
        objects = make_objects(400, seed=19)
        bulk, incremental = self.build_pair(objects)
        assert len(bulk) == len(incremental) == 400
        assert bulk.active_partitions == incremental.active_partitions
        assert_equivalent_queries(
            bulk, incremental, objects, some_queries(SMALL_SPACE, seed=44)
        )

    def test_histogram_matches_incremental(self):
        objects = make_objects(150, seed=23)
        bulk, incremental = self.build_pair(objects)
        assert bulk.histogram.global_extrema() == pytest.approx(
            incremental.histogram.global_extrema()
        )

    def test_updates_after_bulk_load(self):
        objects = make_objects(150, seed=29)
        bulk, incremental = self.build_pair(objects)
        rng = random.Random(7)
        for obj in rng.sample(objects, 30):
            moved = obj.with_update(
                position=obj.position_at(10.0),
                velocity=obj.velocity,
                reference_time=10.0,
            )
            assert bulk.update(obj, moved)
            incremental.update(obj, moved)
        assert_equivalent_queries(
            bulk,
            incremental,
            [],
            [],
        )
        for query in some_queries(SMALL_SPACE, seed=55):
            assert sorted(bulk.range_query(query)) == sorted(
                incremental.range_query(query)
            )

    def test_bulk_load_requires_empty_index(self):
        objects = make_objects(5, seed=2)
        tree = BxTree(space=SMALL_SPACE)
        tree.insert(objects[0])
        with pytest.raises(ValueError):
            tree.bulk_load(objects[1:])


class TestVPIndexBulkLoad:
    @pytest.mark.parametrize("kind", ["bx", "tprstar"])
    def test_query_equivalence_and_directory(self, kind):
        objects = make_objects(300, axis_aligned=True, seed=31)
        partitioning = analyze_sample(sample_velocities_from_objects(objects))

        def build(partitioning):
            if kind == "bx":
                return make_vp_bx_tree(
                    partitioning, space=SMALL_SPACE, buffer_pages=64, page_size=1024
                )
            return make_vp_tprstar_tree(
                partitioning, buffer_pages=64, page_size=1024
            )

        bulk = build(partitioning)
        bulk.bulk_load(objects)
        incremental = build(partitioning)
        for obj in objects:
            incremental.insert(obj)
        assert len(bulk) == len(incremental) == len(objects)
        assert bulk.partition_sizes() == incremental.partition_sizes()
        for oid in (0, 7, 299):
            assert bulk.partition_of(oid) == incremental.partition_of(oid)
        assert_equivalent_queries(
            bulk, incremental, objects, some_queries(SMALL_SPACE, seed=66)
        )
        # Updates keep working (objects may migrate partitions).
        sample = random.Random(9).sample(objects, 25)
        for obj in sample:
            moved = obj.with_update(
                position=obj.position_at(12.0),
                velocity=obj.velocity,
                reference_time=12.0,
            )
            assert bulk.update(obj, moved)
            incremental.update(obj, moved)
        for query in some_queries(SMALL_SPACE, seed=77, earliest=12.0):
            assert sorted(bulk.range_query(query)) == sorted(
                incremental.range_query(query)
            )

    def test_failed_bulk_load_leaves_directory_consistent(self):
        objects = make_objects(40, axis_aligned=True, seed=37)
        partitioning = analyze_sample(sample_velocities_from_objects(objects))
        index = make_vp_bx_tree(
            partitioning, space=SMALL_SPACE, buffer_pages=64, page_size=1024
        )
        index.bulk_load(objects[:20])
        with pytest.raises(KeyError):
            index.bulk_load(objects[10:30])  # oids 10-19 are already indexed
        # The rejected load must not have committed anything: the directory
        # still matches the sub-index contents exactly.
        assert len(index) == 20
        assert index.partition_of(25) is None
        assert sum(index.partition_sizes().values()) == 20
        # Duplicate oids inside one batch are rejected up front as well.
        fresh = make_vp_bx_tree(
            partitioning, space=SMALL_SPACE, buffer_pages=64, page_size=1024
        )
        with pytest.raises(KeyError):
            fresh.bulk_load([objects[0], objects[0]])
        assert len(fresh) == 0


# ----------------------------------------------------------------------
# Bx bulk load against the per-object loop it replaced
# ----------------------------------------------------------------------
IDENTITY_PARAMS = WorkloadParameters(num_objects=2_000, time_duration=150.0, num_queries=0)


def object_loop_bulk_load(tree: BxTree, objects) -> None:
    """The reference model: ``BxTree.bulk_load`` as one scalar step per object.

    Partition, label position, grid cell and curve index of every snapshot
    through the scalar helpers, one histogram ``add`` and one partition bump
    each, then one packing of the key store.
    """
    objects = list(objects)
    if tree.size:
        raise ValueError("bulk_load requires an empty index")
    if not objects:
        return
    pairs = []
    for obj in objects:
        tree.current_time = max(tree.current_time, obj.reference_time)
        partition = tree.partition_of(obj.reference_time)
        tree._bump_partition(partition, 1)
        position = obj.position_at(tree.label_time(partition))
        tree.histogram.add(position, obj.velocity)
        cell = tree.grid.cell_of(position)
        pairs.append((partition * tree._curve_size + tree.curve.encode(*cell), obj))
    tree.store.bulk_load(pairs)
    tree.size = len(objects)


@pytest.fixture(scope="module", params=("SA", "uniform"))
def latest_snapshots(request):
    """Every object's last snapshot of a 150-timestamp stream (three Bx partitions)."""
    workload = build_workload(request.param, IDENTITY_PARAMS, include_queries=False)
    latest = {obj.oid: obj for obj in workload.initial_objects}
    for event in workload.events:
        if isinstance(event, UpdateEvent):
            latest[event.new.oid] = event.new
    return workload, list(latest.values())


def _bx_trees(index):
    return [*index.dva_indexes, index.outlier_index] if hasattr(index, "dva_indexes") else [index]


def _construction_state(index):
    """What a bulk load leaves: per Bx tree, its whole state; then every page and counter."""
    state = []
    for tree in _bx_trees(index):
        state += [
            list(tree.store.items()),
            tree.histogram._extrema.tobytes(),
            tree.histogram._count.tobytes(),
            dict(tree._partition_counts),
            list(tree.active_partitions),
            tree.current_time,
            tree.size,
        ]
    buffer = index.buffer
    disk = buffer.disk
    stats = buffer.stats
    state += [
        list(buffer._frames),
        [
            (page_id, disk.peek(page_id).dirty, pickle.dumps(disk.peek(page_id).payload))
            for page_id in sorted(disk.allocated_page_ids)
        ],
        (
            stats.physical.reads,
            stats.physical.writes,
            stats.logical.reads,
            stats.logical.writes,
            stats.buffer.hits,
            stats.buffer.misses,
        ),
    ]
    return state


@pytest.mark.parametrize("count", (None, 5))
@pytest.mark.parametrize("key_store", ("btree", "flat"))
@pytest.mark.parametrize("family", ("Bx", "Bx(VP)"))
def test_bulk_load_equals_the_object_loop(latest_snapshots, family, key_store, count, monkeypatch):
    """The batch key pass builds what the per-object loop built, bit for bit.

    Twin indexes load the same snapshots, one through ``BxTree.bulk_load``
    and one with it patched to :func:`object_loop_bulk_load` (a VP index
    loads every sub-tree through it).  Store items, histogram bytes,
    partition counters, clock, size, every page image and all six I/O
    counters must agree: on ~2,000 objects over three partitions, and on a
    load of five, below ``MIN_VECTOR_BATCH``.
    """
    workload, snapshots = latest_snapshots
    objects = snapshots[:count]
    partitioning = VelocityAnalyzer().analyze(workload.velocity_sample())

    def load():
        index = make_index(
            family,
            partitioning=partitioning,
            key_store=key_store,
            **IDENTITY_PARAMS.index_kwargs(),
        )
        index.bulk_load(objects)
        return index

    batched = load()
    with monkeypatch.context() as patch:
        patch.setattr(BxTree, "bulk_load", object_loop_bulk_load)
        model = load()
    if count is None:
        assert len({p for tree in _bx_trees(model) for p in tree.active_partitions}) >= 3
    else:
        assert count < bulk.MIN_VECTOR_BATCH
    assert _construction_state(batched) == _construction_state(model)
