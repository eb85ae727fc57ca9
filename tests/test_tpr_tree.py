"""Tests for the TPR-tree and TPR*-tree."""

import hashlib
import math
import random
import struct
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioned_index import (
    analyze_sample,
    make_index,
    make_vp_tprstar_tree,
    sample_velocities_from_objects,
)
from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.knn import KNNQuery
from repro.objects.queries import (
    CircularRange,
    MovingRangeQuery,
    RectangularRange,
    TimeIntervalRangeQuery,
    TimeSliceRangeQuery,
)
from repro.geometry.rect import Rect
from repro.serve import ShardedIndex
from repro.storage.buffer_manager import BufferManager
from repro.tprtree.node import TPREntry, TPRNode
from repro.tprtree.tpr_tree import TPRTree
from repro.tprtree.tprstar_tree import TPRStarTree

from tests.conftest import brute_force_range, make_circular_query, make_objects


def small_tree(cls=TPRStarTree, **kwargs) -> TPRTree:
    kwargs.setdefault("max_entries", 8)
    kwargs.setdefault("buffer", BufferManager(capacity=128))
    return cls(**kwargs)


class TestNode:
    def test_entry_must_reference_exactly_one_target(self):
        bound = MovingObject(1, Point(0, 0), Vector(0, 0)).as_moving_rect()
        with pytest.raises(ValueError):
            TPREntry(bound=bound)
        with pytest.raises(ValueError):
            TPREntry(bound=bound, child_page_id=1, oid=2)

    def test_node_bound_requires_entries(self):
        node = TPRNode(page_id=0, is_leaf=True)
        with pytest.raises(ValueError):
            node.bound(0.0)

    def test_find_and_remove_child_entry(self):
        bound = MovingObject(1, Point(0, 0), Vector(0, 0)).as_moving_rect()
        node = TPRNode(page_id=0, is_leaf=False)
        node.append_entry(TPREntry(bound=bound, child_page_id=7))
        assert node.find_entry_for_child(7).child_page_id == 7
        node.remove_entry_for_child(7)
        assert node.num_entries == 0
        with pytest.raises(KeyError):
            node.find_entry_for_child(7)


# ----------------------------------------------------------------------
# The node's cached tight extent
# ----------------------------------------------------------------------
#: Per extent component: True where the bound keeps the minimum.
LOW = (True, True, False, False, True, True, False, False)
#: A small pool with both signed zeros and repeats, so ties are common.
VALUES = st.sampled_from((-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0))
TIMES = st.sampled_from((0.0, 1.0, 2.5))
EXTENTS = st.tuples(*[VALUES] * 8)
SLOTS = st.integers(0, 63)
NODE_OPS = st.one_of(
    st.tuples(st.just("append_entry"), EXTENTS, TIMES),
    st.tuples(st.just("append_bound"), EXTENTS, TIMES),
    st.tuples(
        st.just("set_bound_at"),
        SLOTS,
        st.sampled_from(("grow", "shrink", "same", "tie", "any")),
        EXTENTS,
        TIMES,
        SLOTS,
    ),
    st.tuples(st.just("remove_at"), SLOTS),
    st.tuples(st.just("keep_only"), st.lists(SLOTS, max_size=6)),
    st.tuples(st.just("load"), st.lists(SLOTS, max_size=6)),
    st.tuples(st.just("clear")),
    # A clock move the test does not look at leaves the cache at the old
    # time, so the next edits update a cache anchored elsewhere.
    st.tuples(st.just("clock"), TIMES, st.booleans()),
)


def apply_node_op(node: TPRNode, op, t: float) -> float:
    """Apply one drawn edit to ``node`` at clock ``t``; returns the new clock."""
    kind, args = op[0], op[1:]
    n = node.num_entries
    if kind == "clock":
        return args[0]
    if kind == "append_entry":
        (x0, y0, x1, y1, vx0, vy0, vx1, vy1), tref = args
        bound = MovingRect(
            rect=Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
            v_x_min=vx0,
            v_y_min=vy0,
            v_x_max=vx1,
            v_y_max=vy1,
            reference_time=tref,
        )
        node.append_entry(TPREntry(bound=bound, oid=n))
    elif kind == "append_bound":
        node.append_bound(args[0], args[1], n)
    elif kind == "clear":
        node.clear()
    elif not n:
        pass
    elif kind == "set_bound_at":
        slot, mode, ext, tref, other = args
        slot %= n
        extents = kernels.soa_extents(*node.columns, time=t)
        here = extents[slot]
        if mode == "same":
            ext, tref = [column[slot] for column in node.columns[:8]], node.columns[8][slot]
        elif mode == "tie":
            ext, tref = extents[other % n], t
        elif mode == "grow":
            ext, tref = kernels.union_extent(here, ext), t
        elif mode == "shrink":
            ext = tuple(max(a, b) if low else min(a, b) for low, a, b in zip(LOW, here, ext))
            tref = t
        node.set_bound_at(slot, ext, tref)
    elif kind == "remove_at":
        node.remove_at(args[0] % n)
    elif kind == "keep_only":
        node.keep_only(list(dict.fromkeys(i % n for i in args[0])))
    elif kind == "load":
        records = node.snapshot()
        node.load([records[i % n] for i in args[0]])
    return t


def packed(ext) -> bytes:
    return struct.pack("<8d", *ext)


@settings(max_examples=400, deadline=None)
@given(st.lists(NODE_OPS, max_size=40))
def test_cached_tight_extent_equals_a_rescan_after_every_edit(ops):
    node = TPRNode(page_id=0, is_leaf=True)
    t = 0.0
    for op in ops:
        t = apply_node_op(node, op, t)
        if node.num_entries and op[-1] is not False:
            rescan = kernels.soa_bound_extent(*node.columns, time=t)
            assert packed(node.bound_extent(t)) == packed(rescan), op


class TestInsertDelete:
    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    def test_insert_then_delete_all(self, cls):
        tree = small_tree(cls)
        objects = make_objects(60, seed=11)
        for obj in objects:
            tree.insert(obj)
        assert len(tree) == 60
        assert tree.height >= 2
        for obj in objects:
            assert tree.delete(obj), f"failed to delete {obj.oid}"
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree = small_tree()
        objects = make_objects(10)
        for obj in objects:
            tree.insert(obj)
        ghost = MovingObject(999, Point(1.0, 1.0), Vector(0.0, 0.0))
        assert not tree.delete(ghost)

    def test_update_moves_object(self):
        tree = small_tree()
        obj = MovingObject(1, Point(100.0, 100.0), Vector(1.0, 0.0), 0.0)
        tree.insert(obj)
        moved = obj.with_update(Point(5000.0, 5000.0), Vector(0.0, 2.0), 10.0)
        assert tree.update(obj, moved)
        query = make_circular_query(Point(5000.0, 5020.0), 50.0, time=20.0, issue_time=10.0)
        assert tree.range_query(query) == [1]

    def test_size_constraints_enforced(self):
        with pytest.raises(ValueError):
            TPRTree(max_entries=2)
        with pytest.raises(ValueError):
            TPRTree(min_fill=0.9)

    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    @pytest.mark.parametrize("horizon", [0.0, -60.0, float("inf"), float("nan")])
    def test_horizon_must_be_positive_and_finite(self, cls, horizon):
        # At horizon <= 0 every sweeping volume is 0.0, every TPR* child
        # ties and slot 0 always wins: a tree that answers correctly from
        # leaves 70x the area, so the constructor is where it has to stop.
        with pytest.raises(ValueError, match="horizon"):
            small_tree(cls, horizon=horizon)

    def test_page_size_controls_fanout(self):
        tree = TPRTree(page_size=1024)
        assert tree.max_entries == (1024 - 32) // 80

    def test_all_objects_iterable(self):
        tree = small_tree()
        objects = make_objects(25, seed=2)
        for obj in objects:
            tree.insert(obj)
        stored = {oid for oid, _ in tree.iter_objects()}
        assert stored == {obj.oid for obj in objects}


class TestBoundInvariants:
    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    def test_parent_bounds_contain_objects_at_future_times(self, cls):
        tree = small_tree(cls)
        objects = make_objects(80, seed=21, axis_aligned=True)
        for obj in objects:
            tree.insert(obj)
        for future in (tree.current_time, tree.current_time + 30.0, tree.current_time + 90.0):
            leaf_rects = [b.rect_at(future) for b in tree.iter_leaf_bounds()]
            for obj in objects:
                position = obj.position_at(future)
                assert any(
                    rect.enlarged(1e-6, 1e-6).contains_point(position) for rect in leaf_rects
                ), f"object {obj.oid} escaped every leaf bound at t={future}"

    def test_bounds_remain_valid_after_updates(self, rng):
        tree = small_tree()
        objects = {obj.oid: obj for obj in make_objects(40, seed=31)}
        for obj in objects.values():
            tree.insert(obj)
        for step in range(1, 6):
            time = step * 10.0
            for oid in rng.sample(sorted(objects), 10):
                old = objects[oid]
                new = MovingObject(
                    oid,
                    old.position_at(time),
                    Vector(rng.uniform(-40, 40), rng.uniform(-40, 40)),
                    time,
                )
                tree.update(old, new)
                objects[oid] = new
        future = tree.current_time + 20.0
        leaf_rects = [b.rect_at(future) for b in tree.iter_leaf_bounds()]
        for obj in objects.values():
            position = obj.position_at(future)
            assert any(r.enlarged(1e-6, 1e-6).contains_point(position) for r in leaf_rects)


class TestRangeQueries:
    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    def test_matches_brute_force_circular(self, cls):
        tree = small_tree(cls)
        objects = make_objects(120, seed=41)
        for obj in objects:
            tree.insert(obj)
        rng = random.Random(7)
        for _ in range(15):
            center = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            query = make_circular_query(center, 1200.0, time=rng.uniform(0, 40))
            assert set(tree.range_query(query)) == brute_force_range(objects, query)

    def test_matches_brute_force_rectangular(self):
        tree = small_tree()
        objects = make_objects(100, seed=43)
        for obj in objects:
            tree.insert(obj)
        rng = random.Random(17)
        for _ in range(10):
            x = rng.uniform(0, 9_000)
            y = rng.uniform(0, 9_000)
            query = TimeSliceRangeQuery(
                RectangularRange(Rect(x, y, x + 1500, y + 1500)), time=rng.uniform(0, 30)
            )
            assert set(tree.range_query(query)) == brute_force_range(objects, query)

    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    def test_scan_keeps_what_the_refinement_accepts_at_an_edge(self, cls):
        """The scan is no stricter than ``RangeQuery.matches`` and its 1e-9 tolerance."""
        tree = small_tree(cls)
        obj = MovingObject(1, Point(900.0, 681.0), Vector(-0.4767561572167187, 0.01), 2.5)
        tree.insert(obj)
        edge = Rect(415.0, 183.0, 899.9999999999999, 844.0)  # 1e-13 short of the object
        query = TimeSliceRangeQuery(RectangularRange(edge), time=2.5)
        assert query.matches(obj)
        assert tree.range_query(query) == [1]

    def test_inexact_query_is_superset(self):
        tree = small_tree()
        objects = make_objects(80, seed=47)
        for obj in objects:
            tree.insert(obj)
        query = make_circular_query(Point(5000, 5000), 2000.0, time=20.0)
        exact = set(tree.range_query(query, exact=True))
        candidates = set(tree.range_query(query, exact=False))
        assert exact <= candidates

    def test_query_on_empty_tree(self):
        tree = small_tree()
        query = make_circular_query(Point(0, 0), 100.0, time=1.0)
        assert tree.range_query(query) == []


class TestPastTimeProbe:
    """A query before the tree clock raises instead of losing candidates.

    A time-parameterized bound covers its objects from the clock onward
    only, so a traversal at an earlier time prunes subtrees that held
    qualifying objects.  The Bx family is two-sided and unaffected.
    """

    @pytest.mark.parametrize("family", ["TPR*", "TPR*(VP)", "2 shards"])
    def test_range_and_knn_before_the_clock_raise(self, family):
        objects = make_objects(120, seed=5, axis_aligned=True, start_time=10.0)
        if family == "TPR*":
            index = make_index("TPR*")
        else:
            vp = partial(
                make_index,
                "TPR*(VP)",
                partitioning=analyze_sample(sample_velocities_from_objects(objects), k=2),
            )
            index = vp() if family == "TPR*(VP)" else ShardedIndex.build(vp, shards=2)
        index.bulk_load(objects)
        center = Point(5_000.0, 5_000.0)
        past = make_circular_query(center, 2_000.0, time=9.0)
        with pytest.raises(ValueError, match="before the tree clock"):
            index.range_query(past)
        with pytest.raises(ValueError, match="before the tree clock"):
            index.range_query_batch([past, past])
        with pytest.raises(ValueError, match="before the tree clock"):
            index.knn_query(center, 5, 9.0)
        # At the clock and after it, the same calls answer.
        now = make_circular_query(center, 2_000.0, time=10.0)
        assert set(index.range_query(now)) == brute_force_range(objects, now)
        assert len(index.knn_query(center, 5, 10.0)) == 5
        if family == "2 shards":
            index.close()


class TestStructuralIntegrityUnderChurn:
    """Regression test: deep trees under heavy update churn must never lose
    objects.  An earlier bug re-attached orphaned subtrees at the wrong level
    during pick-worst reinsertion, silently dropping whole leaves."""

    @pytest.mark.parametrize("cls", [TPRTree, TPRStarTree])
    def test_no_object_lost_after_many_updates(self, cls):
        rng = random.Random(2024)
        tree = small_tree(cls, max_entries=6)
        objects = {o.oid: o for o in make_objects(300, seed=61, axis_aligned=True)}
        for obj in objects.values():
            tree.insert(obj)
        assert tree.height >= 3
        for step in range(1, 9):
            time = step * 5.0
            for oid in rng.sample(sorted(objects), 120):
                old = objects[oid]
                new = MovingObject(
                    oid,
                    old.position_at(time),
                    Vector(rng.uniform(-40, 40), rng.uniform(-40, 40)),
                    time,
                )
                assert tree.update(old, new), f"lost object {oid} at step {step}"
                objects[oid] = new
        stored = [oid for oid, _ in tree.iter_objects()]
        assert len(stored) == 300
        assert len(set(stored)) == 300
        assert len(tree) == 300


class TestTPRStarSpecifics:
    def test_star_tree_groups_by_direction_better(self):
        """On direction-skewed data the TPR*-tree should produce leaves whose
        velocity extent is smaller than the plain TPR-tree's (its cost model
        penalizes grouping objects that move apart)."""
        objects = make_objects(150, seed=53, axis_aligned=True)

        def mean_expansion(tree):
            rates = [
                b.expansion_rate_x + b.expansion_rate_y for b in tree.iter_leaf_bounds()
            ]
            return sum(rates) / len(rates)

        plain = small_tree(TPRTree)
        star = small_tree(TPRStarTree)
        for obj in objects:
            plain.insert(obj)
            star.insert(obj)
        assert mean_expansion(star) <= mean_expansion(plain) * 1.1

    def test_reinsertion_happens_once_per_level(self):
        tree = small_tree(TPRStarTree)
        for obj in make_objects(30, seed=59):
            tree.insert(obj)
        # After enough inserts to overflow, the tree is still consistent.
        assert len(tree) == 30
        assert {oid for oid, _ in tree.iter_objects()} == set(range(30))


class TestBatchSurface:
    def test_delete_batch_flags_align_with_input_even_for_duplicates(self):
        tree = TPRTree(buffer=BufferManager(capacity=64))
        objects = [
            MovingObject(i, Point(i * 50.0, i * 50.0), Vector(1.0, 1.0), 0.0)
            for i in range(20)
        ]
        for obj in objects:
            tree.insert(obj)
        target = objects[3]
        flags = tree.delete_batch([target, target] + objects[5:8])
        # The duplicate deletion succeeds exactly once; flags stay aligned
        # with the input order (first attempt wins, second finds nothing).
        assert sum(flags[:2]) == 1
        assert flags[2:] == [True, True, True]
        assert len(tree) == 16

    def test_update_batch_matches_sequential_object_set(self):
        def build():
            t = TPRStarTree(buffer=BufferManager(capacity=64))
            for i in range(40):
                t.insert(
                    MovingObject(i, Point(i * 20.0, 1000.0 - i * 20.0), Vector(2.0, -1.0), 0.0)
                )
            return t

        pairs = [
            (
                MovingObject(i, Point(i * 20.0, 1000.0 - i * 20.0), Vector(2.0, -1.0), 0.0),
                MovingObject(i, Point(i * 20.0 + 30.0, 1000.0 - i * 20.0), Vector(-1.0, 3.0), 15.0),
            )
            for i in range(0, 40, 2)
        ]
        sequential, batched = build(), build()
        removed_seq = [sequential.update(old, new) for old, new in pairs]
        removed_bat = batched.update_batch(pairs)
        assert removed_seq == removed_bat == [True] * len(pairs)
        assert sorted(oid for oid, _ in sequential.iter_objects()) == sorted(
            oid for oid, _ in batched.iter_objects()
        )


class TestColumnarIterator:
    def test_iter_records_matches_entry_at(self):
        rng = random.Random(31)
        node = TPRNode(page_id=0, is_leaf=True)
        for oid in range(10):
            obj = MovingObject(
                oid,
                Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                Vector(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                reference_time=rng.uniform(0, 10),
            )
            node.append_entry(TPREntry(bound=obj.as_moving_rect(), oid=oid))
        records = list(node.iter_records())
        assert len(records) == node.num_entries
        for slot, record in enumerate(records):
            entry = node.entry_at(slot)
            ref, x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref = record
            assert ref == entry.oid
            assert (x0, y0, x1, y1) == (
                entry.bound.rect.x_min,
                entry.bound.rect.y_min,
                entry.bound.rect.x_max,
                entry.bound.rect.y_max,
            )
            assert (vx0, vy0, vx1, vy1) == (
                entry.bound.v_x_min,
                entry.bound.v_y_min,
                entry.bound.v_x_max,
                entry.bound.v_y_max,
            )
            assert tref == entry.bound.reference_time

    def test_iter_objects_yields_exact_stored_bounds(self):
        tree = TPRTree(buffer=BufferManager(capacity=64), max_entries=4)
        objects = [
            MovingObject(
                oid,
                Point(oid * 10.0, oid * 5.0),
                Vector(oid * 0.5, -oid * 0.25),
                reference_time=0.5 * oid,
            )
            for oid in range(30)
        ]
        for obj in objects:
            tree.insert(obj)
        dumped = dict(tree.iter_objects())
        assert sorted(dumped) == list(range(30))
        for obj in objects:
            assert dumped[obj.oid] == obj.as_moving_rect()


# ----------------------------------------------------------------------
# Tree identity of a seeded insertion-built replay
# ----------------------------------------------------------------------
#: ``family -> sha256`` over every node (page id, kind, parent, refs and the
#: nine bound columns, in page-id order) and the four page-I/O totals after
#: :func:`_identity_replay`.  Recorded on the commit before choose-subtree
#: became a fused column kernel (PR 24) and must repeat exactly: the TPR
#: family's insertion path may get cheaper, but a moved digest means a
#: different child was chosen somewhere, i.e. a different tree.  This is the
#: fast-tier twin of the ``full`` CI job's ``git diff --exit-code
#: benchmarks/results``.
PINNED_TREES = {
    "TPR": "0d0c17340fa5aee3b05b48daf5dfea4262a7bd71faab288a13df9ae8be33a58a",
    "TPR*": "85644ae9c1848c1b3087e62f648563b19e40a10a7e008183fff8da5cf43d15da",
    "TPR*(VP)": "d6b34b5a040e5827a75c64c7a1d5905a191d7d57e56318147fcfb710d4051c8c",
}


def _identity_replay(family):
    """Insert 1,500 seeded objects one by one, then four ``update_batch`` rounds."""
    rng = random.Random(24)

    def velocity():
        # Two thirds of the traffic follows the axes (the VP trees get
        # populated DVA partitions), the rest moves freely (outliers).
        speed = rng.uniform(1.0, 40.0)
        kind = rng.randrange(3)
        if kind == 0:
            return Vector(speed * rng.choice((-1.0, 1.0)), 0.0)
        if kind == 1:
            return Vector(0.0, speed * rng.choice((-1.0, 1.0)))
        angle = rng.uniform(0.0, math.tau)
        return Vector(speed * math.cos(angle), speed * math.sin(angle))

    objects = [
        MovingObject(oid, Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)), velocity(), 0.0)
        for oid in range(1500)
    ]
    build = {
        "TPR": TPRTree,
        "TPR*": TPRStarTree,
        "TPR*(VP)": partial(
            make_vp_tprstar_tree, analyze_sample(sample_velocities_from_objects(objects))
        ),
    }[family]
    index = build(buffer=BufferManager(capacity=40), max_entries=6)
    for obj in objects:
        index.insert(obj)
    for now in (5.0, 10.0, 15.0, 20.0):
        pairs = []
        for oid in rng.sample(range(len(objects)), 250):
            old = objects[oid]
            objects[oid] = MovingObject(oid, old.position_at(now), velocity(), now)
            pairs.append((old, objects[oid]))
        assert index.update_batch(pairs) == [True] * len(pairs)
    return index


@pytest.mark.parametrize("family", sorted(PINNED_TREES))
def test_insertion_built_tree_is_the_pinned_tree(family):
    index = _identity_replay(family)
    index.buffer.flush()
    stats = index.buffer.stats
    totals = (
        stats.logical.reads,
        stats.logical.writes,
        stats.physical.reads,
        stats.physical.writes,
    )
    trees = [index] if family != "TPR*(VP)" else [*index.dva_indexes, index.outlier_index]
    assert max(tree.height for tree in trees) >= 3
    digest = hashlib.sha256(repr(totals).encode())
    for node in sorted(
        (node for tree in trees for node in tree._iter_nodes()), key=lambda node: node.page_id
    ):
        digest.update(repr((node.page_id, node.is_leaf, node.parent_page_id)).encode())
        digest.update(node.refs.tobytes())
        for column in node.columns:
            digest.update(column.tobytes())
    assert digest.hexdigest() == PINNED_TREES[family]


#: ``family -> (bound requests, column scans)`` over :func:`_identity_replay`.
#: The tree pin cannot tell a node that answers from its cached extent from
#: one that rescans every time; these counts can.  Recorded with the cache
#: itself; a lower scan count with the tree pin green is a gain.
PINNED_BOUND_SCANS = {
    "TPR": (14309, 4194),
    "TPR*": (24902, 7103),
    "TPR*(VP)": (18182, 6319),
}


@pytest.mark.parametrize("family", sorted(PINNED_BOUND_SCANS))
def test_pinned_replay_serves_tight_bounds_from_the_cache(family, monkeypatch):
    counts = Counter()
    scan = kernels.soa_bound_extent
    bound_extent = TPRNode.bound_extent

    def counted_scan(*columns, time):
        counts["scans"] += 1
        return scan(*columns, time=time)

    def checked_bound_extent(node, t):
        counts["requests"] += 1
        got = bound_extent(node, t)
        assert packed(got) == packed(scan(*node.columns, time=t))
        return got

    monkeypatch.setattr(kernels, "soa_bound_extent", counted_scan)
    monkeypatch.setattr(TPRNode, "bound_extent", checked_bound_extent)
    _identity_replay(family)
    assert (counts["requests"], counts["scans"]) == PINNED_BOUND_SCANS[family]
    assert counts["scans"] < counts["requests"]


# ----------------------------------------------------------------------
# Page reads and answers of the shared search over the pinned replay
# ----------------------------------------------------------------------
#: ``family -> (logical reads, physical reads, sha256 of the answers)`` of
#: the query phase after :func:`_identity_replay` (see :func:`_pin_queries`).
#: Recorded on the commit before node scans became one fused kernel per
#: (node, query): a scan may get cheaper, but a moved count is a node fetched
#: in another order or a subtree pruned differently, and a moved digest a
#: different answer.  The fast-tier twin of the slow tier's TPR query columns.
PINNED_QUERY_READS = {
    "TPR": (475, 395, "a8f536ff3a945b323595fc9095e07e9f6c35bf12e5ba700c65421ee15ab7f3f2"),
    "TPR*": (490, 417, "c79d6a98b9a11d8ea595013ff5d8fabd0479e3e7e22cad6374428913308974ec"),
    "TPR*(VP)": (507, 412, "c33dd2e5503c7817bc2b719df39c7ca13873750a8b3d5087a025451723d2323e"),
}


def _pin_queries():
    """Sixteen seeded range queries after the replay's clock: slices, windows, moving."""
    rng = random.Random(46)
    queries = []
    for i in range(16):
        x, y = rng.uniform(0.0, 9_000.0), rng.uniform(0.0, 9_000.0)
        start = 20.0 + rng.uniform(0.0, 10.0)
        end = start + rng.uniform(0.0, 20.0)
        kind = i % 4
        if kind == 0:
            rect = Rect(x, y, x + rng.uniform(100.0, 1_000.0), y + rng.uniform(100.0, 1_000.0))
            queries.append(TimeSliceRangeQuery(RectangularRange(rect), start, issue_time=20.0))
        elif kind == 1:
            circle = CircularRange(Point(x, y), rng.uniform(100.0, 800.0))
            queries.append(TimeSliceRangeQuery(circle, start, issue_time=20.0))
        elif kind == 2:
            rect = Rect(x, y, x + rng.uniform(100.0, 600.0), y + rng.uniform(100.0, 600.0))
            queries.append(TimeIntervalRangeQuery(RectangularRange(rect), start, end, 20.0))
        else:
            velocity = Vector(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))
            circle = CircularRange(Point(x, y), rng.uniform(100.0, 500.0))
            queries.append(MovingRangeQuery(circle, velocity, start, end, 20.0))
    return queries


@pytest.mark.parametrize("family", sorted(PINNED_QUERY_READS))
def test_pinned_replay_searches_read_the_pinned_pages(family):
    """Six lone (unhinted) range queries, one hinted batch of ten, one kNN batch."""
    index = _identity_replay(family)
    index.buffer.flush()
    queries = _pin_queries()
    probes = [
        KNNQuery(query.range.bounding_rect().center, 8, query.end_time, 20.0)
        for query in queries[:8]
    ]
    stats = index.buffer.stats
    logical, physical = stats.logical.reads, stats.physical.reads

    answers = [index.range_query_batch([query]) for query in queries[:6]]
    answers.append(index.range_query_batch(queries[6:]))
    answers.append(index.knn_query_batch(probes))

    assert sum(map(len, (found for batch in answers[:-1] for found in batch))) > 0
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    reads = (stats.logical.reads - logical, stats.physical.reads - physical)
    assert (*reads, digest) == PINNED_QUERY_READS[family]
