"""Unit and property tests for the paged B+-tree.

The tree has one mutation, ``apply_batch`` (after ``bulk_load``), and one
read path, the leaf sweep.  The reference is :class:`SortedListModel`, a
plain sorted list of ``(key, value)`` pairs kept here, independent of the
tree: it applies a batch one operation at a time in the ``(key, kind,
arrival)`` order ``apply_batch`` documents.  An insertion goes at
``bisect_right`` of its key, a deletion or upsert acts on the leftmost
equal ``(key, value)`` pair, and an upsert that misses inserts its new
value.  Values are :class:`Tagged`: they compare by label only, and a tag
tells equal values apart, so *which* of several equal pairs a deletion or
upsert took, and where among its duplicates an insertion went, show in
``items()``.
"""

import bisect
import itertools
import random
from array import array
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.btree.bplus_tree import BPlusTree
from repro.storage.buffer_manager import BufferManager

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@dataclass(frozen=True)
class Tagged:
    """A value equal to every value of the same ``label``; ``tag`` tells them apart."""

    label: int
    tag: int = field(compare=False)


def small_tree(**kwargs) -> BPlusTree:
    """A tree with tiny node capacities so splits happen early."""
    kwargs.setdefault("leaf_capacity", 4)
    kwargs.setdefault("interior_capacity", 4)
    return BPlusTree(buffer=BufferManager(capacity=64), **kwargs)


class SortedListModel:
    """The reference: a sorted list of ``(key, value)`` pairs, one operation at a time."""

    def __init__(self, pairs=()):
        self.pairs = sorted(pairs, key=lambda pair: pair[0])

    def _keys(self):
        return [key for key, _ in self.pairs]

    def _insert(self, key, value):
        self.pairs.insert(bisect.bisect_right(self._keys(), key), (key, value))

    def _find(self, key, value):
        """Position of the leftmost pair equal to ``(key, value)``, or -1."""
        for at in range(bisect.bisect_left(self._keys(), key), len(self.pairs)):
            if self.pairs[at][0] != key:
                break
            if self.pairs[at][1] == value:
                return at
        return -1

    def apply_batch(self, deletes, inserts, upserts=()):
        delete_flags = [False] * len(deletes)
        upsert_flags = [False] * len(upserts)
        work = sorted(
            [(key, 0, i) for i, (key, _) in enumerate(deletes)]
            + [(key, 1, i) for i, (key, _, _) in enumerate(upserts)]
            + [(key, 2, i) for i, (key, _) in enumerate(inserts)]
        )
        for key, kind, i in work:
            if kind == 0:
                at = self._find(key, deletes[i][1])
                if at >= 0:
                    del self.pairs[at]
                    delete_flags[i] = True
            elif kind == 1:
                _, old_value, new_value = upserts[i]
                at = self._find(key, old_value)
                if at >= 0:
                    self.pairs[at] = (key, new_value)
                    upsert_flags[i] = True
                else:
                    self._insert(key, new_value)
            else:
                self._insert(key, inserts[i][1])
        return delete_flags, upsert_flags

    def range_search(self, key_lo, key_hi):
        keys = self._keys()
        return self.pairs[bisect.bisect_left(keys, key_lo) : bisect.bisect_right(keys, key_hi)]


def snapshot(pairs):
    """Pairs with their tags, so equal values at different places differ."""
    return [(key, value.label, value.tag) for key, value in pairs]


def assert_well_formed(tree: BPlusTree) -> None:
    """The tree's invariants, checked by walking every node from the root.

    Flat sorted key arrays, keys inside their separators, node sizes within
    capacity, uniform leaf depth, and a leaf chain that is the in-order
    leaf sequence.
    """
    in_order = []
    depths = set()

    def walk(page_id, lo, hi, depth):
        node = tree._node(page_id)
        assert isinstance(node.keys, array) and node.keys.typecode == "q"
        keys = list(node.keys)
        assert keys == sorted(keys)
        assert all((lo is None or lo <= key) and (hi is None or key <= hi) for key in keys)
        if node.is_leaf:
            assert len(keys) == len(node.values) <= tree.leaf_capacity
            depths.add(depth)
            in_order.append(page_id)
            return
        assert len(keys) == len(node.children) - 1
        assert len(node.children) <= tree.interior_capacity
        bounds = [lo, *keys, hi]
        for i, child in enumerate(node.children):
            walk(child, bounds[i], bounds[i + 1], depth + 1)

    walk(tree.root_page_id, None, None, 1)
    assert depths == {tree.height}
    chain = [in_order[0]]
    while tree._node(chain[-1]).next_leaf is not None:
        chain.append(tree._node(chain[-1]).next_leaf)
    assert chain == in_order


#: Inclusive key ranges over (and past) the tiny key domain, inverted ones included.
PROBE_RANGES = [(lo, hi) for lo in range(-1, 10, 2) for hi in (lo - 1, lo, lo + 2, 10)]


def assert_matches(tree: BPlusTree, model: SortedListModel) -> None:
    """Same items in the same order, same scans, and a well-formed tree."""
    assert snapshot(tree.items()) == snapshot(model.pairs)
    assert len(tree) == len(model.pairs)
    expected = [snapshot(model.range_search(lo, hi)) for lo, hi in PROBE_RANGES]
    assert [snapshot(scan) for scan in tree.range_search_batch(PROBE_RANGES)] == expected
    values = tree.range_values_batch(PROBE_RANGES)
    assert [[(v.label, v.tag) for v in scan] for scan in values] == [
        [(label, tag) for _, label, tag in scan] for scan in expected
    ]
    assert_well_formed(tree)


def insert_one_by_one(tree: BPlusTree, pairs) -> None:
    """Each pair as its own batch of one, in the given order."""
    for pair in pairs:
        tree.apply_batch((), [pair])


def values_at(tree: BPlusTree, key) -> list:
    """The values stored under ``key``, in leaf-chain order."""
    return [value for _, value in tree.range_search(key, key)]


class TestBasicOperations:
    def test_insert_and_search(self):
        tree = small_tree()
        insert_one_by_one(tree, [(5, "a"), (3, "b"), (8, "c")])
        assert values_at(tree, 3) == ["b"]
        assert values_at(tree, 99) == []
        assert len(tree) == 3

    def test_duplicate_keys_are_kept(self):
        """Equal keys are all kept, in arrival order, across and within batches."""
        tree = small_tree()
        insert_one_by_one(tree, [(7, "first"), (7, "second")])
        tree.apply_batch((), [(7, "third"), (7, "fourth")])
        assert values_at(tree, 7) == ["first", "second", "third", "fourth"]

    def test_range_search_inclusive(self):
        tree = small_tree()
        tree.apply_batch((), [(key, key * 10) for key in range(10)])
        result = tree.range_search(3, 6)
        assert [k for k, _ in result] == [3, 4, 5, 6]
        assert [v for _, v in result] == [30, 40, 50, 60]

    def test_range_search_empty_interval(self):
        tree = small_tree()
        tree.apply_batch((), [(1, "a")])
        assert tree.range_search(5, 3) == []
        assert tree.range_search_batch([(5, 3)]) == [[]]

    def test_delete_existing(self):
        tree = small_tree()
        insert_one_by_one(tree, [(1, "a"), (1, "b")])
        assert tree.apply_batch([(1, "a")], ()) == ([True], [])
        assert values_at(tree, 1) == ["b"]
        assert len(tree) == 1

    def test_delete_missing_returns_false(self):
        tree = small_tree()
        tree.apply_batch((), [(1, "a")])
        assert tree.apply_batch([(1, "zzz"), (2, "a")], ()) == ([False, False], [])
        assert list(tree.items()) == [(1, "a")]

    def test_items_in_key_order(self):
        tree = small_tree()
        keys = [9, 1, 5, 3, 7, 2, 8]
        insert_one_by_one(tree, [(key, str(key)) for key in keys])
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(leaf_capacity=1)

    def test_page_size_derives_capacities(self):
        tree = BPlusTree(page_size=1024)
        assert tree.leaf_capacity == (1024 - 32) // 56
        assert tree.interior_capacity == (1024 - 32) // 16


class TestStructure:
    def test_tree_grows_in_height(self):
        """Batches of one split leaves and interiors until the tree is 3+ deep."""
        tree = small_tree()
        assert tree.height == 1
        insert_one_by_one(tree, [(key, key) for key in range(50)])
        assert tree.height >= 3
        assert list(tree.items()) == [(key, key) for key in range(50)]
        assert_well_formed(tree)

    def test_leaf_chain_connects_all_entries(self):
        keys = list(range(40))
        random.Random(3).shuffle(keys)
        tree = small_tree()
        insert_one_by_one(tree, [(key, key) for key in keys])
        assert [k for k, _ in tree.items()] == list(range(40))
        assert_well_formed(tree)

    def test_node_accesses_are_counted(self):
        tree = small_tree()
        insert_one_by_one(tree, [(key, key) for key in range(30)])
        logical_before = tree.buffer.stats.logical.reads
        assert values_at(tree, 17) == [17]
        assert tree.buffer.stats.logical.reads - logical_before >= tree.height

    def test_range_search_is_a_sweep_of_one_range(self):
        """Same pairs and the same page reads as the batch sweep of that range."""
        tree = small_tree()
        tree.bulk_load([(key % 25, key) for key in range(100)])
        for key_lo, key_hi in [(3, 6), (0, 24), (7, 7), (30, 40), (6, 3)]:
            before = tree.buffer.stats.logical.reads
            single = tree.range_search(key_lo, key_hi)
            reads = tree.buffer.stats.logical.reads - before
            before = tree.buffer.stats.logical.reads
            assert single == tree.range_search_batch([(key_lo, key_hi)])[0]
            assert reads == tree.buffer.stats.logical.reads - before
            assert single == sorted((k, v) for k, v in tree.items() if key_lo <= k <= key_hi)
        assert tree.range_search(6, 3) == []


class TestArrayBackedKeys:
    def test_leaf_and_interior_keys_are_flat_arrays(self):
        tree = small_tree()
        insert_one_by_one(tree, [(key, key) for key in range(40)])
        assert tree.apply_batch([(7, 7)], ()) == ([True], [])
        assert tree.height > 1
        assert_well_formed(tree)

    def test_bulk_load_produces_array_keys(self):
        tree = small_tree()
        tree.bulk_load([(k, str(k)) for k in range(30)])
        assert tree.height > 1
        assert_well_formed(tree)


class TestReplace:
    def test_replace_in_place(self):
        tree = small_tree()
        insert_one_by_one(tree, [(5, "a"), (5, "b"), (5, "c")])
        assert tree.apply_batch((), (), [(5, "b", "B")]) == ([], [True])
        assert values_at(tree, 5) == ["a", "B", "c"]
        assert len(tree) == 3

    def test_replace_missing_returns_false(self):
        """An upsert miss flags False and inserts its new value at ``bisect_right``."""
        tree = small_tree()
        tree.apply_batch((), [(5, "a")])
        assert tree.apply_batch((), (), [(5, "zzz", "x"), (6, "a", "y")]) == ([], [False, False])
        assert list(tree.items()) == [(5, "a"), (5, "x"), (6, "y")]

    def test_replace_walks_duplicate_run_across_leaves(self):
        tree = BPlusTree(leaf_capacity=2, interior_capacity=3)
        insert_one_by_one(tree, [(42, ("dup", index)) for index in range(12)])
        assert tree.apply_batch((), (), [(42, ("dup", 9), "found")]) == ([], [True])
        assert values_at(tree, 42) == [
            ("dup", index) if index != 9 else "found" for index in range(12)
        ]


class TestBatchOperations:
    def test_insert_batch_matches_sequential_sorted_inserts(self):
        """One batch of inserts builds what batches of one in key order build."""
        rng = random.Random(5)
        for _ in range(15):
            pairs = [(rng.randrange(40), ("v", i)) for i in range(rng.randrange(0, 150))]
            sequential, batched = small_tree(), small_tree()
            insert_one_by_one(sequential, sorted(pairs, key=lambda p: p[0]))
            batched.apply_batch((), pairs)
            assert list(sequential.items()) == list(batched.items())
            assert len(sequential) == len(batched) == len(pairs)
            assert_well_formed(batched)

    def test_delete_batch_matches_sequential_deletes(self):
        rng = random.Random(6)
        for _ in range(15):
            pairs = [(rng.randrange(30), ("v", i)) for i in range(120)]
            sequential, batched = small_tree(), small_tree()
            sequential.apply_batch((), pairs)
            batched.apply_batch((), pairs)
            targets = rng.sample(pairs, 50) + [(99, "missing")]
            rng.shuffle(targets)
            expected = [sequential.apply_batch([target], ())[0][0] for target in targets]
            assert batched.apply_batch(targets, ()) == (expected, [])
            assert list(sequential.items()) == list(batched.items())
            assert_well_formed(batched)

    def test_apply_batch_mixed_operations(self):
        """A mixed batch equals its operations as batches of one, in ``(key, kind, arrival)`` order."""
        rng = random.Random(7)
        for _ in range(15):
            base = [(rng.randrange(50), ("b", i)) for i in range(100)]
            sequential, batched = small_tree(), small_tree()
            sequential.apply_batch((), base)
            batched.apply_batch((), base)
            model = SortedListModel(base)
            deletes = rng.sample(base, 30) + [(rng.randrange(50), ("missing", -1))]
            remaining = [p for p in base if p not in deletes]
            inserts = [(rng.randrange(50), ("i", i)) for i in range(25)]
            upserts = []
            for j in range(10):
                if remaining and rng.random() < 0.7:
                    key, value = remaining.pop(rng.randrange(len(remaining)))
                    upserts.append((key, value, ("u", j)))
                else:
                    upserts.append((rng.randrange(50), ("missing", j), ("u", j)))
            work = sorted(
                [(key, 0, i) for i, (key, _) in enumerate(deletes)]
                + [(key, 1, i) for i, (key, _, _) in enumerate(upserts)]
                + [(key, 2, i) for i, (key, _) in enumerate(inserts)]
            )
            expected_deletes, expected_upserts = [None] * len(deletes), [None] * len(upserts)
            for _, kind, i in work:
                if kind == 0:
                    expected_deletes[i] = sequential.apply_batch([deletes[i]], ())[0][0]
                elif kind == 1:
                    expected_upserts[i] = sequential.apply_batch((), (), [upserts[i]])[1][0]
                else:
                    sequential.apply_batch((), [inserts[i]])
            flags = batched.apply_batch(deletes, inserts, upserts)
            assert flags == (expected_deletes, expected_upserts)
            assert flags == model.apply_batch(deletes, inserts, upserts)
            assert list(batched.items()) == list(sequential.items()) == model.pairs
            assert_well_formed(batched)

    def test_range_search_batch_matches_individual_scans(self):
        rng = random.Random(8)
        tree = small_tree()
        pairs = [(rng.randrange(100), i) for i in range(300)]
        tree.apply_batch((), pairs)
        model = SortedListModel(pairs)
        ranges = [(rng.randrange(100), rng.randrange(110)) for _ in range(30)]
        ranges.append((50, 40))  # empty interval
        got = tree.range_search_batch(ranges)
        assert got == [tree.range_search(lo, hi) for lo, hi in ranges]
        assert got == [model.range_search(lo, hi) for lo, hi in ranges]

    def test_batch_sweep_shares_descents(self):
        """One batch shares the descents that batches of one repeat."""
        pairs = [(key, ("new", key)) for key in range(100, 140)]
        batched, one_by_one = (BPlusTree(leaf_capacity=16, interior_capacity=16) for _ in range(2))
        for tree in (batched, one_by_one):
            tree.bulk_load([(key, key) for key in range(600)])
        before = one_by_one.buffer.stats.logical.reads
        insert_one_by_one(one_by_one, pairs)
        one_by_one_reads = one_by_one.buffer.stats.logical.reads - before
        before = batched.buffer.stats.logical.reads
        batched.apply_batch((), pairs)
        assert batched.buffer.stats.logical.reads - before < one_by_one_reads
        assert list(batched.items()) == list(one_by_one.items())

    @pytest.mark.parametrize(
        "keys, missing, past_descent",
        [
            # The run of 5s ends inside its leaf: the walk reads nothing more.
            (range(20), 5, 0),
            # One key per leaf.  The descent lands on the leaf of 1s (the
            # separator 2 is the run's first key, and the scan cursor descends
            # bisect_left), so the walk reads the leaf of 2s and then the leaf
            # of 3s, which starts past the key and ends it.
            ([key // 4 for key in range(20)], 2, 2),
        ],
    )
    def test_a_delete_miss_stops_where_its_run_ends(self, keys, missing, past_descent):
        """A delete miss reads its descent plus the leaves its duplicate run reaches."""
        tree = small_tree()
        tree.bulk_load([(key, index) for index, key in enumerate(keys)])  # leaves of 4
        before = tree.buffer.stats.logical.reads
        assert tree.apply_batch([(missing, "missing")], ()) == ([False], [])
        assert tree.buffer.stats.logical.reads - before == tree.height + past_descent


# ----------------------------------------------------------------------
# The tree against the model
# ----------------------------------------------------------------------
# Tiny domains make duplicate keys, equal values and hits the common case.
keys = st.integers(min_value=0, max_value=7)
labels = st.integers(min_value=0, max_value=1)
batch_of_one = st.one_of(
    st.tuples(keys, labels).map(lambda pair: ([pair], [], [])),
    st.tuples(keys, labels).map(lambda pair: ([], [pair], [])),
    st.tuples(keys, labels, labels).map(lambda triple: ([], [], [triple])),
)
mixed_batch = st.tuples(
    st.lists(st.tuples(keys, labels), max_size=6),
    st.lists(st.tuples(keys, labels), max_size=6),
    st.lists(st.tuples(keys, labels, labels), max_size=6),
)


class TestAgainstReferenceModel:
    @PROPERTY_SETTINGS
    @given(
        loaded=st.lists(st.tuples(keys, labels), max_size=40),
        batches=st.lists(st.one_of(batch_of_one, mixed_batch), min_size=1, max_size=10),
        leaf_capacity=st.sampled_from([2, 3, 4]),
        interior_capacity=st.sampled_from([3, 4]),
    )
    def test_batches_match_the_sorted_list_model(
        self, loaded, batches, leaf_capacity, interior_capacity
    ):
        """Flags, items, scans and the leaf chain agree with the model after every batch.

        Drawn deletes and upserts name a ``(key, label)``, which hits whenever
        the label is stored under the key, and misses otherwise (an upsert miss
        then inserts).  Every inserted value carries a fresh tag.
        """
        tags = itertools.count()
        pairs = [(key, Tagged(label, next(tags))) for key, label in loaded]
        tree = small_tree(leaf_capacity=leaf_capacity, interior_capacity=interior_capacity)
        tree.bulk_load(pairs)
        model = SortedListModel(pairs)
        assert_matches(tree, model)
        for deletes, inserts, upserts in batches:
            batch = (
                [(key, Tagged(label, -1)) for key, label in deletes],
                [(key, Tagged(label, next(tags))) for key, label in inserts],
                [(key, Tagged(old, -1), Tagged(new, next(tags))) for key, old, new in upserts],
            )
            assert tree.apply_batch(*batch) == model.apply_batch(*batch)
            assert_matches(tree, model)

    def test_random_operations_match_dict(self):
        """Deep trees and long duplicate runs: 400 mixed batches over 60 keys."""
        rng = random.Random(99)
        tags = itertools.count()
        tree = small_tree(leaf_capacity=3, interior_capacity=3)
        model = SortedListModel()
        for _ in range(400):
            stored = list(model.pairs)
            deletes = rng.sample(stored, min(len(stored), rng.randrange(4)))
            deletes += [(rng.randrange(60), Tagged(rng.randrange(4), -1))]
            upserts = [
                (key, Tagged(old.label, -1), Tagged(rng.randrange(4), next(tags)))
                for key, old in rng.sample(stored, min(len(stored), rng.randrange(3)))
            ]
            upserts += [(rng.randrange(60), Tagged(rng.randrange(4), -1), Tagged(0, next(tags)))]
            inserts = [
                (rng.randrange(60), Tagged(rng.randrange(4), next(tags)))
                for _ in range(rng.randrange(6))
            ]
            batch = (deletes, inserts, upserts)
            assert tree.apply_batch(*batch) == model.apply_batch(*batch)
        assert tree.height >= 4
        assert_matches(tree, model)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=200))
    def test_inserted_keys_are_all_retrievable(self, keys):
        tree = small_tree()
        insert_one_by_one(tree, [(key, index) for index, key in enumerate(keys)])
        assert len(tree) == len(keys)
        assert sorted(k for k, _ in tree.items()) == sorted(keys)
        lo, hi = min(keys), max(keys)
        assert len(tree.range_search(lo, hi)) == len(keys)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=120),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_range_search_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = small_tree()
        tree.apply_batch((), [(key, index) for index, key in enumerate(keys)])
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert [k for k, _ in tree.range_search(lo, hi)] == expected
