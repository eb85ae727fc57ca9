"""The KeyStore contract: FlatKeyStore pinned bit-identical to BPlusTree.

The flat vectorized backend re-implements the exact semantics the
Bx-tree historically consumed from the paged B+-tree — duplicate keys in
insertion order, leftmost-match delete/upsert, the merged
``apply_batch`` work ordering (deletes before upserts before inserts of
the same key, upsert-miss degrading to an insertion) and ``(key, value)``
range results in key order.  Mutations are batches only, so the
Hypothesis suites drive both backends through random interleavings of
batches of one (insert, delete, upsert) and mixed batches over a tiny
key/value domain (so duplicate keys and value collisions are the common
case, not the edge case) and require the stores to agree after every
step — once with int payloads (the opaque fallback) and once with
``MovingObject`` payloads, which is the only way into the flat store's
motion slab.  The factory tests pin the ``make_key_store`` idiom to its
``make_executor`` sibling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.bplus_tree import BPlusTree
from repro.bxtree import (
    KEY_STORES,
    BTreeKeyStore,
    BxTree,
    FlatKeyStore,
    make_key_store,
)
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.objects.knn import MOTION
from repro.objects.moving_object import MovingObject
from repro.storage.buffer_manager import BufferManager

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Tiny domains make duplicate keys and equal values the common case.
keys = st.integers(min_value=0, max_value=15)
values = st.integers(min_value=0, max_value=3)


def _operations(values):
    """Interleavings of point operations and mixed batches over ``values``."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), keys, values),
            st.tuples(st.just("delete"), keys, values),
            st.tuples(st.just("replace"), keys, values, values),
            st.tuples(
                st.just("batch"),
                st.lists(st.tuples(keys, values), max_size=4),
                st.lists(st.tuples(keys, values), max_size=4),
                st.lists(st.tuples(keys, values, values), max_size=4),
            ),
        ),
        max_size=25,
    )


def _motion(i):
    """One of a handful of value-comparable snapshots (oids repeat across them)."""
    return MovingObject(
        oid=i % 3,
        position=Point(10.0 * i, 0.5 * i),
        velocity=Vector(0.25 * i, -1.0),
        reference_time=float(i % 2),
    )


operations = _operations(values)
motions = values.map(_motion)


def _apply(store, op):
    """Apply one drawn operation as one ``apply_batch``; returns its flags.

    A point operation is a batch of one: an insert, a delete, or a
    ``replace`` as an upsert (which degrades to inserting its new value
    when the old one is missing).
    """
    if op[0] == "insert":
        batch = ([], [op[1:]], [])
    elif op[0] == "delete":
        batch = ([op[1:]], [], [])
    elif op[0] == "replace":
        batch = ([], [], [op[1:]])
    else:
        batch = op[1:]
    flags = store.apply_batch(*batch)
    return (list(flags[0]), list(flags[1]))


# ----------------------------------------------------------------------
# Differential properties: FlatKeyStore vs BPlusTree
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(ops=operations)
def test_random_interleavings_match_btree(ops):
    """Same flags, same contents, same order — after every single step."""
    reference = BPlusTree()
    flat = FlatKeyStore()
    for op in ops:
        assert _apply(reference, op) == _apply(flat, op)
        assert list(reference.items()) == list(flat.items())


@PROPERTY_SETTINGS
@given(loaded=st.lists(st.tuples(keys, motions), max_size=6), ops=_operations(motions))
def test_motion_payload_interleavings_keep_the_slab_current(loaded, ops):
    """The motion slab answers like the paged store after every single step.

    Duplicates, same-key upserts, upsert misses, delete-then-reinsert in
    one batch, batches of one and growth past the bulk-loaded slab all
    write motion rows in place; none may leave a stale or shared row.
    """
    paged = BTreeKeyStore()
    flat = FlatKeyStore()
    for store in (paged, flat):
        store.bulk_load(list(loaded))
    ranges = [(0, 15), (0, 7), (8, 15), (3, 3)]
    for op in [None, *ops]:
        if op is not None:
            assert _apply(paged, op) == _apply(flat, op)
        assert _candidate_lists(flat, ranges) == _candidate_lists(paged, ranges)
        assert list(flat.items()) == list(paged.items())
        assert flat._motion is not None and len(flat._motion) == len(flat._payload)
        live = flat._slots.tolist()
        assert len(set(live)) == len(live) == len(flat)
        assert not set(live) & set(flat._free)
        assert len(flat._free) + len(flat) == len(flat._payload)


@PROPERTY_SETTINGS
@given(
    ops=operations,
    bounds=st.lists(st.tuples(keys, keys), min_size=1, max_size=6),
)
def test_range_searches_match_btree(ops, bounds):
    """Point ranges, inverted ranges and batch scans agree on final state."""
    reference = BPlusTree()
    flat = FlatKeyStore()
    for op in ops:
        _apply(reference, op)
        _apply(flat, op)
    for low, high in bounds:
        assert reference.range_search(low, high) == flat.range_search(low, high)
    assert reference.range_search_batch(bounds) == flat.range_search_batch(bounds)


@PROPERTY_SETTINGS
@given(pairs=st.lists(st.tuples(keys, values), max_size=30))
def test_bulk_load_matches_btree(pairs):
    """Stable key sort: ties keep arrival order on both backends."""
    reference = BPlusTree()
    flat = FlatKeyStore()
    reference.bulk_load(list(pairs))
    flat.bulk_load(list(pairs))
    assert list(reference.items()) == list(flat.items())
    assert len(reference) == len(flat) == flat.size


# ----------------------------------------------------------------------
# Boundary semantics
# ----------------------------------------------------------------------
def _candidate(o):
    return (o.oid, o.position.x, o.position.y, o.velocity.vx, o.velocity.vy, o.reference_time)


def _candidate_lists(store, ranges):
    """``store``'s per-range ``MOTION`` candidates as lists of ``CandidateState``.

    Also holds the ``ids_only`` form to the ``oid`` column of the full one.
    """
    rows = store.knn_candidates_batch(ranges)
    oids = store.knn_candidates_batch(ranges, ids_only=True)
    assert all(found.dtype == MOTION for found in rows)
    assert all(ids.dtype == np.int64 for ids in oids)
    assert [found["oid"].tolist() for found in rows] == [ids.tolist() for ids in oids]
    return [found.tolist() for found in rows]


def test_empty_store_edges():
    flat = FlatKeyStore()
    assert flat.range_search(0, 100) == []
    assert flat.range_search_batch([]) == []
    assert flat.range_search_batch([(0, 5), (5, 0)]) == [[], []]
    assert flat.knn_candidates_batch([]) == []
    assert list(flat.items()) == []
    assert flat.apply_batch() == ([], [])
    assert flat.apply_batch(deletes=[(3, 1)]) == ([False], [])
    assert list(flat.items()) == []
    assert flat.apply_batch(upserts=[(3, 1, 2)]) == ([], [False])
    assert list(flat.items()) == [(3, 2)]


def test_bulk_load_requires_empty():
    flat = FlatKeyStore()
    flat.apply_batch(inserts=[(1, 1)])
    with pytest.raises(ValueError, match="empty"):
        flat.bulk_load([(2, 2)])


def test_boundary_ranges_are_inclusive():
    flat = FlatKeyStore()
    flat.apply_batch(inserts=[(key, key * 10) for key in (2, 2, 5, 9)])
    assert flat.range_search(2, 2) == [(2, 20), (2, 20)]
    assert flat.range_search(3, 4) == []
    assert flat.range_search(9, 9) == [(9, 90)]
    assert flat.range_search(0, 100) == [(2, 20), (2, 20), (5, 50), (9, 90)]


def test_results_are_python_scalars():
    """No numpy scalar types may leak into results (pickle/JSON identity)."""
    flat = FlatKeyStore()
    flat.apply_batch(inserts=[(7, "x")])
    ((key, _),) = flat.range_search(0, 10)
    assert type(key) is int
    ((key, _),) = list(flat.items())
    assert type(key) is int


def test_knn_candidates_match_btree_backend():
    objects = [
        MovingObject(oid=i, position=Point(10.0 * i, 5.0 * i),
                     velocity=Vector(1.0, -1.0), reference_time=float(i % 3))
        for i in range(12)
    ]
    paged = BTreeKeyStore()
    flat = FlatKeyStore()
    for store in (paged, flat):
        store.bulk_load([(i % 5, obj) for i, obj in enumerate(objects)])
    ranges = [(0, 2), (3, 4), (4, 3), (0, 10)]
    expected = _candidate_lists(paged, ranges)
    actual = _candidate_lists(flat, ranges)
    assert expected == actual
    assert [len(per_range) for per_range in actual] == [8, 4, 0, 12]
    for per_range in actual:
        for cand in per_range:
            assert type(cand[0]) is int
            assert all(type(field) is float for field in cand[1:])


def test_knn_candidates_fall_back_for_opaque_payloads():
    """Non-motion payloads (the property suites use ints) must not crash."""
    flat = FlatKeyStore()
    flat.apply_batch(inserts=[(1, 123)])
    flat.apply_batch(deletes=[(1, 123)])
    objects = [
        MovingObject(oid=i, position=Point(1.0, 2.0), velocity=Vector(0.0, 0.0))
        for i in range(3)
    ]
    for i, obj in enumerate(objects):
        flat.apply_batch(inserts=[(i, obj)])
    assert _candidate_lists(flat, [(0, 2)]) == [
        [(o.oid, 1.0, 2.0, 0.0, 0.0, 0.0) for o in objects]
    ]


def test_opaque_payload_drops_the_motion_slab_for_good():
    """A non-motion payload after motion ones: attribute access from then on."""
    flat = FlatKeyStore()
    objects = [_motion(i) for i in range(4)]
    flat.bulk_load(list(enumerate(objects)))
    expected = [[_candidate(o) for o in objects]]
    assert flat._motion is not None
    assert _candidate_lists(flat, [(0, 3)]) == expected

    flat.apply_batch(inserts=[(9, "opaque")])
    assert flat._motion is None
    assert _candidate_lists(flat, [(0, 3)]) == expected
    for ids_only in (False, True):
        with pytest.raises(AttributeError):
            flat.knn_candidates_batch([(0, 9)], ids_only=ids_only)

    # The slab does not come back once the opaque payload is gone, and
    # later writes (growth included) keep serving by attribute access.
    assert flat.apply_batch(deletes=[(9, "opaque")]) == ([True], [])
    extra = [_motion(i) for i in range(4, 12)]
    flat.apply_batch(inserts=[(4 + i, obj) for i, obj in enumerate(extra)])
    assert flat._motion is None
    assert _candidate_lists(flat, [(0, 20)]) == [
        [_candidate(o) for o in objects + extra]
    ]


class _CountedPayload:
    """A motion payload that counts reads of ``position`` on a shared tally."""

    def __init__(self, oid, tally):
        self.oid = oid
        self.velocity = Vector(1.0, 0.0)
        self.reference_time = 0.0
        self._tally = tally

    @property
    def position(self):
        self._tally.append(self.oid)
        return Point(float(self.oid), 0.0)


def test_knn_after_update_reads_only_the_updated_payloads():
    """No O(n) pass: m moves then a kNN touch O(m) payloads, not all n."""
    n, m = 2000, 16
    tally = []
    stored = [_CountedPayload(i, tally) for i in range(n)]
    flat = FlatKeyStore()
    flat.bulk_load([(i, obj) for i, obj in enumerate(stored)])
    del tally[:]
    moved = [_CountedPayload(i, tally) for i in range(m)]
    delete_flags, _ = flat.apply_batch(
        deletes=[(i, stored[i]) for i in range(m)],
        inserts=[(n + i, obj) for i, obj in enumerate(moved)],
    )
    assert all(delete_flags)
    (candidates,) = flat.knn_candidates_batch([(0, 2 * n)])
    assert [cand[0] for cand in candidates] == list(range(m, n)) + list(range(m))
    assert len(tally) <= 4 * m


# ----------------------------------------------------------------------
# The make_key_store factory (the make_executor idiom)
# ----------------------------------------------------------------------
def test_factory_resolves_the_default_and_names():
    assert isinstance(make_key_store(None), BTreeKeyStore)
    assert isinstance(make_key_store("btree"), BTreeKeyStore)
    assert isinstance(make_key_store("flat"), FlatKeyStore)
    assert set(KEY_STORES) == {"btree", "flat"}


def test_factory_rejects_unknown_name_and_bad_spec():
    with pytest.raises(ValueError, match="unknown key store"):
        make_key_store("lsm")
    # A key store is named: the class and instance spellings are gone.
    for spec in (42, FlatKeyStore, FlatKeyStore()):
        with pytest.raises(TypeError, match="key_store"):
            make_key_store(spec)


def test_factory_threads_buffer_and_page_size():
    buffer = BufferManager(capacity=7)
    paged = make_key_store("btree", buffer=buffer, page_size=512)
    assert paged.buffer is buffer
    assert paged.tree.buffer is buffer
    flat = make_key_store("flat", buffer=buffer, page_size=512)
    assert flat.buffer is buffer


def test_bxtree_selects_backend_and_rejects_nonempty_instance():
    assert isinstance(BxTree().store, BTreeKeyStore)
    assert isinstance(BxTree(key_store="flat").store, FlatKeyStore)
    used = FlatKeyStore()
    used.apply_batch(inserts=[(1, 1)])
    with pytest.raises(TypeError, match="backend name"):
        BxTree(key_store=used)  # empty or not: no instance is ever handed over


def test_multi_tree_factories_reject_instances():
    """One rejection, in ``make_key_store``, whichever factory the spec came through."""
    from repro import VelocityAnalyzer, Vector, make_index
    from repro.core.partitioned_index import make_vp_bx_tree
    from repro.serve import ShardedIndex

    partitioning = VelocityAnalyzer(k=1).analyze([Vector(1.0, 0.1 * i) for i in range(5)])
    instance = FlatKeyStore()
    for build in (
        lambda: make_vp_bx_tree(partitioning, key_store=instance),
        lambda: make_index("Bx", key_store=instance),
        lambda: ShardedIndex.build("Bx", shards=2, key_store=instance),
    ):
        with pytest.raises(TypeError, match="backend name") as raised:
            build()
        assert raised.traceback[-1].name == "make_key_store"
