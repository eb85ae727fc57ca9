"""Property-based invariants of the sharded serving layer (Hypothesis).

Four pillars of the serving contract, each checked over arbitrary
generated inputs rather than one curated workload:

- :func:`repro.serve.shard_of` is a stable, in-range, balanced router;
- range answers are ascending-id, shard-count invariant and equal to a
  brute-force predicate scan;
- the ``(distance, oid)`` merge of per-shard local top-k lists equals
  the brute-force global top-k (the theorem behind the kNN fan-out);
- the published epoch is monotone and counts exactly the non-empty
  mutation batches, under arbitrary operation interleavings.

See ``docs/htap.md`` for the snapshot semantics these invariants back.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import KNNQuery, _rank_distances, motion_rows
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery, RectangularRange
from repro.serve import ShardedIndex, shard_of

SPACE = Rect(0.0, 0.0, 1000.0, 1000.0)

MAX_UPDATE_INTERVAL = 40.0

SHARD_COUNTS = (1, 2, 3, 5)

# Per-example index builds dominate the runtime; cap the example count
# so the whole module stays inside the fast tier's budget.
PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

coords = st.floats(min_value=1.0, max_value=999.0, allow_nan=False, allow_infinity=False)
velocities = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
query_times = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def moving_objects(draw, min_size: int = 0, max_size: int = 40):
    """A list of MovingObjects with unique ids, safely inside SPACE."""
    oids = draw(
        st.lists(
            st.integers(min_value=0, max_value=1_000_000),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return [
        MovingObject(
            oid,
            position=Point(draw(coords), draw(coords)),
            velocity=Vector(draw(velocities), draw(velocities)),
            reference_time=0.0,
        )
        for oid in oids
    ]


@st.composite
def range_queries(draw):
    """A rectangular timeslice query with a non-degenerate rect."""
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    t = draw(query_times)
    return RangeQuery(
        range=RectangularRange(Rect(x0, y0, x1 + 1.0, y1 + 1.0)),
        start_time=t,
        end_time=t,
    )


def _build(shards: int) -> ShardedIndex:
    return ShardedIndex.build(
        family="Bx",
        shards=shards,
        executor="serial",
        space=SPACE,
        buffer_pages=32,
        max_update_interval=MAX_UPDATE_INTERVAL,
    )


# ----------------------------------------------------------------------
# shard_of: stable, in-range, balanced
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(
    oid=st.integers(min_value=0, max_value=2**63 - 1),
    num_shards=st.integers(min_value=1, max_value=64),
)
def test_shard_of_is_stable_and_in_range(oid, num_shards):
    """Routing is a pure function of (oid, num_shards) with an in-range result."""
    first = shard_of(oid, num_shards)
    assert 0 <= first < num_shards
    assert shard_of(oid, num_shards) == first  # no hidden state
    assert shard_of(oid, 1) == 0


@PROPERTY_SETTINGS
@given(
    start=st.integers(min_value=0, max_value=2**40),
    num_shards=st.integers(min_value=2, max_value=8),
)
def test_shard_of_balances_consecutive_ids(start, num_shards):
    """Consecutive ids — the common allocation pattern — spread evenly.

    The Fibonacci hash turns a consecutive block into a low-discrepancy
    sequence; no shard should see more than twice its fair share of a
    block comfortably larger than the shard count.
    """
    block = 128 * num_shards
    counts = [0] * num_shards
    for oid in range(start, start + block):
        counts[shard_of(oid, num_shards)] += 1
    assert max(counts) <= 2 * (block // num_shards)
    assert min(counts) > 0


# ----------------------------------------------------------------------
# Range merge: ascending ids, shard-count invariant, brute-force exact
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(objects=moving_objects(), query=range_queries())
def test_range_answers_are_sorted_invariant_and_exact(objects, query):
    """Exact range answers equal the predicate scan, at every shard count."""
    expected = sorted(obj.oid for obj in objects if query.matches(obj))
    for shards in SHARD_COUNTS:
        index = _build(shards)
        try:
            index.bulk_load(objects)
            answer = index.range_query(query)
            assert answer == sorted(answer), shards  # canonical ascending-id order
            assert answer == expected, shards
        finally:
            index.close()


# ----------------------------------------------------------------------
# kNN merge: per-shard top-k merged by (distance, oid) == global top-k
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(
    objects=moving_objects(min_size=1),
    k=st.integers(min_value=1, max_value=12),
    cx=coords,
    cy=coords,
    query_time=query_times,
)
def test_knn_merge_equals_brute_force_top_k(objects, k, cx, cy, query_time):
    """The sharded (distance, oid) merge reproduces the global top-k.

    Brute force ranks *every* object through the same vectorized kernel
    the index families use, so the comparison is bit-identical — any
    divergence is a merge bug, not float noise.
    """
    probe = KNNQuery(center=Point(cx, cy), k=k, query_time=query_time, issue_time=0.0)
    oids, distances = _rank_distances(motion_rows(objects), probe.center, probe.query_time)
    order = np.lexsort((oids, distances))
    expected = [(int(oids[j]), float(distances[j])) for j in order[:k]]

    for shards in SHARD_COUNTS:
        index = _build(shards)
        try:
            index.bulk_load(objects)
            assert index.knn_query_batch([probe], space=SPACE) == [expected], shards
        finally:
            index.close()


# ----------------------------------------------------------------------
# Epoch bookkeeping: monotone, dense, and quiet on reads
# ----------------------------------------------------------------------
@st.composite
def interleavings(draw):
    """An arbitrary schedule of mutations, queries, pins and no-ops."""
    return draw(
        st.lists(
            st.sampled_from(["update", "insert", "delete", "query", "pin", "empty"]),
            min_size=1,
            max_size=30,
        )
    )


@PROPERTY_SETTINGS
@given(objects=moving_objects(min_size=4, max_size=20), schedule=interleavings())
def test_epoch_is_monotone_and_counts_mutation_batches(objects, schedule):
    """Under any interleaving: epochs only grow, one per non-empty batch.

    Queries and empty batches never consume an epoch (a silent epoch gap
    would break the WAL's dense numbering on recovery), and a pinned
    epoch is always at or below the published one.
    """
    query = RangeQuery(
        range=RectangularRange(Rect(0.0, 0.0, 1000.0, 1000.0)),
        start_time=0.0,
        end_time=0.0,
    )
    index = _build(2)
    try:
        index.bulk_load(objects)
        expected_epoch = 1  # the bulk load itself is batch #1
        assert index.epoch == expected_epoch
        alive = list(objects)
        for step in schedule:
            before = index.epoch
            if step == "update" and alive:
                moved = dataclasses.replace(
                    alive[0], position=Point(500.0, 500.0), reference_time=1.0
                )
                index.update_batch([(alive[0], moved)])
                alive[0] = moved
                expected_epoch += 1
            elif step == "insert":
                fresh = MovingObject(
                    2_000_000 + expected_epoch,
                    position=Point(10.0, 10.0),
                    velocity=Vector(0.0, 0.0),
                    reference_time=0.0,
                )
                index.insert_batch([fresh])
                alive.append(fresh)
                expected_epoch += 1
            elif step == "delete" and alive:
                index.delete_batch([alive.pop()])
                expected_epoch += 1
            elif step == "query":
                index.range_query_batch([query])
            elif step == "pin":
                with index.pin() as pinned:
                    assert pinned <= index.epoch
                    index.range_query_batch([query], epoch=pinned)
            elif step == "empty":
                index.update_batch([])
                index.insert_batch([])
                index.delete_batch([])
            assert index.epoch >= before  # monotone
            assert index.epoch == expected_epoch  # dense: one per non-empty batch
    finally:
        index.close()


@PROPERTY_SETTINGS
@given(objects=moving_objects(min_size=6, max_size=20))
def test_pinned_answer_is_frozen_while_updates_stream(objects):
    """A pinned epoch's answer never changes, however many batches follow."""
    everything = RangeQuery(
        range=RectangularRange(Rect(0.0, 0.0, 1000.0, 1000.0)),
        start_time=0.0,
        end_time=0.0,
    )
    index = _build(2)
    try:
        index.bulk_load(objects)
        with index.pin() as pinned:
            frozen = index.range_query_batch([everything], epoch=pinned)
            for victim in list(objects):
                index.delete_batch([victim])
                assert index.range_query_batch([everything], epoch=pinned) == frozen
        assert index.range_query([everything][0]) == []
    finally:
        index.close()


def test_shard_of_rejects_nonpositive_shard_counts():
    with pytest.raises(ValueError):
        shard_of(7, 0)
    with pytest.raises(ValueError):
        shard_of(7, -2)
