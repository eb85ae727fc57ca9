"""The VP range filter (Algorithm 3, Line 8) against the per-candidate filter it replaced.

``VPIndex.range_query_batch`` keeps, per query, the sub-index candidates
the original query accepts.  From ``bulk.MIN_VECTOR_FILTER`` candidates on
it resolves them to slab rows through the oid-sorted view of the directory
and decides them with one ``RangeQuery.matches_rows`` call; below it, it
matches each candidate's original snapshot on its own.  The model here is
the filter as it used to be written: each sub-index's candidate list in
partition order (the outlier last), each id looked up in the directory and
matched alone, the first accepted occurrence kept.

* **Seeded streams**: Bx(VP) on both key stores and TPR*(VP) replay a
  workload window by window, three twins each: the threshold at 0 (every
  query vectorized), at 10**9 (every query per candidate) and the model.
  Every query batch, widened with wider, rectangle, interval and moving
  variants of its queries, must get the model's ids in the model's order, and the
  twins' page I/O must stay equal.  The stream holds queries on both sides
  of the default threshold.
* **Edges**: a candidate id the directory does not hold is dropped, an
  index emptied by deletes answers nothing, and a range query right after
  a membership change rebuilds the dropped view before it reads it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import bulk
from repro.bench.harness import build_standard_indexes
from repro.core.dva import DominantVelocityAxis
from repro.core.partitioned_index import make_vp_bx_tree, make_vp_tprstar_tree
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, RangeQuery, RectangularRange
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=600, time_duration=40.0, num_queries=30, seed=11)
WINDOW = 1.0


def per_candidate_filter(index, queries):
    """The model: Line 8 as a loop over each sub-index's candidate ids."""
    queries = list(queries)
    results = [[] for _ in queries]
    seen = [set() for _ in queries]
    scans = [
        (index.dva_indexes[p], [index.transform_query(q, p) for q in queries])
        for p in range(index.partitioning.k)
    ]
    scans.append((index.outlier_index, queries))
    for sub_index, transformed in scans:
        for qi, candidates in enumerate(sub_index.range_query_batch(transformed, exact=False)):
            for oid in candidates:
                if oid in seen[qi]:
                    continue
                record = index._directory.get(oid)
                if record is None:
                    continue
                if queries[qi].matches(record.original):
                    seen[qi].add(oid)
                    results[qi].append(oid)
    return results


def candidate_counts(index, queries):
    """Per query, how many sub-index candidates the filter receives."""
    counts = [0] * len(queries)
    for p in range(index.partitioning.k):
        found = index.dva_indexes[p].range_query_batch(
            [index.transform_query(q, p) for q in queries], exact=False
        )
        counts = [c + len(f) for c, f in zip(counts, found)]
    found = index.outlier_index.range_query_batch(queries, exact=False)
    return [c + len(f) for c, f in zip(counts, found)]


def _counters(stats):
    return (
        stats.physical.reads,
        stats.physical.writes,
        stats.logical.reads,
        stats.buffer.hits,
        stats.buffer.misses,
    )


def _variants(query):
    """The query, then a wider one, a rectangle, an interval and a moving query around it."""
    shape = query.range
    box = shape.bounding_rect() if isinstance(shape, CircularRange) else shape.rect
    start, issue = query.start_time, query.issue_time
    wide = CircularRange(box.center, 4.0 * max(box.width, box.height))
    return [
        query,
        RangeQuery(wide, start, start, None, issue),
        RangeQuery(RectangularRange(box), start, start, None, issue),
        RangeQuery(shape, start, start + 5.0, None, issue),
        RangeQuery(shape, start, start + 5.0, Vector(4.0, -3.0), issue),
    ]


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.mark.parametrize(
    "name, key_store", [("Bx(VP)", "btree"), ("Bx(VP)", "flat"), ("TPR*(VP)", None)]
)
def test_the_filter_answers_as_the_per_candidate_loop(workload, name, key_store, monkeypatch):
    def fresh():
        index = build_standard_indexes(workload, PARAMS, which=(name,), key_store=key_store)[name]
        index.bulk_load(workload.initial_objects)
        return index

    twins = {0: fresh(), 10**9: fresh()}
    model = fresh()
    sides = set()
    for batch in workload.grouped_events(window=WINDOW):
        if isinstance(batch[0], UpdateEvent):
            pairs = [(event.old, event.new) for event in batch]
            for index in (*twins.values(), model):
                index.update_batch(pairs)
            continue
        queries = [variant for event in batch for variant in _variants(event.query)]
        expected = per_candidate_filter(model, queries)
        for threshold, index in twins.items():
            monkeypatch.setattr(bulk, "MIN_VECTOR_FILTER", threshold)
            assert index.range_query_batch(queries) == expected
            assert _counters(index.buffer.stats) == _counters(model.buffer.stats)
        monkeypatch.undo()
        sides.update(count >= bulk.MIN_VECTOR_FILTER for count in candidate_counts(model, queries))
        # ``candidate_counts`` read pages on the model only: bring the twins level.
        for index in twins.values():
            candidate_counts(index, queries)
    assert sides == {False, True}


# ----------------------------------------------------------------------
# Edges: unknown ids, an emptied index, the view after a membership change
# ----------------------------------------------------------------------
_SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)
_HEADINGS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]
_CENTERS = [Point(5_000.0, 5_000.0), Point(2_500.0, 7_500.0)]


def _vp_index(family):
    """An empty Bx(VP) or TPR*(VP) over the x and y axes (τ = 5)."""
    partitioning = VelocityPartitioning(
        dvas=[
            DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=5.0),
            DominantVelocityAxis(axis=Vector(0.0, 1.0), tau=5.0),
        ]
    )
    if family == "Bx(VP)":
        return make_vp_bx_tree(partitioning, space=_SPACE, buffer_pages=32, page_size=1024)
    return make_vp_tprstar_tree(partitioning, buffer_pages=32, page_size=1024, space=_SPACE)


def _spread(count, first=0):
    """``count`` objects with oids 10, 20, …, over the three headings and a grid of positions."""
    return [
        MovingObject(
            10 * (i + 1),
            Point(1_000.0 + 800.0 * (i % 10), 1_000.0 + 800.0 * (i // 10)),
            Vector(30.0 * _HEADINGS[i % 3][0], 30.0 * _HEADINGS[i % 3][1]),
            reference_time=0.0,
        )
        for i in range(first, first + count)
    ]


def _queries():
    """Circles and rectangles around both centres, from a few to every object."""
    queries = []
    for center in _CENTERS:
        for radius in (900.0, 3_000.0, 9_000.0):
            queries.append(RangeQuery(CircularRange(center, radius), 1.0, 1.0, issue_time=1.0))
            box = Rect.from_center(center, radius, radius)
            queries.append(RangeQuery(RectangularRange(box), 1.0, 3.0, issue_time=1.0))
    return queries


def _both_sides(index, queries, monkeypatch):
    """The index's answers at both thresholds, asserted equal to the model's."""
    expected = per_candidate_filter(index, queries)
    for threshold in (0, 10**9):
        monkeypatch.setattr(bulk, "MIN_VECTOR_FILTER", threshold)
        assert index.range_query_batch(queries) == expected
    return expected


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
def test_a_candidate_the_directory_does_not_hold_is_dropped(family, monkeypatch):
    index = _vp_index(family)
    index.bulk_load(_spread(30))
    queries = _queries()
    answers = _both_sides(index, queries, monkeypatch)
    assert max(map(len, answers)) == 30

    # Below, between and above every live oid (10, 20, …, 300), and twice.
    unknown = [-1, 15, 10**12, 15]
    scan = index.outlier_index.range_query_batch

    def with_unknown(queries, exact=True):
        return [found + unknown for found in scan(queries, exact=exact)]

    monkeypatch.setattr(index.outlier_index, "range_query_batch", with_unknown)
    assert _both_sides(index, queries, monkeypatch) == answers


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
def test_an_index_emptied_by_deletes_answers_nothing(family, monkeypatch):
    index = _vp_index(family)
    queries = _queries()
    assert _both_sides(index, queries, monkeypatch) == [[] for _ in queries]
    objects = _spread(30)
    index.bulk_load(objects)
    assert any(_both_sides(index, queries, monkeypatch))
    assert index.delete_batch(objects) == [True] * len(objects)
    assert len(index) == 0
    assert _both_sides(index, queries, monkeypatch) == [[] for _ in queries]


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
def test_a_range_query_after_a_membership_change_rebuilds_the_view(family, monkeypatch):
    index = _vp_index(family)
    first = _spread(30)
    index.bulk_load(first)
    queries = _queries()
    monkeypatch.setattr(bulk, "MIN_VECTOR_FILTER", 0)
    index.range_query_batch(queries)
    assert index._by_oid is not None

    moved = MovingObject(first[12].oid, Point(4_000.0, 4_000.0), Vector(0.0, 30.0), 0.0)
    newcomer = _spread(1, first=70)[0]
    changes = [
        lambda: index.insert_batch(_spread(20, first=30)),
        lambda: index.delete_batch(first[:10]),
        # An upsert: the second pair's ``old`` is not stored.
        lambda: index.update_batch([(first[12], moved), (newcomer, newcomer)]),
        # Freed slots are reused by the next inserts.
        lambda: index.insert_batch(first[:10]),
    ]
    for change in changes:
        change()
        assert index._by_oid is None
        answers = _both_sides(index, queries, monkeypatch)
        assert index._by_oid is not None
        held, _ = index._by_oid
        assert held.tolist() == sorted(index._directory)
        assert set().union(*answers) <= set(index._directory)
        assert np.array_equal(
            np.sort(index._rows.take(index._by_oid[1])["oid"]), np.sort(held)
        )
