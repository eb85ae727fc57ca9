"""The kNN candidate path around ``knn_candidates_batch`` → ``expanding_knn_batch``.

Four pins:

* **Pools** (Hypothesis): the batched driver keeps each probe's candidates
  as one ``MOTION`` array, so answers — ids and float distances, compared
  with ``==`` — must not depend on the order or multiplicity of the rows a
  provider returns, and of two rows with one oid the first seen wins,
  within a round and across rounds.  No ``space`` is passed: every probe
  starts at the 100-unit default radius and most take several rounds over
  the 2000-unit table.
* **Radius schedule** (Hypothesis): with a provider that returns a
  superset of each circle, as an index's filter step does, a round's
  radius is twice the last, or less once the probe's pool holds ``k``
  rows: capped at the k-th pooled distance, and a probe whose circle
  reaches that distance retires in that round.  Answers equal brute force.
* **VP slab** (Hypothesis): ``VPIndex`` answers kNN from a ``MOTION``
  slab of its objects' original snapshots, one row per live object.  After
  every random mutation — bulk load, inserts, deletes with misses and
  repeats, updates with migrations, upserts and repeated ids, rejected
  batches — each live record's row is its original's, live rows are
  distinct, live rows plus the free list are the whole slab, a built
  oid-sorted view equals the directory's ``(oid, slot)`` pairs, and a kNN
  batch (k = 1 and 3) answers as a brute-force ranking of the live objects.
  kNN on an empty or emptied index answers nothing, and a candidate id
  the directory does not hold is dropped.
* **Page I/O**: the pages a seeded kNN replay reads on each of the four
  standard indexes.  The scan is a function of the radius schedule, so a
  moved count means the schedule or the scan changed, not just the
  marshaling of candidates; the totals were re-recorded when each round's
  radius became capped at the pool's k-th distance, and again when each
  probe's first radius came from a count grid instead of a uniform
  density (every total fell: Bx (1461, 196) → (1228, 174), Bx(VP)
  (1737, 265) → (1424, 223), TPR* (743, 333) → (626, 280), TPR*(VP)
  (717, 301) → (583, 245)).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_standard_indexes, knn_queries_from_workload
from repro.core.dva import DominantVelocityAxis
from repro.core.partitioned_index import make_vp_bx_tree, make_vp_tprstar_tree
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, TimeSliceRangeQuery
from repro.objects import knn
from repro.objects.knn import MOTION, KNNQuery, expanding_knn_batch, motion_rows
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

# ----------------------------------------------------------------------
# Candidate pools
# ----------------------------------------------------------------------
_coords = st.floats(min_value=0.0, max_value=2_000.0, allow_nan=False)
_speeds = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
_motion_tables = st.lists(
    st.tuples(_coords, _coords, _speeds, _speeds, st.floats(min_value=0.0, max_value=5.0)),
    max_size=30,
).map(lambda rows: np.array([(oid, *row) for oid, row in enumerate(rows)], dtype=MOTION))
_probes = st.builds(
    KNNQuery,
    center=st.builds(Point, _coords, _coords),
    k=st.integers(min_value=0, max_value=6),
    query_time=st.floats(min_value=5.0, max_value=30.0),
    issue_time=st.just(5.0),
)


def _scanner(table):
    """A candidate provider over ``table``: per filter query, the rows inside its circle."""

    def scan(queries):
        out = []
        for query in queries:
            dt = query.start_time - table["t"]
            dx = table["x"] + table["vx"] * dt - query.range.center.x
            dy = table["y"] + table["vy"] * dt - query.range.center.y
            out.append(table[np.hypot(dx, dy) <= query.range.radius])
        return out

    return scan


@settings(max_examples=60, deadline=None)
@given(
    table=_motion_tables,
    probes=st.lists(_probes, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_answers_ignore_row_order_and_repeats(table, probes, seed):
    scan = _scanner(table)
    rng = random.Random(seed)

    def shuffled(queries):
        out = []
        for found in scan(queries):
            picks = list(range(len(found)))
            picks += [rng.choice(picks) for _ in range(rng.randrange(4)) if picks]
            rng.shuffle(picks)
            out.append(found[np.array(picks, dtype=np.intp)])
        return out

    assert expanding_knn_batch(shuffled, probes) == expanding_knn_batch(scan, probes)


@settings(max_examples=60, deadline=None)
@given(table=_motion_tables, probe=_probes)
def test_first_row_seen_for_an_oid_wins_across_rounds(table, probe):
    scan = _scanner(table)
    seen = set()

    def decoyed(queries):
        """Every real row, plus a same-oid decoy sitting on the query point.

        The decoy follows the real row in the round that first returns
        the oid and precedes it in every later round; were it ever
        kept, the oid would rank at distance zero.
        """
        (found,) = scan(queries)
        decoys = found.copy()
        decoys["x"], decoys["y"] = probe.center.x, probe.center.y
        decoys["vx"] = decoys["vy"] = 0.0
        known = np.isin(found["oid"], sorted(seen))
        seen.update(found["oid"].tolist())
        return [np.concatenate((decoys[known], found, decoys))]

    assert expanding_knn_batch(decoyed, [probe]) == expanding_knn_batch(scan, [probe])


def _distances(table, probe):
    """``oid -> predicted distance`` at the probe's time, computed as the driver does."""
    dt = probe.query_time - table["t"]
    px = table["x"] + table["vx"] * dt
    py = table["y"] + table["vy"] * dt
    distances = np.hypot(px - probe.center.x, py - probe.center.y)
    return dict(zip(table["oid"].tolist(), distances.tolist()))


@settings(max_examples=100, deadline=None)
@given(
    table=_motion_tables,
    probes=st.lists(
        _probes, max_size=4, unique_by=lambda p: (p.center.x, p.center.y, p.query_time)
    ),
    slack=st.floats(min_value=1.0, max_value=4.0),
)
def test_radius_doubles_capped_at_the_pools_kth_distance(table, probes, slack):
    scan = _scanner(table)
    radii = {}  # probe key -> the radius of each round it took part in
    pooled = {}  # probe key -> after each of its rounds, the oids it holds

    def recording(queries):
        """Every row within ``slack`` times the radius: a superset, like an index's."""
        wide = [
            TimeSliceRangeQuery(
                CircularRange(q.range.center, q.range.radius * slack), time=q.start_time
            )
            for q in queries
        ]
        found = scan(wide)
        for query, rows in zip(queries, found):
            key = (query.range.center.x, query.range.center.y, query.start_time)
            radii.setdefault(key, []).append(query.range.radius)
            held = pooled[key][-1] if key in pooled else set()
            pooled.setdefault(key, []).append(held | set(rows["oid"].tolist()))
        return found

    answers = expanding_knn_batch(recording, probes)

    for probe, answer in zip(probes, answers):
        distance = _distances(table, probe)
        ranked = sorted((d, oid) for oid, d in distance.items())[: max(probe.k, 0)]
        assert answer == [(oid, d) for d, oid in ranked]  # brute force

        key = (probe.center.x, probe.center.y, probe.query_time)
        taken = radii.get(key, [])
        assert (len(taken) > 0) == (probe.k > 0)
        for r, (before, after) in enumerate(zip(taken, taken[1:])):
            assert before < after <= 2.0 * before
            held = pooled[key][r]
            if len(held) < probe.k:
                assert after == 2.0 * before
                continue
            # k pooled rows lie within their k-th distance: a circle that
            # reaches it is the probe's last.
            kth = sorted(distance[oid] for oid in held)[probe.k - 1]
            assert after == min(2.0 * before, kth)
            if after == kth:
                assert len(taken) == r + 2


# ----------------------------------------------------------------------
# The VP slab against the directory
# ----------------------------------------------------------------------
_SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)
#: Along the x axis, along the y axis, and diagonal: an outlier once fast.
_HEADINGS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]
_motions = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.floats(min_value=0.0, max_value=10_000.0),
    st.floats(min_value=0.0, max_value=10_000.0),
    st.sampled_from(_HEADINGS),
    st.floats(min_value=10.0, max_value=50.0),
)
_VERBS = ["insert", "delete", "update", "rejected insert", "rejected bulk_load"]


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


def _slab_state(index):
    """Everything the slab invariants read, as comparable values."""
    directory = {
        oid: (r.partition, r.original, r.stored, r.slot) for oid, r in index._directory.items()
    }
    return directory, index._rows.tobytes(), list(index._free)


def _assert_slab_matches(index, live):
    records = index._directory
    assert {oid: record.original for oid, record in records.items()} == live
    for record in records.values():
        assert index._rows[record.slot].tolist() == motion_rows([record.original])[0].tolist()
    slots = [record.slot for record in records.values()]
    assert len(set(slots)) == len(slots)
    assert sorted(slots + index._free) == list(range(len(index._rows)))
    if index._by_oid is not None:
        oids, view_slots = index._by_oid
        assert list(zip(oids.tolist(), view_slots.tolist())) == sorted(
            (oid, record.slot) for oid, record in records.items()
        )


#: Probe centres at least 2,500 from the space's edges: every object (at
#: most 550 outside the space by the last step) lies within the diagonal cap.
_CENTERS = [Point(5_000.0, 5_000.0), Point(2_500.0, 7_500.0)]


def _assert_knn_is_brute_force(index, live, time):
    """A kNN batch (k = 1 and 3 per centre) against a ``(distance, oid)`` ranking of ``live``."""
    probes = [KNNQuery(center, k, time, issue_time=time) for center in _CENTERS for k in (1, 3)]
    table = motion_rows(list(live.values())) if live else np.empty(0, dtype=MOTION)
    expected = []
    for probe in probes:
        ranked = sorted((d, oid) for oid, d in _distances(table, probe).items())[: probe.k]
        expected.append([(oid, d) for d, oid in ranked])
    assert index.knn_query_batch(probes) == expected


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
@settings(max_examples=40, deadline=None)
@given(
    loaded=st.lists(_motions, max_size=12),
    steps=st.lists(st.tuples(st.sampled_from(_VERBS), st.lists(_motions, max_size=6)), max_size=10),
)
def test_vp_slab_rows_are_the_directorys_originals(family, loaded, steps):
    index = _vp_index(family)

    def objects(motions, time):
        return [
            MovingObject(oid, Point(x, y), Vector(speed * hx, speed * hy), reference_time=time)
            for oid, x, y, (hx, hy), speed in motions
        ]

    live = {obj.oid: obj for obj in objects(loaded, 0.0)}
    index.bulk_load(list(live.values()))
    _assert_slab_matches(index, live)
    _assert_knn_is_brute_force(index, live, 0.0)
    _assert_slab_matches(index, live)
    for time, (verb, motions) in enumerate(steps, start=1):
        batch = objects(motions, float(time))
        if verb == "insert":
            fresh = list({obj.oid: obj for obj in batch if obj.oid not in live}.values())
            index.insert_batch(fresh)
            live.update((obj.oid, obj) for obj in fresh)
        elif verb == "delete":
            expected = [live.pop(obj.oid, None) is not None for obj in batch]
            assert index.delete_batch(batch) == expected
        elif verb == "update":
            # Repeated oids take the scalar fallback, unseen ones are upserts.
            pairs, expected = [], []
            for new in batch:
                pairs.append((live.get(new.oid, new), new))
                expected.append(new.oid in live)
                live[new.oid] = new
            assert index.update_batch(pairs) == expected
        elif batch or live:
            # A batch holding a live oid (or one oid twice) is refused whole.
            duplicate = next(iter(live.values())) if live else batch[0]
            before = _slab_state(index)
            load = index.insert_batch if verb == "rejected insert" else index.bulk_load
            with pytest.raises(KeyError):
                load(batch + [duplicate])
            assert _slab_state(index) == before
        _assert_slab_matches(index, live)
        _assert_knn_is_brute_force(index, live, float(time))
        _assert_slab_matches(index, live)


def _spread(count):
    """``count`` objects with oids 10, 20, …, over the three headings and a grid of positions."""
    return [
        MovingObject(
            10 * (i + 1),
            Point(1_000.0 + 800.0 * (i % 10), 1_000.0 + 800.0 * (i // 10)),
            Vector(30.0 * _HEADINGS[i % 3][0], 30.0 * _HEADINGS[i % 3][1]),
            reference_time=0.0,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
def test_knn_on_an_empty_vp_index_answers_nothing(family):
    probes = [KNNQuery(center, 3, 1.0, issue_time=1.0) for center in _CENTERS]
    index = _vp_index(family)
    assert index.knn_query_batch(probes) == [[], []]
    objects = _spread(30)
    index.bulk_load(objects)
    assert all(len(answer) == 3 for answer in index.knn_query_batch(probes))
    assert index.delete_batch(objects) == [True] * len(objects)
    assert len(index) == 0
    assert index.knn_query_batch(probes) == [[], []]


@pytest.mark.parametrize("family", ["Bx(VP)", "TPR*(VP)"])
def test_a_candidate_the_directory_does_not_hold_is_dropped(family, monkeypatch):
    index = _vp_index(family)
    objects = _spread(30)
    index.bulk_load(objects)
    probes = [KNNQuery(center, k, 1.0, issue_time=1.0) for center in _CENTERS for k in (1, 3)]
    circles = [
        TimeSliceRangeQuery(CircularRange(center, 6_000.0), time=1.0, issue_time=1.0)
        for center in _CENTERS
    ]
    answers = index.knn_query_batch(probes)
    candidates = index._knn_candidates_batch(circles)
    assert all(len(rows) for rows in candidates)

    # Below, between and above every live oid (10, 20, …, 300).
    unknown = np.array([-1, 15, 10**12], dtype=np.int64)
    scan = index.outlier_index.knn_candidates_batch

    def with_unknown(queries, ids_only=False):
        return [np.concatenate((found, unknown)) for found in scan(queries, ids_only=ids_only)]

    monkeypatch.setattr(index.outlier_index, "knn_candidates_batch", with_unknown)
    assert index.knn_query_batch(probes) == answers
    for rows, expected in zip(index._knn_candidates_batch(circles), candidates):
        assert np.sort(rows, order="oid").tobytes() == np.sort(expected, order="oid").tobytes()
    index.delete_batch(objects)
    assert index.knn_query_batch(probes) == [[] for _ in probes]
    assert [len(rows) for rows in index._knn_candidates_batch(circles)] == [0, 0]


# ----------------------------------------------------------------------
# Page I/O of a seeded kNN replay at a 50-page pool
# ----------------------------------------------------------------------
PARAMS = WorkloadParameters(
    num_objects=800, time_duration=30.0, num_queries=12, buffer_pages=50, seed=42
)
K = 10

#: ``name -> (logical reads, physical reads)`` of the kNN phase alone.
PINNED_READS = {
    "Bx": (1228, 174),
    "Bx(VP)": (1424, 223),
    "TPR*": (626, 280),
    "TPR*(VP)": (583, 245),
}


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.mark.parametrize("name", sorted(PINNED_READS))
def test_knn_replay_reads_the_pinned_pages(workload, name, monkeypatch):
    index = build_standard_indexes(workload, PARAMS, which=(name,))[name]
    index.bulk_load(workload.initial_objects)
    for batch in workload.grouped_events(window=1.0):
        if isinstance(batch[0], UpdateEvent):
            index.update_batch([(event.old, event.new) for event in batch])
    index.buffer.flush()
    probes = knn_queries_from_workload(workload, k=K)
    stats = index.buffer.stats
    logical, physical = stats.logical.reads, stats.physical.reads
    writes = (stats.logical.writes, stats.physical.writes)

    # One probe per request and then the whole batch from the count-grid
    # seed, then the batch again from a start radius far below the density,
    # which takes it through many shared filter rounds.
    answers = [index.knn_query_batch([probe], space=PARAMS.space)[0] for probe in probes[:6]]
    answers += index.knn_query_batch(probes, space=PARAMS.space)
    monkeypatch.setattr(knn, "density_seed", lambda density, center, target: 100.0)
    answers += index.knn_query_batch(probes, space=PARAMS.space)

    assert all(len(answer) == K for answer in answers)
    assert (stats.logical.reads - logical, stats.physical.reads - physical) == PINNED_READS[name]
    assert (stats.logical.writes, stats.physical.writes) == writes  # queries write nothing
