"""The kNN candidate path: what it carries may change, what it scans may not.

Two pins around ``knn_candidates_batch`` → ``expanding_knn_batch``:

* **Pools** (Hypothesis): the batched driver keeps each probe's candidates
  as one ``MOTION`` array, so answers — ids and float distances, compared
  with ``==`` — must not depend on the order or multiplicity of the rows a
  provider returns, and of two rows with one oid the first seen wins,
  within a round and across rounds.  No ``space`` is passed: every probe
  starts at the 100-unit default radius and most take several doubling
  rounds over the 2000-unit table.
* **Page I/O**: the candidate path may carry tuples, arrays or bare ids
  but never changes the scan — same enlarged windows, same merged curve
  ranges, same leaf sequence, same frontier pins and eviction hints.  The
  totals below were recorded on the commit before the path went columnar
  (PR 20) and must repeat exactly; a moved count means the scan itself
  changed, not just the marshaling.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_standard_indexes, knn_queries_from_workload
from repro.geometry.point import Point
from repro.objects.knn import MOTION, AdaptiveRadius, KNNQuery, expanding_knn_batch
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


# ----------------------------------------------------------------------
# Page I/O of a seeded kNN replay at a 50-page pool
# ----------------------------------------------------------------------
PARAMS = WorkloadParameters(
    num_objects=800, time_duration=30.0, num_queries=12, buffer_pages=50, seed=42
)
K = 10

#: ``name -> (logical reads, physical reads)`` of the kNN phase alone.
PINNED_READS = {
    "Bx": (1639, 317),
    "Bx(VP)": (1885, 333),
    "TPR*": (783, 330),
    "TPR*(VP)": (770, 331),
}


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


def _small_radius(radius: float) -> AdaptiveRadius:
    """A radius seed far below the data density, so probes need many rounds."""
    state = AdaptiveRadius()
    state.observe([(K, radius)])
    return state


@pytest.mark.parametrize("name", sorted(PINNED_READS))
def test_knn_replay_reads_the_pinned_pages(workload, name):
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

    # One probe per request with a radius carried across requests, then the
    # whole batch from the density seed, then from a seed that takes the
    # batch through eight shared filter rounds.
    carried = _small_radius(150.0)
    answers = [
        index.knn_query_batch([probe], space=PARAMS.space, radius_state=carried)[0]
        for probe in probes[:6]
    ]
    answers += index.knn_query_batch(probes, space=PARAMS.space, radius_state=AdaptiveRadius())
    answers += index.knn_query_batch(
        probes, space=PARAMS.space, radius_state=_small_radius(100.0)
    )

    assert all(len(answer) == K for answer in answers)
    assert (stats.logical.reads - logical, stats.physical.reads - physical) == PINNED_READS[name]
    assert (stats.logical.writes, stats.physical.writes) == writes  # queries write nothing
