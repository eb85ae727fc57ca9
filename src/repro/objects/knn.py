"""K-nearest-neighbour queries on top of predictive range queries.

The paper motivates the circular range query as "the filter step of the
k Nearest Neighbor query" (Section 6).  This module completes that story
with the standard expanding-range kNN algorithm: issue a circular
time-slice range query, and if it returns fewer than ``k`` objects, double
the radius and retry.  Once at least ``k`` objects fall inside the circle,
the true k nearest are guaranteed to be among them (any object closer than
the current k-th would also be inside the circle), so the candidates are
ranked by their predicted distance at the query time and the top ``k``
returned.

:func:`expanding_knn_batch` is the one driver, behind every index's
``knn_query_batch`` (a scalar ``knn_query`` is a batch of one).  A whole
batch of :class:`KNNQuery` probes shares each expanding-range *round*: all
still-unfinished queries issue their circular filter queries together (one
shared index traversal per round), candidate motion rows accumulate per
query in one :data:`MOTION` array, and the candidate-ranking distance pass
runs vectorized over its columns.  An optional :class:`AdaptiveRadius`
carries the final radii of one batch into the initial radii of the next,
which saves filter rounds without ever changing answers (the stopping
rule and the final in-circle ranking are radius-schedule independent).

:class:`ScalarVerbs` lives here too, beside the :class:`KNNQuery` it
builds: this is the one module every index layer already imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, RangeQuery, TimeSliceRangeQuery

#: How much the search radius grows between filter rounds.
RADIUS_GROWTH_FACTOR = 2.0

#: Fallback initial radius when neither the data space nor an adaptive
#: estimate is available.
DEFAULT_INITIAL_RADIUS = 100.0

#: Safety bound on expansion rounds of the batched driver.  The radius grows
#: geometrically and is capped at the space diagonal, so real searches
#: terminate in a handful of rounds; the bound only guards degenerate
#: configurations.
DEFAULT_MAX_ROUNDS = 64

#: :class:`AdaptiveRadius`: safety factor on the suggested radius, and the
#: weight of the newest batch in the exponential moving average.
RADIUS_MARGIN = 1.25
RADIUS_SMOOTHING = 0.5

#: One candidate's motion record — the one currency of the kNN path, from
#: the key store to the ranker (and the slab row of the flat key store).
MOTION = np.dtype([("oid", "i8")] + [(name, "f8") for name in ("x", "y", "vx", "vy", "t")])

#: What ``row.tolist()`` of a :data:`MOTION` row yields:
#: ``(oid, x, y, vx, vy, reference_time)``.
CandidateState = Tuple[int, float, float, float, float, float]

#: Per-round candidate provider: maps the active queries' circular filter
#: queries to one :data:`MOTION` array of candidates per query.  Providers
#: may return supersets (unrefined index candidates) in any order and may
#: repeat rows; the driver keeps the first row seen per oid, ranks by exact
#: predicted distance and never trusts the provider's filtering.
CandidateProvider = Callable[[List[RangeQuery]], List[np.ndarray]]


def motion_rows(objects: Iterable[MovingObject]) -> np.ndarray:
    """The :data:`MOTION` array of ``objects`` (AttributeError if one is opaque).

    The rows are gathered in a list on purpose.  ``np.fromiter`` over a
    generator is a third faster, but then no container a kNN request
    allocates outlives a statement, CPython's cyclic collector stops
    running inside kNN, and the young generation that updates fill is swept
    during update requests instead (``replay-bx`` ``update_p95_ms`` +35 %;
    ROADMAP § Performance, PR 20).
    """
    return np.array(
        [
            (o.oid, o.position.x, o.position.y, o.velocity.vx, o.velocity.vy, o.reference_time)
            for o in objects
        ],
        dtype=MOTION,
    )


@dataclass(frozen=True)
class KNNQuery:
    """One k-nearest-neighbour probe.

    Attributes:
        center: query point the neighbours are ranked against.
        k: number of neighbours requested.
        query_time: the (future) timestamp the prediction refers to.
        issue_time: the current time the query is issued at.
    """

    center: Point
    k: int
    query_time: float
    issue_time: float = 0.0


class ScalarVerbs:
    """The five scalar verbs, each defined once as a batch of one.

    The batch verbs are the index protocol
    (``repro.core.index_manager.MovingIndex``); every index — tree
    families, ``VPIndex`` and the serving layer's shard views — mixes this
    in for the per-object spelling.  ``**kwargs`` go straight to the batch
    verb, so a layer whose batch verbs take more (``epoch``/``gc_floor`` in
    ``repro.serve``) takes it here too.  The tree families override the
    scalar mutations and searches that *are* their algorithm (their small
    batches fall back to them); ``knn_query`` is defined here alone.
    """

    def insert(self, obj: MovingObject, **kwargs) -> None:
        """Insert an object snapshot."""
        self.insert_batch([obj], **kwargs)

    def delete(self, obj: MovingObject, **kwargs) -> bool:
        """Delete a stored snapshot; True when it existed."""
        return self.delete_batch([obj], **kwargs)[0]

    def update(self, old: MovingObject, new: MovingObject, **kwargs) -> bool:
        """Replace ``old`` by ``new`` (same id); True when ``old`` existed."""
        return self.update_batch([(old, new)], **kwargs)[0]

    def range_query(self, query: RangeQuery, **kwargs) -> List[int]:
        """Ids of the objects qualifying for ``query``."""
        return self.range_query_batch([query], **kwargs)[0]

    def knn_query(
        self,
        center: Point,
        k: int,
        query_time: float,
        issue_time: float = 0.0,
        space: Optional[Rect] = None,
        **kwargs,
    ) -> List[Tuple[int, float]]:
        """Up to ``k`` ``(oid, distance)`` pairs nearest ``center`` at ``query_time``.

        Sorted by ``(distance, oid)``; ``space`` seeds the initial filter
        radius and caps the expansion (see :func:`expanding_knn_batch`).
        """
        probe = KNNQuery(center=center, k=k, query_time=query_time, issue_time=issue_time)
        return self.knn_query_batch([probe], space=space, **kwargs)[0]


class AdaptiveRadius:
    """Carries kNN search radii across batches.

    The right initial filter radius depends on the data density around the
    query points, which the previous batch already discovered: each answered
    probe's k-th neighbour distance *is* the minimal radius that would have
    sufficed (the final filter radius stands in when a probe found fewer
    than ``k``).  The state tracks the batch median of ``radius / sqrt(k)``
    (the density-normalized unit radius — for a uniform density the radius
    containing ``k`` objects scales with ``sqrt(k)``) with an exponential
    moving average, and seeds the next batch with that unit scaled back up
    by each query's ``k`` plus a safety margin.

    Seeding is a pure performance hint: a larger-than-needed radius finishes
    in fewer rounds and a smaller one in more, but the stopping rule and the
    final in-circle ranking make the answers radius-schedule independent.
    """

    def __init__(self) -> None:
        self._unit: Optional[float] = None

    @property
    def unit_radius(self) -> Optional[float]:
        """Current density-normalized radius estimate (None before any batch)."""
        return self._unit

    def suggest(self, k: int) -> Optional[float]:
        """Initial radius suggestion for a ``k``-NN probe (None without data)."""
        if self._unit is None or k <= 0:
            return None
        return self._unit * math.sqrt(k) * RADIUS_MARGIN

    def observe(self, finals: Sequence[Tuple[int, float]]) -> None:
        """Fold one batch's ``(k, sufficient radius)`` pairs into the estimate."""
        units = [
            radius / math.sqrt(k)
            for k, radius in finals
            if k > 0 and radius > 0.0 and math.isfinite(radius)
        ]
        if not units:
            return
        batch_unit = median(units)
        if self._unit is None:
            self._unit = batch_unit
        else:
            s = RADIUS_SMOOTHING
            self._unit = (1.0 - s) * self._unit + s * batch_unit


def initial_knn_radius(space: Rect, population: int, k: int) -> float:
    """A radius expected to contain about ``2k`` uniformly spread objects.

    Starting too small wastes filter rounds, starting too large wastes I/O;
    the uniform-density estimate ``sqrt(2k * area / (pi * n))`` is the usual
    compromise and is clamped to a sane floor.
    """
    if population <= 0 or k <= 0:
        return max(space.width, space.height)
    area_per_hit = space.area / population
    radius = math.sqrt(2.0 * k * area_per_hit / math.pi)
    return max(radius, 1e-6)


def expanding_knn_batch(
    candidates_for: CandidateProvider,
    queries: Sequence[KNNQuery],
    space: Optional[Rect] = None,
    population: Optional[int] = None,
    radius_state: Optional[AdaptiveRadius] = None,
) -> List[List[Tuple[int, float]]]:
    """Answer a batch of kNN probes with shared expanding-range rounds.

    Every round issues the circular filter queries of all still-unfinished
    probes together through ``candidates_for`` (one shared traversal for the
    whole round), merges the returned candidate rows into the probe's
    pool (one :data:`MOTION` array, the first row seen per oid wins), and
    retires the probes whose circle provably contains their k nearest.  The
    distance pass that decides retirement and ranks the final answers runs
    vectorized over the pool's columns.

    Args:
        candidates_for: per-round candidate provider (see
            :data:`CandidateProvider`).
        queries: the kNN probes.
        space: data space; seeds the density-based initial radius and caps
            the expansion at the space diagonal.
        population: number of indexed objects (for the initial radius).
        radius_state: optional cross-batch radius seed; its estimate
            overrides the density-based initial radius and the batch's
            final radii are folded back into it.

    Returns:
        Per probe, up to ``k`` ``(oid, distance)`` pairs sorted by
        ``(distance, oid)`` — fewer when fewer than ``k`` objects lie within
        the maximum search radius.
    """
    queries = list(queries)
    n = len(queries)
    results: List[Optional[List[Tuple[int, float]]]] = [None] * n
    radii: List[float] = []
    max_radii: List[float] = []
    for query in queries:
        radius = None
        if radius_state is not None:
            radius = radius_state.suggest(query.k)
        if radius is None and space is not None and population is not None:
            radius = initial_knn_radius(space, population, query.k)
        if radius is None:
            radius = DEFAULT_INITIAL_RADIUS
        radii.append(radius)
        if space is not None:
            max_radii.append(math.hypot(space.width, space.height))
        else:
            max_radii.append(radius * (RADIUS_GROWTH_FACTOR ** DEFAULT_MAX_ROUNDS))
    pools: List[np.ndarray] = [np.empty(0, dtype=MOTION)] * n
    active = [i for i in range(n) if queries[i].k > 0]
    for i in range(n):
        if queries[i].k <= 0:
            results[i] = []
    rounds = 0
    while active:
        filter_queries = [
            TimeSliceRangeQuery(
                CircularRange(center=queries[i].center, radius=radii[i]),
                time=queries[i].query_time,
                issue_time=queries[i].issue_time,
            )
            for i in active
        ]
        fetched = candidates_for(filter_queries)
        rounds += 1
        still_active: List[int] = []
        for i, rows in zip(active, fetched):
            # np.unique's indices name the first occurrence of each oid:
            # earlier rounds' rows come first, so they win.
            seen = np.concatenate((pools[i], rows))
            pool = pools[i] = seen[np.unique(seen["oid"], return_index=True)[1]]
            query = queries[i]
            oids, distances = _rank_distances(pool, query.center, query.query_time)
            in_circle = distances <= radii[i]
            done = (
                int(in_circle.sum()) >= query.k
                or radii[i] >= max_radii[i]
                or rounds >= DEFAULT_MAX_ROUNDS
            )
            if done:
                results[i] = _top_k(oids, distances, in_circle, query.k)
            else:
                radii[i] = min(radii[i] * RADIUS_GROWTH_FACTOR, max_radii[i])
                still_active.append(i)
        active = still_active
    if radius_state is not None:
        # A full answer's k-th distance is the tight density measurement;
        # the final filter radius (biased upward by the doubling schedule)
        # stands in only when fewer than k neighbours exist in range.
        finals = []
        for i in range(n):
            answer = results[i]
            if answer and len(answer) >= queries[i].k:
                finals.append((queries[i].k, answer[-1][1]))
            else:
                finals.append((queries[i].k, radii[i]))
        radius_state.observe(finals)
    return [result if result is not None else [] for result in results]


def _rank_distances(
    pool: np.ndarray, center: Point, query_time: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Oids and predicted distances at ``query_time`` of a :data:`MOTION` pool."""
    dt = query_time - pool["t"]
    px = pool["x"] + pool["vx"] * dt
    py = pool["y"] + pool["vy"] * dt
    return pool["oid"], np.hypot(px - center.x, py - center.y)


def _top_k(
    oids: np.ndarray, distances: np.ndarray, in_circle: np.ndarray, k: int
) -> List[Tuple[int, float]]:
    """Top ``k`` in-circle candidates sorted by ``(distance, oid)``."""
    selected = np.nonzero(in_circle)[0]
    if selected.size == 0:
        return []
    order = np.lexsort((oids[selected], distances[selected]))
    top = selected[order[:k]]
    return [(int(oids[j]), float(distances[j])) for j in top]
