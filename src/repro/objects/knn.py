"""K-nearest-neighbour queries on top of predictive range queries.

The paper motivates the circular range query as "the filter step of the
k Nearest Neighbor query" (Section 6).  This module completes that story
with an expanding-range kNN algorithm: issue a circular time-slice range
query, and while fewer than ``k`` of the objects it returned lie inside
the circle, grow the radius and retry.  Once at least ``k`` objects fall
inside the circle, the true k nearest are guaranteed to be among them (any
object closer than the current k-th would also be inside the circle), so
the candidates are ranked by their predicted distance at the query time
and the top ``k`` returned.

Each probe's first radius is read off per-cell object counts
(:func:`density_seed`): the distance from the probe at which the cells
around it, nearest centre first, hold ``2k`` objects.  Moving objects
crowd onto roads, so a uniform-density estimate (``sqrt(2k * area /
(pi * n))``) would start most probes far too small or far too large.
Every family keeps the counts its mutations already
touch: the Bx-tree its velocity histogram's counts of label positions,
the TPR family and ``VPIndex`` a :class:`~repro.bxtree.grid.CountGrid`
over reference positions.  From there the radius grows by doubling,
capped by what the probe already holds: an index's filter step returns a
superset of the circle, and once those rows number ``k`` the circle
through the k-th nearest of them provably holds ``k`` objects, so no
round needs a wider one.

:func:`expanding_knn_batch` is the one driver, behind every index's
``knn_query_batch`` (a scalar ``knn_query`` is a batch of one).  A whole
batch of :class:`KNNQuery` probes shares each expanding-range *round*: all
still-unfinished queries issue their circular filter queries together (one
shared index traversal per round), candidate motion rows accumulate per
query in one :data:`MOTION` array, and the candidate-ranking distance pass
runs vectorized over its columns.  Answers do not depend on the radius
schedule (the stopping rule and the final in-circle ranking see only the
objects inside the final circle), so the schedule is a cost decision only.

:class:`ScalarVerbs` lives here too, beside the :class:`KNNQuery` it
builds: this is the one module every index layer already imports.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.record import value_record
from repro.geometry.rect import Rect
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, RangeQuery, TimeSliceRangeQuery

if TYPE_CHECKING:  # the Bx package imports this module
    from repro.bxtree.grid import CountGrid

#: How much the search radius at most grows between filter rounds.
RADIUS_GROWTH_FACTOR = 2.0

#: Start radius of a probe whose provider keeps no count grid (a bare
#: candidate provider, or a ``VPIndex`` built without a data space).
DEFAULT_INITIAL_RADIUS = 100.0

#: Smallest seeded radius (a probe at a cell centre would otherwise get 0).
MIN_SEED_RADIUS = 1e-6

#: Safety bound on expansion rounds of the batched driver.  The radius grows
#: geometrically and is capped at the space diagonal, so real searches
#: terminate in a handful of rounds; the bound only guards degenerate
#: configurations.
DEFAULT_MAX_ROUNDS = 64

#: One candidate's motion record — the one currency of the kNN path, from
#: the key store to the ranker (and the slab row of the flat key store and
#: of ``VPIndex``).
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

    The rows are gathered in a list, not ``np.fromiter`` over a generator
    (a third faster).  That choice was made for ``VPIndex``'s kNN path,
    which once built a row per candidate id here and so decided where
    CPython's cyclic collector ran (ROADMAP § Performance); it now
    gathers its candidates from a slab.  The callers that remain: the
    paged Bx key store's kNN candidate scan, the flat key store's slab
    writes, the epoch snapshots' reconcile pool and the epoch oracle's
    brute-force model (``repro.serve.quiescent_answers``).
    """
    return np.array(
        [
            (o.oid, o.position.x, o.position.y, o.velocity.vx, o.velocity.vy, o.reference_time)
            for o in objects
        ],
        dtype=MOTION,
    )


@value_record
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
    ``repro.serve``) takes it here too.  No index overrides them, so a
    single mutation or query runs the family's one batch algorithm.
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

        Sorted by ``(distance, oid)``; ``space`` caps the expansion at its
        diagonal (see :func:`expanding_knn_batch`).
        """
        probe = KNNQuery(center=center, k=k, query_time=query_time, issue_time=issue_time)
        return self.knn_query_batch([probe], space=space, **kwargs)[0]


def density_seed(density: "CountGrid", center: Point, target: int) -> float:
    """The radius whose circle around ``center`` holds about ``target`` objects.

    Read off the per-cell counts: starting from the probe's cell (clamped
    to the grid), a square window of cells with half-width 1, 2, 4, ...
    grows until it holds ``target`` objects; its cells, sorted by the
    distance of their centres from ``center``, are then summed nearest
    first, and the seed is the centre distance at which the sum reaches
    ``target`` (at least :data:`MIN_SEED_RADIUS`).  A grid holding fewer
    than ``target`` objects in all seeds the diagonal of its space.  The
    window is sliced and summed per probe rather than read from a
    summed-area table, because the counts change between requests.
    """
    grid, counts = density.grid, density.counts
    cx, cy = grid.cell_at(center.x, center.y)
    cells_x, cells_y = counts.shape
    half = 1
    while True:
        x0, x1 = max(cx - half, 0), min(cx + half + 1, cells_x)
        y0, y1 = max(cy - half, 0), min(cy + half + 1, cells_y)
        window = counts[x0:x1, y0:y1]
        if window.sum() >= target:
            break
        if x1 - x0 == cells_x and y1 - y0 == cells_y:
            return math.hypot(grid.space.width, grid.space.height)
        half *= 2
    space = grid.space
    dx = space.x_min + (np.arange(x0, x1) + 0.5) * grid.cell_width - center.x
    dy = space.y_min + (np.arange(y0, y1) + 0.5) * grid.cell_height - center.y
    distances = np.hypot(dx[:, None], dy[None, :]).ravel()
    order = np.argsort(distances, kind="stable")
    reached = int(np.searchsorted(np.cumsum(window.ravel()[order]), target))
    return max(float(distances[order[reached]]), MIN_SEED_RADIUS)


def expanding_knn_batch(
    candidates_for: CandidateProvider,
    queries: Sequence[KNNQuery],
    space: Optional[Rect] = None,
    density: Optional["CountGrid"] = None,
) -> List[List[Tuple[int, float]]]:
    """Answer a batch of kNN probes with shared expanding-range rounds.

    Every round issues the circular filter queries of all still-unfinished
    probes together through ``candidates_for`` (one shared traversal for the
    whole round), merges the returned candidate rows into the probe's
    pool (one :data:`MOTION` array, the first row seen per oid wins), and
    retires the probes whose circle provably contains their k nearest.  The
    distance pass that decides retirement and ranks the final answers runs
    vectorized over the pool's columns.

    A probe starts at :func:`density_seed`'s radius for ``2k`` objects
    (capped at ``max_radius``), or at :data:`DEFAULT_INITIAL_RADIUS`
    without a ``density``.  An unfinished probe's next radius is
    ``min(2r, d_k, max_radius)``,
    where ``d_k`` is the k-th smallest predicted distance in its pool
    (infinite while the pool holds fewer than ``k`` rows).  The circle of
    radius ``d_k`` contains ``k`` pooled rows, so a capped probe retires in
    the next round; every radius is at most doubling's, so no probe takes
    more rounds than plain doubling would.

    Args:
        candidates_for: per-round candidate provider (see
            :data:`CandidateProvider`).
        queries: the kNN probes.
        space: data space; caps the expansion at the space diagonal
            (``max_radius``).
        density: the index's per-cell object counts, which seed each
            probe's first radius.

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
        radius = DEFAULT_INITIAL_RADIUS
        if density is not None and query.k > 0:
            radius = density_seed(density, query.center, 2 * query.k)
        if space is not None:
            max_radii.append(math.hypot(space.width, space.height))
        else:
            max_radii.append(radius * (RADIUS_GROWTH_FACTOR ** DEFAULT_MAX_ROUNDS))
        radii.append(min(radius, max_radii[-1]))
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
            # earlier rounds' rows come first, so they win.  ``take``
            # gathers the structured rows without fancy indexing's overhead.
            seen = np.concatenate((pools[i], rows))
            pool = pools[i] = seen.take(np.unique(seen["oid"], return_index=True)[1])
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
                continue
            radius = min(radii[i] * RADIUS_GROWTH_FACTOR, max_radii[i])
            if pool.size >= query.k:
                radius = min(radius, float(np.partition(distances, query.k - 1)[query.k - 1]))
            radii[i] = radius
            still_active.append(i)
        active = still_active
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
