"""The Bx-tree moving-object index (Jensen et al., VLDB 2004).

Objects are stored in a B+-tree under a one-dimensional key::

    key = partition * curve_size + curve(cell(position at partition label time))

where ``partition`` is the time bucket of the object's last update and the
partition's *label time* is the end of that bucket.  All objects in one
partition therefore share a common reference time, which bounds the amount
of query-window enlargement (Section 3.2 of the paper).

Range queries are answered per partition:

1. the query window (over its whole time interval) is enlarged back to the
   partition label time using the min/max velocities of a grid-based
   velocity histogram, restricted to the region the window covers;
2. the enlargement is refined iteratively (Jensen et al., MDM 2006): the
   extrema are re-read from the histogram over the *enlarged* window until
   the window stops growing;
3. the enlarged window is decomposed into space-filling-curve ranges which
   become B+-tree range scans; and
4. candidates are filtered with the exact query predicate.

**One mutation path.**  ``insert_batch``/``delete_batch``/``update_batch``
all run :meth:`BxTree.apply_batch`, and the scalar ``insert``/``delete``/
``update``/``range_query``/``knn_query`` are the batch-of-one
:class:`~repro.objects.knn.ScalarVerbs`.  A mutation batch of any size
computes its Bx keys, label positions and histogram cells in one pass
(a plain loop below :data:`~repro.bulk.MIN_VECTOR_BATCH` objects, flat
numpy arrays above, bit-identically), sweeps the key store left to right
with shared descents, and turns same-key updates into in-place value
replacements.  :meth:`BxTree.bulk_load` is the one construction path: the
same key pass, one histogram ``add_batch`` and one sorted packing of the
key store.  A query batch reuses one partition list, one cached set
of global velocity extrema and one chained range sweep per partition.
That sweep is the tree's only range traversal: a single query is a batch
of one, and the kNN filter rounds scan through it too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import bulk
from repro.bxtree.grid import CountGrid, Grid
from repro.bxtree.key_store import make_key_store
from repro.bxtree.spacefill import HilbertCurve, SpaceFillingCurve, ZCurve
from repro.bxtree.velocity_histogram import VelocityHistogram
from repro.geometry.rect import Rect
from repro.objects.knn import (
    MOTION,
    KNNQuery,
    ScalarVerbs,
    expanding_knn_batch,
)
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery
from repro.storage.buffer_manager import BufferManager

#: Default data space (Table 1 of the paper: 100,000 m x 100,000 m).
DEFAULT_SPACE = Rect(0.0, 0.0, 100_000.0, 100_000.0)

#: Number of time buckets (Section 6: "The Bx-tree has two time buckets").
DEFAULT_NUM_BUCKETS = 2

#: Maximum update interval in timestamps (Table 1).
DEFAULT_MAX_UPDATE_INTERVAL = 120.0

#: Space-filling-curve order: 2^order cells per dimension.
DEFAULT_CURVE_ORDER = 8

#: Velocity histogram resolution (cells per dimension).  The paper uses a
#: 1000 x 1000 histogram; 100 x 100 keeps memory modest at simulator scale
#: while preserving locality of the velocity extrema.
DEFAULT_HISTOGRAM_CELLS = 100

#: Maximum number of iterative-refinement rounds for query enlargement.
MAX_ENLARGEMENT_ITERATIONS = 5

#: Curve-position gap below which two query ranges are merged into a single
#: B+-tree scan (one extra short leaf scan is cheaper than another
#: root-to-leaf descent).
DEFAULT_RANGE_MERGE_GAP = 64


class BxTree(ScalarVerbs):
    """Bx-tree over a pluggable 1-D key store (paged B+-tree by default)."""

    name = "Bx"

    def __init__(
        self,
        buffer: Optional[BufferManager] = None,
        space: Rect = DEFAULT_SPACE,
        curve: str = "hilbert",
        curve_order: int = DEFAULT_CURVE_ORDER,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        max_update_interval: float = DEFAULT_MAX_UPDATE_INTERVAL,
        page_size: Optional[int] = None,
        key_store: Optional[str] = None,
    ) -> None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        if max_update_interval <= 0:
            raise ValueError("max_update_interval must be positive")
        self.buffer = buffer if buffer is not None else BufferManager()
        self.space = space
        self.curve = _make_curve(curve, curve_order)
        self.curve.index_table()  # windows slice it: build it now, or refuse the order
        self.grid = Grid(space, self.curve.cells_per_side, self.curve.cells_per_side)
        self.num_buckets = num_buckets
        self.bucket_duration = max_update_interval / num_buckets
        self.max_update_interval = max_update_interval
        self.histogram = VelocityHistogram(
            Grid(space, DEFAULT_HISTOGRAM_CELLS, DEFAULT_HISTOGRAM_CELLS)
        )
        #: The key-store backend (see docs/backends.md): ``None`` selects the
        #: paged B+-tree reference; ``"flat"`` the vectorized sorted array.
        self.store = make_key_store(key_store, buffer=self.buffer, page_size=page_size)
        self._partition_counts: Dict[int, int] = {}
        #: Sorted active-partition list, recomputed lazily only when the set
        #: of partitions changes (every query walks this list).
        self._sorted_partitions: Optional[List[int]] = None
        self.current_time = 0.0
        self.size = 0

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------
    @property
    def _curve_size(self) -> int:
        return self.curve.max_index + 1

    def partition_of(self, time: float) -> int:
        """Time bucket (partition) of an update issued at ``time``."""
        return int(time // self.bucket_duration)

    def label_time(self, partition: int) -> float:
        """Common reference time of a partition (the end of its bucket)."""
        return (partition + 1) * self.bucket_duration

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def bulk_load(self, objects) -> None:
        """Build the index from ``objects`` with one sorted B+-tree packing.

        The construction twin of :meth:`apply_batch`: one key pass
        (:meth:`_batch_key_data`) yields every key, partition and label
        position; the partition counters take one count per partition, the
        velocity histogram one :meth:`~VelocityHistogram.add_batch`, and the
        key store is leaf-packed in key order instead of descended once per
        object.

        Raises:
            ValueError: if the index is not empty.
        """
        objects = list(objects)
        if self.size:
            raise ValueError("bulk_load requires an empty index")
        if not objects:
            return
        keys, parts, lx, ly, vx, vy = self._batch_key_data(objects)
        self.current_time = max(self.current_time, max(o.reference_time for o in objects))
        partitions, counts = np.unique(parts, return_counts=True)
        for partition, count in zip(partitions.tolist(), counts.tolist()):
            self._bump_partition(partition, count)
        self.histogram.add_batch(lx, ly, vx, vy)
        self.store.bulk_load(list(zip(keys, objects)))
        self.size = len(objects)

    def _bump_partition(self, partition: int, delta: int) -> None:
        """Adjust a partition's live-object count, keeping the cache fresh."""
        count = self._partition_counts.get(partition, 0) + delta
        if count <= 0:
            if self._partition_counts.pop(partition, None) is not None:
                self._sorted_partitions = None
        else:
            if count == delta:  # partition newly active
                self._sorted_partitions = None
            self._partition_counts[partition] = count

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------
    def _batch_key_data(self, objs: Sequence[MovingObject]):
        """Keys, partitions, label positions and velocities of a batch.

        Label positions and velocities come back as four columns.  Below
        :data:`~repro.bulk.MIN_VECTOR_BATCH` objects they are lists filled
        by a plain loop (``partition_of``, ``label_time``, the arithmetic of
        ``position_at``, ``grid.cell_at`` and the curve's cell → index
        table); larger batches evaluate the same arithmetic over flat numpy
        arrays, bit-identically.
        """
        n = len(objs)
        if n < bulk.MIN_VECTOR_BATCH:
            curve_size = self._curve_size
            table = self.curve.index_table()
            keys, partitions, lx, ly, vx, vy = [], [], [], [], [], []
            for obj in objs:
                partition = self.partition_of(obj.reference_time)
                dt = self.label_time(partition) - obj.reference_time  # as in position_at
                velocity = obj.velocity
                x = obj.position.x + velocity.vx * dt
                y = obj.position.y + velocity.vy * dt
                keys.append(partition * curve_size + int(table[self.grid.cell_at(x, y)]))
                partitions.append(partition)
                lx.append(x)
                ly.append(y)
                vx.append(velocity.vx)
                vy.append(velocity.vy)
            return keys, partitions, lx, ly, vx, vy
        rt = np.fromiter((o.reference_time for o in objs), np.float64, n)
        px = np.fromiter((o.position.x for o in objs), np.float64, n)
        py = np.fromiter((o.position.y for o in objs), np.float64, n)
        vx = np.fromiter((o.velocity.vx for o in objs), np.float64, n)
        vy = np.fromiter((o.velocity.vy for o in objs), np.float64, n)
        partitions = np.floor_divide(rt, self.bucket_duration).astype(np.int64)
        label = (partitions + 1) * self.bucket_duration
        dt = label - rt
        lx = px + vx * dt
        ly = py + vy * dt
        cx, cy = self.grid.cells_of_arrays(lx, ly)
        keys = partitions * self._curve_size + self.curve.encode_many(cx, cy)
        return keys.tolist(), partitions.tolist(), lx, ly, vx, vy

    def insert_batch(self, objs: Sequence[MovingObject]) -> None:
        """Insert a batch of snapshots (one key pass + one B+-tree sweep)."""
        self.apply_batch(inserts=objs)

    def delete_batch(self, objs: Sequence[MovingObject]) -> List[bool]:
        """Delete a batch of snapshots; per-object success flags."""
        return self.apply_batch(deletes=objs)[0]

    def update_batch(self, pairs: Iterable[Tuple[MovingObject, MovingObject]]) -> List[bool]:
        """Apply a batch of updates; per pair, whether its old snapshot existed.

        One :meth:`apply_batch`; a batch that updates the same object twice
        goes through it pair by pair, since later pairs see earlier ones.
        """
        pairs = list(pairs)
        oids = [old.oid for old, _ in pairs]
        if len(set(oids)) != len(oids):
            return [self.apply_batch(updates=[pair])[1][0] for pair in pairs]
        return self.apply_batch(updates=pairs)[1]

    def apply_batch(
        self,
        deletes: Sequence[MovingObject] = (),
        inserts: Sequence[MovingObject] = (),
        updates: Sequence[Tuple[MovingObject, MovingObject]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """Apply a mixed batch of operations in one pass over the index.

        The Bx-tree's one mutation algorithm; a single insert, delete or
        update is a batch of one.  Keys, partitions and label positions for
        every snapshot (deletes, inserts, and both sides of every update)
        come from one key pass (:meth:`_batch_key_data`); same-key updates
        become in-place B+-tree replacements (an update moves an object's
        key as a deletion plus an insertion); and all remaining deletions
        and insertions run as a single key-ordered B+-tree sweep with
        shared descents.  The histogram then forgets every removed snapshot
        and records every added one.  Updates must not repeat an object id
        within one batch (:meth:`update_batch` splits such batches).

        Returns ``(delete_flags, update_flags)``: per-deletion success flags
        aligned with ``deletes`` and, aligned with ``updates``, whether each
        pair's old snapshot existed.
        """
        deletes = list(deletes)
        inserts = list(inserts)
        updates = list(updates)
        if not (deletes or inserts or updates):
            return [], []
        nd, nu = len(deletes), len(updates)
        olds = [old for old, _ in updates]
        news = [new for _, new in updates]
        # Every snapshot that may leave the index, then every one that enters.
        everything = deletes + olds + inserts + news
        keys, parts, lx, ly, vx, vy = self._batch_key_data(everything)
        self.current_time = max(self.current_time, max(o.reference_time for o in everything))
        entering = nd + nu
        new_at = len(everything) - nu
        # Same-key update pairs become in-place upserts; the rest join the
        # plain deletions/insertions in ONE key-ordered B+-tree sweep.
        store_deletes = list(zip(keys, deletes))
        store_inserts = list(zip(keys[entering:], inserts))
        upserts, moves, same = [], [], []
        for i in range(nu):
            old_key, new_key = keys[nd + i], keys[new_at + i]
            if old_key == new_key:
                same.append(i)
                upserts.append((old_key, olds[i], news[i]))
            else:
                moves.append(i)
                store_deletes.append((old_key, olds[i]))
                store_inserts.append((new_key, news[i]))
        delete_flags, upsert_flags = self.store.apply_batch(store_deletes, store_inserts, upserts)
        update_flags = [False] * nu
        for i, flag in zip(moves + same, delete_flags[nd:] + upsert_flags):
            update_flags[i] = flag
        # Bookkeeping: every removed old snapshot leaves its partition count
        # and histogram cell, every new one enters them (an in-place
        # replacement does both).  The histogram is keyed by the label-time
        # position the key encodes; see enlarged_window() for why this keeps
        # refinement safe.
        removed = [i for i, flag in enumerate(delete_flags[:nd] + update_flags) if flag]
        for i in removed:
            self._bump_partition(parts[i], -1)
        for partition in parts[entering:]:
            self._bump_partition(partition, 1)
        if removed:
            self.histogram.remove_batch(*_take(removed, lx, ly))
        if len(everything) > entering:
            self.histogram.add_batch(lx[entering:], ly[entering:], vx[entering:], vy[entering:])
        self.size += len(everything) - entering - len(removed)
        return delete_flags[:nd], update_flags

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query_batch(
        self, queries: Sequence[RangeQuery], exact: bool = True
    ) -> List[List[int]]:
        """Answer a batch of queries; results are aligned with the input.

        The Bx-tree's one range search; a single query is a batch of one.
        The active-partition list and the histogram's global extrema are
        read once per batch, and all curve-range scans of one partition —
        across every query in the batch — run as a single left-to-right
        B+-tree sweep with shared descents.  Each query's answer and its
        order are those of the query asked alone.
        """
        queries = list(queries)
        if not queries:
            return []
        results: List[List[int]] = [[] for _ in queries]
        seen: List[set] = [set() for _ in queries]
        for ranges, owners in self._key_ranges(queries):
            scans = self.store.range_search_batch(ranges)
            for qi, scanned in zip(owners, scans):
                query = queries[qi]
                out = results[qi]
                dedup = seen[qi]
                for _, obj in scanned:
                    if obj.oid in dedup:
                        continue
                    if not exact or query.matches(obj):
                        dedup.add(obj.oid)
                        out.append(obj.oid)
        return results

    # ------------------------------------------------------------------
    # kNN queries (batched expanding-range filter over the shared sweep)
    # ------------------------------------------------------------------
    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Answer a batch of kNN probes with shared expanding-range rounds.

        Each round's circular filter queries run through the batched
        curve-range machinery: one active-partition list, one set of
        histogram extrema and one chained left-to-right B+-tree sweep per
        partition serve every unfinished probe of the round, and the
        candidate ranking runs vectorized in
        :func:`repro.objects.knn.expanding_knn_batch`.  Answers are
        identical to issuing the probes one at a time.

        Args:
            queries: the kNN probes.
            space: data space override (the expansion cap); defaults to
                the index's own space.

        Returns:
            Per probe, up to ``k`` ``(oid, distance)`` pairs sorted by
            ``(distance, oid)``.
        """
        return expanding_knn_batch(
            self.knn_candidates_batch,
            queries,
            space=space if space is not None else self.space,
            # The histogram's counts of label positions, kept by every mutation.
            density=CountGrid(self.histogram.grid, self.histogram._count),
        )

    def knn_candidates_batch(
        self, queries: Sequence[RangeQuery], ids_only: bool = False
    ) -> List[np.ndarray]:
        """Candidate ``MOTION`` rows per filter query (one shared sweep per partition).

        The unrefined twin of :meth:`range_query_batch`: the same enlarged
        windows and merged curve ranges, but the scanned records come back
        as one motion array per query (for the kNN distance ranking)
        instead of being filtered with the exact query predicate.  With
        ``ids_only`` the arrays hold just the ``int64`` oids — what the VP
        index asks for, since it ranks the original, unrotated records.
        """
        found: List[List[np.ndarray]] = [[] for _ in queries]
        for ranges, owners in self._key_ranges(queries):
            # Candidate extraction is the store's job (the flat backend
            # serves it from its motion slab without touching the payload
            # objects).
            scans = self.store.knn_candidates_batch(ranges, ids_only=ids_only)
            for qi, scanned in zip(owners, scans):
                found[qi].append(scanned)
        empty = np.empty(0, dtype=np.int64 if ids_only else MOTION)
        return [np.concatenate(arrays) if arrays else empty for arrays in found]

    def _key_ranges(
        self, queries: Sequence[RangeQuery]
    ) -> Iterator[Tuple[List[Tuple[int, int]], List[int]]]:
        """Per active partition, every query's curve ranges as B+-tree key ranges.

        Yields ``(ranges, owners)``: the key ranges of the partition's
        enlarged windows, query by query, and the index of the query that
        owns each range.
        """
        curve_size = self._curve_size
        for partition in self.active_partitions:
            base_key = partition * curve_size
            ranges: List[Tuple[int, int]] = []
            owners: List[int] = []
            for qi, query in enumerate(queries):
                window = self.enlarged_window(query, partition)
                for lo, hi in self._ranges_for_window(window):
                    ranges.append((base_key + lo, base_key + hi))
                    owners.append(qi)
            yield ranges, owners

    def enlarged_window(self, query: RangeQuery, partition: int) -> Rect:
        """Query window enlarged back to the partition's label time.

        An object indexed at position ``p`` (at the label time) with velocity
        ``v`` is at ``p + v dt`` at ``dt`` past the label time, so it can fall
        in the query's base window during the query interval iff ``p`` lies
        in the base window shifted by ``-v dt``.  Taking the extreme
        velocities and the extreme ``dt`` of the interval yields the enlarged
        bounds (valid for query times before or after the label time — the
        signs work out in both cases).

        The first enlargement uses the *global* velocity extrema (the original
        Bx-tree rule, always conservative).  Following Jensen et al.'s
        iterative improvement, the window is then refined: the extrema are
        re-read from the velocity histogram restricted to the current window
        and the enlargement recomputed, which can only shrink the window and
        never drops a qualifying object (every object that can reach the
        query window has its reference position — and therefore its histogram
        cell — inside the current window).  Iteration stops at a fixpoint or
        after ``MAX_ENLARGEMENT_ITERATIONS`` refinements.  The rounds run on
        bare bounds; only the result becomes a ``Rect``.

        Exposed separately because the search-space-expansion analysis of
        Figure 7 measures exactly this enlargement.
        """
        base = query.bounding_rect_over_interval()
        label = self.label_time(partition)
        dt_start = query.start_time - label
        dt_end = query.end_time - label
        space = self.space.as_tuple()
        min_vx, min_vy, max_vx, max_vy = self.histogram.global_extrema()
        for refinement in range(MAX_ENLARGEMENT_ITERATIONS + 1):
            x_shift = (min_vx * dt_start, min_vx * dt_end, max_vx * dt_start, max_vx * dt_end)
            y_shift = (min_vy * dt_start, min_vy * dt_end, max_vy * dt_start, max_vy * dt_end)
            window = (
                base.x_min - max(x_shift),
                base.y_min - max(y_shift),
                base.x_max - min(x_shift),
                base.y_max - min(y_shift),
            )
            area = (window[2] - window[0]) * (window[3] - window[1])
            if refinement == MAX_ENLARGEMENT_ITERATIONS or (
                refinement and area >= last_area - 1e-9
            ):
                break
            last_area = area
            min_vx, min_vy, max_vx, max_vy = self.histogram.extrema_in(*_clip(window, space))
        return Rect(*_clip(window, space))

    def _ranges_for_window(self, window: Rect) -> List[Tuple[int, int]]:
        """Merged curve ranges covering ``window``.

        The window's cell block is one slice of the curve's memoized cell →
        index table; its sorted indexes merge into ranges.
        """
        lo_x, lo_y, hi_x, hi_y = self.grid.cell_span(
            window.x_min, window.y_min, window.x_max, window.y_max
        )
        block = self.curve.index_table()[lo_x : hi_x + 1, lo_y : hi_y + 1]
        indexes = np.sort(block, axis=None)
        return self.curve.ranges_from_sorted_indexes(indexes, merge_gap=DEFAULT_RANGE_MERGE_GAP)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_partitions(self) -> List[int]:
        if self._sorted_partitions is None:
            self._sorted_partitions = sorted(self._partition_counts)
        return self._sorted_partitions


def _take(positions: List[int], *columns):
    """Each column at ``positions``: one gather per numpy column, a loop per list."""
    if isinstance(columns[0], np.ndarray):
        return [column[positions] for column in columns]
    return [[column[i] for i in positions] for column in columns]


def _make_curve(kind: str, order: int) -> SpaceFillingCurve:
    if kind == "hilbert":
        return HilbertCurve(order)
    if kind in ("z", "morton"):
        return ZCurve(order)
    raise ValueError(f"unknown space-filling curve: {kind!r}")


def _clip(
    window: Tuple[float, float, float, float], space: Tuple[float, float, float, float]
) -> Tuple[float, float, float, float]:
    """``window`` intersected with ``space``, or ``window`` itself if disjoint.

    The same comparisons, in the same argument order, as
    ``Rect.intersects`` and ``Rect.intersection``.
    """
    x_min, y_min, x_max, y_max = window
    sx_min, sy_min, sx_max, sy_max = space
    if sx_min > x_max or sx_max < x_min or sy_min > y_max or sy_max < y_min:
        return window
    return (max(x_min, sx_min), max(y_min, sy_min), min(x_max, sx_max), min(y_max, sy_max))
