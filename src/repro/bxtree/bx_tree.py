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

**Per-object versus batch API.**  Mirroring ``btree/bplus_tree.py``, the
index has per-object mutations (``insert``/``delete``/``update``, which
small update batches fall back to; ``range_query`` and ``knn_query`` are
the batch-of-one :class:`~repro.objects.knn.ScalarVerbs`) beside the
batch surface ``insert_batch``/``delete_batch``/``update_batch``/
``range_query_batch``, which amortizes co-arriving work: Bx keys, label
positions and histogram cells for a whole batch are computed in one pass
over flat numpy arrays, the underlying B+-tree is swept left-to-right with
shared descents, same-key updates collapse into in-place value
replacement, and a query batch reuses one partition list, one cached set
of global velocity extrema and one chained range sweep per partition.
That sweep is the tree's only range traversal: a single query is a batch
of one, and the kNN filter rounds scan through it too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bxtree.grid import Grid
from repro.bxtree.key_store import make_key_store
from repro.bxtree.spacefill import HilbertCurve, SpaceFillingCurve, ZCurve
from repro.bxtree.velocity_histogram import VelocityHistogram
from repro.geometry.point import Point
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

#: Batches smaller than this take the scalar per-object path: below a
#: handful of operations the fixed cost of the vectorized key pass (array
#: construction, numpy dispatch) exceeds what the batch saves.  The VP
#: index manager routinely produces such slivers when it splits a batch
#: across partitions.
MIN_VECTOR_BATCH = 8


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

    def key_for(self, obj: MovingObject) -> int:
        """Bx key of an object snapshot."""
        partition = self.partition_of(obj.reference_time)
        position = obj.position_at(self.label_time(partition))
        cell = self.grid.cell_of(position)
        return partition * self._curve_size + self.curve.encode(*cell)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def bulk_load(self, objects) -> None:
        """Build the index from ``objects`` with one sorted B+-tree packing.

        Bx keys are computed for every snapshot up front (one pass that also
        feeds the velocity histogram and the partition counters), then the
        underlying B+-tree is leaf-packed in key order instead of descending
        from the root once per object.

        Raises:
            ValueError: if the index is not empty.
        """
        objects = list(objects)
        if self.size:
            raise ValueError("bulk_load requires an empty index")
        if not objects:
            return
        curve_size = self._curve_size
        pairs = []
        for obj in objects:
            self.current_time = max(self.current_time, obj.reference_time)
            partition = self.partition_of(obj.reference_time)
            self._bump_partition(partition, 1)
            position = obj.position_at(self.label_time(partition))
            self.histogram.add(position, obj.velocity)
            cell = self.grid.cell_of(position)
            key = partition * curve_size + self.curve.encode(*cell)
            pairs.append((key, obj))
        self.store.bulk_load(pairs)
        self.size = len(objects)

    def insert(self, obj: MovingObject) -> None:
        """Insert an object snapshot."""
        self._insert_keyed(obj, self.key_for(obj), self.partition_of(obj.reference_time))

    def _insert_keyed(self, obj: MovingObject, key: int, partition: int) -> None:
        self.current_time = max(self.current_time, obj.reference_time)
        self.store.insert(key, obj)
        self._bump_partition(partition, 1)
        # The histogram is keyed by the *indexed* (label-time) position so the
        # query-window refinement reasons about the same positions the keys
        # encode; see enlarged_window() for why this keeps refinement safe.
        self.histogram.add(self._label_position(obj), obj.velocity)
        self.size += 1

    def delete(self, obj: MovingObject) -> bool:
        """Delete the snapshot previously inserted for this object."""
        return self._delete_keyed(obj, self.key_for(obj), self.partition_of(obj.reference_time))

    def _delete_keyed(self, obj: MovingObject, key: int, partition: int) -> bool:
        self.current_time = max(self.current_time, obj.reference_time)
        removed = self.store.delete(key, obj)
        if removed:
            self._bump_partition(partition, -1)
            self.histogram.remove(self._label_position(obj))
            self.size -= 1
        return removed

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

    def _label_position(self, obj: MovingObject) -> Point:
        """Position of ``obj`` at its partition's label time (the indexed position)."""
        partition = self.partition_of(obj.reference_time)
        return obj.position_at(self.label_time(partition))

    def update(self, old: MovingObject, new: MovingObject) -> bool:
        """Delete ``old`` and insert ``new`` (the paper's update model).

        When both snapshots map to the same Bx key (same partition and same
        curve cell), the B+-tree entry is replaced in place — one descent
        instead of the delete-descent plus insert-descent pair — and only
        the histogram is re-pointed at the new label position and velocity.
        """
        old_key = self.key_for(old)
        new_key = self.key_for(new)
        old_partition = self.partition_of(old.reference_time)
        new_partition = self.partition_of(new.reference_time)
        if old_key == new_key:
            self.current_time = max(self.current_time, old.reference_time, new.reference_time)
            if self.store.replace(old_key, old, new):
                # Same key means same partition: counts and size are
                # untouched, but the histogram still moves (the histogram
                # grid is finer than the curve grid).
                self.histogram.remove(self._label_position(old))
                self.histogram.add(self._label_position(new), new.velocity)
                return True
            self._insert_keyed(new, new_key, new_partition)
            return False
        removed = self._delete_keyed(old, old_key, old_partition)
        self._insert_keyed(new, new_key, new_partition)
        return removed

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------
    def _batch_key_data(self, objs: Sequence[MovingObject]):
        """Keys, partitions, label positions and velocities for a batch.

        One pass over flat numpy arrays replaces the per-object
        ``key_for``/``_label_position`` chain: partition and label time
        arithmetic, label-position projection, grid cells and curve codes
        are all evaluated vectorized, bit-identically to the scalar path.
        """
        n = len(objs)
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

        Equivalent to calling :meth:`update` pair by pair (same final tree
        contents, counts, sizes and flags); see :meth:`apply_batch`.
        """
        pairs = list(pairs)
        oids = [old.oid for old, _ in pairs]
        if len(set(oids)) != len(oids):
            # Same object updated twice in one batch: order matters, so fall
            # back to the sequential path.
            return [self.update(old, new) for old, new in pairs]
        return self.apply_batch(updates=pairs)[1]

    def apply_batch(
        self,
        deletes: Sequence[MovingObject] = (),
        inserts: Sequence[MovingObject] = (),
        updates: Sequence[Tuple[MovingObject, MovingObject]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """Apply a mixed batch of operations in one pass over the index.

        The per-operation overhead is amortized across the whole batch:
        keys, partitions and label positions for every snapshot (deletes,
        inserts, and both sides of every update) come from ONE vectorized
        pass over flat arrays; same-key updates become in-place B+-tree
        replacements; and all remaining deletions and insertions run as a
        single key-ordered B+-tree sweep with shared descents.  The
        histogram is maintained with batched array updates.  Final tree
        contents, partition counts and size match applying the operations
        one by one (updates must not repeat an object id within one batch —
        callers with repeats use the sequential path); the histogram may
        end slightly *tighter* than under interleaved scalar replay when a
        batch turns over a cell's whole population (see
        :meth:`~repro.bxtree.velocity_histogram.VelocityHistogram.add_batch`),
        which never changes query answers, only candidate counts.

        Returns ``(delete_flags, update_flags)``: per-deletion success flags
        aligned with ``deletes`` and, aligned with ``updates``, whether each
        pair's old snapshot existed.
        """
        deletes = list(deletes)
        inserts = list(inserts)
        updates = list(updates)
        total = len(deletes) + len(inserts) + 2 * len(updates)
        if total == 0:
            return [], []
        if total < MIN_VECTOR_BATCH:
            flags = [self.delete(obj) for obj in deletes]
            for obj in inserts:
                self.insert(obj)
            return flags, [self.update(old, new) for old, new in updates]
        olds = [old for old, _ in updates]
        news = [new for _, new in updates]
        everything = deletes + inserts + olds + news
        keys, parts, lx, ly, vx, vy = self._batch_key_data(everything)
        self.current_time = max(self.current_time, max(o.reference_time for o in everything))
        nd, ni, nu = len(deletes), len(inserts), len(updates)
        del_keys = keys[:nd]
        ins_keys = keys[nd : nd + ni]
        old_keys = keys[nd + ni : nd + ni + nu]
        new_keys = keys[nd + ni + nu :]
        old_at = nd + ni
        new_at = nd + ni + nu
        # Same-key update pairs become in-place upserts; the rest join the
        # plain deletions/insertions in ONE key-ordered B+-tree sweep.
        same = [i for i in range(nu) if old_keys[i] == new_keys[i]]
        moves = [i for i in range(nu) if old_keys[i] != new_keys[i]]
        delete_flags, upsert_flags = self.store.apply_batch(
            list(zip(del_keys, deletes)) + [(old_keys[i], olds[i]) for i in moves],
            list(zip(ins_keys, inserts)) + [(new_keys[i], news[i]) for i in moves],
            [(old_keys[i], olds[i], news[i]) for i in same],
        )
        plain_flags = delete_flags[:nd]
        move_flags = delete_flags[nd:]
        # Bookkeeping: counts, histogram and size move exactly as under the
        # per-object path.  A successful in-place replacement keeps its
        # partition count and the tree size (same key, same partition) but
        # still moves the histogram entry.
        removed_positions = []  # indexes into `everything` of removed olds
        for i, flag in enumerate(plain_flags):
            if flag:
                self._bump_partition(parts[i], -1)
                removed_positions.append(i)
        for i in range(ni):
            self._bump_partition(parts[nd + i], 1)
        for i, flag in zip(moves, move_flags):
            if flag:
                self._bump_partition(parts[old_at + i], -1)
                removed_positions.append(old_at + i)
        for i in moves:
            self._bump_partition(parts[new_at + i], 1)
        for i, flag in zip(same, upsert_flags):
            if flag:
                removed_positions.append(old_at + i)
            else:
                self._bump_partition(parts[new_at + i], 1)
        if removed_positions:
            self.histogram.remove_batch(lx[removed_positions], ly[removed_positions])
        added = list(range(nd, nd + ni)) + list(range(new_at, new_at + nu))
        if added:
            self.histogram.add_batch(lx[added], ly[added], vx[added], vy[added])
        inserted = ni + len(moves) + (len(same) - sum(upsert_flags))
        self.size += inserted - sum(plain_flags) - sum(move_flags)
        update_flags = [False] * nu
        for i, flag in zip(moves, move_flags):
            update_flags[i] = flag
        for i, flag in zip(same, upsert_flags):
            update_flags[i] = flag
        return plain_flags, update_flags

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
            space: data space override; defaults to the index's own space.

        Returns:
            Per probe, up to ``k`` ``(oid, distance)`` pairs sorted by
            ``(distance, oid)``.
        """
        return expanding_knn_batch(
            self.knn_candidates_batch,
            queries,
            space=space if space is not None else self.space,
            population=len(self),
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

    def rebuild_histogram(self) -> None:
        """Recompute the velocity histogram from the live objects."""
        self.histogram.rebuild(
            (self._label_position(obj), obj.velocity) for _, obj in self.store.items()
        )


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
