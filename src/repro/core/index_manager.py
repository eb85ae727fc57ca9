"""The index manager (Sections 5.3 and 5.4): :class:`VPIndex`.

A velocity-partitioned index owns one underlying moving-object index per DVA
partition plus one outlier index, and translates the standard index operations:

* **insert** — the object goes to the DVA whose axis is closest to its
  velocity (in perpendicular distance), unless that distance exceeds the
  DVA's τ, in which case it goes to the outlier index.  Before insertion
  into a DVA index the object is rotated into the DVA's coordinate frame.
* **delete** — a lookup table records which partition each object lives in,
  so deletion goes straight to the right index (Section 5.3).
* **update** — a deletion followed by an insertion; the object may migrate
  between partitions when its direction of travel changes.
* **range query** — Algorithm 3: the query is rotated into every DVA frame
  (its transformed range bounded by an axis-aligned MBR), executed on every
  index, and the union of the results is filtered with the original query.

The underlying indexes satisfy :class:`SubIndex` — the :class:`MovingIndex`
contract every index in the repo shares (and :class:`VPIndex` itself
implements), plus the three things only :class:`VPIndex` asks of them.
All sub-indexes share one buffer pool of the size the unpartitioned index
gets, so the comparison is not biased by extra RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro import bulk
from repro.bxtree.bx_tree import DEFAULT_HISTOGRAM_CELLS
from repro.bxtree.grid import CountGrid
from repro.core.dva import CoordinateFrame
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.objects.knn import MOTION, KNNQuery, ScalarVerbs, expanding_knn_batch
from repro.objects.moving_object import MovingObject
from repro.objects.queries import (
    CircularRange,
    RangeQuery,
    RectangularRange,
)
from repro.storage.buffer_manager import BufferManager

#: Index of the outlier partition in :class:`VPIndex`'s partition numbering.
OUTLIER_PARTITION = -1


@runtime_checkable
class MovingIndex(Protocol):
    """The contract every moving-object index satisfies: the batch verbs.

    Implemented by the Bx-tree, the TPR/TPR*-trees, :class:`VPIndex` and,
    in the serving layer, by ``VersionedShard``, the process-shard handle
    and ``ShardedIndex`` itself — so a caller holding any of them batches,
    bulk-loads and queries without probing for the method first.  The
    four mutations are exactly ``repro.serve.shard_log.LOG_OPS``: what
    the write-ahead log records is what an index can be asked to do.
    ``delete_batch``/``update_batch`` receive the objects' current stored
    snapshots; ``bulk_load`` requires an empty index and packs it the
    family's one way (sorted leaves for the Bx-tree, midpoint STR for the
    TPR family).

    The scalar spellings (``insert``, ``delete``, ``update``,
    ``range_query``, ``knn_query``) are not protocol: every index has them
    from :class:`~repro.objects.knn.ScalarVerbs`, as a batch of one, and
    none overrides them.
    """

    #: Buffer pool surface: ``stats`` and ``flush()`` (the hint kill-switch
    #: lives on ``BufferManager`` alone; serving-layer views do not relay it).
    buffer: Any

    def __len__(self) -> int: ...

    def bulk_load(self, objects: Sequence[MovingObject]) -> None:
        """Build the (empty) index from ``objects`` in one packing pass."""

    def insert_batch(self, objects: Sequence[MovingObject]) -> None:
        """Insert a batch of snapshots."""

    def delete_batch(self, objects: Sequence[MovingObject]) -> List[bool]:
        """Delete a batch; success flags aligned with the input."""

    def update_batch(self, pairs: Sequence[Tuple[MovingObject, MovingObject]]) -> List[bool]:
        """Apply ``(old, new)`` pairs; per pair, whether its ``old`` existed.

        Flags align with the input, as ``delete_batch``'s do: a pair whose
        ``old`` was not stored is an upsert (``new`` is stored afterwards
        either way), and in a batch that repeats an id each pair sees the
        pairs before it.
        """

    def range_query_batch(self, queries: Sequence[RangeQuery]) -> List[List[int]]:
        """Per query, the ids of the qualifying objects; aligned with the input."""

    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Per probe, up to ``k`` ``(oid, distance)`` pairs; aligned with the input."""


@runtime_checkable
class SubIndex(MovingIndex, Protocol):
    """What :class:`VPIndex` additionally needs of a per-partition index.

    Three things only :class:`VPIndex` asks for: unrefined range
    candidates (``exact=False``), a mixed mutation sweep and the kNN
    candidate scan.  Both searches run the sub-index's one range
    traversal and every mutation its one mutation path, whatever the
    batch size.
    """

    def range_query_batch(
        self, queries: Sequence[RangeQuery], exact: bool = True
    ) -> List[List[int]]:
        """Qualifying ids per query, or with ``exact=False`` every scanned candidate."""

    def apply_batch(
        self,
        deletes: Sequence[MovingObject] = (),
        inserts: Sequence[MovingObject] = (),
        updates: Sequence[Tuple[MovingObject, MovingObject]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """One mixed sweep: ``(delete flags, update flags)``, each aligned with its input."""

    def knn_candidates_batch(
        self, queries: Sequence[RangeQuery], ids_only: bool = False
    ) -> List[np.ndarray]:
        """Per-query unfiltered candidates from the sub-index's one range traversal.

        One ``repro.objects.knn.MOTION`` array per query, or one ``int64``
        array of just the oids with ``ids_only``.
        """


@dataclass(slots=True)
class _StoredObject:
    """Bookkeeping for one live object; ``slot`` is its row of ``VPIndex._rows``."""

    partition: int
    original: MovingObject
    stored: MovingObject
    slot: int


class VPIndex(ScalarVerbs):
    """A velocity-partitioned moving-object index (Bx(VP), TPR*(VP)).

    Beside the directory (oid → partition, original and stored snapshot),
    every live object owns one row of ``_rows``: its *original* snapshot
    as a :data:`~repro.objects.knn.MOTION` record, written by every
    mutation from the arrays it already builds.  kNN candidates and the
    range filter's rows come back from it as one gather, found through
    ``_by_oid`` (:meth:`_slots_of`): derived state, dropped by every change
    of the live set (``_commit``, ``delete_batch``, an upsert) and rebuilt
    by the next lookup; updates and migrations keep their slot, so they
    keep it.  The slab doubles when full; released rows go to the free
    list ``_free`` and are reused first.  ``density`` counts the live
    rows' positions per grid cell (the original frame), so kNN probes
    start from a density-seeded radius: rows written add to it, rows freed
    or overwritten are read back and subtracted first.
    """

    def __init__(
        self,
        partitioning: VelocityPartitioning,
        index_factory: Callable[[int], SubIndex],
        buffer: BufferManager,
        name: str,
        space: Optional[Rect] = None,
    ) -> None:
        """Create one index per DVA plus the outlier index.

        Args:
            partitioning: output of the velocity analyzer.
            index_factory: called with the partition number (0..k-1, then
                :data:`OUTLIER_PARTITION`) to build each sub-index on
                ``buffer``; not kept, so the index pickles and deep-copies.
            buffer: the buffer pool shared by every sub-index.
            name: display name used by the harness (e.g. ``"Bx(VP)"``).
            space: data space, when known: the kNN expansion cap and the
                extent of ``density`` (without one, kNN probes start at
                :data:`~repro.objects.knn.DEFAULT_INITIAL_RADIUS`).
        """
        self.partitioning = partitioning
        self.buffer = buffer
        self.name = name
        self.space = space
        self.dva_indexes: List[SubIndex] = [
            index_factory(i) for i in range(partitioning.k)
        ]
        self.outlier_index: SubIndex = index_factory(OUTLIER_PARTITION)
        self._directory: Dict[int, _StoredObject] = {}
        self._rows = np.empty(0, dtype=MOTION)
        self._free: List[int] = []
        #: ``(oids, slots)`` of the directory sorted by oid, the id → row
        #: lookup of kNN candidates and of the range filter; ``None`` after
        #: a change of the live set, rebuilt by :meth:`_slots_of`.
        self._by_oid: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.density: Optional[CountGrid] = (
            CountGrid.over(space, DEFAULT_HISTOGRAM_CELLS) if space is not None else None
        )

    # ------------------------------------------------------------------
    # Partition routing
    # ------------------------------------------------------------------
    def frame_of(self, partition: int) -> Optional[CoordinateFrame]:
        """Coordinate frame of a DVA partition (None for the outlier index)."""
        if partition == OUTLIER_PARTITION:
            return None
        return self.partitioning.dvas[partition].frame

    def partition_for(self, obj: MovingObject) -> int:
        """Partition that should host ``obj`` given its current velocity."""
        partition = self.partitioning.partition_for(obj.velocity)
        return OUTLIER_PARTITION if partition is None else partition

    def partition_of(self, oid: int) -> Optional[int]:
        """Partition currently hosting object ``oid`` (None if not stored)."""
        record = self._directory.get(oid)
        return record.partition if record is not None else None

    def __len__(self) -> int:
        return len(self._directory)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def bulk_load(self, objects: Sequence[MovingObject]) -> None:
        """Partition-aware bulk build: route every object, pack each index once.

        All objects are routed to their partition and rotated into its frame
        in one vectorized pass (:meth:`_classify_and_transform`), then every
        sub-index is built with its own ``bulk_load``, in the order the
        partitions first appear in ``objects``.  The velocity analysis
        itself happened up front, when the
        :class:`~repro.core.velocity_analyzer.VelocityPartitioning` was
        computed — bulk loading only routes and packs.

        The directory and the slab are only committed after every input has
        been validated and every sub-index loaded, so a rejected input
        (duplicate oid, non-empty sub-index) does not leave the directory
        claiming objects the sub-indexes never received.

        Raises:
            KeyError: if any object id is already indexed or appears twice.
        """
        objects = list(objects)
        self._check_new([obj.oid for obj in objects])
        partitions, stored_objects, motion = self._classify_and_transform(objects)
        for partition, group in self._groups(partitions, stored_objects).items():
            self._index_of(partition).bulk_load(group)
        self._commit(objects, partitions, stored_objects, motion)

    def _classify_and_transform(
        self, objects: List[MovingObject]
    ) -> Tuple[List[int], List[MovingObject], Sequence]:
        """Partition classification + frame rotation for a batch.

        Returns the partition per object, the stored (frame-rotated)
        snapshot per object and the objects' original
        :data:`~repro.objects.knn.MOTION` rows, aligned with the input.
        Below :data:`~repro.bulk.MIN_VECTOR_BATCH` objects each one is
        routed (:meth:`partition_for`) and rotated on its own, and its row
        is a tuple (:meth:`_write_rows` writes them one by one).  Larger
        batches take one component-extraction pass that feeds the
        vectorized classification (perpendicular distances to every DVA at
        once), the per-partition rotation and the slab rows; the position
        and velocity components are packed into one pair of arrays
        (positions in ``[0, n)``, velocities in ``[n, 2n)``): a rotation is
        rigid, so one array rotation covers both and the per-partition
        numpy dispatch count halves.  Both give bit-identical results.
        """
        n = len(objects)
        if n < bulk.MIN_VECTOR_BATCH:
            partitions = [self.partition_for(obj) for obj in objects]
            stored = [self._transform_object(o, p) for o, p in zip(objects, partitions)]
            motion = [
                (o.oid, o.position.x, o.position.y, o.velocity.vx, o.velocity.vy, o.reference_time)
                for o in objects
            ]
            return partitions, stored, motion
        xs = np.empty(2 * n)
        ys = np.empty(2 * n)
        xs[:n] = np.fromiter((o.position.x for o in objects), np.float64, n)
        ys[:n] = np.fromiter((o.position.y for o in objects), np.float64, n)
        xs[n:] = np.fromiter((o.velocity.vx for o in objects), np.float64, n)
        ys[n:] = np.fromiter((o.velocity.vy for o in objects), np.float64, n)
        motion = np.empty(n, dtype=MOTION)
        motion["oid"] = np.fromiter((o.oid for o in objects), np.int64, n)
        motion["x"], motion["vx"] = xs[:n], xs[n:]
        motion["y"], motion["vy"] = ys[:n], ys[n:]
        motion["t"] = np.fromiter((o.reference_time for o in objects), np.float64, n)
        # partition_for_arrays marks outliers with -1 == OUTLIER_PARTITION.
        partitions = self.partitioning.partition_for_arrays(xs[n:], ys[n:]).tolist()
        stored_objects: List[Optional[MovingObject]] = [None] * n
        for partition, members in self._groups(partitions, range(n)).items():
            frame = self.frame_of(partition)
            if frame is None:
                for i in members:
                    stored_objects[i] = objects[i]
                continue
            take = np.array(members, dtype=np.intp)
            take = np.concatenate((take, take + n))
            rx, ry = frame.to_frame_arrays(xs[take], ys[take])
            m = len(members)
            sx, sy = rx[:m].tolist(), ry[:m].tolist()
            svx, svy = rx[m:].tolist(), ry[m:].tolist()
            for j, i in enumerate(members):
                obj = objects[i]
                stored_objects[i] = MovingObject(
                    oid=obj.oid,
                    position=Point(sx[j], sy[j]),
                    velocity=Vector(svx[j], svy[j]),
                    reference_time=obj.reference_time,
                )
        return partitions, stored_objects, motion

    def insert_batch(self, objects: Sequence[MovingObject]) -> None:
        """Insert a batch of objects.

        The batch is classified and rotated in one vectorized pass
        (:meth:`_classify_and_transform`) and each touched sub-index
        receives one grouped ``insert_batch`` call.

        Raises:
            KeyError: if any object id is already indexed or repeats
                within the batch (nothing is committed in that case).
        """
        objects = list(objects)
        if not objects:
            return
        self._check_new([obj.oid for obj in objects])
        partitions, stored_objects, motion = self._classify_and_transform(objects)
        for partition, group in self._groups(partitions, stored_objects).items():
            self._index_of(partition).insert_batch(group)
        self._commit(objects, partitions, stored_objects, motion)

    def delete_batch(self, objects: Sequence[MovingObject]) -> List[bool]:
        """Delete a batch of objects by id; flags align with the input order.

        Ids are grouped by their *current* partition (directory lookup,
        Section 5.3) and each sub-index receives one grouped
        ``delete_batch`` of the stored snapshots.  A repeated or unknown
        id yields ``False``; only the first occurrence of an id deletes it.
        """
        objects = list(objects)
        flags = [False] * len(objects)
        groups: Dict[int, List[Tuple[int, MovingObject]]] = {}
        freed: List[int] = []
        for position, obj in enumerate(objects):
            record = self._directory.pop(obj.oid, None)
            if record is None:
                continue
            freed.append(record.slot)
            groups.setdefault(record.partition, []).append((position, record.stored))
        if freed:
            self._by_oid = None
        self._free.extend(freed)
        self._count(self._rows[freed], -1)
        for partition, members in groups.items():
            results = self._index_of(partition).delete_batch(
                [stored for _, stored in members]
            )
            for (position, _), result in zip(members, results):
                flags[position] = bool(result)
        return flags

    def update_batch(self, pairs: Sequence[Tuple[MovingObject, MovingObject]]) -> List[bool]:
        """Apply a batch of updates; per pair, whether its old snapshot existed.

        The batch is classified in one vectorized pass (perpendicular
        distances to every DVA for the whole batch at once instead of N
        scalar loops) and rotated into its target frames per *partition*
        (:meth:`_classify_and_transform`).  Grouped by partition, each
        underlying index then receives one batched call: same-partition
        updates go through the index's ``update_batch`` (where the
        Bx-tree collapses same-key updates into in-place replacements),
        migrations become one grouped ``delete_batch`` per source
        partition and one grouped ``insert_batch`` per target.  Existing
        records keep their slab row, which is rewritten in place; upserts
        get a new one.
        """
        pairs = list(pairs)
        oids = [old.oid for old, _ in pairs]
        objects = [new for _, new in pairs]
        if oids != [obj.oid for obj in objects]:
            raise ValueError("an update must keep the object id")
        if len(set(oids)) != len(oids):
            # Repeated oids: a later pair's existence depends on an earlier
            # pair's insert, so the pairs go through one at a time.
            return [flag for pair in pairs for flag in self.update_batch([pair])]
        partitions, stored_objects, motion = self._classify_and_transform(objects)
        same: Dict[int, List[Tuple[MovingObject, MovingObject]]] = {}
        deletes: Dict[int, List[MovingObject]] = {}
        inserts: Dict[int, List[MovingObject]] = {}
        directory = self._directory
        flags: List[bool] = []
        records: List[_StoredObject] = []
        fresh: List[_StoredObject] = []
        for obj, partition, stored in zip(objects, partitions, stored_objects):
            record = directory.get(obj.oid)
            flags.append(record is not None)
            if record is None:
                inserts.setdefault(partition, []).append(stored)
                record = directory[obj.oid] = _StoredObject(
                    partition=partition, original=obj, stored=stored, slot=-1
                )
                records.append(record)
                fresh.append(record)
                continue
            # Existing records are updated in place (the common case at
            # steady state) instead of being reallocated per update.
            if record.partition == partition:
                same.setdefault(partition, []).append((record.stored, stored))
            else:
                deletes.setdefault(record.partition, []).append(record.stored)
                inserts.setdefault(partition, []).append(stored)
                record.partition = partition
            record.original = obj
            record.stored = stored
            records.append(record)
        overwritten = [record.slot for record in records if record.slot >= 0]
        self._count(self._rows[overwritten], -1)
        if fresh:
            self._by_oid = None
        for record, slot in zip(fresh, self._allocate(len(fresh))):
            record.slot = slot
        self._write_rows([record.slot for record in records], motion)
        self._count(motion, 1)
        # One mixed batch per touched index: its deletions (migrations out),
        # insertions (migrations in) and same-partition updates run in a
        # single sweep instead of three.
        for partition in sorted(set(same) | set(deletes) | set(inserts)):
            self._index_of(partition).apply_batch(
                deletes=deletes.get(partition, []),
                inserts=inserts.get(partition, []),
                updates=same.get(partition, []),
            )
        return flags

    # ------------------------------------------------------------------
    # Queries (Algorithm 3)
    # ------------------------------------------------------------------
    def range_query_batch(self, queries: Sequence[RangeQuery]) -> List[List[int]]:
        """Algorithm 3 over a whole query batch; results align with the input.

        Partition by partition, each DVA rotates every query of the batch
        once and hands the whole group to the sub-index's
        ``range_query_batch``, its one range traversal (shared descents /
        traversals; a batch of one included); Line 8's filter with the
        original query then runs per query (:meth:`_filter`), so each
        answer and its order are those of the query asked alone.
        """
        queries = list(queries)
        if not queries:
            return []
        scans = [
            self._index_of(partition).range_query_batch(
                [self.transform_query(query, partition) for query in queries], exact=False
            )
            for partition in range(self.partitioning.k)
        ]
        scans.append(self.outlier_index.range_query_batch(queries, exact=False))
        return [self._filter(query, found) for query, found in zip(queries, zip(*scans))]

    # ------------------------------------------------------------------
    # kNN queries (batched expanding-range filter over Algorithm 3)
    # ------------------------------------------------------------------
    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Answer a batch of kNN probes with shared expanding-range rounds.

        Each round runs Algorithm 3's filter step for every unfinished probe
        at once: every DVA rotates the round's circular filter queries into
        its frame once and hands the whole group to the sub-index's batched
        query surface (circles stay circles under the rigid rotation), and
        the candidate ranking — on the *original* object snapshots from the
        directory — runs vectorized in
        :func:`repro.objects.knn.expanding_knn_batch`.  Answers are
        identical to issuing the probes one at a time.

        Args:
            queries: the kNN probes (centers in the original frame).
            space: data space (the expansion cap); defaults to the space
                the index was built with.

        Returns:
            Per probe, up to ``k`` ``(oid, distance)`` pairs sorted by
            ``(distance, oid)``.
        """
        return expanding_knn_batch(
            self._knn_candidates_batch,
            list(queries),
            space=space if space is not None else self.space,
            density=self.density,
        )

    def _knn_candidates_batch(self, queries: Sequence[RangeQuery]) -> List[np.ndarray]:
        """Candidate ``MOTION`` rows per filter query across every partition.

        The unrefined twin of :meth:`range_query_batch`: the sub-indexes
        return bare candidate ids from their rotated frames (the kNN
        candidate surface: same shared machinery as ``range_query_batch``,
        but without the exact predicate).  Per query, the ids of every
        sub-index are sorted and resolved to slab rows by :meth:`_slots_of`
        (the range filter's lookup too) and come back as one gather of slab
        rows, the *original* (unrotated) snapshots, so the kNN distance
        ranking happens in the frame the query was asked in.  An id the
        directory does not hold is dropped.  Ids are not deduplicated: an
        object lives in one sub-index, and
        :func:`~repro.objects.knn.expanding_knn_batch` dedups each pool by
        oid.
        """
        queries = list(queries)
        scans = [
            self._index_of(partition).knn_candidates_batch(
                [self.transform_query(query, partition) for query in queries], ids_only=True
            )
            for partition in range(self.partitioning.k)
        ]
        scans.append(self.outlier_index.knn_candidates_batch(queries, ids_only=True))
        candidates = []
        for found in map(np.concatenate, zip(*scans)):
            # Sorted needles halve the binary searches' cost, and ``take``
            # gathers structured rows several times faster than ``rows[...]``.
            _, slots = self._slots_of(np.sort(found))
            candidates.append(self._rows.take(slots))
        return candidates

    def transform_query(self, query: RangeQuery, partition: int) -> RangeQuery:
        """Rotate ``query`` into the coordinate frame of ``partition``.

        The transformed range is the axis-aligned MBR of the rotated range
        (Line 4 of Algorithm 3); circles remain circles because the rotation
        is rigid.  The query velocity, if any, is rotated as well.
        """
        frame = self.frame_of(partition)
        if frame is None:
            return query
        if isinstance(query.range, CircularRange):
            new_range = CircularRange(
                center=frame.to_frame_point(query.range.center),
                radius=query.range.radius,
            )
        else:
            new_range = RectangularRange(frame.to_frame_rect(query.range.rect))
        velocity = (
            frame.to_frame_vector(query.velocity) if query.velocity is not None else None
        )
        return RangeQuery(
            range=new_range,
            start_time=query.start_time,
            end_time=query.end_time,
            velocity=velocity,
            issue_time=query.issue_time,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _index_of(self, partition: int) -> SubIndex:
        if partition == OUTLIER_PARTITION:
            return self.outlier_index
        return self.dva_indexes[partition]

    def _check_new(self, oids: List[int]) -> None:
        """Raise ``KeyError`` on the first oid already indexed or repeated in ``oids``."""
        if len(self._directory.keys() & set(oids)) or len(set(oids)) != len(oids):
            duplicate = next(
                oid
                for i, oid in enumerate(oids)
                if oid in self._directory or oid in oids[:i]
            )
            raise KeyError(f"object {duplicate} is already indexed; use update()")

    @staticmethod
    def _groups(partitions: List[int], items: Sequence[Any]) -> Dict[int, List[Any]]:
        """``items`` grouped by partition, partitions in order of first appearance."""
        groups: Dict[int, List[Any]] = {}
        for partition, item in zip(partitions, items):
            group = groups.get(partition)
            if group is None:
                groups[partition] = [item]
            else:
                group.append(item)
        return groups

    def _allocate(self, count: int) -> List[int]:
        """Take ``count`` free slab rows, growing the slab when too few are free.

        The slab at least doubles, or grows by exactly the shortfall when
        that is more (a bulk load into an empty index sizes it exactly).
        """
        shortfall = count - len(self._free)
        if shortfall > 0:
            size = len(self._rows)
            rows = np.empty(size + max(size, shortfall), dtype=MOTION)
            rows[:size] = self._rows
            self._rows = rows
            self._free.extend(range(len(rows) - 1, size - 1, -1))
        keep = len(self._free) - count
        taken = self._free[keep:]
        del self._free[keep:]
        return taken

    def _write_rows(self, slots: List[int], motion: Sequence) -> None:
        """Write the rows of :meth:`_classify_and_transform` to slab rows ``slots``.

        One fancy-indexed write, or below :data:`~repro.bulk.MIN_VECTOR_BATCH`
        rows one write per row (a quarter of the cost at one row).
        """
        if len(slots) < bulk.MIN_VECTOR_BATCH:
            for slot, row in zip(slots, motion):
                self._rows[slot] = row
        else:
            self._rows[slots] = motion

    def _count(self, motion: Sequence, delta: int) -> None:
        """Add ``delta`` to :attr:`density` at the positions of ``motion``'s rows.

        ``motion`` is a :data:`~repro.objects.knn.MOTION` array or, as
        :meth:`_classify_and_transform` returns it for small batches, a
        list of row tuples.
        """
        if self.density is None:
            return
        if isinstance(motion, np.ndarray):
            self.density.add(motion["x"], motion["y"], delta)
        else:
            self.density.add([row[1] for row in motion], [row[2] for row in motion], delta)

    def _commit(
        self,
        objects: List[MovingObject],
        partitions: List[int],
        stored_objects: List[MovingObject],
        motion: Sequence,
    ) -> None:
        """Record freshly inserted objects in the directory and the slab."""
        slots = self._allocate(len(objects))
        self._by_oid = None
        self._write_rows(slots, motion)
        self._count(motion, 1)
        for obj, partition, stored, slot in zip(objects, partitions, stored_objects, slots):
            self._directory[obj.oid] = _StoredObject(
                partition=partition, original=obj, stored=stored, slot=slot
            )

    def _transform_object(self, obj: MovingObject, partition: int) -> MovingObject:
        frame = self.frame_of(partition)
        if frame is None:
            return obj
        return frame.to_frame_object(obj)

    def _slots_of(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Which of ``oids`` the directory holds (a mask over them), and their slab rows.

        One ``searchsorted`` into ``_by_oid``, rebuilt here when a change
        of the live set dropped it; the rows are those of the held ids, in
        the order of ``oids``.
        """
        if self._by_oid is None:
            held = np.fromiter(self._directory, np.int64, len(self._directory))
            slots = np.fromiter(
                (record.slot for record in self._directory.values()), np.intp, len(held)
            )
            order = np.argsort(held)
            self._by_oid = held[order], slots[order]
        held, slots = self._by_oid
        if not held.size:
            return np.zeros(len(oids), dtype=bool), slots
        at = held.searchsorted(oids)
        hit = held.take(at, mode="clip") == oids
        return hit, slots[at[hit]]

    def _filter(self, query: RangeQuery, found: Sequence[List[int]]) -> List[int]:
        """Line 8 of Algorithm 3: the candidates the original query accepts.

        ``found`` holds one candidate list per sub-index, the outlier's
        last.  Accepted ids come back in candidate order, each once; an id
        the directory does not hold is dropped.  From
        :data:`~repro.bulk.MIN_VECTOR_FILTER` candidates on, the ids are
        resolved to slab rows at once (:meth:`_slots_of`) and
        :meth:`RangeQuery.matches_rows` decides them together; below it,
        each candidate's original snapshot is matched on its own.  Both
        give the same answer.
        """
        total = sum(map(len, found))
        if total < bulk.MIN_VECTOR_FILTER:
            directory = self._directory
            kept: Dict[int, None] = {}
            for oid in chain.from_iterable(found):
                if oid not in kept:
                    record = directory.get(oid)
                    if record is not None and query.matches(record.original):
                        kept[oid] = None
            return list(kept)
        oids = np.fromiter(chain.from_iterable(found), np.int64, total)
        # Sorted needles halve the binary searches' cost; the verdicts are
        # scattered back to candidate order.
        order = oids.argsort()
        hit, slots = self._slots_of(oids.take(order))
        accepted = np.zeros(total, dtype=bool)
        accepted[order[hit]] = query.matches_rows(self._rows.take(slots))
        return list(dict.fromkeys(oids[accepted].tolist()))

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    def partition_sizes(self) -> Dict[int, int]:
        """Number of live objects per partition (including the outlier)."""
        sizes: Dict[int, int] = {OUTLIER_PARTITION: 0}
        for i in range(self.partitioning.k):
            sizes[i] = 0
        for record in self._directory.values():
            sizes[record.partition] += 1
        return sizes

    def stored_object(self, oid: int) -> Optional[MovingObject]:
        """Original (unrotated) snapshot of a live object, or None."""
        record = self._directory.get(oid)
        return record.original if record is not None else None
