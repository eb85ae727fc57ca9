"""The TPR-tree: a time-parameterized R-tree for moving points.

The tree stores moving objects in a height-balanced R-tree whose node bounds
are :class:`~repro.geometry.MovingRect` values (an MBR anchored at a
reference time plus a velocity bounding rectangle).  All structural choices
(choose-subtree, node split) are driven by a *goodness metric* supplied by
overridable hooks; the base class uses classic R*-tree heuristics evaluated
on the bounds projected to the current time, and :class:`repro.tprtree.TPRStarTree`
overrides the hooks with the sweeping-region cost model of Tao et al.

Every node lives on one simulated disk page and every node visit goes
through the buffer manager, so the physical-I/O counters reflect exactly
what the paper measures.  Node entries are stored as parallel SoA float
columns (see ``repro/tprtree/node.py``), and the hot paths below — search,
choose-subtree, split scoring, forced reinsertion — read the columns
through the ``soa_*`` geometry kernels instead of materializing per-entry
``MovingRect`` objects.

**One mutation path.**  The batch surface every index shares
(``insert_batch`` / ``delete_batch`` / ``update_batch`` /
``range_query_batch`` / ``knn_query_batch``) is the tree's only one; the
scalar ``insert`` / ``delete`` / ``update`` / ``range_query`` /
``knn_query`` are the batch-of-one :class:`~repro.objects.knn.ScalarVerbs`.
A mutation batch advances the clock once, then replays its operations in
projected-position order (:meth:`TPRTree._insert_one`,
:meth:`TPRTree._delete_one`), so consecutive operations descend through
the same subtrees while their pages are still buffered.  Every search — a
single range query, a range batch, a kNN filter round — is one shared
traversal that visits each node once for all queries that need it
(:meth:`_shared_search`) and tests the node's entries with one fused
column scan per active query
(:func:`~repro.geometry.kernels.soa_intersect_hits`); except for a range
batch of one, the buffer manager is advised to spare the traversal's own
frontier.
(A deferred end-of-batch tightening pass was rejected: re-reading cold
pages *raised* physical update I/O ~25-70% under the paper's small buffer,
where the sort alone stays at or below object-by-object replay.  Tightening is
exact and per edit instead: each node caches its tight extent at the clock
(:meth:`TPRNode.bound_extent`).)
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bulk import chunk_count, even_chunks
from repro.bxtree.bx_tree import DEFAULT_HISTOGRAM_CELLS, DEFAULT_SPACE
from repro.bxtree.grid import CountGrid
from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
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
from repro.tprtree.node import DEFAULT_MAX_ENTRIES, TPREntry, TPRNode

#: Default time horizon (in timestamps) over which bounds are optimized.
#: The paper's workloads use a maximum update interval of 120 ts, and the
#: TPR literature recommends a horizon on the order of the update interval.
DEFAULT_HORIZON = 60.0

#: Target node fill of an STR bulk load, as a fraction of ``max_entries``.
#: Slightly below 1.0 leaves headroom so the first trickle of updates after
#: a bulk build does not immediately split every node.
DEFAULT_BULK_FILL = 0.9


class TPRTree(ScalarVerbs):
    """A TPR-tree over simulated paged storage.

    Args:
        buffer: buffer manager to use; a private one is created if omitted.
        max_entries: maximum entries per node (fan-out); defaults to the
            fan-out implied by a 4 KB page.
        min_fill: minimum fill factor (fraction of ``max_entries``).
        horizon: time horizon over which structural decisions integrate
            the bound expansion; positive and finite (at zero every
            sweeping volume is 0.0 and TPR* choose-subtree degenerates to
            "always the first child").
        space: data space; caps kNN expansion at its diagonal and carries
            the count grid that seeds kNN radii (no node bound depends on it).
            ``None`` keeps no grid, for a sub-tree whose kNN probes are
            seeded by the index that owns it (TPR*(VP)).

    Raises:
        ValueError: on a fan-out, fill factor or horizon outside its range.
    """

    name = "TPR"

    def __init__(
        self,
        buffer: Optional[BufferManager] = None,
        max_entries: Optional[int] = None,
        min_fill: float = 0.4,
        horizon: float = DEFAULT_HORIZON,
        page_size: Optional[int] = None,
        space: Optional[Rect] = DEFAULT_SPACE,
    ) -> None:
        if max_entries is None:
            if page_size is not None:
                from repro.storage.page import entries_per_page
                from repro.tprtree.node import TPR_ENTRY_BYTES

                max_entries = entries_per_page(TPR_ENTRY_BYTES, page_size_bytes=page_size)
            else:
                max_entries = DEFAULT_MAX_ENTRIES
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        if not 0.0 < horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        self.buffer = buffer if buffer is not None else BufferManager()
        self.max_entries = max_entries
        self.min_entries = max(2, int(max_entries * min_fill))
        self.horizon = horizon
        self.space = space
        #: Per-cell counts of the stored reference positions (kNN seeds).
        self.density: Optional[CountGrid] = (
            CountGrid.over(space, DEFAULT_HISTOGRAM_CELLS) if space is not None else None
        )
        self.current_time = 0.0
        self.size = 0
        root = TPRNode(page_id=-1, is_leaf=True)
        page = self.buffer.new_page(root)
        root.page_id = page.page_id
        self.root_page_id = page.page_id
        self._height = 1

    # ------------------------------------------------------------------
    # Node access helpers
    # ------------------------------------------------------------------
    def _node(self, page_id: int) -> TPRNode:
        """Fetch a node through the buffer (counts as a node access)."""
        return self.buffer.fetch(page_id).payload

    def _write_node(self, node: TPRNode) -> None:
        page = self.buffer.fetch(node.page_id)
        page.payload = node
        self.buffer.mark_dirty(page)

    def _new_node(self, is_leaf: bool) -> TPRNode:
        node = TPRNode(page_id=-1, is_leaf=is_leaf)
        page = self.buffer.new_page(node)
        node.page_id = page.page_id
        return node

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Height of the tree in levels (1 for a lone leaf root)."""
        return self._height

    def __len__(self) -> int:
        return self.size

    def bulk_load(self, objects: Iterable[MovingObject]) -> None:
        """Build the tree bottom-up from ``objects`` with STR packing.

        Sort-Tile-Recursive packing (Leutenegger et al.): entries are sorted
        by the x coordinate of their projected center, cut into vertical
        slabs, each slab sorted by y and cut into nodes; the resulting node
        bounds feed the same procedure one level up until everything fits in
        the root.  Compared with N root-to-leaf insertions this performs no
        choose-subtree scans, no splits and no forced reinsertions, which is
        what makes build phases tractable at bench scale.

        Centers are projected half a horizon ahead (the midpoint trick
        approximates velocity grouping without analyzing velocities), and
        nodes are filled to :data:`DEFAULT_BULK_FILL`.

        Every produced node respects the tree's ``min_fill``/fan-out
        invariants, so subsequent incremental updates behave exactly as on an
        incrementally built tree.

        Args:
            objects: the initial population (the tree must be empty).

        Raises:
            ValueError: if the tree already contains objects.
        """
        objects = list(objects)
        if self.size:
            raise ValueError("bulk_load requires an empty tree")
        if not objects:
            return
        self.current_time = max(
            self.current_time, max(o.reference_time for o in objects)
        )
        levels = 0
        entries = [TPREntry(bound=o.as_moving_rect(), oid=o.oid) for o in objects]
        while len(entries) > self.max_entries:
            entries = self._pack_level(entries)
            levels += 1
        root = self._node(self.root_page_id)
        root.is_leaf = levels == 0
        root.set_entries(entries)
        root.parent_page_id = None
        if not root.is_leaf:
            for child_page_id in root.refs:
                child = self._node(child_page_id)
                child.parent_page_id = root.page_id
                self._write_node(child)
        self._write_node(root)
        self._height = levels + 1
        self.size = len(objects)
        self._count(objects, 1)

    def _pack_level(self, entries: List[TPREntry]) -> List[TPREntry]:
        """Pack one level of entries into nodes; returns the parent entries."""
        t = self.current_time
        is_leaf = entries[0].is_leaf_entry
        cap = max(
            self.min_entries,
            min(self.max_entries, int(self.max_entries * DEFAULT_BULK_FILL)),
        )
        num_nodes = self._chunk_count(len(entries), cap)
        num_slabs = int(math.ceil(math.sqrt(num_nodes)))
        # Sort on centers projected half a horizon ahead: two objects are
        # near in that ordering only if they are close in space AND move
        # compatibly, which approximates the velocity grouping the TPR*
        # insertion heuristics would have produced (plain time-t STR packs
        # diverging objects together and the bounds balloon immediately).
        keyed = list(
            zip(
                kernels.batch_centers(
                    [e.bound for e in entries], t + 0.5 * self.horizon
                ),
                entries,
            )
        )
        keyed.sort(key=lambda pair: pair[0][0])
        parents: List[TPREntry] = []
        for slab in even_chunks(keyed, num_slabs):
            slab.sort(key=lambda pair: pair[0][1])
            for pairs in even_chunks(slab, self._chunk_count(len(slab), cap)):
                node = self._new_node(is_leaf=is_leaf)
                node.set_entries([entry for _, entry in pairs])
                if not is_leaf:
                    for child_page_id in node.refs:
                        child = self._node(child_page_id)
                        child.parent_page_id = node.page_id
                        self._write_node(child)
                self._write_node(node)
                parents.append(
                    TPREntry(bound=node.bound(t), child_page_id=node.page_id)
                )
        return parents

    def _chunk_count(self, n: int, cap: int) -> int:
        """Number of nodes to pack ``n`` entries into without violating fill.

        Starts from ``ceil(n / cap)`` and lowers the count until every node
        receives at least ``min_entries`` (always possible because
        ``min_fill <= 0.5`` guarantees two half-full nodes fit in one).
        """
        count = chunk_count(n, cap)
        while count > 1 and n // count < self.min_entries:
            count -= 1
        return count

    def _delete_one(self, obj: MovingObject) -> bool:
        """Delete the snapshot ``obj`` at the already-advanced clock.

        The snapshot must be the one previously inserted (same reference
        position, velocity and time); the search descends only into subtrees
        whose bound covers the object's current position, exactly as a
        disk-based TPR-tree deletion would.  True when it was found and
        removed.
        """
        target = obj.position_at(self.current_time)
        path = self._find_leaf_path(self.root_page_id, obj.oid, target, [])
        if path is None:
            return False
        leaf = path[-1]
        slot = leaf.index_of_ref(obj.oid)
        if slot is None:
            return False
        leaf.remove_at(slot)
        self._write_node(leaf)
        self.size -= 1
        self._condense(path)
        return True

    def _insert_one(self, obj: MovingObject) -> None:
        """Insert ``obj`` at the already-advanced clock."""
        self._insert_entry(TPREntry(bound=obj.as_moving_rect(), oid=obj.oid), level=0)
        self.size += 1

    # ------------------------------------------------------------------
    # Batch API (space-ordered replay)
    # ------------------------------------------------------------------
    def _spatial_order(self, objects: Sequence[MovingObject]) -> List[int]:
        """Input indexes sorted by position projected to the (advanced) clock.

        Consecutive operations on nearby objects descend through the same
        subtrees, which is what keeps their pages buffered across the batch
        under the paper's small-buffer protocol.
        """
        t = self.current_time

        def projected(index: int):
            obj = objects[index]
            return (
                obj.position.x + obj.velocity.vx * (t - obj.reference_time),
                obj.position.y + obj.velocity.vy * (t - obj.reference_time),
            )

        return sorted(range(len(objects)), key=projected)

    def delete_batch(self, objects: Sequence[MovingObject]) -> List[bool]:
        """Delete a batch of snapshots in one space-ordered sweep.

        Returns per-object success flags aligned with the input order.
        Every deletion goes through the ordinary machinery (containment
        search, underflow condense, orphan reinsertion); the batch advances
        the clock once and orders the work spatially.
        """
        objects = list(objects)
        if not objects:
            return []
        self.current_time = max(
            self.current_time, max(o.reference_time for o in objects)
        )
        flags = [False] * len(objects)
        for index in self._spatial_order(objects):
            flags[index] = self._delete_one(objects[index])
        self._count([obj for obj, deleted in zip(objects, flags) if deleted], -1)
        return flags

    def insert_batch(self, objects: Sequence[MovingObject]) -> None:
        """Insert a batch of snapshots in one space-ordered sweep.

        Every insertion runs the ordinary machinery (choose-subtree,
        splits and, for the TPR*-tree, forced reinsertion); the batch
        advances the clock once and orders the work spatially.
        """
        objects = list(objects)
        if not objects:
            return
        self.current_time = max(
            self.current_time, max(o.reference_time for o in objects)
        )
        for index in self._spatial_order(objects):
            self._insert_one(objects[index])
        self._count(objects, 1)

    def _count(self, objects: Sequence[MovingObject], delta: int) -> None:
        """Add ``delta`` to :attr:`density` at each object's reference position."""
        if self.density is None:
            return
        self.density.add([o.position.x for o in objects], [o.position.y for o in objects], delta)

    def update_batch(self, pairs: Sequence[Tuple[MovingObject, MovingObject]]) -> List[bool]:
        """Apply a batch of updates; per pair, whether its old snapshot existed.

        Runs one batched deletion phase followed by one batched insertion
        phase.  With distinct object ids per batch the two phases commute
        with the pair-by-pair order, so the stored object set (and every
        query answer) matches sequential replay.
        """
        pairs = list(pairs)
        oids = [old.oid for old, _ in pairs]
        if len(set(oids)) != len(oids):
            # The same object updated twice in one batch: later pairs see
            # earlier ones, so the pairs go through one at a time.
            return [flag for pair in pairs for flag in self.update_batch([pair])]
        if not pairs:
            return []
        self.current_time = max(
            self.current_time,
            max(max(o.reference_time, n.reference_time) for o, n in pairs),
        )
        flags = self.delete_batch([old for old, _ in pairs])
        self.insert_batch([new for _, new in pairs])
        return flags

    def apply_batch(
        self,
        deletes: Sequence[MovingObject] = (),
        inserts: Sequence[MovingObject] = (),
        updates: Sequence[Tuple[MovingObject, MovingObject]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """Apply a mixed batch: one deletion phase, then one insertion phase.

        Update pairs contribute their old snapshot to the deletion phase and
        their new snapshot to the insertion phase (they must not repeat an
        object id within one batch).  Returns ``(delete_flags,
        update_flags)`` mirroring the Bx-tree's ``apply_batch``.
        """
        deletes = list(deletes)
        updates = list(updates)
        flags = self.delete_batch(deletes + [old for old, _ in updates])
        self.insert_batch(list(inserts) + [new for _, new in updates])
        return flags[: len(deletes)], flags[len(deletes) :]

    def _tighten_parent(self, parent: TPRNode, child: TPRNode) -> None:
        """Refresh ``parent``'s bound entry for ``child`` from its live entries."""
        slot = parent.index_of_ref(child.page_id)
        if slot is None:
            raise KeyError(f"node {parent.page_id} has no child {child.page_id}")
        t = self.current_time
        parent.set_bound_at(slot, child.bound_extent(t), t)
        self._write_node(parent)

    def _refuse_past(self, query: RangeQuery) -> None:
        """Raise when ``query`` starts before the tree clock.

        A time-parameterized bound is tightened at :attr:`current_time` and
        only grows from there: it says nothing about where its objects were
        *before*, so a traversal at an earlier time prunes subtrees that
        held qualifying objects — candidates lost without a trace.
        """
        if query.start_time < self.current_time:
            raise ValueError(
                f"query starts at t={query.start_time}, before the tree clock "
                f"t={self.current_time}: a TPR-tree answers only the present and future"
            )

    def range_query_batch(
        self, queries: Sequence[RangeQuery], exact: bool = True
    ) -> List[List[int]]:
        """Answer a batch of queries in one shared traversal.

        The tree's one range search; a single query is a batch of one.  The
        tree is walked once; at every node each entry is tested against all
        queries still active for that subtree, so a node needed by several
        queries of the batch is fetched a single time.  Each query's
        candidate order (and therefore its result list) is that of the
        query asked alone.  A batch of one runs without buffer hints, so a
        lone query costs what a plain pre-order search costs.

        Args:
            queries: the predictive range queries.
            exact: when True (default) candidates from the tree traversal
                are refined with the exact containment predicate; when False
                the raw candidate set (every object whose bound intersects
                the query's bounding rectangle over the interval) is returned.

        Raises:
            ValueError: if a query starts before :attr:`current_time` (also
                from the kNN surface).
        """
        queries = list(queries)
        if not queries:
            return []
        candidates = self._shared_search(queries, ids_only=False, hinted=len(queries) > 1)
        results: List[List[int]] = []
        for query, found in zip(queries, candidates):
            if not exact:
                results.append([state[0] for state in found])
                continue
            kept: List[int] = []
            for oid, x, y, vx, vy, tref in found:
                if query.matches_motion(x, y, vx, vy, tref):
                    kept.append(oid)
            results.append(kept)
        return results

    # ------------------------------------------------------------------
    # kNN queries (batched expanding-range filter over the shared traversal)
    # ------------------------------------------------------------------
    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Answer a batch of kNN probes with shared expanding-range rounds.

        Each round issues the circular filter queries of every unfinished
        probe through one shared, buffer-hinted tree traversal
        (:meth:`_shared_search`); the candidate ranking runs vectorized in
        :func:`repro.objects.knn.expanding_knn_batch`.  Answers are
        identical to issuing the probes one at a time.

        Args:
            queries: the kNN probes.
            space: data space override (the expansion cap); defaults to
                the tree's own space.

        Returns:
            Per probe, up to ``k`` ``(oid, distance)`` pairs sorted by
            ``(distance, oid)``.
        """
        return expanding_knn_batch(
            self.knn_candidates_batch,
            queries,
            space=space if space is not None else self.space,
            density=self.density,
        )

    def knn_candidates_batch(
        self, queries: Sequence[RangeQuery], ids_only: bool = False
    ) -> List[np.ndarray]:
        """Unrefined candidate ``MOTION`` rows per query (one shared traversal).

        The kNN-filter twin of :meth:`range_query_batch`: same shared,
        buffer-hinted traversal, but candidates come back as one motion
        array per query for the distance ranking instead of being refined
        with the exact range predicate.  The VP index calls this with
        ``ids_only`` to collect each partition's candidates as bare
        ``int64`` oids (the leaves' ref column), paying neither the exact
        filter nor the motion rows of the rotated frame.
        """
        dtype = np.int64 if ids_only else MOTION
        found = self._shared_search(queries, ids_only=ids_only, hinted=True)
        return [np.array(states, dtype=dtype) for states in found]

    def _shared_search(
        self, queries: Sequence[RangeQuery], *, ids_only: bool, hinted: bool
    ) -> List[list]:
        """Candidate motion states (or bare oids) per query from ONE shared traversal.

        The pre-order traversal visits each node at most once for the whole
        query group and scans it once per query that reaches it, with
        :func:`~repro.geometry.kernels.soa_intersect_hits` over the node's
        columns (no per-entry call, whatever the group's size).  When
        ``hinted``, the buffer manager is advised while it runs that a
        one-pass sweep is in progress
        (:meth:`~repro.storage.buffer_manager.BufferManager.advise_sequential`
        — completed subtree pages are the preferred eviction victims, since
        a shared traversal never revisits them) and the current root-to-node
        path is pinned as the sweep frontier, so the traversal's own leaf
        traffic cannot evict the interior pages it still needs.

        The hint stays on even for kNN filter rounds, which *do* revisit the
        tree: with the interior path pinned, the hint's MRU-clean victims
        are completed leaves, whereas plain LRU would evict the long-idle
        interior pages every next round's descent needs — measured 10-50%
        lower physical I/O across buffer sizes.  (The Bx-tree's range sweep
        makes the opposite call — see ``BPlusTree.range_search_batch`` —
        because a B+-tree range scan pins only its scan leaf and the
        re-scanned data leaves are themselves the hint's victims.)

        A range batch of one runs unhinted (``range_query_batch`` decides
        from the batch size): no advice and no pins, so every I/O counter
        is that of a plain pre-order search.  Hinting it would cut the
        TPR-family figures' query I/O by a fifth or more and move their VP
        ratios, which is a fidelity question, not a refactor.
        """
        infos = []
        for query in queries:
            self._refuse_past(query)
            query_rect = query.as_moving_rect()
            rect = query_rect.rect
            infos.append(
                (
                    rect.x_min,
                    rect.y_min,
                    rect.x_max,
                    rect.y_max,
                    query_rect.v_x_min,
                    query_rect.v_y_min,
                    query_rect.v_x_max,
                    query_rect.v_y_max,
                    query_rect.reference_time,
                    query.start_time,
                    query.end_time,
                )
            )
        out: List[list] = [[] for _ in queries]
        active = list(range(len(queries)))
        if not hinted:
            self._search_many(self.root_page_id, active, infos, out, None, ids_only)
            return out
        buffer = self.buffer
        buffer.advise_sequential(True)
        try:
            self._search_many(self.root_page_id, active, infos, out, [], ids_only)
        finally:
            buffer.release_frontier()
            buffer.advise_sequential(False)
        return out

    def _search_many(
        self,
        page_id: int,
        active: List[int],
        infos: List[kernels.QueryInfo],
        out: List[list],
        path: Optional[List[int]],
        ids_only: bool,
    ) -> None:
        """Pre-order traversal testing each entry against all active queries.

        ``path`` carries the page ids of the *interior* nodes currently being
        descended; they are pinned as the sweep frontier so the traversal's
        own leaf traffic cannot evict them (``None``: an unhinted traversal
        pins nothing).  Leaves are deliberately left unpinned: a visited
        leaf is never needed again, which makes it the ideal eviction
        victim under :meth:`~repro.storage.buffer_manager
        .BufferManager.advise_sequential`.

        Each active query's hits in the node come from one
        :func:`~repro.geometry.kernels.soa_intersect_hits` pass over the
        node's columns, in query order.  A leaf hit records the entry's
        motion state (with ``ids_only``, its oid); the children are then
        visited in slot order, each with the queries that matched its slot.
        """
        node = self._node(page_id)
        is_leaf = node.is_leaf
        pinned = path is not None and not is_leaf
        if pinned:
            path.append(page_id)
            self.buffer.pin_frontier(path)
        columns = node.columns
        refs = node.refs
        hits = kernels.soa_intersect_hits
        if is_leaf:
            x0s, y0s, vx0s, vy0s, trefs = columns[0], columns[1], columns[4], columns[5], columns[8]
            for qi in active:
                bucket = out[qi]
                for i in hits(*columns, infos[qi]):
                    oid = refs[i]
                    bucket.append(
                        oid if ids_only else (oid, x0s[i], y0s[i], vx0s[i], vy0s[i], trefs[i])
                    )
        else:
            matching: List[List[int]] = [[] for _ in refs]
            for qi in active:
                for i in hits(*columns, infos[qi]):
                    matching[i].append(qi)
            for child, queries in zip(refs, matching):
                if queries:
                    self._search_many(child, queries, infos, out, path, ids_only)
        if pinned:
            path.pop()

    # ------------------------------------------------------------------
    # Introspection (used by the analysis module and by tests)
    # ------------------------------------------------------------------
    def iter_leaf_bounds(self) -> Iterator[MovingRect]:
        """Bounds of every leaf node (used for Figure 7's expansion plots)."""
        for node in self._iter_nodes():
            if node.is_leaf and node.num_entries:
                yield node.bound(self.current_time)

    def iter_objects(self) -> Iterator[Tuple[int, MovingRect]]:
        """``(oid, bound)`` of every stored object.

        Reads the leaf columns through the columnar record iterator
        (:meth:`TPRNode.iter_records`) — no per-entry :class:`TPREntry`
        exchange records are materialized, which is what keeps a full-tree
        dump linear in the column storage instead of allocating two
        objects per stored entry.
        """
        for node in self._iter_nodes():
            if node.is_leaf:
                for ref, x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref in node.iter_records():
                    yield ref, MovingRect(
                        rect=Rect(x0, y0, x1, y1),
                        v_x_min=vx0,
                        v_y_min=vy0,
                        v_x_max=vx1,
                        v_y_max=vy1,
                        reference_time=tref,
                    )

    def _iter_nodes(self) -> Iterator[TPRNode]:
        stack = [self.root_page_id]
        while stack:
            node = self._node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(node.refs)

    # ------------------------------------------------------------------
    # Structural metrics (overridden by the TPR*-tree)
    # ------------------------------------------------------------------
    # The hooks take flat kernel extents (8-tuples anchored at the current
    # time) so split scoring and forced reinsertion never build intermediate
    # MovingRect/Rect objects.  Choose-subtree, the hot scan, does not go
    # through them: ``_pick_child`` is one fused column kernel per cost
    # model, which must price a bound exactly as ``_extent_cost`` does.

    def _extent_cost(self, ext: kernels.Extent) -> float:
        """Goodness (lower is better) of a node bound given as a kernel extent.

        The base TPR-tree uses the area of the bound at the current time,
        i.e. the classic R*-tree objective evaluated on the projected MBR.
        """
        return kernels.extent_area(ext)

    def _split_cost_extents(self, ext_a: kernels.Extent, ext_b: kernels.Extent) -> float:
        """Goodness of a candidate split into two groups with those bounds."""
        return (
            self._extent_cost(ext_a)
            + self._extent_cost(ext_b)
            + kernels.intersection_area(ext_a, ext_b)
        )

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: TPREntry, level: int) -> None:
        path = self._choose_path(entry, level)
        node = path[-1]
        node.append_entry(entry)
        if not node.is_leaf:
            child = self._node(entry.child_page_id)
            child.parent_page_id = node.page_id
            self._write_node(child)
        self._write_node(node)
        self._handle_overflow_and_adjust(path, base_level=level)

    def _choose_path(self, entry: TPREntry, level: int) -> List[TPRNode]:
        """Descend from the root to the node at ``level`` that should host ``entry``.

        ``level`` 0 is the leaf level; reinsertion of orphaned subtrees passes
        the height of the subtree so it is re-attached at the right depth.
        """
        path = [self._node(self.root_page_id)]
        depth_remaining = self._height - 1 - level
        ext_new = kernels.extent_of(entry.bound, self.current_time)
        while depth_remaining > 0:
            node = path[-1]
            best_slot = self._pick_child(node, ext_new)
            child = self._node(node.refs[best_slot])
            child.parent_page_id = node.page_id
            path.append(child)
            depth_remaining -= 1
        return path

    def _pick_child(self, node: TPRNode, ext_new: kernels.Extent) -> int:
        """Slot of the child whose projected area grows least by absorbing ``ext_new``."""
        return kernels.soa_choose_child_area(*node.columns, ext_new, self.current_time)

    def _handle_overflow_and_adjust(self, path: List[TPRNode], base_level: int = 0) -> None:
        """Split overfull nodes bottom-up and re-tighten bounds along the path.

        ``base_level`` is the tree level of ``path[-1]`` (0 for ordinary object
        insertions; higher when an orphaned subtree is being re-attached).
        """
        index = len(path) - 1
        while index >= 0:
            node = path[index]
            if node.is_overfull(self.max_entries):
                self._split_and_propagate(node, path, index, base_level)
                # _split_and_propagate finishes the upward adjustment itself.
                return
            if index > 0:
                self._tighten_parent(path[index - 1], node)
            index -= 1

    def _path_level(self, path: List[TPRNode], index: int, base_level: int) -> int:
        """Tree level of ``path[index]`` given that ``path[-1]`` sits at ``base_level``."""
        return base_level + (len(path) - 1 - index)

    def _split_and_propagate(
        self, node: TPRNode, path: List[TPRNode], index: int, base_level: int = 0
    ) -> None:
        sibling = self._split(node)
        if index == 0:
            self._grow_root(node, sibling)
            return
        t = self.current_time
        parent = path[index - 1]
        slot = parent.index_of_ref(node.page_id)
        parent.set_bound_at(slot, node.bound_extent(t), t)
        parent.append_bound(sibling.bound_extent(t), t, sibling.page_id)
        sibling.parent_page_id = parent.page_id
        self._write_node(parent)
        self._write_node(sibling)
        self._handle_overflow_and_adjust(
            path[:index], base_level=self._path_level(path, index - 1, base_level)
        )

    def _grow_root(self, old_root: TPRNode, sibling: TPRNode) -> None:
        t = self.current_time
        new_root = self._new_node(is_leaf=False)
        new_root.append_bound(old_root.bound_extent(t), t, old_root.page_id)
        new_root.append_bound(sibling.bound_extent(t), t, sibling.page_id)
        old_root.parent_page_id = new_root.page_id
        sibling.parent_page_id = new_root.page_id
        self.root_page_id = new_root.page_id
        self._height += 1
        self._write_node(new_root)
        self._write_node(old_root)
        self._write_node(sibling)

    def _split(self, node: TPRNode) -> TPRNode:
        """Split an overfull node; returns the new sibling.

        Entries are sorted along each axis by the center of their projected
        rectangle and every legal distribution is scored with
        :meth:`_split_cost_extents`; the cheapest distribution wins.  Group
        bounds come from prefix/suffix unions of the sorted kernel extents
        (read straight off the node's SoA columns), so the whole scoring
        pass is O(n log n) with no intermediate ``MovingRect`` allocations.
        """
        t = self.current_time
        n = node.num_entries
        extents = kernels.soa_extents(*node.columns, time=t)
        centers = [((e[0] + e[2]) * 0.5, (e[1] + e[3]) * 0.5) for e in extents]
        best: Optional[Tuple[List[int], int]] = None
        best_cost = None
        for axis in (0, 1):
            order = sorted(range(n), key=lambda i: centers[i][axis])
            ordered_exts = [extents[i] for i in order]
            prefix = kernels.cumulative_extents(ordered_exts)
            suffix = kernels.cumulative_extents(ordered_exts[::-1])
            for split_at in range(self.min_entries, n - self.min_entries + 1):
                cost = self._split_cost_extents(
                    prefix[split_at - 1], suffix[n - split_at - 1]
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best = (order, split_at)
        assert best is not None
        order, split_at = best
        records = node.snapshot()
        group_a = [records[i] for i in order[:split_at]]
        group_b = [records[i] for i in order[split_at:]]
        sibling = self._new_node(is_leaf=node.is_leaf)
        node.load(group_a)
        sibling.load(group_b)
        if not node.is_leaf:
            for child_page_id in sibling.refs:
                child = self._node(child_page_id)
                child.parent_page_id = sibling.page_id
                self._write_node(child)
        self._write_node(node)
        self._write_node(sibling)
        return sibling

    # ------------------------------------------------------------------
    # Deletion machinery
    # ------------------------------------------------------------------
    #: Slack (in space units) used when testing whether a subtree bound covers
    #: the deleted object's current position.  The object often *defines* the
    #: bound's edge, and projecting the edge and the object to the current
    #: time accumulates rounding error in different orders; without the slack
    #: a deletion can miss its leaf and leave a stale duplicate behind.
    DELETE_CONTAINMENT_SLACK = 1e-3

    def _find_leaf_path(
        self, page_id: int, oid: int, position: Point, prefix: List[TPRNode]
    ) -> Optional[List[TPRNode]]:
        """Root-to-leaf path of nodes leading to the leaf holding ``oid``."""
        node = self._node(page_id)
        path = prefix + [node]
        if node.is_leaf:
            if node.index_of_ref(oid) is not None:
                return path
            return None
        slack = self.DELETE_CONTAINMENT_SLACK
        t = self.current_time
        px, py = position.x, position.y
        refs = node.refs
        for i, (x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref) in enumerate(
            zip(*node.columns)
        ):
            elapsed = t - tref
            if elapsed > 0.0:
                x0 += vx0 * elapsed
                y0 += vy0 * elapsed
                x1 += vx1 * elapsed
                y1 += vy1 * elapsed
            if x0 - slack <= px <= x1 + slack and y0 - slack <= py <= y1 + slack:
                found = self._find_leaf_path(refs[i], oid, position, path)
                if found is not None:
                    return found
        return None

    def _condense(self, path: List[TPRNode]) -> None:
        """Handle underflow after a deletion (R-tree condense with reinsertion).

        ``path`` is the root-to-leaf path of the deletion; underfull nodes are
        removed and their surviving entries re-inserted at their original
        level.
        """
        orphans: List[Tuple[TPREntry, int]] = []  # (entry, level)
        level = 0
        for index in range(len(path) - 1, 0, -1):
            current = path[index]
            parent = path[index - 1]
            if current.is_underfull(self.min_entries):
                parent.remove_entry_for_child(current.page_id)
                for slot in range(current.num_entries):
                    orphans.append((current.entry_at(slot), level))
                self._write_node(parent)
                self.buffer.free_page(current.page_id)
            elif current.num_entries:
                self._tighten_parent(parent, current)
            else:
                self._write_node(parent)
            level += 1
        root = path[0]
        if not root.is_leaf and root.num_entries == 1:
            child_id = root.refs[0]
            child = self._node(child_id)
            child.parent_page_id = None
            self.root_page_id = child_id
            self._height -= 1
            self._write_node(child)
            self.buffer.free_page(root.page_id)
        for entry, entry_level in orphans:
            self._insert_entry(entry, entry_level)
