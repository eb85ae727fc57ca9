"""A paged B+-tree with duplicate-key support.

The Bx-tree (Jensen et al., VLDB 2004) indexes moving objects with a plain
B+-tree whose keys are one-dimensional Bx values.  This module provides that
substrate: integer keys, arbitrary Python values, duplicates allowed, and
every node stored on one simulated disk page so queries and updates incur
measurable I/O.

Leaves are chained for efficient range scans, which is how the Bx-tree
enumerates all objects inside a space-filling-curve interval.

Node keys are stored in flat ``array('q')`` buffers (8-byte signed ints)
with a parallel Python value list on leaves, so searches and splits run
``bisect``/slice operations over contiguous memory instead of chasing a
list of boxed ints.

The tree has one surface, like every index above it: ``bulk_load`` builds
it, ``apply_batch`` is its one mutation (a lone insert, delete or in-place
replacement is a batch of one), and every read — ``range_search_batch``,
``range_values_batch`` and the single-range ``range_search`` — is one
leaf sweep.  Both sort their work by key and move left to right, reusing
the descent path whenever the next key still belongs to the current leaf,
so N root-to-leaf walks become one sweep.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bulk import chunk_count, even_chunks
from repro.storage.buffer_manager import BufferManager
from repro.storage.page import entries_per_page

#: A leaf entry stores the 8-byte key plus an object record
#: (id, position, velocity, reference time) -- about 48 bytes.
LEAF_ENTRY_BYTES = 56
#: An interior entry stores a separator key and a child pointer.
INTERIOR_ENTRY_BYTES = 16

DEFAULT_LEAF_CAPACITY = entries_per_page(LEAF_ENTRY_BYTES)
DEFAULT_INTERIOR_CAPACITY = entries_per_page(INTERIOR_ENTRY_BYTES)


def _key_array(keys: Iterable[int] = ()) -> array:
    """Flat 8-byte-int key buffer (the node key representation)."""
    return array("q", keys)


def _cumulative_upper(path: Sequence[Tuple[Any, int]]) -> Optional[int]:
    """Smallest separator to the right of a descent prefix (None = unbounded).

    Every key strictly below this bound descends through the same child
    sequence as the recorded path prefix, which is what lets a batch sweep
    resume from a cached ancestor instead of the root.
    """
    upper: Optional[int] = None
    for node, index in path:
        if index < len(node.keys):
            separator = node.keys[index]
            if upper is None or separator < upper:
                upper = separator
    return upper


@dataclass
class _LeafNode:
    page_id: int
    keys: array = field(default_factory=_key_array)
    values: List[Any] = field(default_factory=list)
    next_leaf: Optional[int] = None
    is_leaf: bool = True


@dataclass
class _InteriorNode:
    page_id: int
    keys: array = field(default_factory=_key_array)  # separators, len = len(children) - 1
    children: List[int] = field(default_factory=list)
    is_leaf: bool = False


class BPlusTree:
    """B+-tree over simulated paged storage.

    Args:
        buffer: buffer manager; a private one is created if omitted.
        leaf_capacity: maximum entries per leaf page.
        interior_capacity: maximum children per interior page.
    """

    def __init__(
        self,
        buffer: Optional[BufferManager] = None,
        leaf_capacity: Optional[int] = None,
        interior_capacity: Optional[int] = None,
        page_size: Optional[int] = None,
    ) -> None:
        if leaf_capacity is None:
            leaf_capacity = (
                entries_per_page(LEAF_ENTRY_BYTES, page_size_bytes=page_size)
                if page_size is not None
                else DEFAULT_LEAF_CAPACITY
            )
        if interior_capacity is None:
            interior_capacity = (
                entries_per_page(INTERIOR_ENTRY_BYTES, page_size_bytes=page_size)
                if page_size is not None
                else DEFAULT_INTERIOR_CAPACITY
            )
        if leaf_capacity < 2 or interior_capacity < 3:
            raise ValueError("capacities are too small for a valid B+-tree")
        self.buffer = buffer if buffer is not None else BufferManager()
        self.leaf_capacity = leaf_capacity
        self.interior_capacity = interior_capacity
        root = _LeafNode(page_id=-1)
        page = self.buffer.new_page(root)
        root.page_id = page.page_id
        self.root_page_id = page.page_id
        self.size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # Node helpers
    # ------------------------------------------------------------------
    def _node(self, page_id: int):
        return self.buffer.fetch(page_id).payload

    def _mark_dirty(self, node) -> None:
        # Marking a node dirty is not a node access: the caller provably
        # holds the node (it just descended to it or follows the leaf
        # chain), so a resident frame is dirtied in place and only a node
        # that has actually aged out of the buffer pays a real fetch.
        page = self.buffer.resident_page(node.page_id)
        if page is None:
            page = self.buffer.fetch(node.page_id)
        page.payload = node
        self.buffer.mark_dirty(page)

    def _new_leaf(self) -> _LeafNode:
        node = _LeafNode(page_id=-1)
        page = self.buffer.new_page(node)
        node.page_id = page.page_id
        return node

    def _new_interior(self) -> _InteriorNode:
        node = _InteriorNode(page_id=-1)
        page = self.buffer.new_page(node)
        node.page_id = page.page_id
        return node

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._height

    def __len__(self) -> int:
        return self.size

    def bulk_load(self, items: Iterable[Tuple[int, Any]]) -> None:
        """Build the tree bottom-up from ``(key, value)`` pairs.

        The pairs are sorted by key (stably, so the relative order of
        duplicates is the insertion order), packed into chained leaves at
        even fill, and interior levels are built over the leaf run — one
        pass per level instead of one root-to-leaf descent per entry.
        Separator keys follow the same convention as incremental splits (the
        smallest key of the right subtree), so lookups, range scans and
        subsequent updates behave identically on a bulk-built tree.

        Raises:
            ValueError: if the tree is not empty.
        """
        items = sorted(items, key=lambda pair: pair[0])
        if self.size:
            raise ValueError("bulk_load requires an empty tree")
        if not items:
            return
        num_leaves = chunk_count(len(items), self.leaf_capacity)
        previous: Optional[_LeafNode] = None
        children: List[int] = []
        child_min_keys: List[int] = []
        for chunk in even_chunks(items, num_leaves):
            # The pre-allocated root page hosts the first leaf.
            leaf = self._node(self.root_page_id) if previous is None else self._new_leaf()
            leaf.keys = _key_array(key for key, _ in chunk)
            leaf.values = [value for _, value in chunk]
            leaf.next_leaf = None
            if previous is not None:
                previous.next_leaf = leaf.page_id
                self._mark_dirty(previous)
            self._mark_dirty(leaf)
            children.append(leaf.page_id)
            child_min_keys.append(leaf.keys[0])
            previous = leaf
        height = 1
        while len(children) > 1:
            parents: List[int] = []
            parent_min_keys: List[int] = []
            num_parents = chunk_count(len(children), self.interior_capacity)
            grouped = zip(
                even_chunks(children, num_parents),
                even_chunks(child_min_keys, num_parents),
            )
            for group, group_min_keys in grouped:
                node = self._new_interior()
                node.children = group
                node.keys = _key_array(group_min_keys[1:])
                self._mark_dirty(node)
                parents.append(node.page_id)
                parent_min_keys.append(group_min_keys[0])
            children = parents
            child_min_keys = parent_min_keys
            height += 1
        self.root_page_id = children[0]
        self._height = height
        self.size = len(items)

    def apply_batch(
        self,
        deletes: Sequence[Tuple[int, Any]],
        inserts: Sequence[Tuple[int, Any]],
        upserts: Sequence[Tuple[int, Any, Any]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """Apply a mixed batch of operations in one key-ordered sweep.

        ``deletes`` holds ``(key, value)`` pairs, ``inserts`` ``(key,
        value)`` pairs, and ``upserts`` ``(key, old_value, new_value)``
        triples: an upsert replaces ``old_value`` in place when present and
        degrades to an insertion of ``new_value`` otherwise (the Bx-tree's
        same-key update).  The batch acts as if applied one operation at a
        time in ``(key, kind, arrival)`` order, deletes before upserts
        before inserts of one key: an insertion goes after the key's
        duplicates (``bisect_right``), and a deletion or upsert acts on the
        leftmost entry whose key and value are equal to its own.  Underflow
        is lazy: a leaf may go sparse or empty and stays in the chain.

        All three work lists are sorted by key and merged, so the sweep
        advances monotonically through the leaf chain and every leaf
        neighbourhood is visited once per batch — operations that target
        the same region (the common case for a moving-object update whose
        old and new keys are close) hit the buffer while it is still hot,
        instead of paying separate passes.

        Descent sharing works at two levels.  While the next key still
        falls inside the cached leaf, no descent happens at all; when it
        falls off the leaf but stays under the cached *parent* (whose
        subtree spans hundreds of key positions at realistic fan-outs), the
        sweep resumes one level up with a single node visit instead of a
        full root-to-leaf walk.  Reuse is conservative: ascending keys
        guarantee the cached ancestors still cover the key, and any split
        invalidates both cursors so structural changes go through the
        ordinary machinery.

        The sweep drives the buffer's batch-awareness: the cursor pages
        (leaf plus parent, for both the scan and insert cursors) are kept
        pinned as the sweep's *frontier* — each cursor slot repins its page
        as it moves — so a small buffer stops evicting the frontier
        mid-batch under the sweep's own leaf traffic.  (The query sweep of
        :meth:`range_search_batch` pins its scan leaf the same way.)

        Returns ``(delete_flags, upsert_flags)``: per-deletion success and
        per-upsert replaced-in-place flags, aligned with their inputs.
        """
        delete_flags = [False] * len(deletes)
        upsert_flags = [False] * len(upserts)
        # One merged work list of (key, kind, index); kind ids keep the sort
        # stable and cheap.
        work = sorted(
            [(key, 0, i) for i, (key, _) in enumerate(deletes)]
            + [(key, 1, i) for i, (key, _, _) in enumerate(upserts)]
            + [(key, 2, i) for i, (key, _) in enumerate(inserts)]
        )
        # Scan cursor (bisect_left convention) for deletes/upserts, and
        # insert cursor (bisect_right convention).  Each is (leaf, parent,
        # parent_upper, leaf_upper); None marks an empty cursor slot.
        scan_leaf: Optional[_LeafNode] = None
        scan_parent: Optional[_InteriorNode] = None
        scan_parent_upper: Optional[int] = None
        insert_leaf: Optional[_LeafNode] = None
        insert_upper: Optional[int] = None
        insert_parent: Optional[_InteriorNode] = None
        insert_parent_upper: Optional[int] = None
        any_removed = False
        leaf_capacity = self.leaf_capacity
        buffer = self.buffer
        # The root is the sweep's outermost cursor: fetched once per batch
        # (splits drop it along with the other cursors), so full-descent
        # fallbacks skip the per-operation root fetch.
        cached_root = None

        def get_root():
            nonlocal cached_root
            if cached_root is None:
                cached_root = self._node(self.root_page_id)
            return cached_root

        # Frontier pinning: the four cursor nodes' pages are kept pinned so
        # the sweep's own leaf traffic cannot evict its frontier mid-batch.
        # Each cursor slot repins individually when it moves (a whole-set
        # rebuild per move is measurably slower), holding at most four pins;
        # pools smaller than eight frames skip pinning so descents always
        # find evictable frames.  Pin counts nest, so two cursors sharing a
        # page (scan and insert leaf frequently coincide) stay balanced.
        pin_enabled = buffer.batch_hints_enabled and buffer.capacity >= 8
        cursor_pages: List[Optional[Any]] = [None, None, None, None]

        def repin(slot: int, node) -> None:
            if not pin_enabled:
                return
            new_page = buffer.resident_page(node.page_id) if node is not None else None
            page = cursor_pages[slot]
            if new_page is page:
                return
            if page is not None:
                page.unpin()
            if new_page is not None:
                new_page.pin()
            cursor_pages[slot] = new_page

        def unpin_cursors() -> None:
            for slot, page in enumerate(cursor_pages):
                if page is not None:
                    page.unpin()
                    cursor_pages[slot] = None

        def locate_scan_leaf(key: int) -> _LeafNode:
            nonlocal scan_leaf, scan_parent, scan_parent_upper
            # Reuse while the key lies inside the cached leaf: forward reuse
            # is always correct (ascending keys + the chain walk), but past
            # the leaf's last key a descent beats walking the cold chain.
            if scan_leaf is not None and scan_leaf.keys and key <= scan_leaf.keys[-1]:
                return scan_leaf
            if scan_parent is not None and (
                scan_parent_upper is None or key <= scan_parent_upper
            ):
                index = bisect.bisect_left(scan_parent.keys, key)
                scan_leaf = self._node(scan_parent.children[index])
                repin(0, scan_leaf)
                return scan_leaf
            path = self._descend_path(key, root=get_root())
            scan_leaf = path[-1][0]
            interior = path[:-1]
            scan_parent = interior[-1][0] if interior else None
            scan_parent_upper = _cumulative_upper(interior[:-1])
            repin(0, scan_leaf)
            repin(1, scan_parent)
            return scan_leaf

        def do_insert(key: int, value: Any) -> None:
            nonlocal scan_leaf, scan_parent, scan_parent_upper
            nonlocal insert_leaf, insert_upper, insert_parent, insert_parent_upper
            nonlocal cached_root
            leaf = None
            if insert_leaf is not None and (insert_upper is None or key < insert_upper):
                leaf = insert_leaf
            else:
                if insert_parent is None or not (
                    insert_parent_upper is None or key < insert_parent_upper
                ):
                    # Seed the insert cursor from the scan cursor's parent:
                    # sweep keys only ascend, so the scan parent's subtree
                    # provably contains every key below its upper separator
                    # (strictly below — at equality a bisect_right descent
                    # from the root would leave the subtree).
                    if scan_parent is not None and (
                        scan_parent_upper is None or key < scan_parent_upper
                    ):
                        insert_parent = scan_parent
                        insert_parent_upper = scan_parent_upper
                        repin(3, insert_parent)
                if insert_parent is not None and (
                    insert_parent_upper is None or key < insert_parent_upper
                ):
                    index = bisect.bisect_right(insert_parent.keys, key)
                    leaf = self._node(insert_parent.children[index])
                    insert_leaf = leaf
                    insert_upper = (
                        insert_parent.keys[index]
                        if index < len(insert_parent.keys)
                        else insert_parent_upper
                    )
                    repin(2, leaf)
            if leaf is not None and len(leaf.keys) < leaf_capacity:
                index = bisect.bisect_right(leaf.keys, key)
                leaf.keys.insert(index, key)
                leaf.values.insert(index, value)
                # The insert cursor's page is pinned in slot 2 — dirty it
                # through the held handle instead of a frame lookup.
                page = cursor_pages[2]
                if page is not None and page.page_id == leaf.page_id:
                    buffer.mark_dirty(page)
                else:
                    self._mark_dirty(leaf)
                self.size += 1
                return
            # Cursor miss, or the target leaf is full and the (possible)
            # split needs the complete root-to-leaf path: descend fully.
            path, leaf, upper = self._descend_insert(key, root=get_root())
            if self._leaf_insert(path, leaf, key, value):
                # The split restructured interior nodes; both cursors may
                # reference stale subtree boundaries, so drop them.
                cached_root = None
                scan_leaf = scan_parent = None
                scan_parent_upper = None
                insert_leaf = insert_parent = None
                insert_upper = insert_parent_upper = None
                unpin_cursors()
            else:
                insert_leaf, insert_upper = leaf, upper
                insert_parent = path[-1][0] if path else None
                insert_parent_upper = _cumulative_upper(path[:-1])
                repin(2, insert_leaf)
                repin(3, insert_parent)

        # The update sweep pins its frontier but does NOT use the
        # sequential-eviction hint: an update sweep dirties the leaves it
        # passes, and measurements show evicting the remaining clean pages
        # MRU-first (mostly interior nodes and chain-walk leaves the same
        # batch still needs) costs more physical reads than the hint saves.
        # The read-only query sweep of range_search_batch is where the hint
        # pays off.
        try:
            for key, kind, index in work:
                if kind == 2:
                    do_insert(key, inserts[index][1])
                elif kind == 0:
                    leaf, at = self._find_entry(locate_scan_leaf(key), key, deletes[index][1])
                    if leaf is not None:
                        del leaf.keys[at]
                        del leaf.values[at]
                        self._mark_dirty(leaf)
                        self.size -= 1
                        delete_flags[index] = True
                        any_removed = True
                else:
                    _, old_value, new_value = upserts[index]
                    leaf, at = self._find_entry(locate_scan_leaf(key), key, old_value)
                    if leaf is not None:
                        leaf.values[at] = new_value
                        self._mark_dirty(leaf)
                        upsert_flags[index] = True
                    else:
                        do_insert(key, new_value)
        finally:
            unpin_cursors()
        if any_removed:
            self._collapse_if_needed()
        return delete_flags, upsert_flags

    def range_search(self, key_lo: int, key_hi: int) -> List[Tuple[int, Any]]:
        """All ``(key, value)`` pairs with ``key_lo <= key <= key_hi``: a sweep of one range."""
        return self._leaf_sweep(((key_lo, key_hi),), with_keys=True)[0]

    def range_search_batch(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> List[List[Tuple[int, Any]]]:
        """Run many inclusive range scans in one left-to-right sweep.

        Results are aligned with the input order.  The ranges are visited
        sorted by lower bound; when the next range starts inside the leaf
        where the previous scan ended, the root-to-leaf descent is skipped
        and the scan continues from that leaf.  Each range's scan visits
        exactly the leaves a sweep of that range alone would, so candidate
        order per range is identical — only shared descents are saved.  The
        sweep pins its current leaf as the buffer frontier and takes no
        sequential-eviction advice.  That advice evicts the most recently
        read page first, and here those are the interior pages the next
        descent walks and the leaves that overlapping ranges (another
        query's, or the next kNN filter round's) scan again: under it a
        multi-query Bx range batch read about twice the pages.
        """
        return self._leaf_sweep(ranges, with_keys=True)

    def range_values_batch(self, ranges: Sequence[Tuple[int, int]]) -> List[List[Any]]:
        """:meth:`range_search_batch` without the keys: the same sweep, values only."""
        return self._leaf_sweep(ranges, with_keys=False)

    def _leaf_sweep(self, ranges: Sequence[Tuple[int, int]], with_keys: bool) -> List[list]:
        """The one batched leaf sweep; per range ``(key, value)`` pairs or values."""
        results: List[list] = [[] for _ in ranges]
        order = sorted(range(len(ranges)), key=lambda i: ranges[i][0])
        leaf: Optional[_LeafNode] = None
        buffer = self.buffer
        try:
            for i in order:
                key_lo, key_hi = ranges[i]
                if key_hi < key_lo:
                    continue
                if leaf is None or not leaf.keys or not leaf.keys[0] < key_lo <= leaf.keys[-1]:
                    leaf = self._descend_path(key_lo)[-1][0]
                out = results[i]
                node: Optional[_LeafNode] = leaf
                while node is not None:
                    keys = node.keys
                    start = bisect.bisect_left(keys, key_lo)
                    stop = bisect.bisect_right(keys, key_hi)
                    if start < stop:
                        values = node.values[start:stop]
                        out.extend(zip(keys[start:stop], values) if with_keys else values)
                    if stop < len(keys) or node.next_leaf is None:
                        break
                    node = self._node(node.next_leaf)
                leaf = node if node is not None else leaf
                buffer.pin_frontier((leaf.page_id,))
        finally:
            buffer.release_frontier()
        return results

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate over every entry in key order."""
        node = self._node(self.root_page_id)
        while not node.is_leaf:
            node = self._node(node.children[0])
        while node is not None:
            for key, value in zip(node.keys, node.values):
                yield key, value
            node = self._node(node.next_leaf) if node.next_leaf is not None else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _descend_path(self, key: int, root=None) -> List[Tuple[Any, int]]:
        """Path of ``(node, child_index)`` pairs from the root to the leaf for ``key``.

        ``root`` lets a batch sweep that already holds the root node (its
        outermost cursor) start the walk without re-fetching it; the root's
        identity is stable for the sweep's lifetime because any split that
        replaces it also invalidates every sweep cursor.
        """
        path: List[Tuple[Any, int]] = []
        node = root if root is not None else self._node(self.root_page_id)
        while not node.is_leaf:
            # bisect_left (not bisect_right) so that duplicate keys spanning a
            # leaf boundary are reached from their leftmost occurrence; the
            # forward leaf chain then covers the rest.
            index = bisect.bisect_left(node.keys, key)
            path.append((node, index))
            node = self._node(node.children[index])
        path.append((node, -1))
        return path

    def _descend_insert(
        self, key: int, root=None
    ) -> Tuple[List[Tuple[_InteriorNode, int]], _LeafNode, Optional[int]]:
        """Descend for an insertion of ``key`` (``bisect_right`` convention).

        Returns ``(path, leaf, upper)`` where ``path`` holds the interior
        ``(node, child_index)`` pairs and ``upper`` is the smallest
        separator to the right of the descent — an insertion of any key
        strictly below ``upper`` provably lands in the same leaf, which is
        the invariant the batch sweep uses to reuse the path.  ``root``
        starts the walk from an already-held root node (see
        :meth:`_descend_path`).
        """
        path: List[Tuple[_InteriorNode, int]] = []
        node = root if root is not None else self._node(self.root_page_id)
        upper: Optional[int] = None
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            if index < len(node.keys):
                separator = node.keys[index]
                if upper is None or separator < upper:
                    upper = separator
            path.append((node, index))
            node = self._node(node.children[index])
        return path, node, upper

    def _leaf_insert(
        self,
        path: List[Tuple[_InteriorNode, int]],
        leaf: _LeafNode,
        key: int,
        value: Any,
    ) -> bool:
        """Insert into a located leaf; returns True when a split occurred."""
        index = bisect.bisect_right(leaf.keys, key)
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._mark_dirty(leaf)
        self.size += 1
        if len(leaf.keys) > self.leaf_capacity:
            self._split_up(path, leaf)
            return True
        return False

    def _split_up(self, path: List[Tuple[_InteriorNode, int]], leaf: _LeafNode) -> None:
        """Split an overfull leaf and propagate splits up the recorded path."""
        separator, new_child_id = self._split_leaf(leaf)
        for node, child_index in reversed(path):
            node.keys.insert(child_index, separator)
            node.children.insert(child_index + 1, new_child_id)
            self._mark_dirty(node)
            if len(node.children) <= self.interior_capacity:
                return
            separator, new_child_id = self._split_interior(node)
        new_root = self._new_interior()
        new_root.keys = _key_array((separator,))
        new_root.children = [self.root_page_id, new_child_id]
        self.root_page_id = new_root.page_id
        self._height += 1
        self._mark_dirty(new_root)

    def _find_entry(
        self, leaf: _LeafNode, key: int, value: Any
    ) -> Tuple[Optional[_LeafNode], int]:
        """The leftmost ``(key, value)`` entry at or after ``leaf``: ``(leaf, index)``.

        Walks the duplicate run of ``key`` along the leaf chain and stops
        where the run ends — inside a leaf, or at a leaf whose first key is
        larger; empty leaves (lazy deletion) are skipped rather than taken
        for the end.  ``(None, -1)`` when no entry matches.
        """
        index = bisect.bisect_left(leaf.keys, key)
        while True:
            keys = leaf.keys
            while index < len(keys) and keys[index] == key:
                if leaf.values[index] == value:
                    return leaf, index
                index += 1
            if index < len(keys) or leaf.next_leaf is None:
                return None, -1
            leaf = self._node(leaf.next_leaf)
            if leaf.keys and leaf.keys[0] > key:
                return None, -1
            index = bisect.bisect_left(leaf.keys, key)

    def _split_leaf(self, leaf: _LeafNode) -> Tuple[int, int]:
        sibling = self._new_leaf()
        mid = len(leaf.keys) // 2
        sibling.keys = leaf.keys[mid:]
        sibling.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling.page_id
        self._mark_dirty(leaf)
        self._mark_dirty(sibling)
        return sibling.keys[0], sibling.page_id

    def _split_interior(self, node: _InteriorNode) -> Tuple[int, int]:
        sibling = self._new_interior()
        mid = len(node.children) // 2
        separator = node.keys[mid - 1]
        sibling.keys = node.keys[mid:]
        sibling.children = node.children[mid:]
        node.keys = node.keys[: mid - 1]
        node.children = node.children[:mid]
        self._mark_dirty(node)
        self._mark_dirty(sibling)
        return separator, sibling.page_id

    def _collapse_if_needed(self) -> None:
        """Shrink the tree when the root has a single child and no keys."""
        root = self._node(self.root_page_id)
        while not root.is_leaf and len(root.children) == 1:
            child_id = root.children[0]
            self.buffer.free_page(root.page_id)
            self.root_page_id = child_id
            self._height -= 1
            root = self._node(child_id)
