"""Nodes and entries of the TPR-tree family (array-backed SoA layout).

A node lives on one simulated disk page.  Leaf entries reference moving
objects (a degenerate :class:`~repro.geometry.MovingRect` plus the object
id); interior entries reference child pages and carry the time-parameterized
bound of the whole subtree.

**Storage layout.**  Mirroring the B+-tree's ``array('q')`` keys, a node
does not store one Python object per entry.  The nine float components of
every entry bound (MBR, VBR, reference time) live in nine parallel
``array('d')`` columns and the referenced ids (object ids on leaves, child
page ids on interior nodes) in one ``array('q')`` column — 80 bytes per
entry, exactly the :data:`TPR_ENTRY_BYTES` record the page-capacity model
assumes.  The geometry kernels read the columns directly
(:func:`repro.geometry.kernels.soa_extents` and friends), so the index hot
paths never rebuild per-entry ``MovingRect``/``Rect`` objects.

:class:`TPREntry` remains the *exchange record*: insertions hand entries to
a node, and cold paths (tests, introspection, orphan reinsertion) read them
back via :meth:`TPRNode.entry_at`, which materializes one entry object from
the columns on demand.  Whole-node dumps that need no exchange records (e.g.
``iter_objects``) use :meth:`TPRNode.iter_records`, which yields flat
per-entry tuples straight off the columns.  All structural mutation goes through the node methods
(``append_entry`` / ``remove_at`` / ``set_bound_at`` / ...), which keep the
columns consistent and the node's cached tight extent exact or dropped (see
:meth:`TPRNode.bound_extent` for which mutator keeps it and how).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.rect import Rect
from repro.storage.page import entries_per_page

#: Size of one TPR entry record: 4 MBR floats + 4 VBR floats + reference time
#: + child pointer / object id, at 8 bytes each.
TPR_ENTRY_BYTES = 80

#: Default maximum node fan-out derived from the 4 KB page size.
DEFAULT_MAX_ENTRIES = entries_per_page(TPR_ENTRY_BYTES)

#: Per extent component: True where the bound keeps the minimum.
_LOW = (True, True, False, False, True, True, False, False)


def _project(x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref, time) -> kernels.Extent:
    """One column-stored bound at ``time``, with ``soa_bound_extent``'s arithmetic."""
    elapsed = time - tref
    if elapsed > 0.0:
        x0, y0 = x0 + vx0 * elapsed, y0 + vy0 * elapsed
        x1, y1 = x1 + vx1 * elapsed, y1 + vy1 * elapsed
    return (x0, y0, x1, y1, vx0, vy0, vx1, vy1)


def _rewritten(cached, old, new) -> Optional[kernels.Extent]:
    """The scan's extent after one slot moves from ``old`` to ``new``, or None.

    Per component: a strictly better value wins; the cached one stays if the
    new one is strictly worse and the slot did not attain it, or ties a
    non-zero extreme (equal non-zero floats are the same bits).  Anything
    else (a signed-zero tie, a NaN, a vacated extreme) needs a rescan.
    """
    out = []
    for low, c, o, v in zip(_LOW, cached, old, new):
        if (v < c) if low else (v > c):
            out.append(v)
        elif ((v > c and o > c) if low else (v < c and o < c)) or (v == c and c != 0.0):
            out.append(c)
        else:
            return None
    return tuple(out)


@dataclass
class TPREntry:
    """One entry of a TPR-tree node (the object-level exchange record).

    Attributes:
        bound: time-parameterized bound of the referenced object or subtree.
        child_page_id: page id of the child node (interior entries only).
        oid: object id (leaf entries only).
    """

    bound: MovingRect
    child_page_id: Optional[int] = None
    oid: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.child_page_id is None) == (self.oid is None):
            raise ValueError("an entry references either a child page or an object")

    @property
    def is_leaf_entry(self) -> bool:
        """Whether the entry references an object (as opposed to a child page)."""
        return self.oid is not None


class TPRNode:
    """A TPR-tree node stored in one page payload (SoA column storage)."""

    __slots__ = (
        "page_id",
        "is_leaf",
        "parent_page_id",
        "_x0",
        "_y0",
        "_x1",
        "_y1",
        "_vx0",
        "_vy0",
        "_vx1",
        "_vy1",
        "_tref",
        "_refs",
        "_bound",
        "_bound_time",
    )

    def __init__(
        self,
        page_id: int,
        is_leaf: bool,
        parent_page_id: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.parent_page_id = parent_page_id
        self._x0 = array("d")
        self._y0 = array("d")
        self._x1 = array("d")
        self._y1 = array("d")
        self._vx0 = array("d")
        self._vy0 = array("d")
        self._vx1 = array("d")
        self._vy1 = array("d")
        self._tref = array("d")
        self._refs = array("q")
        self._bound = self._bound_time = None  # see bound_extent

    # ------------------------------------------------------------------
    # Column access (the kernel-facing hot surface)
    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[array, ...]:
        """The nine bound columns ``(x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref)``.

        The arrays are the node's live storage: callers must treat them as
        read-only and must not hold them across mutations.
        """
        return (
            self._x0,
            self._y0,
            self._x1,
            self._y1,
            self._vx0,
            self._vy0,
            self._vx1,
            self._vy1,
            self._tref,
        )

    @property
    def refs(self) -> array:
        """Referenced ids per slot: object ids on leaves, child page ids above."""
        return self._refs

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Number of entries stored in the node."""
        return len(self._refs)

    def is_overfull(self, max_entries: int) -> bool:
        """Whether the node exceeds the fan-out (must be split/reinserted)."""
        return len(self._refs) > max_entries

    def is_underfull(self, min_entries: int) -> bool:
        """Whether the node violates the minimum fill (must be condensed)."""
        return len(self._refs) < min_entries

    # ------------------------------------------------------------------
    # Mutation (every structural change funnels through these)
    # ------------------------------------------------------------------
    def append_entry(self, entry: TPREntry) -> None:
        """Append an exchange-record entry, encoding its bound into the columns."""
        bound = entry.bound
        rect = bound.rect
        ref = entry.oid if entry.oid is not None else entry.child_page_id
        self._append_raw(
            rect.x_min,
            rect.y_min,
            rect.x_max,
            rect.y_max,
            bound.v_x_min,
            bound.v_y_min,
            bound.v_x_max,
            bound.v_y_max,
            bound.reference_time,
            ref,
        )

    def append_bound(self, ext: kernels.Extent, reference_time: float, ref: int) -> None:
        """Append an entry from a flat kernel extent anchored at ``reference_time``."""
        x0, y0, x1, y1, vx0, vy0, vx1, vy1 = ext
        self._append_raw(x0, y0, x1, y1, vx0, vy0, vx1, vy1, reference_time, ref)

    def _append_raw(self, x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref, ref) -> None:
        self._x0.append(x0)
        self._y0.append(y0)
        self._x1.append(x1)
        self._y1.append(y1)
        self._vx0.append(vx0)
        self._vy0.append(vy0)
        self._vx1.append(vx1)
        self._vy1.append(vy1)
        self._tref.append(tref)
        self._refs.append(ref)
        if self._bound_time is not None:
            # The new slot is the scan's last, so a tie keeps the incumbent.
            n = _project(x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref, self._bound_time)
            c = self._bound
            self._bound = (
                n[0] if n[0] < c[0] else c[0], n[1] if n[1] < c[1] else c[1],
                n[2] if n[2] > c[2] else c[2], n[3] if n[3] > c[3] else c[3],
                n[4] if n[4] < c[4] else c[4], n[5] if n[5] < c[5] else c[5],
                n[6] if n[6] > c[6] else c[6], n[7] if n[7] > c[7] else c[7],
            )  # fmt: skip

    def _slot_at(self, index: int, time: float) -> kernels.Extent:
        """Slot ``index``'s bound projected at ``time``."""
        return _project(
            self._x0[index], self._y0[index], self._x1[index], self._y1[index],
            self._vx0[index], self._vy0[index], self._vx1[index], self._vy1[index],
            self._tref[index], time,
        )  # fmt: skip

    def set_bound_at(self, index: int, ext: kernels.Extent, reference_time: float) -> None:
        """Overwrite the bound of slot ``index`` (parent-bound tightening)."""
        time = self._bound_time
        if time is not None:
            old = self._slot_at(index, time)
            self._bound = _rewritten(self._bound, old, _project(*ext, reference_time, time))
            if self._bound is None:
                self._bound_time = None
        self._x0[index] = ext[0]
        self._y0[index] = ext[1]
        self._x1[index] = ext[2]
        self._y1[index] = ext[3]
        self._vx0[index] = ext[4]
        self._vy0[index] = ext[5]
        self._vx1[index] = ext[6]
        self._vy1[index] = ext[7]
        self._tref[index] = reference_time

    def remove_at(self, index: int) -> None:
        """Remove the entry at slot ``index`` from every column."""
        if self._bound_time is not None:
            o, c = self._slot_at(index, self._bound_time), self._bound
            if not (o[0] > c[0] and o[1] > c[1] and o[2] < c[2] and o[3] < c[3]
                    and o[4] > c[4] and o[5] > c[5] and o[6] < c[6] and o[7] < c[7]):  # fmt: skip
                self._bound = self._bound_time = None
        for column in (
            self._x0,
            self._y0,
            self._x1,
            self._y1,
            self._vx0,
            self._vy0,
            self._vx1,
            self._vy1,
            self._tref,
            self._refs,
        ):
            del column[index]

    def keep_only(self, indexes: Sequence[int]) -> None:
        """Keep exactly the slots in ``indexes`` (in the given order)."""
        self._bound = self._bound_time = None
        for column in (
            self._x0,
            self._y0,
            self._x1,
            self._y1,
            self._vx0,
            self._vy0,
            self._vx1,
            self._vy1,
            self._tref,
        ):
            column[:] = array("d", (column[i] for i in indexes))
        self._refs[:] = array("q", (self._refs[i] for i in indexes))

    def snapshot(self) -> List[Tuple]:
        """Flat per-entry records ``(x0..vy1, tref, ref)`` (split redistribution)."""
        return list(
            zip(
                self._x0,
                self._y0,
                self._x1,
                self._y1,
                self._vx0,
                self._vy0,
                self._vx1,
                self._vy1,
                self._tref,
                self._refs,
            )
        )

    def load(self, records: Sequence[Tuple]) -> None:
        """Replace the node's contents with flat records from :meth:`snapshot`."""
        self.clear()
        for record in records:
            self._append_raw(*record)

    def clear(self) -> None:
        """Drop every entry."""
        self._bound = self._bound_time = None
        for column in (
            self._x0,
            self._y0,
            self._x1,
            self._y1,
            self._vx0,
            self._vy0,
            self._vx1,
            self._vy1,
            self._tref,
        ):
            del column[:]
        del self._refs[:]

    def set_entries(self, entries: Sequence[TPREntry]) -> None:
        """Replace the node's contents with exchange-record entries."""
        self.clear()
        for entry in entries:
            self.append_entry(entry)

    # ------------------------------------------------------------------
    # Lookup / materialization
    # ------------------------------------------------------------------
    def index_of_ref(self, ref: int) -> Optional[int]:
        """Slot of the entry referencing ``ref`` (oid or child page id), or None."""
        try:
            return self._refs.index(ref)
        except ValueError:
            return None

    def entry_at(self, index: int) -> TPREntry:
        """Materialize the :class:`TPREntry` exchange record for slot ``index``."""
        bound = MovingRect(
            rect=Rect(self._x0[index], self._y0[index], self._x1[index], self._y1[index]),
            v_x_min=self._vx0[index],
            v_y_min=self._vy0[index],
            v_x_max=self._vx1[index],
            v_y_max=self._vy1[index],
            reference_time=self._tref[index],
        )
        ref = self._refs[index]
        if self.is_leaf:
            return TPREntry(bound=bound, oid=ref)
        return TPREntry(bound=bound, child_page_id=ref)

    def iter_records(self) -> Iterator[Tuple]:
        """Flat ``(ref, x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref)`` per entry.

        The columnar iterator for cold full-node reads (``iter_objects``,
        debug dumps): one C-level zip over the live columns, no
        :class:`TPREntry`/``MovingRect`` objects.  Callers must not mutate
        the node while iterating.
        """
        return zip(
            self._refs,
            self._x0,
            self._y0,
            self._x1,
            self._y1,
            self._vx0,
            self._vy0,
            self._vx1,
            self._vy1,
            self._tref,
        )

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def bound_extent(self, reference_time: float) -> kernels.Extent:
        """Tight bound over the node's entries as a flat kernel extent.

        The one source of a node's bound.  The node caches the extent of its
        last rescan with that rescan's time, and the mutators keep the cache
        bit-identical to a rescan -- an append merges the new entry (a tie
        keeps the incumbent, as the scan's strict comparisons do),
        ``set_bound_at`` applies :func:`_rewritten`, ``remove_at`` keeps it
        for an entry strictly inside on all eight components -- or drop it
        (so do ``keep_only``, ``load`` and ``clear``; a new or decoded node
        has none).  A request for any other time rescans.
        """
        if reference_time == self._bound_time:
            return self._bound
        if not self._refs:
            raise ValueError("cannot bound an empty node")
        self._bound = kernels.soa_bound_extent(*self.columns, time=reference_time)
        self._bound_time = reference_time
        return self._bound

    def bound(self, reference_time: float) -> MovingRect:
        """Tight time-parameterized bound over the node's entries."""
        x0, y0, x1, y1, vx0, vy0, vx1, vy1 = self.bound_extent(reference_time)
        return MovingRect(
            rect=Rect(x0, y0, x1, y1),
            v_x_min=vx0,
            v_y_min=vy0,
            v_x_max=vx1,
            v_y_max=vy1,
            reference_time=reference_time,
        )

    # ------------------------------------------------------------------
    # Historical object-level helpers (tests and cold paths)
    # ------------------------------------------------------------------
    def find_entry_for_child(self, child_page_id: int) -> TPREntry:
        """Entry pointing at ``child_page_id``.

        Raises:
            KeyError: if no entry references that child.
        """
        index = self.index_of_ref(child_page_id)
        if index is None or self.is_leaf:
            raise KeyError(f"node {self.page_id} has no child {child_page_id}")
        return self.entry_at(index)

    def remove_entry_for_child(self, child_page_id: int) -> TPREntry:
        """Remove and return the entry pointing at ``child_page_id``."""
        entry = self.find_entry_for_child(child_page_id)
        self.remove_at(self.index_of_ref(child_page_id))
        return entry
