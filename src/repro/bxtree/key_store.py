"""Pluggable key-store backends for the Bx-tree.

The Bx-tree reduces every update and query to operations on 1-D
space-filling-curve keys, so the structure that stores those keys is an
interchangeable backend.  :class:`KeyStore` spells out the contract the
Bx-tree programs against — exactly the surface it historically consumed
from :class:`~repro.btree.bplus_tree.BPlusTree` — and two backends
implement it:

``"btree"``
    :class:`~repro.btree.store.BTreeKeyStore`, the paged B+-tree.  The
    default, and the paper's I/O-model reference: buffer-managed pages,
    root-to-leaf descents, leaf-chain scans, measurable I/O counts.

``"flat"``
    :class:`FlatKeyStore`, a fully vectorized sorted-array engine: one
    sorted ``int64`` key array aligned with an ``int64`` slot array over
    a slab of payloads and motion records, ``np.searchsorted`` lookups,
    and batch application that writes only the edited slab rows.  No
    pages, no per-node Python loop, no derived copy — and answers pinned
    **bit-identical** to the B+-tree backend (same ids, same float
    distances, same result order, duplicate keys kept in the same
    insertion order).

Backends are selected with :func:`make_key_store`, mirroring the
``make_executor`` idiom of the serving layer (``None`` | name); see
``docs/backends.md`` for the contract table and guidance.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.btree.store import BTreeKeyStore
from repro.objects.knn import MOTION, motion_rows
from repro.storage.buffer_manager import BufferManager


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-D object array of ``values``, never unpacking sequence payloads."""
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class KeyStore(Protocol):
    """The contract a Bx key-store backend must satisfy.

    Keys are Python ints (curve codes offset by the partition prefix);
    values are opaque payloads — the Bx-tree stores
    :class:`~repro.objects.moving_object.MovingObject` snapshots, the
    test suites also use plain ints.  Duplicate keys are allowed and
    must preserve **insertion order** among equal keys; ``apply_batch``'s
    deletions and upserts act on the *leftmost* value-equal entry of a
    duplicate run.  Mutations come in batches only: a single one is a
    batch of one.  All query results are ``(key, value)`` pairs in key order with
    keys returned as Python ints.
    """

    #: Registry name of the backend ("btree", "flat", ...).
    name: str
    #: Buffer manager surface (I/O stats, batch hints).  Backends that do
    #: no paged I/O still carry the attribute so the stats plumbing is
    #: uniform; their counters simply stay at zero.
    buffer: BufferManager

    @property
    def size(self) -> int: ...

    def __len__(self) -> int: ...

    def bulk_load(self, items: Iterable[Tuple[int, Any]]) -> None:
        """Build from ``(key, value)`` pairs (stable-sorted); store must be empty."""
        ...

    def apply_batch(
        self,
        deletes: Sequence[Tuple[int, Any]] = (),
        inserts: Sequence[Tuple[int, Any]] = (),
        upserts: Sequence[Tuple[int, Any, Any]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """One key-ordered sweep; flags aligned with ``deletes``/``upserts``."""
        ...

    def range_search(self, low: int, high: int) -> List[Tuple[int, Any]]: ...

    def range_search_batch(self, ranges: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, Any]]]:
        """Per range, its ``(key, value)`` pairs in key order; the whole batch in one call."""
        ...

    def knn_candidates_batch(
        self, ranges: Sequence[Tuple[int, int]], ids_only: bool = False
    ) -> List[np.ndarray]:
        """Per-range candidates: ``MOTION`` rows, or ``int64`` oids with ``ids_only``."""
        ...

    def items(self) -> Iterator[Tuple[int, Any]]: ...


class FlatKeyStore:
    """Vectorized sorted-array key-store backend over a slot-indexed slab.

    Layout: a sorted ``np.int64`` key array aligned with an ``np.int64``
    slot array; ``_slots[i]`` names entry ``i``'s row in a slab holding
    the payload object array (the authoritative store) and one
    structured :data:`MOTION` array (oid/x/y/vx/vy/t) that feeds the kNN
    candidate extraction without touching the payload objects.  Records
    never move: a mutation writes the edited rows in place and shifts
    only the two integer arrays, so the motion array is always current.
    Released rows go to a free list and are reused before the slab
    doubles — every slab row is either named by exactly one live slot or
    on the free list.  The motion array is dropped (``None``) for the
    store's lifetime once a payload without motion attributes is
    written; candidates are then read by attribute access per call.

    Everything is driven by ``np.searchsorted``: every batch, mutation or
    range scan, takes **one** vectorized bisection pair.  ``apply_batch``
    resolves the whole batch against a frozen snapshot of the arrays
    (deletes/replacements recorded positionally, insertions accumulated
    as a pending run) and then commits with O(batch) slab writes, one
    ``np.delete`` and one merged ``np.insert`` — semantically identical
    to the B+-tree's sequential key-ordered sweep, including flag values,
    duplicate-run ordering and upsert-miss degradation.

    The store keeps a :class:`BufferManager` reference purely for the
    uniform stats surface; it performs no paged I/O, so its I/O counters
    stay at zero — that difference *is* the backend's value proposition.
    """

    name = "flat"

    def __init__(
        self,
        buffer: Optional[BufferManager] = None,
        page_size: Optional[int] = None,
    ) -> None:
        del page_size  # no pages; accepted for factory-signature parity
        self.buffer = buffer if buffer is not None else BufferManager()
        self._keys = np.empty(0, dtype=np.int64)
        self._slots = np.empty(0, dtype=np.int64)
        self._payload = np.empty(0, dtype=object)
        #: Motion rows aligned with ``_payload``; ``None`` = payloads are
        #: not motion records (fall back to attribute access per call).
        self._motion: Optional[np.ndarray] = np.zeros(0, dtype=MOTION)
        self._free: List[int] = []

    # -- sizes ---------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    # -- updates -------------------------------------------------------
    def bulk_load(self, items: Iterable[Tuple[int, Any]]) -> None:
        if len(self._keys):
            raise ValueError("bulk_load requires an empty store")
        pairs = sorted(items, key=lambda pair: pair[0])  # stable: ties keep order
        if not pairs:
            return
        self._keys = np.fromiter((k for k, _ in pairs), np.int64, len(pairs))
        self._slots = np.asarray(self._acquire(len(pairs)), dtype=np.int64)
        self._write(self._slots, [v for _, v in pairs])

    def apply_batch(
        self,
        deletes: Sequence[Tuple[int, Any]] = (),
        inserts: Sequence[Tuple[int, Any]] = (),
        upserts: Sequence[Tuple[int, Any, Any]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        """Apply a mixed batch in one merged pass.

        Work items are ordered exactly as the B+-tree orders them —
        ``(key, kind, arrival)`` with deletes before upserts before
        inserts of the same key — and resolved against a frozen snapshot
        of the arrays: a delete marks the leftmost surviving value-equal
        position; an upsert rewrites a marked position (or an earlier
        upsert-miss's pending entry) in place, degrading to an insertion
        of its new value when no match survives; inserts accumulate as a
        pending key-ordered run.  The commit touches O(batch) slab rows:
        replacements are written into their own slots, removed slots are
        released (and recycled by the same batch's insertions), and the
        key/slot arrays take one ``np.delete`` and one merged
        ``np.insert`` whose ``side="right"`` positions land every
        pending entry after the surviving duplicates of its key, in
        arrival order — the ``bisect_right`` placement of the B+-tree.
        """
        n_del, n_ups, n_ins = len(deletes), len(upserts), len(inserts)
        delete_flags = [False] * n_del
        upsert_flags = [False] * n_ups
        if n_del + n_ups + n_ins == 0:
            return delete_flags, upsert_flags
        work = sorted(
            [(key, 0, i) for i, (key, _) in enumerate(deletes)]
            + [(key, 1, i) for i, (key, _, _) in enumerate(upserts)]
            + [(key, 2, i) for i, (key, _) in enumerate(inserts)]
        )
        keys = self._keys
        slots = self._slots
        payload = self._payload
        # One vectorized bisection pair for every lookup in the batch.
        work_keys = np.fromiter((key for key, _, _ in work), np.int64, len(work))
        work_lo = np.searchsorted(keys, work_keys, side="left").tolist()
        work_hi = np.searchsorted(keys, work_keys, side="right").tolist()
        removed: set = set()
        replaced: Dict[int, Any] = {}
        pending_keys: List[int] = []  # non-decreasing: work is key-sorted
        pending_values: List[Any] = []
        pending_by_key: Dict[int, List[int]] = {}

        def find(key: int, target: Any, lo: int, hi: int):
            for pos in range(lo, hi):
                if pos in removed:
                    continue
                current = replaced[pos] if pos in replaced else payload[slots[pos]]
                if current == target:
                    return pos, -1
            for j in pending_by_key.get(key, ()):
                if pending_values[j] == target:
                    return -1, j
            return -1, -1

        def push(key: int, value: Any) -> None:
            pending_by_key.setdefault(key, []).append(len(pending_keys))
            pending_keys.append(key)
            pending_values.append(value)

        for w, (key, kind, i) in enumerate(work):
            if kind == 0:  # delete: leftmost surviving value-equal entry
                pos, _ = find(key, deletes[i][1], work_lo[w], work_hi[w])
                if pos >= 0:
                    removed.add(pos)
                    delete_flags[i] = True
            elif kind == 1:  # upsert: replace in place, else degrade to insert
                _, old_value, new_value = upserts[i]
                pos, j = find(key, old_value, work_lo[w], work_hi[w])
                if pos >= 0:
                    replaced[pos] = new_value
                    upsert_flags[i] = True
                elif j >= 0:
                    pending_values[j] = new_value
                    upsert_flags[i] = True
                else:
                    push(key, new_value)
            else:  # insert: after surviving duplicates, in arrival order
                push(key, inserts[i][1])

        # Commit: replacements in their slots, removed slots released,
        # pending rows written, one delete + one merged insert on the ints.
        if replaced:
            self._write(slots[list(replaced)], list(replaced.values()))
        if removed:
            gone = list(removed)
            self._release(slots[gone])
            keys = np.delete(keys, gone)
            slots = np.delete(slots, gone)
        if pending_keys:
            run = np.asarray(pending_keys, dtype=np.int64)
            positions = np.searchsorted(keys, run, side="right")
            fresh = self._acquire(len(run))
            self._write(fresh, pending_values)
            keys = np.insert(keys, positions, run)
            slots = np.insert(slots, positions, fresh)
        self._keys = keys
        self._slots = slots
        return delete_flags, upsert_flags

    # -- queries -------------------------------------------------------
    def range_search(self, low: int, high: int) -> List[Tuple[int, Any]]:
        lo = int(np.searchsorted(self._keys, low, side="left"))
        hi = int(np.searchsorted(self._keys, high, side="right"))
        if hi <= lo:
            return []
        values = self._payload[self._slots[lo:hi]]
        return list(zip(self._keys[lo:hi].tolist(), values.tolist()))

    def range_search_batch(self, ranges: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, Any]]]:
        if not ranges:
            return []
        lo_idx, hi_idx = self._bounds(ranges)
        keys, slots, payload = self._keys, self._slots, self._payload
        return [
            list(zip(keys[lo:hi].tolist(), payload[slots[lo:hi]].tolist())) if hi > lo else []
            for lo, hi in zip(lo_idx, hi_idx)
        ]

    def knn_candidates_batch(
        self, ranges: Sequence[Tuple[int, int]], ids_only: bool = False
    ) -> List[np.ndarray]:
        if not ranges:
            return []
        lo_idx, hi_idx = self._bounds(ranges)
        slots, rows = self._slots, self._motion
        if rows is None:  # opaque payloads: read the attributes per call
            payload = self._payload
            found = [motion_rows(payload[slots[lo:hi]]) for lo, hi in zip(lo_idx, hi_idx)]
            return [rows["oid"] for rows in found] if ids_only else found
        column = rows["oid"] if ids_only else rows
        return [column[slots[lo:hi]] for lo, hi in zip(lo_idx, hi_idx)]

    def items(self) -> Iterator[Tuple[int, Any]]:
        return zip(self._keys.tolist(), self._payload[self._slots].tolist())

    # -- internals -----------------------------------------------------
    def _bounds(self, ranges: Sequence[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
        """Slice bounds for every range from one vectorized bisection pair."""
        n = len(ranges)
        lows = np.fromiter((r[0] for r in ranges), np.int64, n)
        highs = np.fromiter((r[1] for r in ranges), np.int64, n)
        lo_idx = np.searchsorted(self._keys, lows, side="left").tolist()
        hi_idx = np.searchsorted(self._keys, highs, side="right").tolist()
        return lo_idx, hi_idx

    def _acquire(self, n: int) -> List[int]:
        """Take ``n`` slab rows off the free list, doubling the slab if short."""
        free = self._free
        if len(free) < n:
            old = len(self._payload)
            new = max(2 * old, old + n - len(free))
            payload = np.empty(new, dtype=object)
            payload[:old] = self._payload
            self._payload = payload
            if self._motion is not None:
                motion = np.zeros(new, dtype=MOTION)
                motion[:old] = self._motion
                self._motion = motion
            free.extend(range(old, new))
        taken = free[len(free) - n :]
        del free[len(free) - n :]
        return taken

    def _release(self, slots: np.ndarray) -> None:
        """Return slab rows to the free list, dropping their payload references."""
        self._payload[slots] = None
        self._free.extend(slots.tolist())

    def _write(self, slots: Sequence[int], values: List[Any]) -> None:
        """Store ``values`` (and their motion rows) in slab rows ``slots``."""
        self._payload[slots] = _object_array(values)
        if self._motion is not None:
            try:
                self._motion[slots] = motion_rows(values)
            except AttributeError:
                self._motion = None


#: Registered key-store backends, by name.
KEY_STORES = {
    "btree": BTreeKeyStore,
    "flat": FlatKeyStore,
}


def make_key_store(
    spec: Optional[str] = None,
    buffer: Optional[BufferManager] = None,
    page_size: Optional[int] = None,
) -> KeyStore:
    """Build the key store a spec names: ``None`` (the paged B+-tree) or a backend name.

    A string must be one of :data:`KEY_STORES`.  A name and nothing else:
    every tree builds its own store, so there is no instance to hand over.
    """
    if spec is None:
        spec = "btree"
    if not isinstance(spec, str):
        raise TypeError(f"key_store must be None or a backend name (got {type(spec).__name__})")
    if spec not in KEY_STORES:
        raise ValueError(f"unknown key store {spec!r} (choose from {sorted(KEY_STORES)})")
    return KEY_STORES[spec](buffer=buffer, page_size=page_size)


__all__ = [
    "KEY_STORES",
    "BTreeKeyStore",
    "FlatKeyStore",
    "KeyStore",
    "make_key_store",
]
