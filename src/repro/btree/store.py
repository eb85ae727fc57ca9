"""The B+-tree key-store backend (the paper's I/O-model reference).

:class:`BTreeKeyStore` wraps :class:`~repro.btree.bplus_tree.BPlusTree`
behind the :class:`~repro.bxtree.key_store.KeyStore` surface the Bx-tree
programs against.  It is a thin adapter: every method forwards to the
paged tree unchanged, so the backend preserves the paper's cost model —
buffer-managed pages, root-to-leaf descents, leaf-chain range scans —
and remains the default.  The flat vectorized backend
(:class:`~repro.bxtree.key_store.FlatKeyStore`) is pinned bit-identical
to this one; see ``docs/backends.md``.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import attrgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.btree.bplus_tree import BPlusTree
from repro.objects.knn import motion_rows
from repro.storage.buffer_manager import BufferManager

_OID = attrgetter("oid")


class BTreeKeyStore:
    """Key-store backend over the paged B+-tree (default backend)."""

    name = "btree"

    def __init__(
        self, buffer: Optional[BufferManager] = None, page_size: Optional[int] = None
    ) -> None:
        self.tree = BPlusTree(buffer=buffer, page_size=page_size)
        self.buffer = self.tree.buffer

    # -- sizes ---------------------------------------------------------
    @property
    def size(self) -> int:
        return self.tree.size

    def __len__(self) -> int:
        return len(self.tree)

    # -- updates -------------------------------------------------------
    def bulk_load(self, items: Iterable[Tuple[int, Any]]) -> None:
        self.tree.bulk_load(items)

    def apply_batch(
        self,
        deletes: Sequence[Tuple[int, Any]] = (),
        inserts: Sequence[Tuple[int, Any]] = (),
        upserts: Sequence[Tuple[int, Any, Any]] = (),
    ) -> Tuple[List[bool], List[bool]]:
        return self.tree.apply_batch(deletes, inserts, upserts)

    # -- queries -------------------------------------------------------
    def range_search(self, low: int, high: int) -> List[Tuple[int, Any]]:
        return self.tree.range_search(low, high)

    def range_search_batch(self, ranges: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, Any]]]:
        return self.tree.range_search_batch(ranges)

    def knn_candidates_batch(
        self, ranges: Sequence[Tuple[int, int]], ids_only: bool = False
    ) -> List[np.ndarray]:
        """Per-range candidates: ``MOTION`` rows, or ``int64`` oids with ``ids_only``.

        One values-only leaf sweep and one array for the whole batch, cut
        into per-range slices.
        """
        scans = self.tree.range_values_batch(ranges)
        stops = list(accumulate(map(len, scans)))
        values = chain.from_iterable(scans)
        if ids_only:
            flat = np.fromiter(map(_OID, values), np.int64)
        else:
            flat = motion_rows(values)
        return [flat[start:stop] for start, stop in zip([0] + stops, stops)]

    def items(self) -> Iterator[Tuple[int, Any]]:
        return self.tree.items()


__all__ = ["BTreeKeyStore"]
