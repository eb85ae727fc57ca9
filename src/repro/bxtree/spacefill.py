"""Space-filling curves: Hilbert and Z-order (Morton).

The Bx-tree maps 2-D grid cells to 1-D keys with a space-filling curve so
that spatial proximity is approximately preserved.  The paper's experiments
use the Hilbert curve; the Z-curve is provided as the alternative the
original Bx-tree paper also supports (and is used in one ablation bench).

Two encoding surfaces are exposed.  ``encode``/``decode`` are the scalar
object API; ``encode_many`` is the batch kernel over whole integer arrays
of cell coordinates.  Behind it sits one memoized cell → index table per
curve class and order (``index_table``), built once with vectorized numpy
arithmetic (branchless rotate/flip for the Hilbert case): a batch encode
is one gather from it, and decomposing a query window into curve ranges
is one slice of it.  Both surfaces produce bit-identical indexes; use the
scalar API for single cells and validated call sites, the batch kernel
inside hot loops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np


class SpaceFillingCurve(ABC):
    """Bijection between grid cells ``(cx, cy)`` and curve indexes.

    Args:
        order: number of bits per dimension; the grid is ``2^order`` cells on
            a side and curve indexes span ``[0, 4^order)``.
    """

    def __init__(self, order: int) -> None:
        if order < 1 or order > 31:
            raise ValueError("order must be between 1 and 31")
        self.order = order
        self.cells_per_side = 1 << order

    @abstractmethod
    def encode(self, cx: int, cy: int) -> int:
        """Curve index of grid cell ``(cx, cy)``."""

    @abstractmethod
    def decode(self, index: int) -> Tuple[int, int]:
        """Grid cell of curve index ``index``."""

    @abstractmethod
    def _encode_arrays(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over in-grid integer arrays (unchecked)."""

    def encode_many(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Curve indexes of whole arrays of grid cells (vectorized).

        Args:
            cx, cy: integer arrays of equal length.

        Returns:
            An ``int64`` array of curve indexes, bit-identical to calling
            :meth:`encode` element by element.

        Raises:
            ValueError: if any cell lies outside the grid, or the curve's
                order has no :meth:`index_table`.
        """
        self._check_cells(cx, cy)
        return self.index_table()[cx, cy]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _check_cell(self, cx: int, cy: int) -> None:
        if not (0 <= cx < self.cells_per_side and 0 <= cy < self.cells_per_side):
            raise ValueError(f"cell ({cx}, {cy}) outside the {self.cells_per_side}^2 grid")

    def _check_cells(self, cx: np.ndarray, cy: np.ndarray) -> None:
        side = self.cells_per_side
        if cx.shape != cy.shape:
            raise ValueError("cx and cy must have the same shape")
        if cx.size and (
            int(cx.min()) < 0 or int(cy.min()) < 0 or int(cx.max()) >= side or int(cy.max()) >= side
        ):
            raise ValueError(f"cells outside the {side}^2 grid")

    @property
    def max_index(self) -> int:
        return self.cells_per_side * self.cells_per_side - 1

    @staticmethod
    def ranges_from_sorted_indexes(
        indexes: np.ndarray, merge_gap: int = 0
    ) -> List[Tuple[int, int]]:
        """Merge a sorted index array into sorted inclusive ranges.

        This is how a rectangular (enlarged) query window becomes a set of
        B+-tree range scans.  Consecutive indexes always collapse into one
        range; ``merge_gap`` additionally merges ranges separated by at most
        that many curve positions, trading a short extra leaf scan for one
        fewer root-to-leaf descent (the standard "jump" optimization of
        Bx-tree query processing).  Up to :data:`_LOOP_MERGE_MAX` indexes
        are merged by a plain loop, longer arrays by one vectorized gap
        comparison; both give the same ranges.
        """
        if merge_gap < 0:
            raise ValueError("merge_gap must be non-negative")
        if indexes.size == 0:
            return []
        step = merge_gap + 1
        if indexes.size <= _LOOP_MERGE_MAX:
            values = indexes.tolist()
            ranges = []
            lo = hi = values[0]
            for value in values[1:]:
                if value - hi > step:
                    ranges.append((lo, hi))
                    lo = value
                hi = value
            ranges.append((lo, hi))
            return ranges
        breaks = np.flatnonzero(np.diff(indexes) > step)
        starts = indexes[np.concatenate(([0], breaks + 1))]
        ends = indexes[np.concatenate((breaks, [indexes.size - 1]))]
        return list(zip(starts.tolist(), ends.tolist()))

    def index_table(self) -> np.ndarray:
        """The read-only cell → index table, ``table[cx, cy] == encode(cx, cy)``.

        Memoized once per process for each curve class and order: the trees
        of every DVA partition share it, and pickling a tree never copies it.

        Raises:
            ValueError: if ``order`` exceeds :data:`MAX_ENCODE_TABLE_ORDER`.
        """
        key = (type(self), self.order)
        table = _INDEX_TABLES.get(key)
        if table is None:
            if self.order > MAX_ENCODE_TABLE_ORDER:
                raise ValueError(f"no index table above order {MAX_ENCODE_TABLE_ORDER}")
            side = self.cells_per_side
            cx, cy = np.divmod(np.arange(side * side, dtype=np.int64), side)
            table = self._encode_arrays(cx, cy).reshape(side, side)
            table.flags.writeable = False
            _INDEX_TABLES[key] = table
        return table


class ZCurve(SpaceFillingCurve):
    """Morton (Z-order) curve: bit interleaving of the cell coordinates."""

    def encode(self, cx: int, cy: int) -> int:
        self._check_cell(cx, cy)
        return _interleave(cx) | (_interleave(cy) << 1)

    def decode(self, index: int) -> Tuple[int, int]:
        if not (0 <= index <= self.max_index):
            raise ValueError(f"index {index} outside the curve")
        return _deinterleave(index), _deinterleave(index >> 1)

    def _encode_arrays(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        return _interleave_many(cx.astype(np.int64)) | (_interleave_many(cy.astype(np.int64)) << 1)


#: Largest curve order with a cell → index table (2^(2*order) int64 entries;
#: order 9 costs 2 MB), and so with ``encode_many``.  The table turns a
#: batch encode into one gather and a Bx window's curve indexes into one
#: slice, where the vectorized Hilbert construction pays ~50 numpy
#: dispatches per call.
MAX_ENCODE_TABLE_ORDER = 9

#: The memoized tables, keyed by curve class and order (see ``index_table``).
_INDEX_TABLES: Dict[Tuple[type, int], np.ndarray] = {}

#: Longest sorted index array ``ranges_from_sorted_indexes`` merges with a
#: plain loop.  Measured on a 2-core Xeon VM (Python 3.11, numpy 2.4) with
#: a merge gap of 64, the vectorized merge (diff, flatnonzero, two
#: concatenates, two gathers) against the loop: 12-18 us against 1 us at 12
#: indexes; 12 us against 5 us at 100, the median Bx query window of a
#: seed-42 ``perfbench`` ``replay-bx`` run; 17 us against 15 us at 200;
#: 24 us against 27 us at 400.
_LOOP_MERGE_MAX = 256


class HilbertCurve(SpaceFillingCurve):
    """Hilbert curve via the classic rotate-and-reflect construction."""

    def encode(self, cx: int, cy: int) -> int:
        self._check_cell(cx, cy)
        rx = ry = 0
        d = 0
        x, y = cx, cy
        s = self.cells_per_side // 2
        while s > 0:
            rx = 1 if (x & s) > 0 else 0
            ry = 1 if (y & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            x, y = _hilbert_rotate(s, x, y, rx, ry)
            s //= 2
        return d

    def decode(self, index: int) -> Tuple[int, int]:
        if not (0 <= index <= self.max_index):
            raise ValueError(f"index {index} outside the curve")
        t = index
        x = y = 0
        s = 1
        while s < self.cells_per_side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            x, y = _hilbert_rotate(s, x, y, rx, ry)
            x += s * rx
            y += s * ry
            t //= 4
            s *= 2
        return x, y

    def _encode_arrays(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        x = cx.astype(np.int64, copy=True)
        y = cy.astype(np.int64, copy=True)
        d = np.zeros(x.shape, dtype=np.int64)
        s = self.cells_per_side >> 1
        while s > 0:
            rx = ((x & s) > 0).astype(np.int64)
            ry = ((y & s) > 0).astype(np.int64)
            d += (s * s) * ((3 * rx) ^ ry)
            # Branchless _hilbert_rotate: flip both coordinates in the
            # (rx=1, ry=0) quadrant, then swap whenever ry == 0.
            flip = (ry == 0) & (rx == 1)
            np.subtract(s - 1, x, out=x, where=flip)
            np.subtract(s - 1, y, out=y, where=flip)
            swap = ry == 0
            swapped_x = np.where(swap, y, x)
            np.copyto(y, x, where=swap)
            x = swapped_x
            s >>= 1
        return d


def _hilbert_rotate(s: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip the quadrant as required by the Hilbert construction."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


def _interleave(value: int) -> int:
    """Spread the bits of ``value`` so they occupy even bit positions.

    Constant-time magic-number bit spreading (Hacker's Delight / "Interleave
    bits by Binary Magic Numbers"): each step doubles the gap between
    populated bit groups, so a 32-bit coordinate spreads into its 64-bit
    Morton half in five mask-and-shift rounds instead of one loop iteration
    per set bit.  Supports the full ``order <= 31`` coordinate range.
    """
    value &= 0xFFFFFFFF
    value = (value | (value << 16)) & 0x0000FFFF0000FFFF
    value = (value | (value << 8)) & 0x00FF00FF00FF00FF
    value = (value | (value << 4)) & 0x0F0F0F0F0F0F0F0F
    value = (value | (value << 2)) & 0x3333333333333333
    value = (value | (value << 1)) & 0x5555555555555555
    return value


def _interleave_many(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_interleave` over an ``int64`` array."""
    values = values & 0xFFFFFFFF
    values = (values | (values << 16)) & 0x0000FFFF0000FFFF
    values = (values | (values << 8)) & 0x00FF00FF00FF00FF
    values = (values | (values << 4)) & 0x0F0F0F0F0F0F0F0F
    values = (values | (values << 2)) & 0x3333333333333333
    values = (values | (values << 1)) & 0x5555555555555555
    return values


def _deinterleave(value: int) -> int:
    """Inverse of :func:`_interleave` (collect the even bit positions)."""
    value &= 0x5555555555555555
    value = (value | (value >> 1)) & 0x3333333333333333
    value = (value | (value >> 2)) & 0x0F0F0F0F0F0F0F0F
    value = (value | (value >> 4)) & 0x00FF00FF00FF00FF
    value = (value | (value >> 8)) & 0x0000FFFF0000FFFF
    value = (value | (value >> 16)) & 0x00000000FFFFFFFF
    return value
