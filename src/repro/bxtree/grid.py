"""Uniform grid over a rectangular data space.

The grid converts between continuous coordinates and discrete cell indexes.
It is used by the Bx-tree (cells are mapped to space-filling-curve keys),
by the velocity histogram (cells accumulate velocity extrema) and by
:class:`CountGrid`, the per-cell object counts that seed every kNN probe's
first filter radius (:func:`repro.objects.knn.density_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from repro import bulk
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Grid:
    """A ``cells_x`` x ``cells_y`` uniform grid over ``space``."""

    space: Rect
    cells_x: int
    cells_y: int

    def __post_init__(self) -> None:
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("grid must have at least one cell per dimension")
        if self.space.width <= 0 or self.space.height <= 0:
            raise ValueError("grid space must have positive extent")

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------
    @cached_property
    def cell_width(self) -> float:
        return self.space.width / self.cells_x

    @cached_property
    def cell_height(self) -> float:
        return self.space.height / self.cells_y

    def cell_of(self, point: Point) -> Tuple[int, int]:
        """Cell containing ``point``; points outside the space are clamped."""
        return self.cell_at(point.x, point.y)

    def cell_at(self, x: float, y: float) -> Tuple[int, int]:
        """Cell containing the point ``(x, y)``; points outside the space are clamped."""
        cx = int((x - self.space.x_min) / self.cell_width)
        cy = int((y - self.space.y_min) / self.cell_height)
        cx = min(max(cx, 0), self.cells_x - 1)
        cy = min(max(cy, 0), self.cells_y - 1)
        return cx, cy

    def cells_of_arrays(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_at` over coordinate arrays (clamped)."""
        cx = ((xs - self.space.x_min) / self.cell_width).astype(np.int64)
        cy = ((ys - self.space.y_min) / self.cell_height).astype(np.int64)
        # minimum/maximum instead of np.clip: same result, less per-call
        # overhead (np.clip re-validates its bounds on every invocation).
        np.minimum(cx, self.cells_x - 1, out=cx)
        np.maximum(cx, 0, out=cx)
        np.minimum(cy, self.cells_y - 1, out=cy)
        np.maximum(cy, 0, out=cy)
        return cx, cy

    def cell_span(
        self, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> Tuple[int, int, int, int]:
        """Inclusive cell-index span ``(lo_x, lo_y, hi_x, hi_y)`` covering a rectangle.

        The rectangle is given by its bounds, and each corner's cell is the
        one :meth:`cell_of` returns for it (same arithmetic, same clamping),
        so a query window's hot path builds no ``Point``.
        """
        space, top_x, top_y = self.space, self.cells_x - 1, self.cells_y - 1
        lo_x = int((x_min - space.x_min) / self.cell_width)
        lo_y = int((y_min - space.y_min) / self.cell_height)
        hi_x = int((x_max - space.x_min) / self.cell_width)
        hi_y = int((y_max - space.y_min) / self.cell_height)
        # cell_of's min(max(c, 0), top), with no builtin call for an in-grid cell.
        return (
            lo_x if 0 <= lo_x <= top_x else (0 if lo_x < 0 else top_x),
            lo_y if 0 <= lo_y <= top_y else (0 if lo_y < 0 else top_y),
            hi_x if 0 <= hi_x <= top_x else (0 if hi_x < 0 else top_x),
            hi_y if 0 <= hi_y <= top_y else (0 if hi_y < 0 else top_y),
        )


@dataclass(frozen=True, eq=False)
class CountGrid:
    """Per-cell object counts over a :class:`Grid`: the kNN density.

    ``counts`` is a ``(cells_x, cells_y)`` ``int64`` array, changed in
    place.  The Bx-tree wraps its velocity histogram's counts (label
    positions, already kept by every Bx mutation) in one; the TPR family
    and ``VPIndex`` each keep their own over reference positions.
    """

    grid: Grid
    counts: np.ndarray

    @classmethod
    def over(cls, space: Rect, cells: int) -> "CountGrid":
        """An empty ``cells`` x ``cells`` count grid over ``space``."""
        return cls(Grid(space, cells, cells), np.zeros((cells, cells), dtype=np.int64))

    def add(self, xs: Sequence[float], ys: Sequence[float], delta: int) -> None:
        """Add ``delta`` to the cell of every point ``(xs[i], ys[i])`` (clamped).

        ``delta`` is 1 for objects arriving and -1 for objects leaving.
        Below :data:`~repro.bulk.MIN_VECTOR_BATCH` points each cell comes
        from :meth:`Grid.cell_at`, larger batches take their cells in one
        numpy pass; both leave the same counts.  The increments are a
        Python loop in both: ``np.add.at`` (like ``np.bincount`` or a sort)
        releases the GIL even on a handful of cells, and an updater thread
        that drops and retakes the GIL every batch wins every retake, so
        threads waiting for it (epoch-pinned readers, or the thread that
        starts them) starve for the whole update stream.
        """
        counts = self.counts.reshape(-1)  # a view: the array is C-contiguous
        cells_y = self.grid.cells_y
        if len(xs) < bulk.MIN_VECTOR_BATCH:
            cell_at = self.grid.cell_at
            for x, y in zip(xs, ys):
                cx, cy = cell_at(x, y)
                counts[cx * cells_y + cy] += delta
        else:
            cx, cy = self.grid.cells_of_arrays(np.asarray(xs), np.asarray(ys))
            for cell in (cx * cells_y + cy).tolist():
                counts[cell] += delta
