"""Grid-based velocity histogram.

Section 3.2 of the paper: "histograms on a grid base are maintained for the
maximum/minimum velocity of different portions of the data space and the
query window is enlarged according to the maximum/minimum velocity in the
region it covers."  The histogram stores, per grid cell, the extreme
velocity components of the objects whose reference position falls in that
cell.

Exact maintenance of a maximum under deletions would require keeping every
value; like the original implementation, the histogram only grows on insert
and is periodically rebuilt from the live objects (``rebuild``).  An empty
cell holds the sentinels ``+inf`` (minima) and ``-inf`` (maxima), so it
drops out of any min/max reduction and a lookup needs no occupancy mask.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import bulk
from repro.bxtree.grid import Grid
from repro.geometry.point import Point
from repro.geometry.vector import Vector


class VelocityHistogram:
    """Per-cell min/max velocity components over a uniform grid."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        shape = (grid.cells_x, grid.cells_y)
        #: Rows ``min_vx, min_vy, max_vx, max_vy``: one array, so a lookup
        #: reduces the two minima and the two maxima in one call each.
        self._extrema = np.empty((4,) + shape)
        self._forget(slice(None), slice(None))
        self._count = np.zeros(shape, dtype=np.int64)
        #: Monotone change counter; bumped by every mutation so derived
        #: values (the global extrema below) can be cached safely.
        self._version = 0
        self._global_extrema_cache: Optional[Tuple[int, Tuple[float, float, float, float]]] = None

    def _forget(self, cx, cy) -> None:
        """Put the sentinels of an empty cell (or index arrays of cells) back."""
        self._extrema[:2, cx, cy] = np.inf
        self._extrema[2:, cx, cy] = -np.inf

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, position: Point, velocity: Vector) -> None:
        """Record an object's velocity in the cell of its position."""
        self._version += 1
        self._add(position.x, position.y, velocity.vx, velocity.vy)

    def _add(self, x: float, y: float, vx: float, vy: float) -> None:
        cx, cy = self.grid.cell_at(x, y)
        # An empty cell holds the sentinels, so its first object resets it.
        lo_vx, lo_vy, hi_vx, hi_vy = self._extrema[:, cx, cy].tolist()
        self._extrema[:, cx, cy] = (min(lo_vx, vx), min(lo_vy, vy), max(hi_vx, vx), max(hi_vy, vy))
        self._count[cx, cy] += 1

    def remove(self, position: Point) -> None:
        """Note the departure of an object (its cell forgets its extrema when it empties)."""
        self._version += 1
        self._remove(position.x, position.y)

    def _remove(self, x: float, y: float) -> None:
        cx, cy = self.grid.cell_at(x, y)
        if self._count[cx, cy] > 0:
            self._count[cx, cy] -= 1
            if self._count[cx, cy] == 0:
                self._forget(cx, cy)

    def add_batch(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        vxs: Sequence[float],
        vys: Sequence[float],
    ) -> None:
        """:meth:`add` over parallel position/velocity columns (lists or arrays).

        Below :data:`~repro.bulk.MIN_VECTOR_BATCH` objects the columns are
        added one by one; larger batches take one numpy pass, in which a
        cell that is empty when the batch arrives takes its extrema from
        the batch alone (its sentinels lose every comparison) and occupied
        cells union the new velocities in.  Both leave the same arrays.
        """
        if len(xs) < bulk.MIN_VECTOR_BATCH:
            for x, y, vx, vy in zip(xs, ys, vxs, vys):
                self._add(x, y, vx, vy)
        else:
            cells = self.grid.cells_of_arrays(np.asarray(xs), np.asarray(ys))
            np.minimum.at(self._extrema[0], cells, vxs)
            np.minimum.at(self._extrema[1], cells, vys)
            np.maximum.at(self._extrema[2], cells, vxs)
            np.maximum.at(self._extrema[3], cells, vys)
            np.add.at(self._count, cells, 1)
        self._version += 1

    def remove_batch(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        """:meth:`remove` over parallel position columns (counts never drop below zero).

        Below :data:`~repro.bulk.MIN_VECTOR_BATCH` positions they are removed
        one by one; larger batches subtract in one numpy pass and clamp only
        the cells they touched.  Both leave the same arrays.
        """
        if len(xs) < bulk.MIN_VECTOR_BATCH:
            for x, y in zip(xs, ys):
                self._remove(x, y)
        else:
            cx, cy = self.grid.cells_of_arrays(np.asarray(xs), np.asarray(ys))
            np.subtract.at(self._count, (cx, cy), 1)
            counts = np.maximum(self._count[cx, cy], 0)
            self._count[cx, cy] = counts
            emptied = counts == 0
            self._forget(cx[emptied], cy[emptied])
        self._version += 1

    def rebuild(self, entries: Iterable[Tuple[Point, Vector]]) -> None:
        """Recompute the histogram from scratch from the live objects."""
        self._version += 1
        self._forget(slice(None), slice(None))
        self._count.fill(0)
        for position, velocity in entries:
            self.add(position, velocity)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def extrema_in(
        self, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> Tuple[float, float, float, float]:
        """``(min_vx, min_vy, max_vx, max_vy)`` over the cells a rectangle covers.

        The rectangle is given by its bounds.  Empty cells hold sentinels
        and drop out of the reductions (they cannot send objects into the
        window).  If no covered cell has any objects, all extrema are zero
        and the query window is not enlarged.
        """
        lo_x, lo_y, hi_x, hi_y = self.grid.cell_span(x_min, y_min, x_max, y_max)
        minima = self._extrema[:2, lo_x : hi_x + 1, lo_y : hi_y + 1].min(axis=(1, 2))
        if minima[0] == np.inf:
            return (0.0, 0.0, 0.0, 0.0)
        maxima = self._extrema[2:, lo_x : hi_x + 1, lo_y : hi_y + 1].max(axis=(1, 2))
        min_vx, min_vy = minima.tolist()
        max_vx, max_vy = maxima.tolist()
        return (min_vx, min_vy, max_vx, max_vy)

    def global_extrema(self) -> Tuple[float, float, float, float]:
        """Extrema over the whole data space.

        Cached per histogram version: query enlargement reads the global
        extrema once per partition per query, so between updates this turns
        a full-grid masked reduction into a tuple lookup.
        """
        cached = self._global_extrema_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        extrema = self.extrema_in(*self.grid.space.as_tuple())
        self._global_extrema_cache = (self._version, extrema)
        return extrema

    @property
    def total_objects(self) -> int:
        return int(self._count.sum())
