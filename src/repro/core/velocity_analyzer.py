"""The velocity analyzer (Section 5, Algorithm 1).

The velocity analyzer consumes a sample of velocity points from the current
workload and produces a :class:`VelocityPartitioning`: the set of dominant
velocity axes, each with its outlier threshold τ.  The index manager then
uses the partitioning to route insertions, deletions and queries.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.dva import DominantVelocityAxis
from repro.core.outlier import optimal_tau
from repro.core.pc_kmeans import find_dvas_in_columns, perpendicular_distances, velocity_columns
from repro.core.pca import first_principal_component
from repro.geometry.vector import Vector

#: Number of sample velocity points the paper's velocity analyzer uses.
DEFAULT_SAMPLE_SIZE = 10_000


@dataclass(frozen=True)
class VelocityPartitioning:
    """The output of the velocity analyzer.

    Attributes:
        dvas: one :class:`DominantVelocityAxis` (axis + τ) per partition.
        analysis_time_seconds: wall-clock time spent by the analyzer
            (reported in Figure 18 of the paper).
    """

    dvas: List[DominantVelocityAxis]
    analysis_time_seconds: float = 0.0

    @property
    def k(self) -> int:
        """Number of DVA partitions (excluding the outlier partition)."""
        return len(self.dvas)

    def partition_for(self, velocity: Vector) -> Optional[int]:
        """Index of the DVA partition that should host ``velocity``.

        Returns ``None`` when the velocity is farther than τ from every DVA,
        i.e. the object belongs in the outlier partition (Section 5.3).
        """
        best_index = None
        best_distance = None
        for index, dva in enumerate(self.dvas):
            distance = dva.perpendicular_speed(velocity)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_index = index
        if best_index is None:
            return None
        if best_distance <= self.dvas[best_index].tau:
            return best_index
        return None

    def partition_for_arrays(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partition_for` over parallel velocity arrays.

        Takes parallel velocity-component arrays and returns an ``int64``
        partition array where ``-1`` marks the outlier partition (the same
        sentinel the index manager uses).  The perpendicular speed against
        every DVA is evaluated with numpy cross products, the closest axis
        selected per point, and the τ test applied — bit-identical to the
        scalar :meth:`partition_for`.
        """
        n = len(vx)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        distances = np.stack([perpendicular_distances(vx, vy, dva.unit_axis) for dva in self.dvas])
        best = distances.argmin(axis=0)
        best_distance = distances[best, np.arange(n)]
        taus = np.fromiter((dva.tau for dva in self.dvas), np.float64, len(self.dvas))
        inlier = best_distance <= taus[best]
        return np.where(inlier, best, -1).astype(np.int64)


class VelocityAnalyzer:
    """Algorithm 1: find DVAs, choose τ per DVA, refine the DVAs.

    Args:
        k: number of DVA partitions (2 for typical road networks).
        sample_size: maximum number of velocity points analyzed; larger
            samples are uniformly sub-sampled (with a fixed seed, like the
            clustering's random initialization, so experiments are
            reproducible).
    """

    def __init__(self, k: int = 2, sample_size: int = DEFAULT_SAMPLE_SIZE) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.sample_size = sample_size

    def analyze(self, velocities: Sequence[Vector]) -> VelocityPartitioning:
        """Run Algorithm 1 on a sample of velocity points.

        Raises:
            ValueError: if the sample has fewer points than ``k``.
        """
        started = _time.perf_counter()
        vx, vy = velocity_columns(self._subsample(velocities))
        # Line 2: find the DVA partitions with PC-distance k-means.
        clustering = find_dvas_in_columns(vx, vy, self.k)
        assignments = np.asarray(clustering.assignments)

        dvas: List[DominantVelocityAxis] = []
        for partition, axis in enumerate(clustering.axes):
            members = assignments == partition
            if not members.any():
                dvas.append(DominantVelocityAxis(axis=axis, tau=0.0))
                continue
            mvx, mvy = vx[members], vy[members]
            # Line 4: maximum perpendicular distance threshold τ.
            speeds = perpendicular_distances(mvx, mvy, axis.normalized())
            tau = optimal_tau(speeds).tau
            # Line 5: points beyond τ go to the outlier partition;
            # Line 6: recompute the DVA from the points that remain.
            kept = speeds <= tau
            if kept.any():
                refined_axis = first_principal_component(np.stack((mvx[kept], mvy[kept]), axis=1))
            else:
                refined_axis = axis
            dvas.append(DominantVelocityAxis(axis=refined_axis, tau=tau))
        elapsed = _time.perf_counter() - started
        return VelocityPartitioning(dvas=dvas, analysis_time_seconds=elapsed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _subsample(self, velocities: Sequence[Vector]) -> List[Vector]:
        if len(velocities) < self.k:
            raise ValueError("the velocity sample must contain at least k points")
        if len(velocities) <= self.sample_size:
            return list(velocities)
        import random

        rng = random.Random(0)
        return rng.sample(list(velocities), self.sample_size)
