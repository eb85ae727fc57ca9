"""Handling changing velocity distributions (Section 5.5 of the paper).

The paper argues that the *direction* component of a velocity distribution
is stable (roads do not move) but the *speed* component changes over time
(rush hour in, rush hour out).  Speeds do not affect the DVA coordinate
frames, but they do affect the outlier threshold τ, which is derived from
the distribution of perpendicular speeds.  The prescribed remedy is to keep
updating the per-DVA speed histogram as objects are inserted and to
recompute τ periodically — a cheap operation because Equation 10 is simple.

This module implements that remedy:

* :class:`TauMonitor` maintains, per DVA, a bounded reservoir of the
  perpendicular speeds of recently inserted/updated objects; and
* :func:`refresh_taus` recomputes τ for every DVA from the monitor's current
  reservoirs and returns an updated :class:`VelocityPartitioning` (axes
  unchanged, thresholds refreshed), which the index manager can adopt for
  future routing decisions.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.outlier import optimal_tau
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.vector import Vector


class TauMonitor:
    """Reservoir of recent perpendicular speeds per DVA partition.

    Args:
        partitioning: the current partitioning (axes are taken from it).
        reservoir_size: maximum number of speed samples retained per DVA;
            once full, reservoir sampling keeps a uniform sample of the
            stream, so old rush-hour speeds age out as new ones arrive.
    """

    def __init__(
        self,
        partitioning: VelocityPartitioning,
        reservoir_size: int = 2_000,
    ) -> None:
        if reservoir_size < 10:
            raise ValueError("reservoir_size must be at least 10")
        self.partitioning = partitioning
        self.reservoir_size = reservoir_size
        self._rng = random.Random(0)
        self._reservoirs: List[List[float]] = [[] for _ in partitioning.dvas]
        self._seen: List[int] = [0 for _ in partitioning.dvas]

    def observe(self, velocity: Vector) -> None:
        """Record the velocity of an inserted/updated object.

        The observation goes to the DVA whose axis is closest in
        perpendicular distance, regardless of τ — the point is to learn what
        the current speed distribution looks like, including would-be
        outliers.
        """
        best_index = 0
        best_distance = None
        for index, dva in enumerate(self.partitioning.dvas):
            distance = dva.perpendicular_speed(velocity)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_index = index
        self._observe_speed(best_index, best_distance)

    def _observe_speed(self, partition: int, speed: float) -> None:
        reservoir = self._reservoirs[partition]
        self._seen[partition] += 1
        if len(reservoir) < self.reservoir_size:
            reservoir.append(speed)
            return
        # Classic reservoir sampling: replace a random element with
        # probability reservoir_size / seen.
        slot = self._rng.randrange(self._seen[partition])
        if slot < self.reservoir_size:
            reservoir[slot] = speed

    def samples(self, partition: int) -> Sequence[float]:
        """Current perpendicular-speed sample of one DVA partition."""
        return tuple(self._reservoirs[partition])

    def observations(self, partition: int) -> int:
        """Total number of observations routed to one DVA partition."""
        return self._seen[partition]


def refresh_taus(
    monitor: TauMonitor,
    min_samples: int = 50,
) -> VelocityPartitioning:
    """Recompute τ for every DVA from the monitor's current speed samples.

    DVAs whose reservoir has fewer than ``min_samples`` observations keep
    their previous τ (not enough evidence to re-optimize).  The DVA axes are
    never changed — per Section 5.5 the direction component of the
    distribution is assumed stable; rerunning the full velocity analyzer is
    the remedy when that assumption breaks.

    Returns:
        A new :class:`VelocityPartitioning` with refreshed thresholds.
    """
    old = monitor.partitioning
    refreshed = []
    for index, dva in enumerate(old.dvas):
        samples = monitor.samples(index)
        if len(samples) < min_samples:
            refreshed.append(dva)
            continue
        tau = optimal_tau(samples).tau
        refreshed.append(dva.with_tau(tau))
    updated = VelocityPartitioning(
        dvas=refreshed, analysis_time_seconds=old.analysis_time_seconds
    )
    monitor.partitioning = updated
    return updated
