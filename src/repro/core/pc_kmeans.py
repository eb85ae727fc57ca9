"""Finding dominant velocity axes (Section 5.1, Algorithm 2).

Three approaches are implemented:

* :func:`pca_only_dva` — naive approach I: a single PCA over all velocity
  points.  With more than one DVA in the data this returns an average axis
  that matches none of them (Figure 10a).
* :func:`centroid_kmeans_dvas` — naive approach II: classic k-means on the
  velocity points (distance to centroid) followed by PCA per cluster.  The
  clusters form around centroids rather than axes (Figure 10b).
* :func:`find_dvas` — the paper's approach: k-means where the distance
  measure is the perpendicular distance to each cluster's first principal
  component, so points are grouped by direction of travel (Figure 11).

Algorithm 2 runs over two velocity columns (:func:`velocity_columns`):
every iteration evaluates one ``(k, n)`` matrix of perpendicular distances,
assigns each point to its first closest axis and recomputes each axis with
one PCA over its members' rows.  The arithmetic is element for element
that of :meth:`~repro.geometry.vector.Vector.perpendicular_distance_to_axis`,
so axes, assignments and iteration counts are those of the per-point loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pca import first_principal_component
from repro.geometry.vector import Vector

#: Safety bound on the reassignment loops of both k-means variants.
MAX_ITERATIONS = 50


@dataclass
class PCKMeansResult:
    """Result of a DVA-finding run.

    Attributes:
        axes: one unit axis per partition.
        assignments: for each input velocity point, the index of its partition.
        iterations: number of reassignment iterations performed.
    """

    axes: List[Vector]
    assignments: List[int]
    iterations: int = 0


def velocity_columns(velocities: Sequence[Vector]) -> Tuple[np.ndarray, np.ndarray]:
    """The ``vx`` and ``vy`` columns of a sample of velocity points."""
    n = len(velocities)
    vx = np.fromiter((v.vx for v in velocities), np.float64, n)
    vy = np.fromiter((v.vy for v in velocities), np.float64, n)
    return vx, vy


def perpendicular_distances(vx: np.ndarray, vy: np.ndarray, unit: Vector) -> np.ndarray:
    """Distance of every velocity point to the axis along the unit vector ``unit``.

    ``|v x unit|``: the operations of ``Vector.cross`` in the same order, so
    each element equals ``perpendicular_distance_to_axis`` of that point.
    """
    return np.abs(vx * unit.vy - vy * unit.vx)


def find_dvas(velocities: Sequence[Vector], k: int, seed: Optional[int] = 0) -> PCKMeansResult:
    """Algorithm 2: k-means clustering based on distance to each cluster's 1st PC.

    The sample becomes two velocity columns once; every iteration then
    assigns all points from one ``(k, n)`` distance matrix and recomputes
    each axis with one PCA over its members
    (:func:`find_dvas_in_columns`).

    Args:
        velocities: sample of velocity points (Figure 1b style).
        k: number of DVA partitions (the paper uses 2 for road networks).
        seed: seed of the random initial assignment (``None`` for OS entropy).

    Returns:
        The final partitions' axes and point assignments.

    Raises:
        ValueError: when the sample is smaller than ``k``.
    """
    return find_dvas_in_columns(*velocity_columns(velocities), k, seed)


def find_dvas_in_columns(
    vx: np.ndarray, vy: np.ndarray, k: int, seed: Optional[int] = 0
) -> PCKMeansResult:
    """:func:`find_dvas` over the velocity columns of the sample."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(vx)
    if n < k:
        raise ValueError("need at least k velocity points")
    rng = random.Random(seed)
    # Line 3-4 of Algorithm 2: random initial assignment, but guarantee every
    # partition is non-empty so its first PC is defined.
    initial = [rng.randrange(k) for _ in range(n)]
    for partition in range(k):
        if partition not in initial:
            initial[rng.randrange(n)] = partition
    assignments = np.array(initial, dtype=np.int64)

    axes = _axes_of(vx, vy, assignments, k)
    points = np.arange(n)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        distances = np.stack([perpendicular_distances(vx, vy, a.normalized()) for a in axes])
        best = distances.argmin(axis=0)  # ties go to the lowest axis index
        moved = not np.array_equal(best, assignments)
        assignments = best
        # Guard against a partition emptying out: re-seed it with the point
        # farthest from its current axis assignment (the first one on ties).
        for partition in range(k):
            if not (assignments == partition).any():
                assignments[distances[assignments, points].argmax()] = partition
                moved = True
        axes = _axes_of(vx, vy, assignments, k)
        if not moved:
            break
    return PCKMeansResult(axes=axes, assignments=assignments.tolist(), iterations=iterations)


def pca_only_dva(velocities: Sequence[Vector]) -> PCKMeansResult:
    """Naive approach I: one PCA over all points, a single "average" axis."""
    axis = first_principal_component(np.stack(velocity_columns(velocities), axis=1))
    return PCKMeansResult(axes=[axis], assignments=[0] * len(velocities), iterations=1)


def centroid_kmeans_dvas(velocities: Sequence[Vector], k: int) -> PCKMeansResult:
    """Naive approach II: classic centroid k-means, then PCA per cluster."""
    if len(velocities) < k:
        raise ValueError("need at least k velocity points")
    rng = random.Random(0)
    centroids = [velocities[i] for i in rng.sample(range(len(velocities)), k)]
    assignments = [0] * len(velocities)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = False
        for i, velocity in enumerate(velocities):
            best = min(
                range(k),
                key=lambda p: (velocity.vx - centroids[p].vx) ** 2
                + (velocity.vy - centroids[p].vy) ** 2,
            )
            if best != assignments[i]:
                assignments[i] = best
                moved = True
        for partition in range(k):
            members = [v for v, a in zip(velocities, assignments) if a == partition]
            if members:
                centroids[partition] = Vector(
                    sum(v.vx for v in members) / len(members),
                    sum(v.vy for v in members) / len(members),
                )
        if not moved:
            break
    axes = _axes_of(*velocity_columns(velocities), np.array(assignments), k)
    return PCKMeansResult(axes=axes, assignments=assignments, iterations=iterations)


def _axes_of(vx: np.ndarray, vy: np.ndarray, assignments: np.ndarray, k: int) -> List[Vector]:
    """First principal component of every partition (Line 6 of Algorithm 2)."""
    axes: List[Vector] = []
    for partition in range(k):
        members = assignments == partition
        if members.any():
            axes.append(first_principal_component(np.stack((vx[members], vy[members]), axis=1)))
        else:
            axes.append(Vector(1.0, 0.0))
    return axes
