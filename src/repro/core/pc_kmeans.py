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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

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

    def partition_members(self, velocities: Sequence[Vector]) -> List[List[Vector]]:
        """Group the input velocity points by their assigned partition."""
        groups: List[List[Vector]] = [[] for _ in self.axes]
        for velocity, assignment in zip(velocities, self.assignments):
            groups[assignment].append(velocity)
        return groups


def find_dvas(velocities: Sequence[Vector], k: int, seed: Optional[int] = 0) -> PCKMeansResult:
    """Algorithm 2: k-means clustering based on distance to each cluster's 1st PC.

    Args:
        velocities: sample of velocity points (Figure 1b style).
        k: number of DVA partitions (the paper uses 2 for road networks).
        seed: seed of the random initial assignment (``None`` for OS entropy).

    Returns:
        The final partitions' axes and point assignments.

    Raises:
        ValueError: when the sample is smaller than ``k``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(velocities) < k:
        raise ValueError("need at least k velocity points")
    rng = random.Random(seed)
    # Line 3-4 of Algorithm 2: random initial assignment, but guarantee every
    # partition is non-empty so its first PC is defined.
    assignments = [rng.randrange(k) for _ in velocities]
    for partition in range(k):
        if partition not in assignments:
            assignments[rng.randrange(len(assignments))] = partition

    axes = _axes_of(velocities, assignments, k)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = False
        new_assignments = []
        for velocity, current in zip(velocities, assignments):
            best = min(
                range(k),
                key=lambda p: velocity.perpendicular_distance_to_axis(axes[p]),
            )
            new_assignments.append(best)
            if best != current:
                moved = True
        assignments = new_assignments
        # Guard against a partition emptying out: re-seed it with the point
        # farthest from its current axis assignment.
        for partition in range(k):
            if partition not in assignments:
                farthest = max(
                    range(len(velocities)),
                    key=lambda i: velocities[i].perpendicular_distance_to_axis(
                        axes[assignments[i]]
                    ),
                )
                assignments[farthest] = partition
                moved = True
        axes = _axes_of(velocities, assignments, k)
        if not moved:
            break
    return PCKMeansResult(axes=axes, assignments=assignments, iterations=iterations)


def pca_only_dva(velocities: Sequence[Vector]) -> PCKMeansResult:
    """Naive approach I: one PCA over all points, a single "average" axis."""
    axis = first_principal_component(velocities)
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
    axes = _axes_of(velocities, assignments, k)
    return PCKMeansResult(axes=axes, assignments=assignments, iterations=iterations)


def _axes_of(velocities: Sequence[Vector], assignments: Sequence[int], k: int) -> List[Vector]:
    """First principal component of every partition (Line 6 of Algorithm 2)."""
    axes: List[Vector] = []
    for partition in range(k):
        members = [v for v, a in zip(velocities, assignments) if a == partition]
        if members:
            axes.append(first_principal_component(members))
        else:
            axes.append(Vector(1.0, 0.0))
    return axes
