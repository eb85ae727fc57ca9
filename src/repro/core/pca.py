"""Principal components analysis of 2-D velocity points (Section 2.2).

PCA here serves a single purpose: given a cluster of velocity points, find
the axis through the origin of velocity space along which the points exhibit
the most variance — that axis is the cluster's dominant velocity axis.

Following the paper's geometric interpretation (a DVA is an *axis*, i.e. a
line through the origin of the velocity space, not through the data mean),
the components are computed from the second-moment matrix about the origin
by default; centering about the mean is available for the generic use of
PCA.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.vector import Vector


def principal_components(
    velocities: Sequence[Vector], center: bool = False
) -> List[Tuple[Vector, float]]:
    """Ranked principal components of a set of velocity points.

    Args:
        velocities: the sample of velocity points.
        center: when True the data is centered about its mean first (classic
            PCA); when False (default) components are computed about the
            origin, which is the right notion for velocity *axes*: a road
            carries traffic in both directions, so its velocity points are
            symmetric about the origin rather than about their mean.

    Returns:
        List of ``(unit_vector, variance)`` pairs sorted by decreasing
        variance.  The vectors are orthonormal.

    Raises:
        ValueError: if fewer than one velocity point is supplied.
    """
    if len(velocities) < 1:
        raise ValueError("PCA requires at least one velocity point")
    data = np.array([[v.vx, v.vy] for v in velocities], dtype=float)
    if center:
        data = data - data.mean(axis=0)
    # Second-moment (scatter) matrix; eigenvectors give the principal axes.
    scatter = data.T @ data / len(velocities)
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    order = np.argsort(eigenvalues)[::-1]
    components: List[Tuple[Vector, float]] = []
    for index in order:
        vec = eigenvectors[:, index]
        components.append((Vector(float(vec[0]), float(vec[1])), float(eigenvalues[index])))
    return components


def first_principal_component(
    velocities: Sequence[Vector], center: bool = False
) -> Vector:
    """The first principal component (the candidate DVA) of ``velocities``.

    Degenerate inputs (a single point at the origin, or all points at the
    origin) fall back to the x-axis, which keeps the clustering loop of
    Algorithm 2 well defined.
    """
    components = principal_components(velocities, center=center)
    first, variance = components[0]
    if variance <= 0.0 or first.magnitude == 0.0:
        return Vector(1.0, 0.0)
    return first.normalized()
