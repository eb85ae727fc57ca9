"""Principal components analysis of 2-D velocity points (Section 2.2).

PCA here serves a single purpose: given a cluster of velocity points, find
the axis through the origin of velocity space along which the points exhibit
the most variance — that axis is the cluster's dominant velocity axis.

Following the paper's geometric interpretation (a DVA is an *axis*, i.e. a
line through the origin of the velocity space, not through the data mean),
the components are computed from the second-moment matrix about the origin
by default; centering about the mean is available for the generic use of
PCA.

Both functions take an ``(n, 2)`` float array of velocity points, one row
per point; callers holding ``Vector`` samples build it from
:func:`~repro.core.pc_kmeans.velocity_columns`, and Algorithm 2 hands
them rows of those columns.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.vector import Vector


def principal_components(data: np.ndarray, center: bool = False) -> List[Tuple[Vector, float]]:
    """Ranked principal components of an ``(n, 2)`` array of velocity points.

    Components about the origin are the right notion for velocity *axes*: a
    road carries traffic in both directions, so its velocity points are
    symmetric about the origin rather than about their mean.  ``center``
    gives classic, mean-centered PCA.

    Returns:
        List of ``(unit_vector, variance)`` pairs sorted by decreasing
        variance.  The vectors are orthonormal.

    Raises:
        ValueError: if fewer than one velocity point is supplied.
    """
    if len(data) < 1:
        raise ValueError("PCA requires at least one velocity point")
    if center:
        data = data - data.mean(axis=0)
    # Second-moment (scatter) matrix; eigenvectors give the principal axes.
    scatter = data.T @ data / len(data)
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    order = np.argsort(eigenvalues)[::-1]
    components: List[Tuple[Vector, float]] = []
    for index in order:
        vec = eigenvectors[:, index]
        components.append((Vector(float(vec[0]), float(vec[1])), float(eigenvalues[index])))
    return components


def first_principal_component(data: np.ndarray, center: bool = False) -> Vector:
    """The first principal component (the candidate DVA) of an ``(n, 2)`` array.

    Degenerate inputs (a single point at the origin, or all points at the
    origin) fall back to the x-axis, which keeps the clustering loop of
    Algorithm 2 well defined.
    """
    first, variance = principal_components(data, center=center)[0]
    if variance <= 0.0 or first.magnitude == 0.0:
        return Vector(1.0, 0.0)
    return first.normalized()
