"""Sweeping regions and the TPR cost model of Tao et al.

Section 3.1 of the paper describes the cost model used to estimate the
number of node accesses of a range query on a TPR-tree:

1. a moving node ``N`` and a moving query ``Q`` are combined into a
   *transformed node* ``N'`` whose MBR is grown by half the query extent and
   whose VBR is the relative velocity of the node with respect to the query;
2. ``N`` intersects ``Q`` during ``[0, qT]`` iff ``N'`` covers the (stationary)
   query center at some time in the interval;
3. assuming the query center is uniformly distributed in a unit data space,
   that probability equals the area swept by ``N'`` during the interval; and
4. summing the swept areas of every node gives the expected node accesses
   (Equation 1).

These functions are pure geometry; they are reused by the velocity analyzer
(Section 5.2) and by the analytic comparison of partitioned versus
unpartitioned indexes (Section 4).
"""

from __future__ import annotations

from typing import Iterable

from repro.geometry import kernels
from repro.geometry.moving_rect import MovingRect
from repro.geometry.rect import Rect


def transformed_node(node: MovingRect, query: MovingRect) -> MovingRect:
    """Transformed node ``N'`` of ``node`` with respect to ``query``.

    The MBR of ``N'`` in dimension *i* is ``<N_Ri- - |Q_Ri|/2, N_Ri+ + |Q_Ri|/2>``
    and its VBR is ``<N_Vi- - Q_Vi+, N_Vi+ - Q_Vi->`` (Section 3.1).  Both
    inputs must be expressed at the same reference time.
    """
    if node.reference_time != query.reference_time:
        query = query.projected_to(node.reference_time)
    half_qx = query.rect.width / 2.0
    half_qy = query.rect.height / 2.0
    rect = Rect(
        node.rect.x_min - half_qx,
        node.rect.y_min - half_qy,
        node.rect.x_max + half_qx,
        node.rect.y_max + half_qy,
    )
    return MovingRect(
        rect=rect,
        v_x_min=node.v_x_min - query.v_x_max,
        v_y_min=node.v_y_min - query.v_y_max,
        v_x_max=node.v_x_max - query.v_x_min,
        v_y_max=node.v_y_max - query.v_y_min,
        reference_time=node.reference_time,
    )


def sweeping_area(node: MovingRect, elapsed: float) -> float:
    """Area of the region swept by ``node`` from its reference time to ``+elapsed``.

    For an MBR with extents ``(w, h)`` whose low edges move at ``(v_x_min,
    v_y_min)`` and high edges at ``(v_x_max, v_y_max)``, the swept region
    after time ``t`` is bounded by the union of the start and end rectangles
    plus the parallelogram traced by the moving edges.  We compute it exactly
    as the area of the bounding box of the start and end rectangles minus the
    two empty corner triangles produced by the drift of the center.  For the
    purposes of the cost model (and matching the paper's usage) the swept
    area is measured at a single elapsed time; the *volume* below integrates
    it over the query interval.
    """
    if elapsed < 0.0:
        raise ValueError("elapsed must be non-negative")
    start = node.rect
    end = node.rect_at(node.reference_time + elapsed)
    bbox = start.union(end)
    # Drift of each pair of parallel edges over the interval.
    drift_x = _edge_drift(node.v_x_min, node.v_x_max, elapsed)
    drift_y = _edge_drift(node.v_y_min, node.v_y_max, elapsed)
    # The swept region is the bounding box minus two congruent right
    # triangles with legs equal to the translation components of the motion
    # (the expansion components never leave holes).
    return bbox.area - drift_x * drift_y


def _edge_drift(v_lo: float, v_hi: float, elapsed: float) -> float:
    """Common translation of the two parallel edges over ``elapsed``.

    When both edges move in the same direction, the slower one leaves an
    uncovered triangle at each of two opposite corners of the bounding box;
    the shared (translational) displacement is the smaller absolute
    displacement and only when both have the same sign.
    """
    lo_d = v_lo * elapsed
    hi_d = v_hi * elapsed
    if lo_d >= 0.0 and hi_d >= 0.0:
        return min(lo_d, hi_d)
    if lo_d <= 0.0 and hi_d <= 0.0:
        return min(-lo_d, -hi_d)
    return 0.0


def sweeping_volume(node: MovingRect, query_interval: float, steps: int = 64) -> float:
    """Time-integral of the swept area over ``[0, query_interval]``.

    This is the per-node term of Equation 1 (denoted ``V_{N'}(qT)``) and is
    also the quantity the Section 4 analysis integrates in Equations 4-5.
    The area is a piecewise quadratic function of time, so Simpson's rule
    over a modest number of panels is effectively exact; ``steps`` must be
    even.
    """
    if query_interval < 0.0:
        raise ValueError("query_interval must be non-negative")
    if query_interval == 0.0:
        return 0.0
    if steps % 2 != 0:
        steps += 1
    h = query_interval / steps
    total = sweeping_area(node, 0.0) + sweeping_area(node, query_interval)
    for i in range(1, steps):
        weight = 4.0 if i % 2 == 1 else 2.0
        total += weight * sweeping_area(node, i * h)
    return total * h / 3.0


def sweeping_volume_closed_form(
    width: float,
    height: float,
    v_x_min: float,
    v_y_min: float,
    v_x_max: float,
    v_y_max: float,
    horizon: float,
) -> float:
    """Closed-form time-integral of the swept area over ``[0, horizon]``.

    The swept area is an exact quadratic in ``t`` whose closed-form integral
    lives in :func:`repro.geometry.kernels.sweep_volume` (the hot path of the
    TPR*-tree's insertion cost model); this name is kept as the public,
    documented entry point of the cost model.
    """
    return kernels.sweep_volume(
        width, height, v_x_min, v_y_min, v_x_max, v_y_max, horizon
    )


def expected_node_accesses(
    nodes: Iterable[MovingRect],
    query: MovingRect,
    query_interval: float,
) -> float:
    """Expected number of node accesses of ``query`` (Equation 1).

    Args:
        nodes: moving bounds of every node in the tree.
        query: the moving/expanding range query.
        query_interval: length of the query time interval ``qT``.
    """
    total = 0.0
    for node in nodes:
        n_prime = transformed_node(node, query)
        total += sweeping_volume(n_prime, query_interval)
    if query_interval == 0.0:
        return 0.0
    return total
