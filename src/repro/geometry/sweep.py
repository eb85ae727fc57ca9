"""Sweeping regions of the TPR cost model of Tao et al. (reference form).

Section 3.1 of the paper estimates the node accesses of a TPR-tree range
query (Equation 1) by summing, over every node, the time-integral of the
area its bound sweeps during the query interval.  The functions here
compute that swept area and its integral on :class:`MovingRect` objects,
by geometry and Simpson's rule.  The index code uses the closed-form
kernel :func:`repro.geometry.kernels.sweep_volume` instead; these are the
reference it is tested against.
"""

from __future__ import annotations

from repro.geometry.moving_rect import MovingRect


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
