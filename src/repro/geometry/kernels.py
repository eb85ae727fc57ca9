"""Allocation-free geometry kernels for the index hot paths.

The object API (:class:`~repro.geometry.Rect`, :class:`~repro.geometry.MovingRect`)
is the right interface for correctness-critical, low-frequency code: it
validates its inputs, reads naturally, and is what tests reason about.  But
the TPR-tree family evaluates its cost metrics thousands of times per
insertion (choose-subtree scans every child, a split scores every legal
distribution, pick-worst re-scores every entry), and every one of those
evaluations used to allocate fresh frozen dataclasses just to throw them
away.  At bench scale this Python-object churn dominates wall-clock time.

This module is the flat, structure-of-arrays alternative for those loops:

* a *projected rect* is a plain 4-tuple ``(x_min, y_min, x_max, y_max)``;
* an *extent* is a plain 8-tuple ``(x_min, y_min, x_max, y_max,
  v_x_min, v_y_min, v_x_max, v_y_max)`` anchored at a caller-tracked time;
* the object-facing kernels (``project``, ``extent_of``, ``batch_centers``,
  ``bound_extent``) take objects shaped like ``MovingRect`` (a ``rect`` with
  ``x_min``/... plus the four VBR components and a ``reference_time``) and
  return tuples/lists of floats;
* the ``soa_*`` kernels take the nine parallel ``array('d')`` bound columns
  of an array-backed node (``TPRNode.columns``) and make one fused pass
  over them;
* the ``*_rows`` kernels are numpy twins of the two refinement predicates
  (``segment_intersects_circle`` / ``_rect``): one boolean per row of
  float64 columns, the scalar kernel's boolean bit for bit.

When to use what:

* **Object API** — public methods, tests, anything called once per query or
  per node.  Clarity and validation beat speed there.
* **Kernels** — per-entry loops inside choose-subtree, split scoring,
  forced reinsertion, range scans and bulk loading, where the same handful
  of float operations runs for every candidate and intermediate ``Rect`` /
  ``MovingRect`` objects would be garbage the moment they are compared.

All kernels follow the TPR-tree projection convention: projecting to a time
at or before the anchor's reference time returns the reference rectangle
unchanged (bounds never shrink going backwards).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

ProjectedRect = Tuple[float, float, float, float]
Extent = Tuple[float, float, float, float, float, float, float, float]

_INF = float("inf")

#: How far past an exact touch the range-scan kernels still report an
#: intersection: twice the 1e-9 tolerance of
#: :func:`segment_intersects_rect` (behind ``RangeQuery.matches``), so a
#: scan never filters out an object that the refinement would accept.
FILTER_SLACK = 2e-9


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------
def project(bound, time: float) -> ProjectedRect:
    """MBR of ``bound`` (a MovingRect-shaped object) at absolute ``time``."""
    rect = bound.rect
    elapsed = time - bound.reference_time
    if elapsed <= 0.0:
        return (rect.x_min, rect.y_min, rect.x_max, rect.y_max)
    return (
        rect.x_min + bound.v_x_min * elapsed,
        rect.y_min + bound.v_y_min * elapsed,
        rect.x_max + bound.v_x_max * elapsed,
        rect.y_max + bound.v_y_max * elapsed,
    )


def extent_of(bound, time: float) -> Extent:
    """``bound`` re-anchored at ``time`` as a flat extent tuple."""
    rect = bound.rect
    vx0, vy0 = bound.v_x_min, bound.v_y_min
    vx1, vy1 = bound.v_x_max, bound.v_y_max
    elapsed = time - bound.reference_time
    if elapsed <= 0.0:
        return (rect.x_min, rect.y_min, rect.x_max, rect.y_max, vx0, vy0, vx1, vy1)
    return (
        rect.x_min + vx0 * elapsed,
        rect.y_min + vy0 * elapsed,
        rect.x_max + vx1 * elapsed,
        rect.y_max + vy1 * elapsed,
        vx0,
        vy0,
        vx1,
        vy1,
    )


def batch_centers(bounds: Sequence, time: float) -> List[Tuple[float, float]]:
    """Centers of the projected MBRs (the STR / split sort keys)."""
    centers = []
    for b in bounds:
        x0, y0, x1, y1 = project(b, time)
        centers.append(((x0 + x1) * 0.5, (y0 + y1) * 0.5))
    return centers


# ----------------------------------------------------------------------
# Structure-of-arrays (column) kernels for array-backed nodes
# ----------------------------------------------------------------------
# The TPR node stores its entry bounds as nine parallel ``array('d')``
# columns (see repro/tprtree/node.py).  These kernels consume the columns
# directly, so a whole node's entries are processed in one C-level zip
# instead of one attribute-chasing pass per ``MovingRect``.


def soa_extents(x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs, time: float) -> List[Extent]:
    """Re-anchor a node's column-stored bounds at ``time`` as flat extents.

    Column twin of :func:`extent_of`: one fused pass over the nine parallel
    bound columns of an array-backed node.
    """
    out: List[Extent] = []
    append = out.append
    for x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref in zip(
        x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs
    ):
        elapsed = time - tref
        if elapsed <= 0.0:
            append((x0, y0, x1, y1, vx0, vy0, vx1, vy1))
        else:
            append(
                (
                    x0 + vx0 * elapsed,
                    y0 + vy0 * elapsed,
                    x1 + vx1 * elapsed,
                    y1 + vy1 * elapsed,
                    vx0,
                    vy0,
                    vx1,
                    vy1,
                )
            )
    return out


def soa_bound_extent(x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs, time: float) -> Extent:
    """Tight extent over a node's column-stored bounds, re-anchored at ``time``.

    Column twin of :func:`bound_extent` (the float core of
    :meth:`MovingRect.bounding`), reading the nine parallel bound columns of
    an array-backed node without materializing per-entry objects.
    """
    x0 = y0 = vx0 = vy0 = _INF
    x1 = y1 = vx1 = vy1 = -_INF
    for bx0, by0, bx1, by1, bvx0, bvy0, bvx1, bvy1, tref in zip(
        x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs
    ):
        elapsed = time - tref
        if elapsed > 0.0:
            bx0 += bvx0 * elapsed
            by0 += bvy0 * elapsed
            bx1 += bvx1 * elapsed
            by1 += bvy1 * elapsed
        if bx0 < x0:
            x0 = bx0
        if by0 < y0:
            y0 = by0
        if bx1 > x1:
            x1 = bx1
        if by1 > y1:
            y1 = by1
        if bvx0 < vx0:
            vx0 = bvx0
        if bvy0 < vy0:
            vy0 = bvy0
        if bvx1 > vx1:
            vx1 = bvx1
        if bvy1 > vy1:
            vy1 = bvy1
    if x0 == _INF:
        raise ValueError("cannot bound an empty collection of moving rectangles")
    return (x0, y0, x1, y1, vx0, vy0, vx1, vy1)


def soa_choose_child_area(
    x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs, ext_new: Extent, time: float
) -> int:
    """Slot of the child whose projected area grows least by absorbing ``ext_new``.

    The TPR-tree's choose-subtree scan as one pass over a node's columns:
    each child is re-anchored at ``time`` (as :func:`soa_extents` does), its
    :func:`extent_area` and the area of its :func:`union_extent` with
    ``ext_new`` (anchored at ``time`` too) are evaluated inline, operation
    for operation, and the first lexicographic minimum of ``(enlargement,
    area)`` wins -- the lowest slot on a full tie.  No tuple is built and no
    function is called per child.
    """
    nx0, ny0, nx1, ny1 = ext_new[:4]
    best_slot = slot = -1
    best_enlargement = best_cost = 0.0
    for x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref in zip(
        x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs
    ):
        slot += 1
        elapsed = time - tref
        if elapsed > 0.0:
            x0 += vx0 * elapsed
            y0 += vy0 * elapsed
            x1 += vx1 * elapsed
            y1 += vy1 * elapsed
        cost = (x1 - x0) * (y1 - y0)
        width = (x1 if x1 > nx1 else nx1) - (x0 if x0 < nx0 else nx0)
        height = (y1 if y1 > ny1 else ny1) - (y0 if y0 < ny0 else ny0)
        enlargement = width * height - cost
        if (
            enlargement < best_enlargement
            or (enlargement == best_enlargement and cost < best_cost)
            or best_slot < 0
        ):
            best_slot = slot
            best_enlargement = enlargement
            best_cost = cost
    if best_slot < 0:
        raise ValueError("cannot choose a child of an empty node")
    return best_slot


def soa_choose_child_sweep(
    x0s,
    y0s,
    x1s,
    y1s,
    vx0s,
    vy0s,
    vx1s,
    vy1s,
    trefs,
    ext_new: Extent,
    time: float,
    query_extent: float,
    horizon: float,
) -> int:
    """Slot of the child whose sweeping volume grows least by absorbing ``ext_new``.

    The TPR*-tree's choose-subtree scan as one pass over a node's columns:
    each child is re-anchored at ``time`` (as :func:`soa_extents` does), its
    :func:`extent_sweep_volume` and that of its :func:`union_extent` with
    ``ext_new`` (anchored at ``time`` too) are evaluated inline, operation
    for operation, and the first lexicographic minimum of ``(enlargement,
    volume)`` wins -- the lowest slot on a full tie.  No tuple is built and
    no function is called per child.

    When the velocity box of ``ext_new`` lies inside the child's, the
    union's VBR is the child's up to the sign of a zero, which the
    ``px``/``py``/``qx``/``qy`` terms of :func:`sweep_volume` cannot see, so
    the child's terms are reused.  ``horizon`` must be positive (the trees
    reject anything else at construction; :func:`sweep_volume` keeps its
    own guard for direct callers).
    """
    nx0, ny0, nx1, ny1, nvx0, nvy0, nvx1, nvy1 = ext_new
    h2 = horizon * horizon
    h3 = h2 * horizon
    best_slot = slot = -1
    best_enlargement = best_cost = 0.0
    for x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref in zip(
        x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs
    ):
        slot += 1
        elapsed = time - tref
        if elapsed > 0.0:
            x0 += vx0 * elapsed
            y0 += vy0 * elapsed
            x1 += vx1 * elapsed
            y1 += vy1 * elapsed

        # sweep_volume of the child grown by the nominal query.
        px = (vx1 if vx1 > 0.0 else 0.0) - (vx0 if vx0 < 0.0 else 0.0)
        py = (vy1 if vy1 > 0.0 else 0.0) - (vy0 if vy0 < 0.0 else 0.0)
        if vx0 >= 0.0 and vx1 >= 0.0:
            qx = vx0 if vx0 < vx1 else vx1
        elif vx0 <= 0.0 and vx1 <= 0.0:
            qx = -vx0 if -vx0 < -vx1 else -vx1
        else:
            qx = 0.0
        if vy0 >= 0.0 and vy1 >= 0.0:
            qy = vy0 if vy0 < vy1 else vy1
        elif vy0 <= 0.0 and vy1 <= 0.0:
            qy = -vy0 if -vy0 < -vy1 else -vy1
        else:
            qy = 0.0
        width = (x1 - x0) + query_extent
        height = (y1 - y0) + query_extent
        cost = (
            width * height * horizon
            + (width * py + height * px) * h2 / 2.0
            + (px * py - qx * qy) * h3 / 3.0
        )

        # sweep_volume of the union with the new entry, likewise grown.
        if not (vx0 <= nvx0 and vy0 <= nvy0 and vx1 >= nvx1 and vy1 >= nvy1):
            vx0 = vx0 if vx0 < nvx0 else nvx0
            vy0 = vy0 if vy0 < nvy0 else nvy0
            vx1 = vx1 if vx1 > nvx1 else nvx1
            vy1 = vy1 if vy1 > nvy1 else nvy1
            px = (vx1 if vx1 > 0.0 else 0.0) - (vx0 if vx0 < 0.0 else 0.0)
            py = (vy1 if vy1 > 0.0 else 0.0) - (vy0 if vy0 < 0.0 else 0.0)
            if vx0 >= 0.0 and vx1 >= 0.0:
                qx = vx0 if vx0 < vx1 else vx1
            elif vx0 <= 0.0 and vx1 <= 0.0:
                qx = -vx0 if -vx0 < -vx1 else -vx1
            else:
                qx = 0.0
            if vy0 >= 0.0 and vy1 >= 0.0:
                qy = vy0 if vy0 < vy1 else vy1
            elif vy0 <= 0.0 and vy1 <= 0.0:
                qy = -vy0 if -vy0 < -vy1 else -vy1
            else:
                qy = 0.0
        width = ((x1 if x1 > nx1 else nx1) - (x0 if x0 < nx0 else nx0)) + query_extent
        height = ((y1 if y1 > ny1 else ny1) - (y0 if y0 < ny0 else ny0)) + query_extent
        union_cost = (
            width * height * horizon
            + (width * py + height * px) * h2 / 2.0
            + (px * py - qx * qy) * h3 / 3.0
        )
        enlargement = union_cost - cost

        if (
            enlargement < best_enlargement
            or (enlargement == best_enlargement and cost < best_cost)
            or best_slot < 0
        ):
            best_slot = slot
            best_enlargement = enlargement
            best_cost = cost
    if best_slot < 0:
        raise ValueError("cannot choose a child of an empty node")
    return best_slot


# ----------------------------------------------------------------------
# Unions and derived scalar quantities
# ----------------------------------------------------------------------
def union_extent(a: Extent, b: Extent) -> Extent:
    """Union of two extents anchored at the same time (TPR bounding rule)."""
    return (
        a[0] if a[0] < b[0] else b[0],
        a[1] if a[1] < b[1] else b[1],
        a[2] if a[2] > b[2] else b[2],
        a[3] if a[3] > b[3] else b[3],
        a[4] if a[4] < b[4] else b[4],
        a[5] if a[5] < b[5] else b[5],
        a[6] if a[6] > b[6] else b[6],
        a[7] if a[7] > b[7] else b[7],
    )


def bound_extent(bounds: Sequence, time: float) -> Extent:
    """Tight extent over ``bounds``, all re-anchored at ``time``.

    This is the float core of :meth:`MovingRect.bounding`: the MBR is the
    union of the projected MBRs and each VBR component is the extreme of the
    children's components.  No intermediate objects are allocated.
    """
    x0 = y0 = vx0 = vy0 = _INF
    x1 = y1 = vx1 = vy1 = -_INF
    for b in bounds:
        rect = b.rect
        bvx0, bvy0, bvx1, bvy1 = b.v_x_min, b.v_y_min, b.v_x_max, b.v_y_max
        elapsed = time - b.reference_time
        if elapsed <= 0.0:
            bx0, by0, bx1, by1 = rect.x_min, rect.y_min, rect.x_max, rect.y_max
        else:
            bx0 = rect.x_min + bvx0 * elapsed
            by0 = rect.y_min + bvy0 * elapsed
            bx1 = rect.x_max + bvx1 * elapsed
            by1 = rect.y_max + bvy1 * elapsed
        if bx0 < x0:
            x0 = bx0
        if by0 < y0:
            y0 = by0
        if bx1 > x1:
            x1 = bx1
        if by1 > y1:
            y1 = by1
        if bvx0 < vx0:
            vx0 = bvx0
        if bvy0 < vy0:
            vy0 = bvy0
        if bvx1 > vx1:
            vx1 = bvx1
        if bvy1 > vy1:
            vy1 = bvy1
    if x0 == _INF:
        raise ValueError("cannot bound an empty collection of moving rectangles")
    return (x0, y0, x1, y1, vx0, vy0, vx1, vy1)


def extent_area(ext: Extent) -> float:
    """Area of an extent's MBR (at its anchor time)."""
    return (ext[2] - ext[0]) * (ext[3] - ext[1])


def intersection_area(a: Extent, b: Extent, elapsed: float = 0.0) -> float:
    """Overlap area of two extents ``elapsed`` time units after their anchor.

    With ``elapsed == 0`` this is the plain MBR overlap; a positive value
    projects both extents forward first (used by the TPR* split objective,
    which penalizes distributions whose halves will overlap at the horizon).
    """
    if elapsed > 0.0:
        ax0 = a[0] + a[4] * elapsed
        ay0 = a[1] + a[5] * elapsed
        ax1 = a[2] + a[6] * elapsed
        ay1 = a[3] + a[7] * elapsed
        bx0 = b[0] + b[4] * elapsed
        by0 = b[1] + b[5] * elapsed
        bx1 = b[2] + b[6] * elapsed
        by1 = b[3] + b[7] * elapsed
    else:
        ax0, ay0, ax1, ay1 = a[0], a[1], a[2], a[3]
        bx0, by0, bx1, by1 = b[0], b[1], b[2], b[3]
    dx = (ax1 if ax1 < bx1 else bx1) - (ax0 if ax0 > bx0 else bx0)
    if dx <= 0.0:
        return 0.0
    dy = (ay1 if ay1 < by1 else by1) - (ay0 if ay0 > by0 else by0)
    if dy <= 0.0:
        return 0.0
    return dx * dy


# ----------------------------------------------------------------------
# Cumulative (prefix/suffix) unions for split and reinsert scoring
# ----------------------------------------------------------------------
def cumulative_extents(extents: Sequence[Extent]) -> List[Extent]:
    """``result[i]`` is the union of ``extents[0..i]`` (prefix bounds).

    With a prefix pass over the entries in sort order and a suffix pass over
    the reversed order, every candidate split distribution's two group
    bounds are available in O(1), turning the classic O(n^2)-with-allocations
    split scoring loop into a single fused O(n) sweep.
    """
    result: List[Extent] = []
    current = None
    for ext in extents:
        current = ext if current is None else union_extent(current, ext)
        result.append(current)
    return result


def remove_one_extents(extents: Sequence[Extent]) -> List[Extent]:
    """``result[i]`` is the union of all extents except ``extents[i]``.

    Built from prefix and suffix unions; the input must have at least two
    elements.  This powers the TPR*-tree's pick-worst forced reinsertion
    (score of an entry = cost saved by removing it) in O(n) instead of the
    naive O(n^2) re-bounding.
    """
    n = len(extents)
    if n < 2:
        raise ValueError("remove_one_extents needs at least two extents")
    prefix = cumulative_extents(extents)
    suffix = cumulative_extents(list(reversed(extents)))
    result: List[Extent] = [suffix[n - 2]]
    for i in range(1, n - 1):
        result.append(union_extent(prefix[i - 1], suffix[n - 2 - i]))
    result.append(prefix[n - 2])
    return result


# ----------------------------------------------------------------------
# Sweeping-region integral (the TPR* cost metric)
# ----------------------------------------------------------------------
def sweep_volume(
    width: float,
    height: float,
    v_x_min: float,
    v_y_min: float,
    v_x_max: float,
    v_y_max: float,
    horizon: float,
) -> float:
    """Closed-form time-integral of the swept area over ``[0, horizon]``.

    For ``t >= 0`` the bounding box of the start and projected rectangles has
    extents ``width + px t`` and ``height + py t`` with
    ``px = max(0, v_x_max) - min(0, v_x_min)`` (similarly ``py``), and the two
    uncovered corner triangles remove ``qx qy t^2`` where ``qx``/``qy`` are
    the common (translational) edge displacements per time unit.  The swept
    area is therefore an exact quadratic in ``t`` and its integral has the
    closed form used here.  This is the hot path of the TPR*-tree's
    insertion cost model, hence the float-only signature.
    """
    if horizon <= 0.0:
        return 0.0
    px = (v_x_max if v_x_max > 0.0 else 0.0) - (v_x_min if v_x_min < 0.0 else 0.0)
    py = (v_y_max if v_y_max > 0.0 else 0.0) - (v_y_min if v_y_min < 0.0 else 0.0)
    if v_x_min >= 0.0 and v_x_max >= 0.0:
        qx = v_x_min if v_x_min < v_x_max else v_x_max
    elif v_x_min <= 0.0 and v_x_max <= 0.0:
        qx = -v_x_min if -v_x_min < -v_x_max else -v_x_max
    else:
        qx = 0.0
    if v_y_min >= 0.0 and v_y_max >= 0.0:
        qy = v_y_min if v_y_min < v_y_max else v_y_max
    elif v_y_min <= 0.0 and v_y_max <= 0.0:
        qy = -v_y_min if -v_y_min < -v_y_max else -v_y_max
    else:
        qy = 0.0
    h2 = horizon * horizon
    h3 = h2 * horizon
    return (
        width * height * horizon
        + (width * py + height * px) * h2 / 2.0
        + (px * py - qx * qy) * h3 / 3.0
    )


def extent_sweep_volume(ext: Extent, query_extent: float, horizon: float) -> float:
    """Fused sweep integral of an extent grown by a nominal query size.

    Equivalent to enlarging the extent's MBR by ``query_extent`` on each axis
    (the transformed-node construction of the cost model) and integrating the
    swept area over the horizon, without building the intermediate rectangle.
    """
    return sweep_volume(
        (ext[2] - ext[0]) + query_extent,
        (ext[3] - ext[1]) + query_extent,
        ext[4],
        ext[5],
        ext[6],
        ext[7],
        horizon,
    )


# ----------------------------------------------------------------------
# Moving-window intersection over a time interval
# ----------------------------------------------------------------------
def intersects_interval(
    ax0: float,
    ay0: float,
    ax1: float,
    ay1: float,
    avx0: float,
    avy0: float,
    avx1: float,
    avy1: float,
    aref: float,
    bx0: float,
    by0: float,
    bx1: float,
    by1: float,
    bvx0: float,
    bvy0: float,
    bvx1: float,
    bvy1: float,
    bref: float,
    start: float,
    end: float,
) -> bool:
    """Whether two moving rectangles intersect at any time in ``[start, end]``.

    Float-only twin of :meth:`MovingRect.intersects_during` for the range
    scan loops: each argument group is an MBR, its VBR and its reference
    time.  The common case (both reference times at or before ``start``, so
    every boundary is linear over the window) is solved inline, with a
    :data:`FILTER_SLACK` margin; the rare piecewise case falls back to the
    object API.
    """
    if aref > start or bref > start:  # pragma: no cover - rare in index scans
        from repro.geometry.moving_rect import MovingRect
        from repro.geometry.rect import Rect

        a = MovingRect(Rect(ax0, ay0, ax1, ay1), avx0, avy0, avx1, avy1, aref)
        b = MovingRect(Rect(bx0, by0, bx1, by1), bvx0, bvy0, bvx1, bvy1, bref)
        return a.intersects_during(b, start, end)

    duration = end - start
    if duration < 0.0:
        raise ValueError("end must not precede start")

    # Positions at the start of the window.
    ea = start - aref
    eb = start - bref
    lo = 0.0
    hi = duration
    # x axis: a_lo <= b_hi and b_lo <= a_hi as linear constraints in t.
    for p, pv, q, qv in (
        (ax0 + avx0 * ea, avx0, bx1 + bvx1 * eb, bvx1),
        (bx0 + bvx0 * eb, bvx0, ax1 + avx1 * ea, avx1),
        (ay0 + avy0 * ea, avy0, by1 + bvy1 * eb, bvy1),
        (by0 + bvy0 * eb, bvy0, ay1 + avy1 * ea, avy1),
    ):
        diff0 = p - q
        rate = pv - qv
        if rate == 0.0:
            if diff0 > FILTER_SLACK:
                return False
            continue
        crossing = -diff0 / rate
        if rate > 0.0:
            if crossing < hi:
                hi = crossing
        else:
            if crossing > lo:
                lo = crossing
        if lo > hi + FILTER_SLACK:
            return False
    return True


#: Float info record of one query for :func:`soa_intersect_hits`: the
#: query's MBR, VBR, reference time and time window, i.e. ``(x_min, y_min,
#: x_max, y_max, v_x_min, v_y_min, v_x_max, v_y_max, reference_time,
#: start, end)``.
QueryInfo = Tuple[float, float, float, float, float, float, float, float, float, float, float]


def soa_intersect_hits(
    x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs, info: QueryInfo
) -> List[int]:
    """Slots of a node whose column-stored bounds meet one query over its window.

    Column twin of calling :func:`intersects_interval` on every entry of an
    array-backed node (``TPRNode.columns``): the query's four edges are
    projected to the window start once, and each entry's four slab
    constraints run inline in the scalar kernel's order, with its early
    exits and :data:`FILTER_SLACK`, so the slots are exactly those the
    scalar kernel accepts.  An entry or query anchored after the window
    start takes the scalar kernel's piecewise fallback.

    Raises:
        ValueError: if the window ends before it starts.
    """
    qx0, qy0, qx1, qy1, qvx0, qvy0, qvx1, qvy1, qref, start, end = info
    duration = end - start
    if duration < 0.0:
        raise ValueError("end must not precede start")
    columns = zip(x0s, y0s, x1s, y1s, vx0s, vy0s, vx1s, vy1s, trefs)
    if qref > start:
        return [slot for slot, bound in enumerate(columns) if intersects_interval(*bound, *info)]
    eb = start - qref
    q_x1 = qx1 + qvx1 * eb
    q_x0 = qx0 + qvx0 * eb
    q_y1 = qy1 + qvy1 * eb
    q_y0 = qy0 + qvy0 * eb
    hits: List[int] = []
    for slot, (x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref) in enumerate(columns):
        if tref > start:
            if intersects_interval(x0, y0, x1, y1, vx0, vy0, vx1, vy1, tref, *info):
                hits.append(slot)
            continue
        ea = start - tref
        lo = 0.0
        hi = duration
        # Entry x_min against query x_max.
        diff0 = x0 + vx0 * ea - q_x1
        rate = vx0 - qvx1
        if rate == 0.0:
            if diff0 > FILTER_SLACK:
                continue
        else:
            crossing = -diff0 / rate
            if rate > 0.0:
                if crossing < hi:
                    hi = crossing
            elif crossing > lo:
                lo = crossing
            if lo > hi + FILTER_SLACK:
                continue
        # Query x_min against entry x_max.
        diff0 = q_x0 - (x1 + vx1 * ea)
        rate = qvx0 - vx1
        if rate == 0.0:
            if diff0 > FILTER_SLACK:
                continue
        else:
            crossing = -diff0 / rate
            if rate > 0.0:
                if crossing < hi:
                    hi = crossing
            elif crossing > lo:
                lo = crossing
            if lo > hi + FILTER_SLACK:
                continue
        # Entry y_min against query y_max.
        diff0 = y0 + vy0 * ea - q_y1
        rate = vy0 - qvy1
        if rate == 0.0:
            if diff0 > FILTER_SLACK:
                continue
        else:
            crossing = -diff0 / rate
            if rate > 0.0:
                if crossing < hi:
                    hi = crossing
            elif crossing > lo:
                lo = crossing
            if lo > hi + FILTER_SLACK:
                continue
        # Query y_min against entry y_max.
        diff0 = q_y0 - (y1 + vy1 * ea)
        rate = qvy0 - vy1
        if rate == 0.0:
            if diff0 > FILTER_SLACK:
                continue
        else:
            crossing = -diff0 / rate
            if rate > 0.0:
                if crossing < hi:
                    hi = crossing
            elif crossing > lo:
                lo = crossing
            if lo > hi + FILTER_SLACK:
                continue
        hits.append(slot)
    return hits


# ----------------------------------------------------------------------
# Exact leaf-refinement predicates (segment versus query range)
# ----------------------------------------------------------------------
def segment_intersects_circle(
    px: float,
    py: float,
    vx: float,
    vy: float,
    duration: float,
    cx: float,
    cy: float,
    radius: float,
) -> bool:
    """Whether the segment ``(px, py) + (vx, vy) * [0, duration]`` meets the circle."""
    # Minimize |p(t) - center|^2 over t in [0, duration].
    dx = px - cx
    dy = py - cy
    a = vx * vx + vy * vy
    b = 2.0 * (dx * vx + dy * vy)
    c = dx * dx + dy * dy
    if a == 0.0:
        best = c
    else:
        t_star = -b / (2.0 * a)
        if t_star < 0.0:
            t_star = 0.0
        elif t_star > duration:
            t_star = duration
        best = a * t_star * t_star + b * t_star + c
        if c < best:
            best = c
        end_val = a * duration * duration + b * duration + c
        if end_val < best:
            best = end_val
    return best <= radius * radius + 1e-9


def segment_intersects_rect(
    px: float,
    py: float,
    vx: float,
    vy: float,
    duration: float,
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
) -> bool:
    """Liang-Barsky clip of the segment against the rectangle's slabs."""
    t0 = 0.0
    t1 = duration
    for p, v, lo, hi in ((px, vx, x_min, x_max), (py, vy, y_min, y_max)):
        if v == 0.0:
            if p < lo - 1e-9 or p > hi + 1e-9:
                return False
            continue
        t_enter = (lo - p) / v
        t_exit = (hi - p) / v
        if t_enter > t_exit:
            t_enter, t_exit = t_exit, t_enter
        if t_enter > t0:
            t0 = t_enter
        if t_exit < t1:
            t1 = t_exit
        if t0 > t1 + 1e-9:
            return False
    return True


# ----------------------------------------------------------------------
# Row twins of the refinement predicates (one boolean per row)
# ----------------------------------------------------------------------
# The segment arguments are float64 arrays of one length (one row per
# candidate); the range arguments stay scalars.  Each twin repeats its
# scalar kernel's operations in the same order, so every row gets exactly
# the scalar kernel's boolean.  A branch becomes a mask: where the scalar
# kernel would divide by zero, the array divides by 1.0 and the mask
# discards that row's quotient, so no division by zero is ever attempted.


def segment_intersects_circle_rows(
    px: np.ndarray,
    py: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    duration: float,
    cx: float,
    cy: float,
    radius: float,
) -> np.ndarray:
    """Per row, :func:`segment_intersects_circle` of that row's segment."""
    dx = px - cx
    dy = py - cy
    a = vx * vx + vy * vy
    b = 2.0 * (dx * vx + dy * vy)
    c = dx * dx + dy * dy
    still = a == 0.0
    t_star = -b / np.where(still, 1.0, 2.0 * a)
    # The clamps: below 0 -> 0, above duration -> duration (duration >= 0).
    t_star = np.minimum(np.maximum(t_star, 0.0), duration)
    best = np.minimum(a * t_star * t_star + b * t_star + c, c)
    best = np.minimum(best, a * duration * duration + b * duration + c)
    return np.where(still, c, best) <= radius * radius + 1e-9


def segment_intersects_rect_rows(
    px: np.ndarray,
    py: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    duration: float,
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
) -> np.ndarray:
    """Per row, :func:`segment_intersects_rect` of that row's segment.

    A row the x slab rejects is ``False`` whatever its y slab computes, as
    the scalar kernel's early exit makes it.  A tiny nonzero velocity puts
    a slab crossing beyond the float range: the quotient is then ``inf``,
    as in the scalar kernel, and numpy's overflow warning is not raised.
    """
    t0 = 0.0
    t1 = duration
    inside = []
    with np.errstate(over="ignore"):
        for p, v, lo, hi in ((px, vx, x_min, x_max), (py, vy, y_min, y_max)):
            still = v == 0.0
            safe = np.where(still, 1.0, v)
            t_enter = (lo - p) / safe
            t_exit = (hi - p) / safe
            # The swap, then "enter later" / "exit earlier".
            t0 = np.where(still, t0, np.maximum(t0, np.minimum(t_enter, t_exit)))
            t1 = np.where(still, t1, np.minimum(t1, np.maximum(t_enter, t_exit)))
            inside.append(
                np.where(still, ~((p < lo - 1e-9) | (p > hi + 1e-9)), ~(t0 > t1 + 1e-9))
            )
    return inside[0] & inside[1]
