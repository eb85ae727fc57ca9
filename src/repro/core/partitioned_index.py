"""One construction path: :func:`make_index` builds any of the five families.

The Bx(VP) and TPR*(VP) factories build a
:class:`~repro.core.index_manager.VPIndex` whose sub-indexes (one per DVA
plus the outlier index) share a single buffer pool of the same size the
unpartitioned index gets, so the comparison is not biased by extra RAM.
The sample helpers feed the velocity analyzer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bxtree.bx_tree import DEFAULT_MAX_UPDATE_INTERVAL, DEFAULT_SPACE, BxTree
from repro.core.index_manager import OUTLIER_PARTITION, VPIndex
from repro.core.velocity_analyzer import (
    VelocityAnalyzer,
    VelocityPartitioning,
)
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES, BufferManager
from repro.tprtree.tpr_tree import TPRTree
from repro.tprtree.tprstar_tree import TPRStarTree

#: The index families :func:`make_index` builds, by name.
FAMILIES = ("Bx", "Bx(VP)", "TPR", "TPR*", "TPR*(VP)")


def analyze_sample(sample_velocities: Sequence[Vector], k: int = 2) -> VelocityPartitioning:
    """Convenience wrapper: run the velocity analyzer over a velocity sample."""
    return VelocityAnalyzer(k=k).analyze(sample_velocities)


def rotated_space_bounds(space: Rect, partitioning: VelocityPartitioning) -> List[Rect]:
    """Bounding box of the data space in each DVA's rotated frame.

    The Bx-tree grid must cover every coordinate a transformed object can
    take, which is the axis-aligned bound of the rotated space corners.
    """
    bounds: List[Rect] = []
    for dva in partitioning.dvas:
        corners = [dva.frame.to_frame_point(c) for c in space.corners()]
        bounds.append(Rect.bounding_points(corners))
    return bounds


def make_vp_bx_tree(
    partitioning: VelocityPartitioning,
    space: Rect = DEFAULT_SPACE,
    buffer: Optional[BufferManager] = None,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    **bx_kwargs,
) -> VPIndex:
    """Build a Bx(VP)-tree: one Bx-tree per DVA plus an outlier Bx-tree.

    Keyword arguments (``page_size``, ``max_update_interval``, ``key_store``,
    ``curve_order``, ...) are forwarded to every underlying
    :class:`~repro.bxtree.BxTree`, so each of the k DVA trees and the
    outlier tree builds its own key store (see ``docs/backends.md``).
    """
    shared_buffer = buffer if buffer is not None else BufferManager(capacity=buffer_pages)
    frame_bounds = rotated_space_bounds(space, partitioning)

    def factory(partition: int) -> BxTree:
        """Build one Bx-tree over the partition's rotated space bounds."""
        tree_space = space if partition == OUTLIER_PARTITION else frame_bounds[partition]
        return BxTree(buffer=shared_buffer, space=tree_space, **bx_kwargs)

    return VPIndex(partitioning, factory, shared_buffer, name="Bx(VP)", space=space)


def make_vp_tprstar_tree(
    partitioning: VelocityPartitioning,
    buffer: Optional[BufferManager] = None,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    space: Rect = DEFAULT_SPACE,
    **tpr_kwargs,
) -> VPIndex:
    """Build a TPR*(VP)-tree: one TPR*-tree per DVA plus an outlier TPR*-tree.

    Keyword arguments (``page_size``, ``max_entries``, ...) are forwarded to every
    underlying :class:`~repro.tprtree.TPRStarTree`.  ``space`` bounds no
    node: the index keeps it for its kNN cap and its count grid in the
    original frame, and the trees take none (``space=None``), so they keep
    no grid: ``VPIndex`` seeds every probe from its own grid and asks the
    trees only for candidates.
    """
    shared_buffer = buffer if buffer is not None else BufferManager(capacity=buffer_pages)

    def factory(partition: int) -> TPRStarTree:
        """Build one grid-less TPR*-tree for a partition."""
        return TPRStarTree(buffer=shared_buffer, space=None, **tpr_kwargs)

    return VPIndex(partitioning, factory, shared_buffer, name="TPR*(VP)", space=space)


def make_index(
    family: str,
    *,
    space: Rect = DEFAULT_SPACE,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    page_size: Optional[int] = None,
    max_update_interval: float = DEFAULT_MAX_UPDATE_INTERVAL,
    key_store: Optional[str] = None,
    partitioning: Optional[VelocityPartitioning] = None,
    buffer: Optional[BufferManager] = None,
    **tree_kwargs,
):
    """Build one empty index of a named family: the one construction path.

    ``space``/``buffer_pages``/``page_size``/``max_update_interval`` are the
    Table-1 setting every competitor shares
    (:meth:`~repro.workload.WorkloadParameters.index_kwargs`); each family
    reads what it has a use for.  ``key_store`` names the Bx key-store
    backend (``"btree"``/``"flat"``, see ``docs/backends.md``),
    ``partitioning`` is the velocity analyzer's result the two VP families
    are built from, ``buffer`` replaces the private ``buffer_pages`` pool (a
    durable shard's pool belongs to its store), and ``tree_kwargs``
    (``curve=``, ``max_entries=``, ...) go verbatim to the family's tree class.

    Raises:
        ValueError: unknown family, a VP family without a ``partitioning``,
            or a ``key_store`` for a family that has none.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown index family {family!r} (choose from {FAMILIES})")
    if family.endswith("(VP)") and partitioning is None:
        raise ValueError(
            f"{family} is built from a velocity partitioning: pass partitioning="
            "VelocityAnalyzer().analyze(sample) (to ShardedIndex.build: a callable family, "
            f"partial(make_index, {family!r}, partitioning=...))"
        )
    if buffer is None:
        buffer = BufferManager(capacity=buffer_pages)
    if family.startswith("Bx"):
        tree_kwargs.update(
            max_update_interval=max_update_interval, page_size=page_size, key_store=key_store
        )
        if family == "Bx":
            return BxTree(buffer=buffer, space=space, **tree_kwargs)
        return make_vp_bx_tree(partitioning, space=space, buffer=buffer, **tree_kwargs)
    if key_store is not None:
        raise ValueError(f"{family} has no key store (key_store= is for the Bx families)")
    if family == "TPR*(VP)":
        return make_vp_tprstar_tree(
            partitioning, buffer=buffer, space=space, page_size=page_size, **tree_kwargs
        )
    tree = TPRTree if family == "TPR" else TPRStarTree
    return tree(buffer=buffer, page_size=page_size, space=space, **tree_kwargs)


def sample_velocities_from_objects(objects: Sequence[MovingObject]) -> List[Vector]:
    """Velocity points of a set of objects (input to the velocity analyzer)."""
    return [obj.velocity for obj in objects]
