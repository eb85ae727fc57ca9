"""Factories for the two velocity-partitioned indexes: Bx(VP) and TPR*(VP).

Each builds a :class:`~repro.core.index_manager.VPIndex` whose sub-indexes
(one per DVA plus the outlier index) share a single buffer pool of the same
size the unpartitioned index gets, so the comparison is not biased by extra
RAM.  The sample helpers feed the velocity analyzer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bxtree.bx_tree import (
    DEFAULT_CURVE_ORDER,
    DEFAULT_HISTOGRAM_CELLS,
    DEFAULT_MAX_UPDATE_INTERVAL,
    DEFAULT_NUM_BUCKETS,
    DEFAULT_SPACE,
    BxTree,
)
from repro.core.index_manager import OUTLIER_PARTITION, VPIndex
from repro.core.velocity_analyzer import (
    VelocityAnalyzer,
    VelocityPartitioning,
)
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES, BufferManager
from repro.tprtree.tprstar_tree import TPRStarTree


def analyze_sample(
    sample_velocities: Sequence[Vector],
    k: int = 2,
    seed: Optional[int] = 0,
) -> VelocityPartitioning:
    """Convenience wrapper: run the velocity analyzer over a velocity sample."""
    analyzer = VelocityAnalyzer(k=k, seed=seed)
    return analyzer.analyze(sample_velocities)


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
    curve: str = "hilbert",
    curve_order: int = DEFAULT_CURVE_ORDER,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    max_update_interval: float = DEFAULT_MAX_UPDATE_INTERVAL,
    histogram_cells: int = DEFAULT_HISTOGRAM_CELLS,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    page_size: Optional[int] = None,
    key_store: Optional[object] = None,
) -> VPIndex:
    """Build a Bx(VP)-tree: one Bx-tree per DVA plus an outlier Bx-tree.

    ``key_store`` selects the Bx key-store backend (``"btree"``/``"flat"``
    or a backend class; see ``docs/backends.md``) for *every* sub-index:
    each of the k DVA trees and the outlier tree builds its own store.
    An instance is rejected: one store cannot back several trees.
    """
    if key_store is not None and not isinstance(key_store, (str, type)):
        raise TypeError(
            "make_vp_bx_tree builds one key store per sub-index; pass a "
            "backend name or class, not an instance"
        )
    shared_buffer = buffer if buffer is not None else BufferManager(capacity=buffer_pages)
    frame_bounds = rotated_space_bounds(space, partitioning)

    def factory(partition: int) -> BxTree:
        """Build one Bx-tree over the partition's rotated space bounds."""
        tree_space = space if partition == OUTLIER_PARTITION else frame_bounds[partition]
        return BxTree(
            buffer=shared_buffer,
            space=tree_space,
            curve=curve,
            curve_order=curve_order,
            num_buckets=num_buckets,
            max_update_interval=max_update_interval,
            histogram_cells=histogram_cells,
            page_size=page_size,
            key_store=key_store,
        )

    return VPIndex(partitioning, factory, shared_buffer, name="Bx(VP)", space=space)


def make_vp_tprstar_tree(
    partitioning: VelocityPartitioning,
    buffer: Optional[BufferManager] = None,
    buffer_pages: int = DEFAULT_BUFFER_PAGES,
    space: Optional[Rect] = None,
    **tpr_kwargs,
) -> VPIndex:
    """Build a TPR*(VP)-tree: one TPR*-tree per DVA plus an outlier TPR*-tree.

    Keyword arguments (``page_size``, ``horizon``, ...) are forwarded to every
    underlying :class:`~repro.tprtree.TPRStarTree`; ``space``, when given,
    only seeds kNN filter radii (the TPR family needs no space bounds).
    """
    shared_buffer = buffer if buffer is not None else BufferManager(capacity=buffer_pages)

    def factory(partition: int) -> TPRStarTree:
        """Build one TPR*-tree on the shared buffer pool."""
        del partition  # the TPR*-tree needs no space bounds
        return TPRStarTree(buffer=shared_buffer, **tpr_kwargs)

    return VPIndex(partitioning, factory, shared_buffer, name="TPR*(VP)", space=space)


def sample_velocities_from_objects(objects: Sequence[MovingObject]) -> List[Vector]:
    """Velocity points of a set of objects (input to the velocity analyzer)."""
    return [obj.velocity for obj in objects]
