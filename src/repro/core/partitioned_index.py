"""Velocity-partitioned index facades: Bx(VP) and TPR*(VP).

A :class:`VPIndex` bundles a velocity analyzer result, an
:class:`~repro.core.IndexManager` and a shared buffer pool into an object
that exposes the same interface as the unpartitioned indexes
(``insert`` / ``delete`` / ``update`` / ``range_query`` plus a ``buffer``
with I/O statistics), so the benchmark harness can treat partitioned and
unpartitioned indexes uniformly.

All sub-indexes (one per DVA plus the outlier index) share a single buffer
pool of the same size the unpartitioned index gets, so the comparison is not
biased by extra RAM.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.bxtree.bx_tree import (
    DEFAULT_CURVE_ORDER,
    DEFAULT_HISTOGRAM_CELLS,
    DEFAULT_MAX_UPDATE_INTERVAL,
    DEFAULT_NUM_BUCKETS,
    DEFAULT_SPACE,
    BxTree,
)
from repro.core.index_manager import OUTLIER_PARTITION, IndexManager, SubIndex
from repro.core.velocity_analyzer import (
    VelocityAnalyzer,
    VelocityPartitioning,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import AdaptiveRadius, KNNQuery
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES, BufferManager
from repro.tprtree.tprstar_tree import TPRStarTree


class VPIndex:
    """A velocity-partitioned moving-object index."""

    def __init__(
        self,
        partitioning: VelocityPartitioning,
        index_factory: Callable[..., SubIndex],
        buffer: BufferManager,
        name: str,
        space: Optional[Rect] = None,
        index_kwargs: Optional[dict] = None,
    ) -> None:
        """Bundle a partitioning, an index factory and a shared buffer pool.

        Args:
            partitioning: output of the velocity analyzer.
            index_factory: builds one sub-index per partition number.
            buffer: the buffer pool shared by every sub-index.
            name: display name used by the harness (e.g. ``"Bx(VP)"``).
            space: data space, when known; seeds kNN filter radii.
            index_kwargs: backend keyword arguments forwarded through the
                manager to every ``index_factory`` call (e.g. the Bx
                ``key_store`` backend choice).
        """
        self.partitioning = partitioning
        self.buffer = buffer
        self.name = name
        self.space = space
        self.manager = IndexManager(partitioning, index_factory, index_kwargs=index_kwargs)

    # ------------------------------------------------------------------
    # Index protocol (mirrors the unpartitioned indexes)
    # ------------------------------------------------------------------
    def insert(self, obj: MovingObject) -> None:
        """Insert an object (routed to its partition by the manager)."""
        self.manager.insert(obj)

    def bulk_load(
        self, objects: Sequence[MovingObject], strategy: Optional[str] = None
    ) -> None:
        """Bulk-build every partition's index in one pass (see the manager).

        The velocity analysis itself happens once, up front, when the
        :class:`~repro.core.velocity_analyzer.VelocityPartitioning` passed to
        the factory functions below is computed — bulk loading only routes
        and packs.  ``strategy`` selects the packing strategy for
        sub-indexes that understand one (the TPR family).
        """
        self.manager.bulk_load(objects, strategy=strategy)

    def delete(self, obj: MovingObject) -> bool:
        """Delete an object by id; True when it was stored."""
        return self.manager.delete(obj.oid)

    def insert_batch(self, objects: Sequence[MovingObject]) -> None:
        """Batched :meth:`insert` (see :meth:`IndexManager.insert_batch`).

        One vectorized classification/rotation pass routes the batch and
        each touched sub-index receives one grouped ``insert_batch``.
        """
        self.manager.insert_batch(list(objects))

    def delete_batch(self, objects: Sequence[MovingObject]) -> List[bool]:
        """Batched :meth:`delete`; success flags align with the input."""
        return self.manager.delete_batch([obj.oid for obj in objects])

    def update(self, old: MovingObject, new: MovingObject) -> bool:
        """Update an object (it may migrate partitions); True when it existed."""
        existed = self.manager.partition_of(old.oid) is not None
        self.manager.update(new)
        return existed

    def update_batch(self, pairs: Sequence[Tuple[MovingObject, MovingObject]]) -> int:
        """Batched :meth:`update`; returns how many old snapshots existed.

        Classification, frame rotation and routing for the whole batch run
        in one pass through the manager (see
        :meth:`~repro.core.index_manager.IndexManager.update_batch`).
        """
        pairs = list(pairs)
        oids = [old.oid for old, _ in pairs]
        if len(set(oids)) != len(oids):
            # Repeated oids: a later pair's existence depends on an earlier
            # pair's insert, so the count must be evaluated sequentially.
            return sum(1 for old, new in pairs if self.update(old, new))
        # With unique oids every pair's object exists afterwards, so the
        # directory growth is exactly the number of pairs that did NOT
        # exist — one O(1) size delta instead of a per-pair lookup pass.
        before = len(self.manager)
        self.manager.update_batch([new for _, new in pairs])
        return len(pairs) - (len(self.manager) - before)

    def range_query(self, query: RangeQuery, exact: bool = True) -> List[int]:
        """Object ids qualifying for ``query`` (Algorithm 3 over all partitions)."""
        del exact  # the VP query algorithm always applies the exact filter
        return self.manager.range_query(query)

    def range_query_batch(
        self, queries: Sequence[RangeQuery], exact: bool = True
    ) -> List[List[int]]:
        """Batched :meth:`range_query`; per-query results align with the input."""
        del exact  # the VP query algorithm always applies the exact filter
        return self.manager.range_query_batch(list(queries))

    def knn_query(
        self,
        center: Point,
        k: int,
        query_time: float,
        issue_time: float = 0.0,
        space: Optional[Rect] = None,
        radius_state: Optional[AdaptiveRadius] = None,
    ) -> List[Tuple[int, float]]:
        """Single-probe kNN (see :meth:`IndexManager.knn_query`)."""
        return self.manager.knn_query(
            center,
            k,
            query_time,
            issue_time=issue_time,
            space=space if space is not None else self.space,
            radius_state=radius_state,
        )

    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
        radius_state: Optional[AdaptiveRadius] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Batched kNN over every partition (see :meth:`IndexManager.knn_query_batch`)."""
        return self.manager.knn_query_batch(
            list(queries),
            space=space if space is not None else self.space,
            radius_state=radius_state,
        )

    def __len__(self) -> int:
        return len(self.manager)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dva_indexes(self) -> List[SubIndex]:
        """The underlying per-DVA sub-indexes."""
        return self.manager.dva_indexes

    @property
    def outlier_index(self) -> SubIndex:
        """The sub-index holding velocity outliers."""
        return self.manager.outlier_index

    def partition_sizes(self):
        """Live object count per partition (including the outlier index)."""
        return self.manager.partition_sizes()


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
    or a backend class; see ``docs/backends.md``) for *every* sub-index —
    the choice travels through the index manager's construction path, so
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

    def factory(partition: int, key_store: Optional[object] = None) -> BxTree:
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

    return VPIndex(
        partitioning,
        factory,
        shared_buffer,
        name="Bx(VP)",
        space=space,
        index_kwargs={"key_store": key_store},
    )


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


def space_center(space: Rect = DEFAULT_SPACE) -> Point:
    """Center of the data space (handy for building example queries)."""
    return space.center
