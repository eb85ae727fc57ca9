"""Shared helpers for bottom-up (bulk) index packing.

Besides the chunking arithmetic, this module hosts the *velocity binning*
behind the ``velocity_str`` packing strategy: objects are grouped by the
dominant velocity axis (DVA) closest to their velocity — the same analysis
the paper's VP layer performs at indexing time — so that each STR-packed
node holds objects that move compatibly and its time-parameterized bound
grows along one axis instead of ballooning in every direction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

#: Packing strategies understood by the TPR-family ``bulk_load``.
PACKING_STRATEGIES = ("midpoint_str", "velocity_str")


def chunk_count(n: int, capacity: int) -> int:
    """Number of nodes needed to pack ``n`` entries at up to ``capacity`` each."""
    return max(1, -(-n // capacity))


def even_chunks(items: List, num_chunks: int) -> List[List]:
    """Split ``items`` into ``num_chunks`` contiguous runs whose sizes differ by at most one."""
    base, extra = divmod(len(items), num_chunks)
    chunks: List[List] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def velocity_bins(
    objects: Sequence,
    axes: Optional[Sequence] = None,
    k: int = 2,
    seed: Optional[int] = 0,
    min_bin: int = 1,
) -> List[List]:
    """Group moving objects by their nearest dominant velocity axis.

    Args:
        objects: moving objects (anything with a ``velocity`` vector).
        axes: dominant velocity axes to bin against.  When omitted, the
            velocity analyzer (PC-distance k-means, Algorithm 1 of the
            paper) is run over the objects' velocities to find ``k`` axes —
            the same axes the VP layer would use, so a velocity-binned
            packing mirrors the runtime partitioning.
        k: number of axes for the analyzer when ``axes`` is omitted.
        seed: analyzer seed (reproducible binning).
        min_bin: bins smaller than this are merged into the largest bin so
            downstream packing can honor minimum node fill.

    Returns:
        A list of non-empty object bins (at most ``len(axes)`` of them);
        objects beyond every axis's τ share the final "outlier" bin.  Falls
        back to a single bin when the input is too small to analyze.
    """
    objects = list(objects)
    if axes is None:
        if len(objects) <= max(k, 1):
            return [objects] if objects else []
        from repro.core.velocity_analyzer import VelocityAnalyzer

        partitioning = VelocityAnalyzer(k=k, seed=seed).analyze(
            [obj.velocity for obj in objects]
        )
        assigned = partitioning.partition_for_batch([obj.velocity for obj in objects])
        num_bins = partitioning.k + 1
        bins: List[List] = [[] for _ in range(num_bins)]
        for obj, partition in zip(objects, assigned):
            bins[partition if partition is not None else num_bins - 1].append(obj)
    else:
        bins = [[] for _ in axes]
        for obj in objects:
            best = min(
                range(len(axes)),
                key=lambda i: obj.velocity.perpendicular_distance_to_axis(axes[i]),
            )
            bins[best].append(obj)
    bins = [group for group in bins if group]
    if len(bins) <= 1:
        return bins
    # Merge undersized bins into the largest one so every bin can fill its
    # nodes to the tree's minimum occupancy.
    small = [group for group in bins if len(group) < min_bin]
    bins = [group for group in bins if len(group) >= min_bin]
    if small:
        if not bins:
            merged: List = []
            for group in small:
                merged.extend(group)
            return [merged]
        largest = max(bins, key=len)
        for group in small:
            largest.extend(group)
    return bins
