"""The TPR*-tree: cost-model-driven variant of the TPR-tree.

Tao et al. (VLDB 2003) observed that the original TPR-tree applies the
R*-tree heuristics to the bounds at the insertion time only, ignoring how
the bounds degrade as they expand.  The TPR*-tree instead evaluates every
structural choice with the *sweeping-region* metric: the area swept by the
(transformed) node bound over a time horizon, which is exactly the node's
contribution to the expected number of node accesses of a future query
(Equation 1 of the paper).

This implementation keeps the TPR-tree's overall structure and overrides:

* the choose-subtree / split objective, replacing projected area with the
  sweeping volume over the optimization horizon, which penalizes nodes that
  group objects moving in different directions; and
* overflow handling, performing one *pick-worst* forced reinsertion per
  level per insertion (the entries whose removal shrinks the node's sweeping
  volume the most are reinserted) before resorting to a split.

The tree is additionally optimized for a nominal query extent (the paper
tunes the TPR*-tree for 1000 x 1000 m queries): the sweeping volume is
computed on the node bound enlarged by half the nominal query extent,
mirroring the transformed-node construction of the cost model.
"""

from __future__ import annotations

from typing import List

from repro.geometry import kernels
from repro.objects.moving_object import MovingObject
from repro.tprtree.node import TPRNode
from repro.tprtree.tpr_tree import TPRTree

#: Nominal query side length the tree is optimized for (Section 6 of the
#: paper: "The TPR*-tree is optimized for query size of 1000x1000m^2").
DEFAULT_NOMINAL_QUERY_EXTENT = 1000.0

#: Fraction of a node's entries removed by a pick-worst forced reinsertion.
REINSERT_FRACTION = 0.3


class TPRStarTree(TPRTree):
    """TPR*-tree with sweeping-region-driven insertion heuristics."""

    name = "TPR*"

    def __init__(self, *args, **kwargs) -> None:
        """Takes exactly the :class:`TPRTree` constructor arguments."""
        super().__init__(*args, **kwargs)
        self._reinsert_done_levels: set = set()

    # ------------------------------------------------------------------
    # Cost metric: sweeping volume of the transformed bound over the horizon
    # ------------------------------------------------------------------
    def _extent_cost(self, ext: kernels.Extent) -> float:
        """Fused sweep integral of the bound grown by the nominal query extent."""
        return kernels.extent_sweep_volume(ext, DEFAULT_NOMINAL_QUERY_EXTENT, self.horizon)

    def _split_cost_extents(self, ext_a: kernels.Extent, ext_b: kernels.Extent) -> float:
        """Sweeping volumes of the halves plus their overlap now and at the horizon."""
        overlap = kernels.intersection_area(ext_a, ext_b)
        overlap_end = kernels.intersection_area(ext_a, ext_b, self.horizon)
        return (
            self._extent_cost(ext_a)
            + self._extent_cost(ext_b)
            + 0.5 * self.horizon * (overlap + overlap_end)
        )

    def _pick_child(self, node: TPRNode, ext_new: kernels.Extent) -> int:
        """Slot of the child whose sweeping volume grows least by absorbing ``ext_new``."""
        return kernels.soa_choose_child_sweep(
            *node.columns, ext_new, self.current_time, DEFAULT_NOMINAL_QUERY_EXTENT, self.horizon
        )

    # ------------------------------------------------------------------
    # Insertion with pick-worst forced reinsertion
    # ------------------------------------------------------------------
    def _insert_one(self, obj: MovingObject) -> None:
        self._reinsert_done_levels = set()
        super()._insert_one(obj)

    def _handle_overflow_and_adjust(self, path: List[TPRNode], base_level: int = 0) -> None:
        index = len(path) - 1
        while index >= 0:
            node = path[index]
            if node.is_overfull(self.max_entries):
                level = self._path_level(path, index, base_level)
                if level not in self._reinsert_done_levels and index > 0:
                    self._reinsert_done_levels.add(level)
                    self._pick_worst_reinsert(node, path, index, level)
                    return
                self._split_and_propagate(node, path, index, base_level)
                return
            if index > 0:
                self._tighten_parent(path[index - 1], node)
            index -= 1

    def _pick_worst_reinsert(
        self, node: TPRNode, path: List[TPRNode], index: int, level: int
    ) -> None:
        """Remove the entries that degrade the node most and re-insert them.

        "Pick worst" ranks entries by how much the node's sweeping volume
        shrinks when the entry is removed — entries moving against the
        grain of the node contribute the most and are evicted first.  The
        leave-one-out bounds come from prefix/suffix unions of the kernel
        extents, so scoring the whole node is O(n) instead of O(n^2).
        """
        t = self.current_time
        n = node.num_entries
        count = max(1, int(n * REINSERT_FRACTION))
        extents = kernels.soa_extents(*node.columns, time=t)
        full_cost = self._extent_cost(node.bound_extent(t))
        scored = [
            (full_cost - self._extent_cost(remaining), position)
            for position, remaining in enumerate(kernels.remove_one_extents(extents))
        ]
        scored.sort(key=lambda pair: pair[0], reverse=True)
        evicted_indexes = {position for _, position in scored[:count]}
        evicted = [node.entry_at(position) for _, position in scored[:count]]
        node.keep_only([i for i in range(n) if i not in evicted_indexes])
        self._write_node(node)
        # Tighten the path above the node before re-inserting.
        for upper in range(index, 0, -1):
            self._tighten_parent(path[upper - 1], path[upper])
        for entry in evicted:
            self._insert_entry(entry, level)
