"""repro — Velocity Partitioning for moving-object indexes.

A from-scratch reproduction of *"Boosting Moving Object Indexing through
Velocity Partitioning"* (Nguyen, He, Zhang, Ward — PVLDB 5(9), 2012).

The package contains the paper's core contribution (the VP technique:
velocity analyzer, DVA coordinate frames, index manager) plus every
substrate it relies on: a simulated paged storage layer with an LRU buffer,
the TPR-tree/TPR*-tree family, a B+-tree-based Bx-tree with space-filling
curves and velocity histograms, road-network workload generators in the
style of the Chen et al. benchmark, and an experiment harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import (
        WorkloadParameters, build_workload, build_standard_indexes,
        ExperimentRunner,
    )

    params = WorkloadParameters(num_objects=2000)
    workload = build_workload("CH", params)
    indexes = build_standard_indexes(workload, params)
    runner = ExperimentRunner(workload)
    for name, index in indexes.items():
        print(runner.run(index, name=name).as_row())

One index of one family is ``make_index("TPR*", **params.index_kwargs())``
(the VP families add ``partitioning=VelocityAnalyzer().analyze(sample)``);
``build_standard_indexes`` is that call once per competitor, and
``repro.serve.ShardedIndex.build`` the same recipe once per shard.
"""

from repro.geometry import Point, Rect, Vector, MovingRect
from repro.objects import (
    MovingObject,
    RangeQuery,
    CircularRange,
    RectangularRange,
    TimeSliceRangeQuery,
    TimeIntervalRangeQuery,
    MovingRangeQuery,
    KNNQuery,
)
from repro.storage import BufferManager, DiskManager, IOStats
from repro.tprtree import TPRTree, TPRStarTree
from repro.btree import BPlusTree
from repro.bxtree import BxTree, HilbertCurve, ZCurve
from repro.core import (
    VelocityAnalyzer,
    VelocityPartitioning,
    DominantVelocityAxis,
    CoordinateFrame,
    VPIndex,
    TauMonitor,
    refresh_taus,
    make_index,
    make_vp_bx_tree,
    make_vp_tprstar_tree,
)
from repro.network import RoadNetwork, network_for
from repro.workload import (
    Workload,
    WorkloadParameters,
    build_workload,
    UniformWorkloadGenerator,
    NetworkWorkloadGenerator,
)
from repro.bench import ExperimentRunner, IndexMetrics, build_standard_indexes, run_comparison

__version__ = "1.0.0"

__all__ = [
    "Point",
    "Rect",
    "Vector",
    "MovingRect",
    "MovingObject",
    "RangeQuery",
    "CircularRange",
    "RectangularRange",
    "TimeSliceRangeQuery",
    "TimeIntervalRangeQuery",
    "MovingRangeQuery",
    "KNNQuery",
    "BufferManager",
    "DiskManager",
    "IOStats",
    "TPRTree",
    "TPRStarTree",
    "BPlusTree",
    "BxTree",
    "HilbertCurve",
    "ZCurve",
    "VelocityAnalyzer",
    "VelocityPartitioning",
    "DominantVelocityAxis",
    "CoordinateFrame",
    "VPIndex",
    "TauMonitor",
    "refresh_taus",
    "make_index",
    "make_vp_bx_tree",
    "make_vp_tprstar_tree",
    "RoadNetwork",
    "network_for",
    "Workload",
    "WorkloadParameters",
    "build_workload",
    "UniformWorkloadGenerator",
    "NetworkWorkloadGenerator",
    "ExperimentRunner",
    "IndexMetrics",
    "build_standard_indexes",
    "run_comparison",
    "__version__",
]
