"""The velocity partitioning (VP) technique — the paper's core contribution.

The package provides:

* :mod:`repro.core.pca` — principal components analysis of velocity points;
* :mod:`repro.core.pc_kmeans` — k-means clustering whose distance measure is
  the perpendicular distance to each cluster's first principal component
  (Algorithm 2), plus the two naive baselines of Section 5.1;
* :mod:`repro.core.outlier` — the outlier threshold τ chosen by minimizing
  the rate of search-area expansion (Section 5.2, Equations 8-10);
* :mod:`repro.core.velocity_analyzer` — Algorithm 1, combining the above;
* :mod:`repro.core.dva` — dominant velocity axes and coordinate transforms;
* :mod:`repro.core.index_manager` — :class:`VPIndex`, the one class that
  routes inserts/deletes/updates and range/kNN queries across the DVA indexes
  and the outlier index (Algorithm 3), beside the ``MovingIndex`` protocol;
* :mod:`repro.core.partitioned_index` — :func:`make_index`, the one function
  that turns a family name into an index, the Bx(VP) and TPR*(VP) factories
  it calls, and sample helpers used by the experiments;
* :mod:`repro.core.cost_model` — the analytic search-space-expansion model
  of Section 4 (Equations 2-7).
"""

from repro.core.dva import DominantVelocityAxis, CoordinateFrame
from repro.core.pca import principal_components, first_principal_component
from repro.core.pc_kmeans import (
    find_dvas,
    pca_only_dva,
    centroid_kmeans_dvas,
    PCKMeansResult,
)
from repro.core.outlier import optimal_tau, expansion_rate_objective
from repro.core.velocity_analyzer import VelocityAnalyzer, VelocityPartitioning
from repro.core.adaptation import TauMonitor, refresh_taus
from repro.core.index_manager import MovingIndex, VPIndex
from repro.core.partitioned_index import make_index, make_vp_bx_tree, make_vp_tprstar_tree
from repro.core.cost_model import (
    unpartitioned_search_area,
    partitioned_search_area,
    unpartitioned_search_volume,
    partitioned_search_volume,
    search_volume_difference,
    crossover_time,
)

__all__ = [
    "DominantVelocityAxis",
    "CoordinateFrame",
    "principal_components",
    "first_principal_component",
    "find_dvas",
    "pca_only_dva",
    "centroid_kmeans_dvas",
    "PCKMeansResult",
    "optimal_tau",
    "expansion_rate_objective",
    "VelocityAnalyzer",
    "VelocityPartitioning",
    "TauMonitor",
    "refresh_taus",
    "MovingIndex",
    "VPIndex",
    "make_index",
    "make_vp_bx_tree",
    "make_vp_tprstar_tree",
    "unpartitioned_search_area",
    "partitioned_search_area",
    "unpartitioned_search_volume",
    "partitioned_search_volume",
    "search_volume_difference",
    "crossover_time",
]
