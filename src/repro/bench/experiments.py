"""Per-figure experiment drivers (Section 6 of the paper).

Each function reproduces one figure of the paper's evaluation: it assembles
the workloads, runs the competing indexes through the harness, and returns a
list of row dictionaries with the same series the figure plots.  The
``benchmarks/`` pytest modules call these functions and print the tables.

The paper-scale parameters (100K+ objects) are impractical for a pure-Python
simulator, so each driver takes a :class:`~repro.workload.WorkloadParameters`
whose defaults are scaled down but keep every ratio that drives the paper's
qualitative conclusions.

**Build protocol.**  The comparison drivers default to ``bulk_build=False``:
the paper's figures compare *insertion-built* indexes (the TPR*-tree's
choose-subtree/split/reinsertion heuristics are part of what is being
measured), so the figure assertions are calibrated against that structure.
Pass ``bulk_build=True`` to build with the ~10-40x faster STR/leaf-packing
``bulk_load`` path instead — useful for quick looks; ``perfbench`` times
bulk-built indexes.
"""

from __future__ import annotations

import math
import time as _time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.expansion import (
    expansion_anisotropy,
    leaf_mbr_expansion_rates,
    mean_across_rate,
    mean_along_rate,
    query_expansion_rates,
)
from repro.bench.harness import ExperimentRunner, build_standard_indexes, run_comparison
from repro.core.pc_kmeans import centroid_kmeans_dvas, find_dvas, pca_only_dva
from repro.core.partitioned_index import make_index
from repro.core.velocity_analyzer import VelocityAnalyzer, VelocityPartitioning
from repro.workload.generator import DATASETS, build_workload
from repro.workload.parameters import WorkloadParameters

Row = Dict[str, object]


def _default_params(params: Optional[WorkloadParameters]) -> WorkloadParameters:
    return params if params is not None else WorkloadParameters()


# ----------------------------------------------------------------------
# Figure 7: search space expansion, partitioned versus unpartitioned
# ----------------------------------------------------------------------
def fig07_search_space_expansion(
    dataset: str = "CH",
    params: Optional[WorkloadParameters] = None,
    bulk_build: bool = False,
) -> List[Row]:
    """Leaf-MBR / query expansion rates of the four indexes on one dataset."""
    params = _default_params(params)
    workload = build_workload(dataset, params)
    indexes = build_standard_indexes(workload, params)
    runner = ExperimentRunner(workload, bulk_build=bulk_build)
    rows: List[Row] = []
    queries = [e.query for e in workload.query_events][:20]
    for name, index in indexes.items():
        runner.run(index, name=name)  # build + replay so bounds reflect updates
        if name == "TPR*":
            samples = leaf_mbr_expansion_rates(index, label=name)
        elif name == "TPR*(VP)":
            samples = []
            for sub in index.dva_indexes:
                samples.extend(leaf_mbr_expansion_rates(sub, label=name))
        elif name == "Bx":
            samples = query_expansion_rates(index, queries, label=name)
        else:  # Bx(VP)
            samples = []
            for partition, sub in enumerate(index.dva_indexes):
                transformed = [index.transform_query(q, partition) for q in queries]
                samples.extend(query_expansion_rates(sub, transformed, label=name))
        rows.append(
            {
                "index": name,
                "dataset": dataset,
                "samples": len(samples),
                "mean_along": round(mean_along_rate(samples) or 0.0, 2),
                "mean_across": round(mean_across_rate(samples) or 0.0, 2),
                "anisotropy": round(expansion_anisotropy(samples) or 1.0, 2),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figures 10/11/13: DVA discovery quality
# ----------------------------------------------------------------------
def fig10_dva_discovery(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    bulk_build: bool = False,
) -> List[Row]:
    """Compare the naive DVA-finding approaches against Algorithm 2 (k = 2).

    The quality metric is the mean perpendicular distance from each velocity
    point to its assigned axis — small values mean the partitions really are
    near-1D, which is what the VP technique needs.
    """
    del bulk_build  # accepted for driver-signature uniformity; no index is built
    params = _default_params(params)
    workload = build_workload(dataset, params, include_queries=False)
    velocities = workload.velocity_sample()

    def quality(result) -> float:
        """Mean perpendicular distance of the sample to its assigned axes."""
        total = 0.0
        for velocity, assignment in zip(velocities, result.assignments):
            total += velocity.perpendicular_distance_to_axis(result.axes[assignment])
        return total / len(velocities)

    rows: List[Row] = []
    for name, result in (
        ("PCA only (naive I)", pca_only_dva(velocities)),
        ("centroid k-means (naive II)", centroid_kmeans_dvas(velocities, 2)),
        ("PC-distance k-means (ours)", find_dvas(velocities, 2)),
    ):
        angles = sorted(round(math.degrees(axis.angle) % 180.0, 1) for axis in result.axes)
        rows.append(
            {
                "method": name,
                "dataset": dataset,
                "axes_deg": angles,
                "mean_perp_speed": round(quality(result), 2),
                "iterations": result.iterations,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 17: automatic τ versus fixed τ sweep
# ----------------------------------------------------------------------
def fig17_tau_threshold(
    dataset: str = "CH",
    params: Optional[WorkloadParameters] = None,
    fixed_taus: Sequence[float] = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 60.0),
    which: Sequence[str] = ("Bx(VP)", "TPR*(VP)"),
    bulk_build: bool = False,
) -> List[Row]:
    """Query I/O of the VP indexes under fixed τ values versus the automatic τ."""
    params = _default_params(params)
    workload = build_workload(dataset, params)
    analyzer = VelocityAnalyzer(k=2)
    auto = analyzer.analyze(workload.velocity_sample())
    runner = ExperimentRunner(workload, bulk_build=bulk_build)

    def run_with(partitioning: VelocityPartitioning, label: str, tau_label: object) -> List[Row]:
        """Replay the workload on both VP indexes under one partitioning."""
        rows: List[Row] = []
        for name in which:
            index = make_index(name, partitioning=partitioning, **params.index_kwargs())
            metrics = runner.run(index, name=name)
            rows.append(
                {
                    "index": name,
                    "dataset": dataset,
                    "tau": tau_label,
                    "mode": label,
                    "query_io": round(metrics.avg_query_io, 2),
                    "query_nodes": round(metrics.avg_query_node_accesses, 2),
                }
            )
        return rows

    rows: List[Row] = []
    rows.extend(run_with(auto, "auto", [round(d.tau, 2) for d in auto.dvas]))
    for tau in fixed_taus:
        fixed = VelocityPartitioning(
            dvas=[dva.with_tau(tau) for dva in auto.dvas],
            analysis_time_seconds=auto.analysis_time_seconds,
        )
        rows.extend(run_with(fixed, "fixed", tau))
    return rows


# ----------------------------------------------------------------------
# Figure 18: velocity analyzer overhead
# ----------------------------------------------------------------------
def fig18_analyzer_overhead(
    datasets: Sequence[str] = tuple(DATASETS),
    params: Optional[WorkloadParameters] = None,
    repetitions: int = 5,
) -> List[Row]:
    """Wall-clock time of the velocity analyzer per dataset (Figure 18)."""
    params = _default_params(params)
    rows: List[Row] = []
    for dataset in datasets:
        workload = build_workload(dataset, params, include_queries=False)
        sample = workload.velocity_sample()
        times = []
        for _ in range(repetitions):
            analyzer = VelocityAnalyzer(k=2)
            started = _time.perf_counter()
            analyzer.analyze(sample)
            times.append(_time.perf_counter() - started)
        rows.append(
            {
                "dataset": dataset,
                "sample_size": len(sample),
                "analyzer_ms": round(1000.0 * sum(times) / len(times), 2),
                "repetitions": repetitions,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 19: effect of varying data sets
# ----------------------------------------------------------------------
def fig19_datasets(
    datasets: Sequence[str] = tuple(DATASETS),
    params: Optional[WorkloadParameters] = None,
    bulk_build: bool = False,
) -> List[Row]:
    """Query and update cost of the four indexes across the datasets."""
    params = _default_params(params)
    rows: List[Row] = []
    for dataset in datasets:
        workload = build_workload(dataset, params)
        for metrics in run_comparison(workload, params, bulk_build=bulk_build):
            rows.append(metrics.as_row())
    return rows


# ----------------------------------------------------------------------
# Figures 20-24: parameter sweeps
# ----------------------------------------------------------------------
def _sweep(
    dataset: str,
    params: WorkloadParameters,
    sweep_name: str,
    values: Iterable,
    make_params,
    bulk_build: bool = False,
) -> List[Row]:
    rows: List[Row] = []
    for value in values:
        swept = make_params(params, value)
        workload = build_workload(dataset, swept)
        for metrics in run_comparison(workload, swept, bulk_build=bulk_build):
            row = metrics.as_row()
            row[sweep_name] = value
            rows.append(row)
    return rows


def fig20_data_size(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    sizes: Sequence[int] = (1_000, 2_000, 3_000, 4_000, 5_000),
    bulk_build: bool = False,
) -> List[Row]:
    """Effect of object cardinality on range-query cost (paper: 100K-500K)."""
    params = _default_params(params)
    return _sweep(
        dataset,
        params,
        "num_objects",
        sizes,
        lambda p, v: p.scaled(num_objects=v),
        bulk_build=bulk_build,
    )


def fig21_max_speed(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    speeds: Sequence[float] = (20.0, 60.0, 100.0, 140.0, 200.0),
    bulk_build: bool = False,
) -> List[Row]:
    """Effect of the maximum object speed on range-query cost (paper: 20-200)."""
    params = _default_params(params)
    return _sweep(
        dataset,
        params,
        "max_speed",
        speeds,
        lambda p, v: p.scaled(max_speed=v),
        bulk_build=bulk_build,
    )


def fig22_query_radius(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    radii: Sequence[float] = (100.0, 250.0, 500.0, 750.0, 1000.0),
    bulk_build: bool = False,
) -> List[Row]:
    """Effect of the circular range radius on query cost (paper: 100-1000 m)."""
    params = _default_params(params)
    return _sweep(
        dataset,
        params,
        "query_radius",
        radii,
        lambda p, v: p.scaled(query_radius=v),
        bulk_build=bulk_build,
    )


def fig23_predictive_time(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    times: Sequence[float] = (20.0, 40.0, 60.0, 90.0, 120.0),
    bulk_build: bool = False,
) -> List[Row]:
    """Effect of the query predictive time on query cost (paper: 20-120 ts)."""
    params = _default_params(params)
    return _sweep(
        dataset,
        params,
        "predictive_time",
        times,
        lambda p, v: p.scaled(query_predictive_time=v),
        bulk_build=bulk_build,
    )


def fig24_predictive_time_rectangular(
    dataset: str = "SA",
    params: Optional[WorkloadParameters] = None,
    times: Sequence[float] = (20.0, 40.0, 60.0, 90.0, 120.0),
    bulk_build: bool = False,
) -> List[Row]:
    """Figure 23 repeated with 1000 m x 1000 m rectangular range queries."""
    params = _default_params(params).scaled(rectangular_queries=True)
    return _sweep(
        dataset,
        params,
        "predictive_time",
        times,
        lambda p, v: p.scaled(query_predictive_time=v),
        bulk_build=bulk_build,
    )


# ----------------------------------------------------------------------
# Ablations of the VP design choices (Section 5 parameters)
# ----------------------------------------------------------------------
def ablation_vp_parameters(
    dataset: str = "CH",
    params: Optional[WorkloadParameters] = None,
    ks: Sequence[int] = (1, 2, 3, 4),
    sample_sizes: Sequence[int] = (100, 1_000, 10_000),
    bulk_build: bool = False,
) -> List[Row]:
    """Sensitivity of Bx(VP) query cost to the number of DVAs and sample size."""
    params = _default_params(params)
    workload = build_workload(dataset, params)
    runner = ExperimentRunner(workload, bulk_build=bulk_build)
    rows: List[Row] = []
    for k in ks:
        analyzer = VelocityAnalyzer(k=k)
        partitioning = analyzer.analyze(workload.velocity_sample())
        index = make_index("Bx(VP)", partitioning=partitioning, **params.index_kwargs())
        metrics = runner.run(index, name=f"Bx(VP) k={k}")
        rows.append(
            {
                "variant": "k",
                "value": k,
                "dataset": dataset,
                "query_io": round(metrics.avg_query_io, 2),
                "query_ms": round(metrics.avg_query_time_ms, 3),
            }
        )
    for sample_size in sample_sizes:
        analyzer = VelocityAnalyzer(k=2, sample_size=sample_size)
        partitioning = analyzer.analyze(workload.velocity_sample())
        index = make_index("Bx(VP)", partitioning=partitioning, **params.index_kwargs())
        metrics = runner.run(index, name=f"Bx(VP) sample={sample_size}")
        rows.append(
            {
                "variant": "sample_size",
                "value": sample_size,
                "dataset": dataset,
                "query_io": round(metrics.avg_query_io, 2),
                "query_ms": round(metrics.avg_query_time_ms, 3),
            }
        )
    return rows


def ablation_space_filling_curve(
    dataset: str = "CH",
    params: Optional[WorkloadParameters] = None,
    bulk_build: bool = False,
) -> List[Row]:
    """Hilbert versus Z-curve for the (unpartitioned) Bx-tree."""
    params = _default_params(params)
    workload = build_workload(dataset, params)
    runner = ExperimentRunner(workload, bulk_build=bulk_build)
    rows: List[Row] = []
    for curve in ("hilbert", "z"):
        index = make_index("Bx", curve=curve, **params.index_kwargs())
        metrics = runner.run(index, name=f"Bx[{curve}]")
        row = metrics.as_row()
        row["curve"] = curve
        rows.append(row)
    return rows
