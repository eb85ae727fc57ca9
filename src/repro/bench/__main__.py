"""Command-line entry point for the experiment drivers.

Examples::

    python -m repro.bench --list
    python -m repro.bench --figure fig19
    python -m repro.bench --figure fig21 --dataset SA --objects 2000
    python -m repro.bench --all --output results/

Each figure prints its table to stdout; with ``--output`` a CSV per figure
is written as well.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.bench import experiments
from repro.bench.reporting import format_table, rows_to_csv
from repro.workload.parameters import WorkloadParameters

#: Registry of figure name -> (description, driver).  Every driver takes the
#: selected dataset as its first argument; fig18 and fig19 (None here) sweep
#: every dataset and are dispatched by name.
FIGURES: Dict[str, tuple] = {
    "fig07": ("search space expansion (Figure 7)", experiments.fig07_search_space_expansion),
    "fig10": ("DVA discovery quality (Figures 10/11)", experiments.fig10_dva_discovery),
    "fig17": ("tau threshold sweep (Figure 17)", experiments.fig17_tau_threshold),
    "fig18": ("velocity analyzer overhead (Figure 18)", None),
    "fig19": ("effect of data sets (Figure 19)", None),
    "fig20": ("effect of data size (Figure 20)", experiments.fig20_data_size),
    "fig21": ("effect of maximum speed (Figure 21)", experiments.fig21_max_speed),
    "fig22": ("effect of query radius (Figure 22)", experiments.fig22_query_radius),
    "fig23": ("effect of predictive time (Figure 23)", experiments.fig23_predictive_time),
    "fig24": ("rectangular queries (Figure 24)", experiments.fig24_predictive_time_rectangular),
    "ablation_vp": ("ablation of k and sample size", experiments.ablation_vp_parameters),
    "ablation_curve": (
        "ablation of the space-filling curve",
        experiments.ablation_space_filling_curve,
    ),
}


def _run_figure(
    name: str,
    dataset: str,
    params: WorkloadParameters,
    bulk_build: bool = False,
) -> List[dict]:
    if name == "fig18":
        return experiments.fig18_analyzer_overhead(params=params)
    if name == "fig19":
        return experiments.fig19_datasets(params=params, bulk_build=bulk_build)
    _, driver = FIGURES[name]
    return driver(dataset, params, bulk_build=bulk_build)


def build_parser() -> argparse.ArgumentParser:
    """Command-line interface of ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper's experiments and print/write their tables.",
    )
    parser.add_argument("--figure", choices=sorted(FIGURES), help="figure to reproduce")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list available figures")
    parser.add_argument("--dataset", default="SA", help="dataset for single-dataset figures")
    parser.add_argument("--objects", type=int, default=None, help="override object cardinality")
    parser.add_argument("--queries", type=int, default=None, help="override query count")
    parser.add_argument("--duration", type=float, default=None, help="override time duration")
    parser.add_argument("--output", default=None, help="directory to write CSV tables into")
    parser.add_argument(
        "--bulk-build",
        action="store_true",
        help="build indexes with bulk_load (fast) instead of the paper's "
        "insertion-built measurement protocol",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested figures and print (or write) their tables."""
    args = build_parser().parse_args(argv)
    if args.list:
        for name, (description, _driver) in sorted(FIGURES.items()):
            print(f"{name:15s} {description}")
        return 0
    if not args.all and not args.figure:
        build_parser().print_help()
        return 2

    overrides = {}
    if args.objects is not None:
        overrides["num_objects"] = args.objects
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.duration is not None:
        overrides["time_duration"] = args.duration
    params = WorkloadParameters().scaled(**overrides) if overrides else WorkloadParameters()

    names = sorted(FIGURES) if args.all else [args.figure]
    if args.output:
        os.makedirs(args.output, exist_ok=True)
    for name in names:
        description = FIGURES[name][0]
        rows = _run_figure(name, args.dataset, params, bulk_build=args.bulk_build)
        print(format_table(rows, title=f"{name} — {description}"))
        if args.output:
            path = os.path.join(args.output, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rows_to_csv(rows))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
