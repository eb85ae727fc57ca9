"""Ablation: TPR-tree versus TPR*-tree versus TPR*(VP)-tree.

The paper builds on the TPR*-tree because its cost-model-driven insertion
already groups objects by direction *locally*; the VP technique adds the
*global* grouping.  This ablation quantifies both steps on the skewed CH
workload: the original TPR-tree (R*-style heuristics on projected MBRs), the
TPR*-tree (sweeping-region heuristics), and the velocity-partitioned
TPR*-tree.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench.harness import ExperimentRunner, build_standard_indexes
from repro.workload.generator import build_workload

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def _run(params):
    workload = build_workload("CH", params)
    indexes = build_standard_indexes(workload, params, which=("TPR", "TPR*", "TPR*(VP)"))
    # The ablation compares the trees' own insertion heuristics, so the
    # indexes are insertion-built (the paper's measurement protocol).
    runner = ExperimentRunner(workload, bulk_build=False)
    return [runner.run(index, name=name).as_row() for name, index in indexes.items()]


def test_ablation_tpr_family(benchmark, sweep_params):
    rows = run_once(benchmark, _run, sweep_params)
    print_figure("ablation_tpr_family", "Ablation — TPR-tree family on CH", rows)
    by_name = {row["index"]: row for row in rows}

    # All three return identical answers.
    assert len({row["results"] for row in rows}) == 1

    # Each refinement step must not hurt query cost on skewed data, and the
    # full pipeline (TPR* + VP) must clearly beat the original TPR-tree.
    assert by_name["TPR*"]["query_io"] <= by_name["TPR"]["query_io"] * 1.15
    assert by_name["TPR*(VP)"]["query_io"] <= by_name["TPR*"]["query_io"] * 1.05
    assert by_name["TPR*(VP)"]["query_io"] < by_name["TPR"]["query_io"]
