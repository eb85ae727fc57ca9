"""Figure 19: query and update cost of the four indexes across the data sets.

The paper's headline result: the VP variants consistently beat their
unpartitioned counterparts on the road-network data sets (largest gain on
the most velocity-skewed network, CH), while on the uniform data set the VP
technique brings no benefit (and may cost a little).
"""

import pytest

from bench_utils import by_index, print_figure, run_once

from repro.bench import experiments
from repro.workload.generator import DATASETS

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def test_fig19_effect_of_datasets(benchmark, bench_params):
    rows = run_once(benchmark, experiments.fig19_datasets, tuple(DATASETS), bench_params)
    print_figure("figure_19", "Figure 19 — effect of varying data sets", rows)
    grouped = by_index(rows, sweep_key="dataset")

    # (a)/(b): on every road network the VP indexes answer queries with no
    # more I/O than the unpartitioned ones, and on the most skewed network
    # (CH) the improvement is substantial.
    for dataset in ("CH", "SA", "MEL", "NY"):
        assert grouped[("Bx(VP)", dataset)]["query_io"] <= grouped[("Bx", dataset)]["query_io"] * 1.10, dataset
        assert grouped[("TPR*(VP)", dataset)]["query_io"] <= grouped[("TPR*", dataset)]["query_io"] * 1.10, dataset

    ch_bx_gain = grouped[("Bx", "CH")]["query_io"] / max(grouped[("Bx(VP)", "CH")]["query_io"], 1e-9)
    ch_tpr_gain = grouped[("TPR*", "CH")]["query_io"] / max(grouped[("TPR*(VP)", "CH")]["query_io"], 1e-9)
    assert ch_bx_gain > 1.3
    assert ch_tpr_gain > 1.3

    # On uniform data there are no DVAs to exploit: the VP index must not be
    # dramatically better (its small overhead may even make it worse).
    uniform_gain = grouped[("Bx", "uniform")]["query_io"] / max(
        grouped[("Bx(VP)", "uniform")]["query_io"], 1e-9
    )
    assert uniform_gain < ch_bx_gain

    # Every index returns the same answers on the same workload.
    for dataset in DATASETS:
        counts = {grouped[(name, dataset)]["results"] for name in ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")}
        assert len(counts) == 1, f"result mismatch on {dataset}: {counts}"
