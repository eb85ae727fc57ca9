"""Figure 7: search-space expansion, unpartitioned versus partitioned indexes.

The paper shows that on the Chicago data set the leaf MBRs of an
unpartitioned TPR*-tree (and the enlarged query windows of an unpartitioned
Bx-tree) expand in a 2-D space, while their VP-partitioned counterparts
expand in a near 1-D space.  The benchmark reports, per index, the mean
expansion rate along and across the index's primary axis and the resulting
anisotropy; the VP indexes must be markedly more anisotropic.
"""

import pytest

from bench_utils import by_index, print_figure, run_once

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def test_fig07_search_space_expansion(benchmark, bench_params):
    rows = run_once(
        benchmark, experiments.fig07_search_space_expansion, "CH", bench_params
    )
    print_figure("figure_7", "Figure 7 — search space expansion on CH", rows)
    grouped = by_index(rows)

    # The partitioned TPR*-tree's leaves expand mostly along the DVA: the
    # across-DVA rate must be far smaller than the along-DVA rate, while the
    # unpartitioned tree expands on both axes at comparable rates.
    assert grouped["TPR*(VP)"]["anisotropy"] > grouped["TPR*"]["anisotropy"]
    assert grouped["TPR*(VP)"]["mean_across"] < grouped["TPR*"]["mean_across"]

    # Same story for the Bx-tree's query enlargement.
    assert grouped["Bx(VP)"]["anisotropy"] > grouped["Bx"]["anisotropy"]
    assert grouped["Bx(VP)"]["mean_across"] < grouped["Bx"]["mean_across"]
