"""Figure 20: effect of the number of objects on range-query cost.

The paper varies the cardinality from 100K to 500K and finds that query cost
grows roughly linearly for every index while the VP variants stay below
their unpartitioned counterparts.  The scaled-down sweep checks the same two
properties: monotone growth with data size and a persistent VP advantage.
"""

import pytest

from bench_utils import print_figure, run_once, series

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

SIZES = (500, 1_000, 1_500, 2_000)


def test_fig20_effect_of_data_size(benchmark, sweep_params):
    rows = run_once(
        benchmark, experiments.fig20_data_size, "SA", sweep_params, sizes=SIZES
    )
    print_figure("figure_20", "Figure 20 — effect of data size (SA)", rows)

    for index_name in ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)"):
        io = series(rows, index_name, "num_objects")
        assert len(io) == len(SIZES)
        # Query cost grows with cardinality (compare smallest and largest).
        assert io[-1] >= io[0]

    bx = series(rows, "Bx", "num_objects")
    bx_vp = series(rows, "Bx(VP)", "num_objects")
    tpr = series(rows, "TPR*", "num_objects")
    tpr_vp = series(rows, "TPR*(VP)", "num_objects")
    # At the largest size the VP variants must hold their advantage.
    assert bx_vp[-1] <= bx[-1] * 1.05
    assert tpr_vp[-1] <= tpr[-1] * 1.05
