"""Figure 23: effect of the query predictive time (circular ranges).

Querying further into the future expands the search space; the paper shows
the Bx-tree degrades fastest and the VP variants degrade most slowly, with
the VP advantage growing with the predictive time.
"""

import pytest

from bench_utils import print_figure, run_once, series

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

TIMES = (20.0, 60.0, 90.0, 120.0)


def test_fig23_effect_of_predictive_time(benchmark, sweep_params):
    rows = run_once(
        benchmark, experiments.fig23_predictive_time, "SA", sweep_params, times=TIMES
    )
    print_figure("figure_23", "Figure 23 — effect of query predictive time (SA)", rows)

    bx = series(rows, "Bx", "predictive_time")
    bx_vp = series(rows, "Bx(VP)", "predictive_time")
    tpr = series(rows, "TPR*", "predictive_time")
    tpr_vp = series(rows, "TPR*(VP)", "predictive_time")

    # Looking further ahead costs more for the unpartitioned indexes.
    assert bx[-1] > bx[0]
    assert tpr[-1] >= tpr[0] * 0.9

    # At the longest predictive time the VP variants win.
    assert bx_vp[-1] < bx[-1]
    assert tpr_vp[-1] <= tpr[-1]

    # And the VP curves grow more slowly than the unpartitioned ones.
    assert (bx_vp[-1] - bx_vp[0]) <= (bx[-1] - bx[0])
