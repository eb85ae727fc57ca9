"""Figure 21: effect of the maximum object speed on range-query cost.

The paper's analysis (Section 4) predicts that the unpartitioned search
space grows quadratically with speed while the partitioned one grows nearly
linearly, so the VP advantage must widen as the maximum speed increases.
"""

import pytest

from bench_utils import print_figure, run_once, series

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

SPEEDS = (20.0, 60.0, 100.0, 160.0)


def test_fig21_effect_of_max_speed(benchmark, sweep_params):
    rows = run_once(
        benchmark, experiments.fig21_max_speed, "SA", sweep_params, speeds=SPEEDS
    )
    print_figure("figure_21", "Figure 21 — effect of maximum object speed (SA)", rows)

    bx = series(rows, "Bx", "max_speed")
    bx_vp = series(rows, "Bx(VP)", "max_speed")
    tpr = series(rows, "TPR*", "max_speed")
    tpr_vp = series(rows, "TPR*(VP)", "max_speed")

    # The unpartitioned indexes suffer from higher speeds.
    assert bx[-1] > bx[0]
    assert tpr[-1] >= tpr[0]

    # At the highest speed the VP variants clearly win ...
    assert bx_vp[-1] < bx[-1]
    assert tpr_vp[-1] < tpr[-1]

    # ... and the relative gain at the highest speed is at least as large as
    # at the lowest speed (the gap widens with speed).
    bx_gain_low = bx[0] / max(bx_vp[0], 1e-9)
    bx_gain_high = bx[-1] / max(bx_vp[-1], 1e-9)
    assert bx_gain_high >= bx_gain_low * 0.9
