"""Figure 24: predictive-time sweep with rectangular range queries.

The paper repeats the Figure 23 experiment with 1000 m x 1000 m rectangular
windows and reports "almost the same" results as for circular ranges; the
benchmark checks the same qualitative ordering under rectangular queries.
"""

import pytest

from bench_utils import print_figure, run_once, series

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

TIMES = (20.0, 60.0, 120.0)


def test_fig24_rectangular_predictive_time(benchmark, sweep_params):
    rows = run_once(
        benchmark,
        experiments.fig24_predictive_time_rectangular,
        "SA",
        sweep_params,
        times=TIMES,
    )
    print_figure("figure_24", "Figure 24 — rectangular range queries (SA)", rows)

    bx = series(rows, "Bx", "predictive_time")
    bx_vp = series(rows, "Bx(VP)", "predictive_time")
    tpr = series(rows, "TPR*", "predictive_time")
    tpr_vp = series(rows, "TPR*(VP)", "predictive_time")

    # Same ordering as the circular-query experiment at the far end.
    assert bx_vp[-1] < bx[-1]
    assert tpr_vp[-1] <= tpr[-1] * 1.05
    # The unpartitioned Bx-tree still degrades with predictive time.
    assert bx[-1] > bx[0]
