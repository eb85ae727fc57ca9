"""Figure 22: effect of the circular range-query radius.

The paper observes that the VP advantage is largest for small query radii
(where velocity-driven enlargement dominates the window size) and shrinks in
relative terms as the radius grows (the query extent starts to dominate).
"""

import pytest

from bench_utils import print_figure, run_once, series

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

RADII = (100.0, 300.0, 500.0, 1000.0)


def test_fig22_effect_of_query_radius(benchmark, sweep_params):
    rows = run_once(
        benchmark, experiments.fig22_query_radius, "SA", sweep_params, radii=RADII
    )
    print_figure("figure_22", "Figure 22 — effect of range query radius (SA)", rows)

    for index_name in ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)"):
        io = series(rows, index_name, "query_radius")
        # Larger query windows cannot be cheaper to answer.
        assert io[-1] >= io[0] * 0.9

    bx = series(rows, "Bx", "query_radius")
    bx_vp = series(rows, "Bx(VP)", "query_radius")
    # The VP index keeps an advantage at the small-radius end, where the
    # paper reports the largest factors.
    assert bx_vp[0] <= bx[0]

    # Relative gain at the smallest radius is at least as big as at the
    # largest radius (the advantage shrinks as the extent dominates).
    gain_small = bx[0] / max(bx_vp[0], 1e-9)
    gain_large = bx[-1] / max(bx_vp[-1], 1e-9)
    assert gain_small >= gain_large * 0.8
