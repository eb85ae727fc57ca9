"""Figure 17: automatically chosen τ versus a sweep of fixed τ thresholds.

The paper shows (on CH and SA) that the τ picked by the Section 5.2
algorithm gives query I/O close to the best fixed τ of a manual sweep.  The
benchmark runs the same sweep and asserts the automatic τ is within a small
factor of the best fixed setting for both VP indexes.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow

#: Allowed slack between the automatic τ and the best fixed τ of the sweep.
TOLERANCE = 1.35


@pytest.mark.parametrize("dataset", ["CH", "SA"])
def test_fig17_tau_threshold(benchmark, sweep_params, dataset):
    rows = run_once(
        benchmark,
        experiments.fig17_tau_threshold,
        dataset,
        sweep_params,
        fixed_taus=(0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0),
    )
    print_figure(
        f"figure_17_{dataset.lower()}", f"Figure 17 — τ threshold sweep on {dataset}", rows
    )
    for index_name in ("Bx(VP)", "TPR*(VP)"):
        auto = [r for r in rows if r["index"] == index_name and r["mode"] == "auto"]
        fixed = [r for r in rows if r["index"] == index_name and r["mode"] == "fixed"]
        assert auto and fixed
        best_fixed = min(r["query_io"] for r in fixed)
        auto_io = auto[0]["query_io"]
        assert auto_io <= best_fixed * TOLERANCE + 1.0, (
            f"{index_name} on {dataset}: automatic τ gives {auto_io} I/O, "
            f"best fixed τ gives {best_fixed}"
        )
