"""Ablations of the VP design choices (Section 5 parameters).

Not a figure of the paper: these are the design knobs the paper fixes by
fiat — the number of DVA partitions k (2 for road networks),
the velocity-sample size (10,000 points), and the space-filling curve of the
underlying Bx-tree (Hilbert).  These benchmarks quantify how sensitive the
results are to each choice.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def test_ablation_k_and_sample_size(benchmark, sweep_params):
    rows = run_once(
        benchmark,
        experiments.ablation_vp_parameters,
        "CH",
        sweep_params,
        ks=(1, 2, 3),
        sample_sizes=(100, 1_000, 10_000),
    )
    print_figure(
        "ablation_k_and_sample_size",
        "Ablation — number of DVAs and velocity sample size (CH)",
        rows,
    )

    k_rows = {row["value"]: row for row in rows if row["variant"] == "k"}
    # On a two-axis road network, k=2 must not be worse than k=1 (a single
    # averaged axis cannot separate the two traffic directions).
    assert k_rows[2]["query_io"] <= k_rows[1]["query_io"] * 1.05

    sample_rows = {row["value"]: row for row in rows if row["variant"] == "sample_size"}
    # A modest sample is already enough: the 1,000-point analysis should be
    # within ~30% of the 10,000-point analysis.
    assert sample_rows[1_000]["query_io"] <= sample_rows[10_000]["query_io"] * 1.3 + 1.0


def test_ablation_space_filling_curve(benchmark, sweep_params):
    rows = run_once(
        benchmark, experiments.ablation_space_filling_curve, "CH", sweep_params
    )
    print_figure("ablation_curve", "Ablation — Hilbert versus Z-curve for the Bx-tree (CH)", rows)
    by_curve = {row["curve"]: row for row in rows}
    assert set(by_curve) == {"hilbert", "z"}
    # Both curves answer the same queries; their costs should be in the same
    # ballpark (the Hilbert curve's better locality usually wins slightly).
    assert by_curve["hilbert"]["query_io"] <= by_curve["z"]["query_io"] * 1.5
