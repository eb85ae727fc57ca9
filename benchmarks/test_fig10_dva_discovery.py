"""Figures 10, 11 and 13: quality of DVA discovery.

The paper motivates the PC-distance k-means (Algorithm 2) by showing that
plain PCA produces one averaged axis and that centroid-based k-means groups
points around centroids rather than axes.  The quality metric reported here
is the mean perpendicular speed of each velocity point with respect to its
assigned axis (smaller = partitions closer to 1-D), on the rotated
San Francisco-like network where the standard axes do not coincide with the
dominant directions.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench import experiments

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def test_fig10_dva_discovery(benchmark, bench_params):
    rows = run_once(benchmark, experiments.fig10_dva_discovery, "SA", bench_params)
    print_figure("figures_10-11", "Figures 10/11 — DVA discovery quality on SA", rows)
    by_method = {row["method"]: row for row in rows}
    ours = by_method["PC-distance k-means (ours)"]["mean_perp_speed"]
    naive_pca = by_method["PCA only (naive I)"]["mean_perp_speed"]
    naive_centroid = by_method["centroid k-means (naive II)"]["mean_perp_speed"]

    # Algorithm 2 must fit the velocity points tighter than both baselines
    # (Figure 11d versus Figures 10a/10b).
    assert ours < naive_pca
    assert ours <= naive_centroid
    # And the fit must really be near-1D: residual well under the max speed.
    assert ours < 0.25 * bench_params.max_speed
