"""Smoke tests of the per-figure experiment drivers (tiny parameters).

These tests check that every driver produces rows with the expected columns
and series; the full-size shapes are exercised by the benchmarks.
"""

import pytest

from repro.bench import experiments
from repro.workload.parameters import WorkloadParameters


@pytest.fixture(scope="module")
def tiny_params():
    return WorkloadParameters(
        num_objects=120,
        max_speed=60.0,
        max_update_interval=40.0,
        query_radius=600.0,
        query_predictive_time=20.0,
        time_duration=40.0,
        num_queries=5,
        buffer_pages=8,
        page_size=512,
        seed=3,
    )


def test_fig07_rows(tiny_params):
    rows = experiments.fig07_search_space_expansion("CH", tiny_params)
    assert {row["index"] for row in rows} == {"Bx", "Bx(VP)", "TPR*", "TPR*(VP)"}
    for row in rows:
        assert row["samples"] > 0
        assert row["anisotropy"] >= 1.0


def test_fig10_rows(tiny_params):
    rows = experiments.fig10_dva_discovery("SA", tiny_params)
    assert len(rows) == 3
    ours = next(r for r in rows if "ours" in r["method"])
    naive_pca = next(r for r in rows if "naive I" in r["method"])
    assert ours["mean_perp_speed"] <= naive_pca["mean_perp_speed"]


def test_fig17_rows(tiny_params):
    rows = experiments.fig17_tau_threshold(
        "CH", tiny_params, fixed_taus=(0.0, 20.0), which=("Bx(VP)",)
    )
    modes = {row["mode"] for row in rows}
    assert modes == {"auto", "fixed"}
    assert len(rows) == 3  # 1 auto + 2 fixed


def test_fig18_rows(tiny_params):
    rows = experiments.fig18_analyzer_overhead(("CH", "uniform"), tiny_params, repetitions=2)
    assert [row["dataset"] for row in rows] == ["CH", "uniform"]
    for row in rows:
        assert row["analyzer_ms"] > 0.0


def test_fig19_rows(tiny_params):
    rows = experiments.fig19_datasets(("CH", "uniform"), tiny_params)
    assert len(rows) == 8  # 2 datasets x 4 indexes
    assert {row["dataset"] for row in rows} == {"CH", "uniform"}


def test_fig20_rows(tiny_params):
    rows = experiments.fig20_data_size("CH", tiny_params, sizes=(60, 120))
    assert {row["num_objects"] for row in rows} == {60, 120}


def test_fig21_rows(tiny_params):
    rows = experiments.fig21_max_speed("CH", tiny_params, speeds=(20.0, 60.0))
    assert {row["max_speed"] for row in rows} == {20.0, 60.0}


def test_fig22_rows(tiny_params):
    rows = experiments.fig22_query_radius("CH", tiny_params, radii=(200.0, 800.0))
    assert {row["query_radius"] for row in rows} == {200.0, 800.0}


def test_fig23_rows(tiny_params):
    rows = experiments.fig23_predictive_time("CH", tiny_params, times=(10.0, 30.0))
    assert {row["predictive_time"] for row in rows} == {10.0, 30.0}


def test_fig24_rows(tiny_params):
    rows = experiments.fig24_predictive_time_rectangular("CH", tiny_params, times=(10.0,))
    assert {row["predictive_time"] for row in rows} == {10.0}
    assert len(rows) == 4


def test_ablation_vp_parameters(tiny_params):
    rows = experiments.ablation_vp_parameters(
        "CH", tiny_params, ks=(1, 2), sample_sizes=(50,)
    )
    variants = {row["variant"] for row in rows}
    assert variants == {"k", "sample_size"}


def test_ablation_space_filling_curve(tiny_params):
    rows = experiments.ablation_space_filling_curve("CH", tiny_params)
    assert {row["curve"] for row in rows} == {"hilbert", "z"}
