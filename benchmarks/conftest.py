"""Shared configuration for the per-figure benchmarks.

Every benchmark module reproduces one figure of the paper's evaluation
(Section 6): it runs the corresponding experiment driver from
:mod:`repro.bench.experiments` exactly once (``benchmark.pedantic`` with one
round — the experiment itself already averages over many queries/updates),
prints the figure's table, and asserts the qualitative shape the paper
reports.

Scale: the drivers run with scaled-down parameters.  Set
``REPRO_FULL_SCALE=1`` to run closer to the paper's Table 1 settings —
expect hours of runtime under pure Python.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.workload.parameters import PAPER_SPACE, WorkloadParameters

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")


def pytest_configure(config) -> None:
    # Mirror of the pyproject registration so `pytest benchmarks` works in
    # contexts that do not read the project ini; the figure modules mark
    # themselves slow and the fast CI tier deselects them with -m "not slow".
    config.addinivalue_line(
        "markers", "slow: long replay/figure benchmarks excluded from the fast CI tier"
    )


def _scaled(**overrides) -> WorkloadParameters:
    params = WorkloadParameters(**overrides)
    return params


@pytest.fixture(scope="session")
def bench_params() -> WorkloadParameters:
    """Default parameters used by the heavier (index-comparison) figures."""
    if FULL_SCALE:
        return WorkloadParameters(
            num_objects=100_000,
            space=PAPER_SPACE,
            time_duration=240.0,
            num_queries=200,
            buffer_pages=50,
            page_size=4096,
        )
    return _scaled(num_objects=2_000, time_duration=120.0, num_queries=40)


@pytest.fixture(scope="session")
def sweep_params() -> WorkloadParameters:
    """Lighter parameters for the multi-point parameter sweeps (Figs. 20-24)."""
    if FULL_SCALE:
        return WorkloadParameters(
            num_objects=100_000,
            space=PAPER_SPACE,
            time_duration=240.0,
            num_queries=200,
            buffer_pages=50,
            page_size=4096,
        )
    return _scaled(num_objects=1_500, time_duration=100.0, num_queries=30)


