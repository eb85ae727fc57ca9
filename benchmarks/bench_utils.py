"""Helpers shared by the per-figure benchmark modules."""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.bench.reporting import format_table  # noqa: E402


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark timing.

    The experiment itself already averages over many queries and updates, so
    repeating it would only multiply the runtime without tightening the
    estimate.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _is_wall_clock(column: str) -> bool:
    """Timing columns (``query_ms``, ``build_s``, ...) differ on every run."""
    return column.endswith(("_ms", "_s"))


#: Result files written in this session; a second write to one would
#: silently replace a table, so it raises instead.
_WRITTEN = set()


def print_figure(name: str, title: str, rows) -> None:
    """Print a figure's table and persist its deterministic columns.

    pytest captures stdout of passing tests, so the copy under
    ``benchmarks/results/<name>.txt`` is what survives a quiet benchmark
    run.  The printed table keeps the
    wall-clock columns; the file drops them, so a committed figure changes
    only when an I/O count, hit ratio or answer size does (CI's full job
    fails on any diff or untracked file under ``benchmarks/results`` after
    the slow tier).  Every table owns its file: writing ``name`` twice in
    one session raises ``ValueError``.
    """
    print()
    print(format_table(rows, title=title))
    if name in _WRITTEN:
        raise ValueError(f"benchmarks/results/{name}.txt was already written in this session")
    _WRITTEN.add(name)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stable = [
        {column: value for column, value in row.items() if not _is_wall_clock(column)}
        for row in rows
    ]
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(format_table(stable, title=title))


def by_index(rows, sweep_key=None):
    """Group rows by index name (and optionally a sweep key) for assertions."""
    grouped = {}
    for row in rows:
        key = (row["index"], row[sweep_key]) if sweep_key else row["index"]
        grouped[key] = row
    return grouped


def series(rows, index_name, sweep_key, value_key="query_io"):
    """Extract one index's series over a swept parameter, sorted by the sweep value."""
    points = [
        (row[sweep_key], row[value_key]) for row in rows if row["index"] == index_name
    ]
    return [value for _, value in sorted(points)]
