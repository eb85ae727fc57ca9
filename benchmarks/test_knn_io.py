"""kNN page I/O of the four standard indexes (SA).

Not a figure of the paper, which evaluates kNN only through its filter
step, the circular range query (Section 6).  Each index is insertion-built
and replays the workload's updates and range queries (the figures'
protocol), then answers one kNN probe per range-query event at the end of
the stream, all in one batch of shared expanding-range filter rounds.  The
committed table holds the logical and physical page reads per probe, so a
change to the filter-round schedule shows up as a diff of this file.
"""

import pytest

from bench_utils import print_figure, run_once

from repro.bench.harness import (
    DEFAULT_KNN_K,
    ExperimentRunner,
    build_standard_indexes,
    knn_queries_from_workload,
    run_knn,
)
from repro.workload.generator import build_workload

#: Figure replays take seconds to minutes; the fast CI tier skips them.
pytestmark = pytest.mark.slow


def _run(params):
    workload = build_workload("SA", params)
    probes = knn_queries_from_workload(workload)
    rows = []
    for name, index in build_standard_indexes(workload, params).items():
        ExperimentRunner(workload, bulk_build=False).run(index, name=name)
        index.buffer.flush()  # so every kNN page transfer is a read
        knn = run_knn(index, probes, space=params.space)
        rows.append(
            {
                "index": name,
                "dataset": workload.name,
                "probes": knn.num_queries,
                "k": DEFAULT_KNN_K,
                "knn_nodes": round(knn.node_accesses / knn.num_queries, 2),
                "knn_io": round(knn.avg_io, 2),
                "results": sum(len(answer) for answer in knn.results),
                "knn_ms": round(knn.avg_time_ms, 2),
                "answers": knn.results,
            }
        )
    return rows


def test_knn_io(benchmark, sweep_params):
    rows = run_once(benchmark, _run, sweep_params)
    answers = [row.pop("answers") for row in rows]
    print_figure("knn_io", "kNN I/O — per probe, insertion-built (SA)", rows)

    # Every index ranks the same neighbours at the same distances.
    assert all(answer == answers[0] for answer in answers)
    assert all(row["results"] == row["probes"] * row["k"] for row in rows)
