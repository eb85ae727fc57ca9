"""One smoke per cell of ``bench_speed.py``: the quick run prints its rows,
every correctness flag reads 1.0 and the process would exit 0 — and exits 1
as soon as one flag does not.  Timings are reported, never asserted on:
speed is ``perfbench``'s job.
"""

from __future__ import annotations

import json
import sys

import bench_speed
import pytest


def _run(tmp_path, *argv):
    """``main(argv + --quick --output)``: the exit status and the written report."""
    output = tmp_path / "report.json"
    status = bench_speed.main([*argv, "--quick", "--output", str(output)])
    return status, json.loads(output.read_text(encoding="utf-8"))


def test_serve_cell(tmp_path):
    """The executor-backed sweep: sharded rows answer like the unsharded row."""
    status, report = _run(tmp_path, "serve", "--shards", "1,2")
    assert status == 0
    assert report["cell"] == "serve-quick"
    assert report["params"]["executor"] == bench_speed.SERVE_EXECUTOR
    assert list(report["rows"]) == ["shards=1", "shards=2"]
    for label, row in report["rows"].items():
        assert row["update_ms"] > 0.0 and row["query_ms"] > 0.0 and row["knn_ms"] > 0.0
        assert row["results_match"] == 1.0, label
        assert row["knn_results_match"] == 1.0, label


def test_faults_cell(tmp_path):
    """The fault-injection run: kill, degrade, recover, match exactly."""
    status, report = _run(tmp_path, "faults")
    assert status == 0
    row = report["rows"][bench_speed.FAULT_INDEX]
    assert row["recovery_ms"] > 0.0
    assert row["replayed_records"] > 0
    # The outage was real: partial answers were incomplete, and the
    # healthy shards still delivered a meaningful fraction of the truth.
    assert row["degraded_complete"] == 0.0
    assert 0.0 < row["degraded_recall_range"] < 1.0
    assert 0.0 < row["degraded_recall_knn"] <= 1.0
    # WAL-replay recovery restores bit-identical answers.
    assert row["post_recovery_results_match"] == 1.0
    assert row["post_recovery_knn_match"] == 1.0


def test_htap_cell(tmp_path):
    """The mixed workload: every concurrent answer passes the oracle."""
    status, report = _run(tmp_path, "htap")
    assert status == 0
    assert list(report["rows"]) == list(bench_speed.HTAP_INDEXES)
    for name, row in report["rows"].items():
        assert row["updates_applied"] > 0, name
        assert row["answers_checked"] > 0, name
        assert row["answers_consistent"] == 1.0, name


def test_htap_cell_answers_when_threads_rarely_switch(tmp_path):
    """Every query lane answers before the updater starts, at any GIL pace.

    With a 2 s switch interval a thread keeps the GIL until it blocks, so
    an updater that did not wait for the lanes would run the whole stream
    before any of them answered.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(2.0)
    try:
        status, report = _run(tmp_path, "htap")
    finally:
        sys.setswitchinterval(interval)
    assert status == 0
    for name, row in report["rows"].items():
        assert row["answers_checked"] > 0, name


@pytest.mark.parametrize("flag", bench_speed.CORRECTNESS_FLAGS)
def test_a_failed_flag_is_exit_status_1(monkeypatch, capsys, tmp_path, flag):
    """Any correctness flag below 1.0 fails the run; no file is written unasked."""
    row = {
        "recovery_ms": 1.0,
        "replayed_records": 3.0,
        "recovery_attempts": 1.0,
        "degraded_recall_range": 0.7,
        "degraded_recall_knn": 0.7,
        "post_recovery_results_match": 1.0,
        "post_recovery_knn_match": 1.0,
    }

    def measure(params, dataset):
        return {"dataset": dataset, "params": {}, "rows": {"Bx": dict(row)}}

    monkeypatch.setattr(bench_speed, "measure_faults", measure)
    monkeypatch.chdir(tmp_path)
    assert bench_speed.main(["faults", "--quick"]) == 0
    row[flag] = 0.0
    assert bench_speed.main(["faults", "--quick"]) == 1
    assert f"FAILED faults Bx: {flag} = 0.0" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == [], "no --output, no file"
