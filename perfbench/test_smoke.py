"""Smoke test of the benchmark itself: ``python -m pytest perfbench -q``.

Runs every workload at ``--scale tiny`` (a few seconds in all) and checks
the things a later reader of the numbers relies on: every declared metric is
printed, once, under a well-formed name; spans nest and self times add up;
a wrong answer is counted as a failure; the comparer's verdicts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import ROOT
from perfbench.bench import closed_loop, set_up
from perfbench.check import Checker
from perfbench.compare import verdict
from perfbench.metrics import failures
from perfbench.trace import Tracer, _covered
from perfbench.workloads import WORKLOADS, make_inputs
from perfbench.yardstick import Yardstick

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ("--seed", "5", "--seconds", "2", "--scale", "tiny")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_readme_says_what_each_layer_metric_should_move():
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in readme]
    assert not missing


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_printed_once(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, *TINY, "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(printed) == sorted(m["name"] for m in declared)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(printed)
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and isinstance(metric["value"], (int, float))
        if not trace:  # end-to-end metrics apply everywhere and are never 0
            assert metric["value"] > 0


def _traced_tiny_run(name: str):
    inputs = make_inputs(name, seed=5, seconds=2, scale="tiny")
    tracer = Tracer(keep_spans=True)
    tracer.install()
    try:
        index = set_up(inputs, tracer, None)
        tracer.take()
        tracer.spans.clear()
        checker = Checker(inputs.workload.initial_objects, inputs.requests, 5)
        result = closed_loop(
            index, inputs.requests, inputs.params.space, checker, Yardstick(0.5), tracer
        )
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("name", ("replay-bx", "replay-tpr"))
def test_spans_nest_and_self_times_sum_to_the_root(name):
    tracer, result = _traced_tiny_run(name)
    roots = [span for span in tracer.spans if span[0] == "driver"]
    assert len(roots) == len(result["traces"]) > 0
    # Well nested: replaying the spans in opening order, each one lies inside
    # the span open before it, at exactly the depth it recorded.
    open_spans = []
    for layer, _, start, end, depth, _ in sorted(tracer.spans, key=lambda s: (s[2], -s[3])):
        while open_spans and open_spans[-1][1] <= start:
            open_spans.pop()
        assert len(open_spans) == depth
        if open_spans:
            assert open_spans[-1][0] <= start and end <= open_spans[-1][1]
        open_spans.append((start, end))
    layers_seen = set()
    for (_, _, start, end, _, _), trace in zip(roots, result["traces"]):
        assert all(seconds >= -1e-9 for seconds in trace["self_s"].values())
        assert sum(trace["self_s"].values()) == pytest.approx(end - start, abs=1e-6)
        layers_seen.update(trace["self_s"])
    assert {"driver", "core", "storage.buffer"} <= layers_seen
    assert ("bxtree" in layers_seen) == (name == "replay-bx")
    assert ("tprtree" in layers_seen) == (name == "replay-tpr")


def test_parallel_children_are_subtracted_as_a_union():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    tracer = Tracer()
    nap = tracer.wrap(time.sleep, "child", "child.sleep")

    def fan_out():
        threads = [threading.Thread(target=nap, args=(0.05,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    started = time.perf_counter()
    tracer.wrap(fan_out, "parent", "parent.fan_out")()
    elapsed = time.perf_counter() - started
    taken = tracer.take()
    # Two overlapping 50 ms children: ~100 ms of child self time, but the
    # parent only waited ~50 ms for them and keeps the rest as its own.
    assert taken["self_s"]["child"] == pytest.approx(0.1, abs=0.03)
    assert 0.0 <= taken["self_s"]["parent"] <= elapsed - 0.04


class _DropsOneId:
    """A stub index: the real answers, minus one id per non-empty range answer."""

    def __init__(self, index):
        self._index = index
        self.buffer = index.buffer

    def __getattr__(self, name):
        return getattr(self._index, name)

    def range_query_batch(self, queries):
        return [ids[1:] for ids in self._index.range_query_batch(queries)]


def test_a_dropped_id_is_counted_as_a_failure():
    inputs = make_inputs("replay-bx", seed=5, seconds=2, scale="tiny")
    index = _DropsOneId(set_up(inputs, None, None))
    checker = Checker(inputs.workload.initial_objects, inputs.requests, 5)
    result = closed_loop(index, inputs.requests, inputs.params.space, checker, Yardstick(0.5))
    result["wrong"] = checker.wrong
    counts = failures(result)
    assert checker.wrong > 0 and "range request" in checker.first_wrong
    assert counts["failed"] / counts["attempted"] > 0


def test_a_pass_the_hypervisor_disturbed_is_measured_again(monkeypatch):
    from perfbench import bench

    monkeypatch.setattr(bench, "STOLEN_LIMIT", -1.0)  # every pass counts as disturbed
    monkeypatch.setattr(bench, "STOLEN_PAUSE_S", 0.0)
    inputs = make_inputs("replay-tpr", seed=5, seconds=2, scale="tiny")
    result = bench.run_workload(inputs, False, setups=(2, 2))
    assert len(result["discarded"]) == bench.STOLEN_RETRIES
    assert len(result["setup_s"]) == 2 + bench.STOLEN_RETRIES
    assert failures(result) == {"attempted": len(inputs.requests), "failed": 0}


def test_comparer_verdicts():
    steady_old, steady_new = [10.0, 10.1, 10.2], [10.3, 10.4, 10.5]
    assert verdict(steady_old, steady_new, 0.10, True, False)[0] == "ok"
    assert verdict(steady_old, [12.0, 12.1, 12.2], 0.10, True, False)[0] == "worse"
    assert verdict(steady_old, [9.0, 9.1, 9.2], 0.10, True, True)[0] == "ok"
    # Worse in the median, but the runs overlap and scatter wider than the bound.
    assert verdict([8.0, 10.0, 14.0], [9.0, 12.0, 13.0], 0.10, True, False)[0] == "unresolved"
    # Scattered, yet every new run is worse than every old one.
    assert verdict([8.0, 10.0, 12.0], [13.0, 15.0, 18.0], 0.10, True, False)[0] == "worse"
    assert verdict([0.0, 0.0, 0.0], [0.01, 0.0, 0.02], 0.0, False, False)[0] == "worse"
