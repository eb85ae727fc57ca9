"""From raw samples to the metrics ``BENCHMARK.json`` names.

``end_to_end`` metrics are defined on every workload and come from an
untraced run.  The ``per_layer`` list holds two kinds of number:

* what a user of one particular workload would see — page I/O per
  operation, the VP-to-base I/O ratio, written bytes, recovery time, the
  open-loop figures, the failed share.  The benchmark contract wants every
  ``end_to_end`` metric non-zero on every workload, which these are not
  (the flat key store does no page I/O, only one workload crashes), so they
  live here; they too come from the *untraced* pass of a ``--trace 1`` run;
* span-derived layer numbers from the traced pass of the same run.

Closed-loop and set-up timings are reported at *reference speed* (see
``yardstick.py``); open-loop latencies and ``recovery_s`` are wall-clock.

A metric that does not apply to a workload is ``None`` here ("n/a" in the
table, 0 in the contract's JSON line, which must hold numbers).
"""

from __future__ import annotations

import pickle
from statistics import median
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench.bench import OPEN_LIMIT_S
from perfbench.yardstick import local_paces, to_reference

Metrics = Dict[str, Optional[float]]


def _percentile(values: List[float], q: float) -> Optional[float]:
    return float(np.percentile(values, q)) if values else None


def _p95(values: List[float]) -> Optional[float]:
    """The median of the 95th percentiles of five consecutive fifths of a run.

    A burst of slow requests (a stalled disk, a descheduled worker) lands in
    one or two fifths and leaves the median alone, where it would own the
    whole run's 95th percentile.
    """
    if len(values) < 5 * 20:
        return _percentile(values, 95)
    return median(float(np.percentile(part, 95)) for part in np.array_split(values, 5))


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1e3


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _by_kind(rows: List[tuple]) -> Dict[str, List[tuple]]:
    kinds: Dict[str, List[tuple]] = {"update": [], "range": [], "knn": []}
    for row in rows:
        kinds[row[0]].append(row)
    return kinds


def _disk_paces(result: Dict[str, Any]) -> List[float]:
    """Per request, the disk's pace around it; 1 where no disk yardstick ran."""
    return local_paces(result["disk_ticks"]) or [1.0] * len(result["rows"])


def scaled_rows(result: Dict[str, Any], spec: Dict[str, Any]) -> List[tuple]:
    """The closed loop's rows with every service time at reference speed.

    The part of a request spent in ``os.fsync`` (``row[10]``) is divided by
    the disk's pace, the rest is scaled by the processor's.
    """
    follows = spec["follows_pace"]
    return [
        row[:1]
        + (to_reference(row[1] - row[10], pace, follows[row[0]]) + row[10] / disk_pace,)
        + row[2:]
        for row, pace, disk_pace in zip(
            result["rows"], local_paces(result["ticks"]), _disk_paces(result)
        )
    ]


def busy_seconds(rows: List[tuple]) -> float:
    """Summed service time of a closed loop."""
    return sum(row[1] for row in rows)


def wall_clock(result: Dict[str, Any]) -> Dict[str, tuple]:
    """Per request kind and for set-ups: (median seconds as measured, median pace).

    What the scaled metrics were made from; printed with every run, so the
    ``follows_pace`` row of a workload can be checked or fitted again.
    """
    paces = local_paces(result["ticks"])
    measured: Dict[str, tuple] = {}
    for kind in ("update", "range", "knn"):
        mine = [(row[1], pace) for row, pace in zip(result["rows"], paces) if row[0] == kind]
        if mine:
            measured[kind] = (median(s for s, _ in mine), median(p for _, p in mine))
    measured["setup"] = (median(result["setup_s"]), median(result["setup_pace"]))
    return measured


def failures(result: Dict[str, Any]) -> Dict[str, int]:
    """Requests attempted, and how many raised, answered wrongly or were lost."""
    attempted = len(result["rows"])
    failed = result["raised"] + result["wrong"]
    for phase in ("open", "recovery"):
        part = result.get(phase)
        if part:
            attempted += part.get("attempted", len(part.get("rows", ())))
            failed += part.get("raised", 0) + part["wrong"] + part.get("lost", 0)
    failed += result.get("twin", {}).get("mismatches", 0)
    return {"attempted": attempted, "failed": failed}


def end_to_end(result: Dict[str, Any], spec: Dict[str, Any]) -> Metrics:
    """The metrics every workload reports, from one untraced run."""
    rows = scaled_rows(result, spec)
    kinds = _by_kind(rows)
    latency = {kind: [row[1] for row in rows] for kind, rows in kinds.items()}
    return {
        "setup_s": median(
            seconds / pace for seconds, pace in zip(result["setup_s"], result["setup_pace"])
        ),
        "throughput_ops_s": len(rows) / busy_seconds(rows),
        "update_p50_ms": _ms(_percentile(latency["update"], 50)),
        "update_p95_ms": _ms(_p95(latency["update"])),
        "range_p50_ms": _ms(_percentile(latency["range"], 50)),
        "range_p95_ms": _ms(_p95(latency["range"])),
        "knn_p50_ms": _ms(_percentile(latency["knn"], 50)),
        "peak_rss_mb": result["rss_mb"],
    }


def workload_specific(result: Dict[str, Any], spec: Dict[str, Any]) -> Metrics:
    """What one workload's user sees that the others' do not (untraced run)."""
    kinds = _by_kind(scaled_rows(result, spec))
    updates = sum(row[2] for row in kinds["update"])
    paged = any(row[4] + row[5] for row in result["rows"])
    query_io = update_io = None
    if paged:
        query_io = _ratio(sum(r[4] + r[5] for r in kinds["range"]), len(kinds["range"]))
        update_io = _ratio(sum(r[4] + r[5] for r in kinds["update"]), updates)
    hits = {
        name: (sum(r[7] for r in rows), sum(r[7] + r[8] for r in rows))
        for name, rows in (("update", kinds["update"]), ("query", kinds["range"] + kinds["knn"]))
    }
    stalls = [row[1] for row in kinds["update"] if row[9]]
    counts = failures(result)
    values: Metrics = {
        "query_io_per_op": query_io,
        "update_io_per_op": update_io,
        "vp_query_io_ratio": None,
        "written_bytes_per_update": None,
        "recovery_s": None,
        "open_within_limit_share": None,
        "open_update_p50_ms": None,
        "failed_ops_share": counts["failed"] / counts["attempted"],
        "storage.buffer.hit_ratio_update": _ratio(*hits["update"]) if paged else None,
        "storage.buffer.hit_ratio_query": _ratio(*hits["query"]) if paged else None,
        "storage.disk.reads_per_range": (
            _ratio(sum(r[4] for r in kinds["range"]), len(kinds["range"])) if paged else None
        ),
        "storage.disk.reads_per_update": (
            _ratio(sum(r[4] for r in kinds["update"]), updates) if paged else None
        ),
        "storage.disk.writes_per_update": (
            _ratio(sum(r[5] for r in kinds["update"]), updates) if paged else None
        ),
        "serve.checkpoint_stall_p95_ms": _ms(_percentile(stalls, 95)),
        "serve.recovery.replayed_records": None,
        "driver.sched_lag_p95_ms": None,
        "driver.open_update_p95_ms": None,
        "driver.open_range_p95_ms": None,
        "driver.open_knn_p95_ms": None,
        "driver.stolen_cpu_share": result["stolen_share"],
        "core.outlier_share": result.get("outlier_share"),
    }
    if "twin" in result and query_io is not None:
        values["vp_query_io_ratio"] = _ratio(query_io, result["twin"]["query_io_per_op"])
    if spec.get("durable"):
        values["written_bytes_per_update"] = _ratio(result["wchar"], updates)
        values["recovery_s"] = result["recovery"]["recovery_s"]
        values["serve.recovery.replayed_records"] = float(result["recovery"]["replayed_records"])
    if "open" in result:
        rows = result["open"]["rows"]
        within = sum(1 for kind, late, _, ok in rows if ok and late <= OPEN_LIMIT_S[kind])
        values["open_within_limit_share"] = within / len(rows)
        for kind in ("update", "range", "knn"):
            late = [row[1] for row in rows if row[0] == kind]
            values[f"driver.open_{kind}_p95_ms"] = _ms(_percentile(late, 95))
        values["open_update_p50_ms"] = _ms(
            _percentile([row[1] for row in rows if row[0] == "update"], 50)
        )
        values["driver.sched_lag_p95_ms"] = _ms(_percentile([row[2] for row in rows], 95))
    return values


#: Median per request of a layer's summed self time: metric → (layer, kind);
#: kind ``None`` takes every request.
_SELF_TIME = {
    "core.update_self_ms": ("core", "update"),
    "core.range_self_ms": ("core", "range"),
    "core.knn_self_ms": ("core", "knn"),
    "bxtree.update_self_ms": ("bxtree", "update"),
    "bxtree.range_self_ms": ("bxtree", "range"),
    "bxtree.knn_self_ms": ("bxtree", "knn"),
    "key_store.apply_batch_ms": ("key_store", "update"),
    "key_store.range_search_ms": ("key_store", "range"),
    "key_store.knn_candidates_ms": ("key_store", "knn"),
    "tprtree.update_self_ms": ("tprtree", "update"),
    "tprtree.range_self_ms": ("tprtree", "range"),
    "tprtree.knn_self_ms": ("tprtree", "knn"),
    "storage.buffer.fetch_self_ms": ("storage.buffer", None),
    "storage.disk.read_ms": ("storage.disk.read", None),
    "storage.durable.fsync_ms": ("storage.durable.fsync", "update"),
    "storage.durable.write_ms": ("storage.durable.write", "update"),
    "serve.coord_self_ms": ("serve.coord", "update"),
    "serve.log.append_ms": ("serve.log", "update"),
    "serve.snapshot.update_self_ms": ("serve.snapshot", "update"),
    "serve.snapshot.query_self_ms": ("serve.snapshot", "range"),
}


def _scaled_trace(trace: Dict[str, Any], factor: float, disk_pace: float) -> Dict[str, Any]:
    """One request's trace record with its times at reference speed."""
    return {
        "self_s": {
            layer: seconds / disk_pace if layer == "storage.durable.fsync" else seconds * factor
            for layer, seconds in trace["self_s"].items()
        },
        "incl_s": {name: seconds * factor for name, seconds in trace["incl_s"].items()},
        "calls": trace["calls"],
        "counts": trace["counts"],
        "hops": [(took * factor, call) for took, call in trace["samples"].get("hops", ())],
    }


def per_layer(
    untraced: Dict[str, Any], traced: Dict[str, Any], spec: Dict[str, Any], generate_s: float
) -> Metrics:
    """Every ``per_layer`` metric of one ``--trace 1`` run."""
    values = workload_specific(untraced, spec)
    rows = scaled_rows(traced, spec)
    follows = spec["follows_pace"]
    traces = [
        _scaled_trace(trace, to_reference(1.0, pace, follows[row[0]]), disk_pace)
        for row, trace, pace, disk_pace in zip(
            rows, traced["traces"], local_paces(traced["ticks"]), _disk_paces(traced)
        )
    ]
    values["workload.generate_s"] = generate_s
    values["driver.machine_speed"] = median(untraced["ticks"])
    values["driver.trace_overhead_share"] = (
        busy_seconds(rows) / busy_seconds(scaled_rows(untraced, spec)) - 1.0
    )

    for name, (layer, kind) in _SELF_TIME.items():
        seen = any(layer in trace["self_s"] for trace in traces)
        per_request = [
            trace["self_s"].get(layer, 0.0)
            for row, trace in zip(rows, traces)
            if kind is None or row[0] == kind
        ]
        values[name] = _ms(median(per_request)) if seen and per_request else None

    pairs = list(zip(rows, traces))
    update_pairs = [(row, trace) for row, trace in pairs if row[0] == "update"]
    range_pairs = [(row, trace) for row, trace in pairs if row[0] == "range"]
    updates = sum(row[2] for row, _ in update_pairs)

    def total(count: str, chosen) -> float:
        return sum(trace["counts"].get(count, 0) for _, trace in chosen)

    keyed = total("key_ranges", range_pairs)
    values["bxtree.key_ranges_per_range"] = _ratio(keyed, len(range_pairs)) if keyed else None
    values["bxtree.candidates_per_result"] = (
        _ratio(total("keys_examined", range_pairs), sum(row[3] for row, _ in range_pairs))
        if keyed
        else None
    )
    in_tpr = [(row, trace) for row, trace in pairs if "tprtree" in trace["self_s"]]
    values["tprtree.nodes_per_update"] = (
        _ratio(sum(row[6] for row, _ in in_tpr if row[0] == "update"), updates) if in_tpr else None
    )
    values["tprtree.nodes_per_range"] = (
        _ratio(sum(row[6] for row, _ in in_tpr if row[0] == "range"), len(range_pairs))
        if in_tpr
        else None
    )

    durable = bool(spec.get("durable"))
    fsyncs = [trace["calls"].get("storage.durable.fsync", 0) for _, trace in update_pairs]
    values["storage.durable.fsyncs_per_update_req"] = (
        sum(fsyncs) / len(fsyncs) if durable and fsyncs else None
    )
    page_bytes = total("bytes.storage.durable.write", update_pairs) + total(
        "bytes.storage.durable.sync", update_pairs
    )
    values["storage.durable.page_bytes_per_update"] = (
        _ratio(page_bytes, updates) if durable else None
    )
    values["serve.log.bytes_per_update"] = (
        _ratio(total("bytes.serve.log", update_pairs), updates) if durable else None
    )

    hops = [trace["hops"] for _, trace in update_pairs]
    flat = [hop for request in hops for hop in request]
    values["serve.executor.call_ms"] = _ms(median(took for took, _ in flat)) if flat else None
    values["serve.executor.calls_per_req"] = len(flat) / len(hops) if flat else None
    values["serve.executor.request_bytes"] = (
        float(median(len(pickle.dumps(call)) for _, call in flat)) if flat else None
    )
    fanned = [[took for took, _ in request] for request in hops if len(request) > 1]
    values["serve.executor.straggler_ms"] = (
        _ms(median(max(request) - min(request) for request in fanned)) if fanned else None
    )

    # The traced pass set up twice; the trace kept is the second one's.
    setup = _scaled_trace(
        {"self_s": {}, "incl_s": {}, "calls": {}, "counts": {}, "samples": {}}
        | traced["setup_trace"],
        1.0 / traced["setup_pace"][-1],
        1.0,
    )
    values["core.analyze_s"] = setup["incl_s"].get("core.analyze.analyze")
    values["core.bulk_load_self_s"] = setup["self_s"].get("core")
    values["bxtree.bulk_load_s"] = setup["incl_s"].get("bxtree.bulk_load")
    values["tprtree.bulk_load_s"] = setup["incl_s"].get("tprtree.bulk_load")
    values["serve.worker_spawn_s"] = (
        setup["incl_s"].get("serve.spawn.attach") if spec.get("executor") == "process" else None
    )
    checkpoints = [
        trace["incl_s"]["serve.checkpoint.checkpoint"]
        for _, trace in update_pairs
        if "serve.checkpoint.checkpoint" in trace["incl_s"]
    ]
    values["serve.checkpoint_s"] = median(checkpoints) if checkpoints else None
    recovery = traced.get("recovery", {}).get("trace", {})
    values["serve.recovery.open_s"] = recovery.get("incl_s", {}).get("serve.recovery.open")
    return values
