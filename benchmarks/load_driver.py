"""The HTAP load driver: one updater lane against epoch-pinned query lanes.

:func:`run_htap` streams update batches flat out on one thread while query
threads answer epoch-pinned range/kNN batches concurrently, every
mutation and every answer recorded into an
:class:`~repro.serve.EpochOracle` — the run's headline numbers are the
sustained update throughput, the epoch lag queries observed, and the
oracle's verdict that every concurrent answer was bit-identical to its
brute-force model's at the pinned epoch (``docs/htap.md``).  It is
shared by ``bench_speed.py htap`` and ``tests/test_htap_stress.py``.

Request latency under an arrival process (closed-loop saturation, then
open-loop Poisson arrivals charged from the scheduled arrival) is
``perfbench``'s job — ``serve-mixed`` phases A and B.

Percentiles are nearest-rank (no interpolation), so a reported p99 is an
actually observed latency.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Dict, List, Sequence, Tuple


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(len(sorted_samples) * fraction))
    return sorted_samples[rank - 1]


def summarize(samples: Dict[str, List[float]], wall_s: float) -> Dict[str, object]:
    """Per-op-type p50/p95/p99 (ms) plus aggregate throughput."""
    total = sum(len(latencies) for latencies in samples.values())
    report: Dict[str, object] = {
        "wall_s": round(wall_s, 3),
        "throughput_ops": round(total / wall_s, 2) if wall_s > 0.0 else 0.0,
    }
    for kind, latencies in sorted(samples.items()):
        ordered = sorted(latencies)
        report[kind] = {
            "count": len(ordered),
            "p50_ms": round(percentile(ordered, 0.50) * 1000.0, 3),
            "p95_ms": round(percentile(ordered, 0.95) * 1000.0, 3),
            "p99_ms": round(percentile(ordered, 0.99) * 1000.0, 3),
            "mean_ms": round(sum(ordered) / len(ordered) * 1000.0 if ordered else 0.0, 3),
        }
    return report


#: Seeds of the published HTAP stress matrix: every seed is exercised by
#: the CI ``htap`` job and by ``tests/test_htap_stress.py`` (via the
#: ``HTAP_SEED`` environment variable), so a consistency failure is
#: reproducible from the seed alone.
HTAP_SEEDS = (0, 1337, 20260808)


def run_htap(
    index,
    oracle,
    update_batches: Sequence[Sequence[Tuple[object, object]]],
    queries: Sequence[object],
    probes: Sequence[object],
    query_clients: int = 2,
    space=None,
    query_batch_size: int = 4,
    seed: int = 0,
) -> Dict[str, object]:
    """Mixed workload: stream updates while epoch-pinned queries run.

    One updater thread applies ``update_batches`` back to back (updates
    are order-dependent, so they never fan across threads) and records
    each batch with its assigned epoch into ``oracle``.  Concurrently,
    ``query_clients`` threads pin an epoch via ``index.pin()`` and
    answer seeded-random range/kNN batches at it, recording every answer
    — with the epoch it was pinned at and the lag behind the published
    epoch at completion — until the update stream is exhausted.  The
    query threads start first, and the updater waits on a barrier until
    each of them has answered one pinned batch, so every lane answers
    whatever the GIL's hand-offs between threads.

    The caller is expected to have bulk-loaded ``index`` already (and
    recorded that mutation into ``oracle``); afterwards,
    ``oracle.check()`` replays everything into its model.  The returned
    report carries throughput, per-op-type latency percentiles,
    epoch-lag statistics and the oracle verdict as
    ``answers_consistent`` (1.0 = every concurrent answer bit-identical
    to the model's answer at its pinned epoch).
    """
    if query_clients < 1:
        raise ValueError("query_clients must be at least 1")
    stop = threading.Event()
    errors: List[BaseException] = []
    latencies: Dict[str, List[float]] = {"update": [], "range": [], "knn": []}
    lags: List[int] = []
    merge = threading.Lock()
    ready = threading.Barrier(query_clients + 1)
    updates_applied = 0

    def updater() -> None:
        nonlocal updates_applied
        local: List[float] = []
        applied = 0
        try:
            ready.wait()  # every query lane has answered one pinned batch
            for pairs in update_batches:
                issued = time.perf_counter()
                index.update_batch(pairs)
                local.append(time.perf_counter() - issued)
                # Single updater: the post-call published epoch is the
                # epoch this batch was assigned.
                oracle.record_mutation(index.epoch, "update_batch", pairs)
                applied += len(pairs)
        except threading.BrokenBarrierError:
            pass  # a query lane failed before its first answer; its error is raised
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
        finally:
            stop.set()
        with merge:
            latencies["update"].extend(local)
            updates_applied += applied

    def query_worker(worker_id: int) -> None:
        rng = random.Random(seed * 7919 + worker_id)
        local: Dict[str, List[float]] = {"range": [], "knn": []}
        local_lags: List[int] = []
        try:
            while not stop.is_set():
                query_batch = rng.sample(list(queries), min(query_batch_size, len(queries)))
                probe_batch = rng.sample(list(probes), min(query_batch_size, len(probes)))
                with index.pin() as epoch:
                    if query_batch:
                        issued = time.perf_counter()
                        answer = index.range_query_batch(query_batch, epoch=epoch)
                        local["range"].append(time.perf_counter() - issued)
                        oracle.record_answer(epoch, "range", query_batch, answer)
                    if probe_batch:
                        issued = time.perf_counter()
                        answer = index.knn_query_batch(probe_batch, space=space, epoch=epoch)
                        local["knn"].append(time.perf_counter() - issued)
                        oracle.record_answer(epoch, "knn", probe_batch, answer)
                    local_lags.append(index.epoch - epoch)
                if len(local_lags) == 1:
                    ready.wait()  # first batch answered: release the updater
        except threading.BrokenBarrierError:
            pass  # another query lane failed first; its error is raised
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)
            ready.abort()
            stop.set()
        with merge:
            for kind, values in local.items():
                latencies[kind].extend(values)
            lags.extend(local_lags)

    threads = [
        threading.Thread(target=query_worker, args=(worker_id,))
        for worker_id in range(query_clients)
    ]
    threads.append(threading.Thread(target=updater))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]

    mismatches = oracle.check()
    report = summarize({kind: values for kind, values in latencies.items() if values}, wall)
    report["query_clients"] = query_clients
    report["updates_applied"] = updates_applied
    report["update_throughput_ops"] = round(updates_applied / wall, 2) if wall > 0.0 else 0.0
    report["final_epoch"] = index.epoch
    report["epoch_lag_mean"] = round(sum(lags) / len(lags), 3) if lags else 0.0
    report["epoch_lag_max"] = float(max(lags)) if lags else 0.0
    report["answers_checked"] = oracle.answers_recorded
    report["answers_consistent"] = 0.0 if mismatches else 1.0
    if mismatches:
        report["first_mismatch"] = mismatches[0][:500]
    return report
