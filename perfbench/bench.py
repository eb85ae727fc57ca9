"""The engine: set a system up, replay a request list against it, keep samples.

One generic path serves all four workloads.  :func:`set_up` builds whatever
system the workload row names, :func:`closed_loop` replays the request list
through it one request at a time, and the phases a row asks for on top —
an untimed base-family twin, an open-loop replay, a SIGKILL and recovery —
are separate functions that reuse those two.  :func:`run_workload` strings
them together and returns raw samples; ``metrics.py`` turns samples into
the named metrics.
"""

from __future__ import annotations

import ctypes
import gc
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

from perfbench import ROOT
from perfbench.check import Checker
from perfbench.trace import Tracer
from perfbench.workloads import RANGE_PREDICTIVE_TS, Inputs, Request, make_inputs
from perfbench.yardstick import DiskYardstick, Yardstick

from repro import TimeSliceRangeQuery, build_standard_indexes
from repro.serve import DurableStore, ShardedIndex

#: Set-ups per untraced run; ``setup_s`` is their median.  A cheap set-up
#: is noisy (half of it is fsync on one workload), so it is repeated more
#: often: at least 3 times, then until the budget is spent or 7 are done.
SETUPS = (3, 7)
SETUP_BUDGET_S = 3.0
#: The yardstick runs after a request once this much service time has
#: passed since its last run: often enough to follow the machine's pace,
#: seldom enough to cost about a tenth of the run.
TICK_EVERY_S = 0.005
#: Share of the request list replayed on a throwaway index before timing.
WARM_UP_SHARE = 0.05
#: A closed-loop pass during which the hypervisor stole more than this share
#: of the machine's CPU time is discarded and measured again after a pause,
#: at most ``STOLEN_RETRIES`` times.  Undisturbed, the sandbox reads 0.001;
#: a neighbour's burst reads 0.03-0.04 for half a minute and slows the
#: two-process hop by half while the yardstick sees nothing.
STOLEN_LIMIT = 0.02
STOLEN_RETRIES = 2
STOLEN_PAUSE_S = 15.0
#: Open-loop latency limits, from scheduled arrival (seconds).
OPEN_LIMIT_S = {"update": 0.050, "range": 0.050, "knn": 0.250}
#: Scratch space for the durable store: inside the checkout, git-ignored.
SCRATCH = ROOT / ".perfbench_tmp"
#: How long the parent waits for the serving child before giving up.
CHILD_TIMEOUT_S = 150.0

_clock = time.perf_counter
_libc = ctypes.CDLL(None)


def die_with_parent() -> None:
    """Have the kernel SIGKILL this process when the one that made it dies."""
    _libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


# Shard workers are forked inside ``repro.serve``; each holds the other's
# pipe ends, so they would outlive a benchmark that is killed outright.
os.register_at_fork(after_in_child=die_with_parent)


# ----------------------------------------------------------------------
# The system under test
# ----------------------------------------------------------------------
def build_system(inputs: Inputs, durable_dir: Optional[str] = None):
    """Construct the (empty) system a workload row names."""
    spec, params = inputs.spec, inputs.params
    if spec["system"] == "sharded":
        return ShardedIndex.build(
            "Bx",
            shards=2,
            executor=spec["executor"],
            durable_dir=durable_dir,
            space=params.space,
            buffer_pages=params.buffer_pages,
            page_size=params.page_size,
            max_update_interval=params.max_update_interval,
            key_store=spec.get("key_store"),
        )
    # Velocity analysis runs inside: it is part of setting a VP index up.
    return build_standard_indexes(inputs.workload, params, which=(spec["system"],))[
        spec["system"]
    ]


def set_up(inputs: Inputs, tracer: Optional[Tracer], durable_dir: Optional[str]):
    """Everything between "inputs exist" and "ready for the first request"."""
    index = build_system(inputs, durable_dir)
    if tracer is not None:
        tracer.wrap_handles(index)
    index.bulk_load(inputs.workload.initial_objects)
    if durable_dir is not None:
        index.checkpoint()
    return index


def timed_set_up(
    inputs: Inputs,
    tracer: Optional[Tracer],
    durable_dir: Optional[str],
    yardstick: Yardstick,
    result: Dict[str, Any],
):
    """:func:`set_up`; appends its duration and the machine's pace around it.

    No yardstick can run inside a set-up, so the pace is the mean of one
    yardstick just before it and one just after (one each: a yardstick that
    follows another finds its data cached and reads twice as fast).
    """
    call = set_up if tracer is None else tracer.wrap(set_up, "driver", "driver.setup")
    before = yardstick()
    started = _clock()
    index = call(inputs, tracer, durable_dir)
    result["setup_s"].append(_clock() - started)
    result["setup_pace"].append((before + yardstick()) / 2.0)
    return index


def dispose(index, durable_dir: Optional[str] = None) -> None:
    """Stop worker processes, close files, delete the store."""
    if hasattr(index, "close") and not index.closed:
        index.close()
    if durable_dir is not None:
        shutil.rmtree(durable_dir, ignore_errors=True)


def issue(index, request: Request, space):
    """Execute one request — the unit of latency."""
    if request.kind == "update":
        index.update_batch(request.payload)
        if request.checkpoint:
            index.checkpoint()
        return None
    if request.kind == "range":
        return index.range_query_batch([request.payload])
    return index.knn_query_batch(request.payload, space=space)


def _io(stats) -> Tuple[int, int, int, int, int]:
    physical, buffer = stats.physical, stats.buffer
    return (physical.reads, physical.writes, stats.logical.reads, buffer.hits, buffer.misses)


def _proc_field(pid: int, path: str, field: str) -> int:
    with open(f"/proc/{pid}/{path}") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/{path} has no {field}")


def _cpu_jiffies() -> List[int]:
    """The machine's CPU time by state, from the first line of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def _stolen_share(before: List[int], after: List[int]) -> float:
    """Share of the CPU time between two readings that the hypervisor took."""
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / max(1, sum(spent))


def peak_rss_mb(index) -> float:
    """High-water resident memory of this process plus its shard workers."""
    pids = [os.getpid()]
    executor = getattr(index, "executor", None)
    if getattr(executor, "kind", None) == "process":
        pids += [executor.worker_pid(shard) for shard in range(index.num_shards)]
    return sum(_proc_field(pid, "status", "VmHWM:") for pid in pids) / 1024.0


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def closed_loop(
    index,
    requests: List[Request],
    space,
    checker: Checker,
    yardstick: Yardstick,
    tracer: Optional[Tracer] = None,
    disk: Optional[DiskYardstick] = None,
) -> Dict[str, Any]:
    """One client, back to back: the next request leaves when the last returned.

    Returns per-request rows ``(kind, seconds, ops, returned, reads, writes,
    logical_reads, hits, misses, checkpointed, fsync_seconds)``, one
    yardstick time per request (and one of the disk's, where there is a
    ``disk`` yardstick), the matching per-request trace records (traced
    runs), every query answer, and what went wrong.  The checker's table and
    verdicts advance, and the yardsticks run, between requests, off the clock.
    """
    call = issue if tracer is None else tracer.wrap(issue, "driver", "driver.request")
    stats = index.buffer.stats
    rows: List[tuple] = []
    ticks: List[float] = []
    disk_ticks: List[float] = []
    traces: List[dict] = []
    answers: Dict[int, Any] = {}
    raised = 0
    first_error = ""
    since_tick = TICK_EVERY_S
    for position, request in enumerate(requests):
        before = _io(stats)
        waited = disk.waited if disk else 0.0
        answer = None
        started = _clock()
        try:
            answer = call(index, request, space)
            failed = False
        except Exception:  # a failed request is a result, not the end of the run
            failed = True
        seconds = _clock() - started
        waited = disk.waited - waited if disk else 0.0
        after = _io(stats)
        if tracer is not None:
            traces.append(tracer.take())
        since_tick += seconds
        if since_tick >= TICK_EVERY_S:
            ticks.append(yardstick())
            if disk:
                disk_ticks.append(disk())
            since_tick = 0.0
        else:
            ticks.append(ticks[-1])
            disk_ticks.extend(disk_ticks[-1:])
        if failed:
            raised += 1
            first_error = first_error or traceback.format_exc()
        returned = 0
        if request.kind == "update":
            checker.apply(request.columns)
        elif not failed:
            answers[position] = answer
            returned = sum(len(part) for part in answer)
            checker.verify(position, request, answer)
        rows.append(
            (request.kind, seconds, request.ops, returned)
            + tuple(b - a for a, b in zip(before, after))
            + (request.checkpoint, waited)
        )
    return {
        "rows": rows,
        "ticks": ticks,
        "disk_ticks": disk_ticks,
        "traces": traces,
        "answers": answers,
        "raised": raised,
        "first_error": first_error,
    }


# ----------------------------------------------------------------------
# A serving pass: set-ups, warm-up, the timed closed loop
# ----------------------------------------------------------------------
def serve_pass(
    inputs: Inputs, traced: bool, setups: Tuple[int, int], scratch: str
) -> Dict[str, Any]:
    """Set the system up several times, then time the request list once.

    ``setups`` is ``(at least, at most)``; between the two, set-ups go on
    while their summed time is within ``SETUP_BUDGET_S``.

    The first set-up's index only serves the warm-up and is thrown away; the
    last one serves the timed loop and is returned open (``"index"``) for
    the phases that follow.
    """
    spec = inputs.spec
    space = inputs.params.space
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(in_process=spec.get("executor") != "process")
    yardstick = Yardstick(spec["yardstick_ms"])
    disk = None
    if spec.get("durable"):
        disk = DiskYardstick(os.path.join(scratch, "yardstick"), spec["disk_yardstick_ms"])
    setups_done: Dict[str, List[float]] = {"setup_s": [], "setup_pace": []}
    setup_trace: Dict[str, Any] = {}
    index = None
    durable_dir = None
    discarded: List[float] = []

    def set_up_again() -> None:
        """Throw the current index away and set a fresh one up, timed."""
        nonlocal index, durable_dir, setup_trace
        if index is not None:
            dispose(index, durable_dir)
        gc.collect()
        made = len(setups_done["setup_s"])
        durable_dir = os.path.join(scratch, f"store-{made}") if spec.get("durable") else None
        index = timed_set_up(inputs, tracer, durable_dir, yardstick, setups_done)
        if tracer is not None:
            setup_trace = tracer.take()

    try:
        set_up_again()
        # Warm-up: first calls import lazily, fill lookup tables and size
        # numpy scratch; none of that is steady state.
        for request in inputs.requests[: max(30, int(len(inputs.requests) * WARM_UP_SHARE))]:
            issue(index, request, space)
        if tracer is not None:
            tracer.take()
        while len(setups_done["setup_s"]) < setups[0] or (
            len(setups_done["setup_s"]) < setups[1] and sum(setups_done["setup_s"]) < SETUP_BUDGET_S
        ):
            set_up_again()
        while True:
            checker = Checker(inputs.workload.initial_objects, inputs.requests, inputs.seed)
            # Set-up garbage is not the timed phase's to collect.
            gc.collect()
            gc.freeze()
            written = _proc_field(os.getpid(), "io", "wchar:") - (disk.written if disk else 0)
            cpu = _cpu_jiffies()
            result = closed_loop(index, inputs.requests, space, checker, yardstick, tracer, disk)
            stolen = _stolen_share(cpu, _cpu_jiffies())
            result["wchar"] = (
                _proc_field(os.getpid(), "io", "wchar:") - (disk.written if disk else 0) - written
            )
            gc.unfreeze()
            if stolen <= STOLEN_LIMIT or len(discarded) == STOLEN_RETRIES:
                break
            # The hypervisor took the processor away for part of the pass:
            # that measured the host.  Let it pass, then measure again.
            discarded.append(stolen)
            time.sleep(STOLEN_PAUSE_S)
            set_up_again()
        result["stolen_share"] = stolen
        result["discarded"] = discarded
        result["rss_mb"] = peak_rss_mb(index)
    except BaseException:
        if index is not None:
            dispose(index, durable_dir)
        raise
    finally:
        if disk is not None:
            disk.close()
        if tracer is not None:
            tracer.uninstall()
    sizes = getattr(index, "partition_sizes", None)
    if sizes is not None:
        per_partition = sizes()
        result["outlier_share"] = per_partition[-1] / max(1, sum(per_partition.values()))
    result.update(
        index=index,
        durable_dir=durable_dir,
        setup_trace=setup_trace,
        **setups_done,
        wrong=checker.wrong,
        first_wrong=checker.first_wrong,
        checked=dict(checker.checked),
    )
    return result


# ----------------------------------------------------------------------
# Phase: base-family twin (replay-*)
# ----------------------------------------------------------------------
def twin_replay(inputs: Inputs, answers: Dict[int, Any]) -> Dict[str, Any]:
    """Replay updates and range queries, untimed, on the unpartitioned family.

    Gives the denominator of ``vp_query_io_ratio`` and a second opinion on
    every range answer: the VP index must return the same ids.
    """
    family = inputs.spec["twin"]
    twin = build_standard_indexes(inputs.workload, inputs.params, which=(family,))[family]
    twin.bulk_load(inputs.workload.initial_objects)
    stats = twin.buffer.stats
    query_io = 0
    queries = 0
    mismatches = 0
    for position, request in enumerate(inputs.requests):
        if request.kind == "update":
            twin.update_batch(request.payload)
        elif request.kind == "range":
            before = stats.physical.total
            ids = twin.range_query_batch([request.payload])[0]
            query_io += stats.physical.total - before
            queries += 1
            if position in answers and sorted(ids) != sorted(answers[position][0]):
                mismatches += 1
    return {"query_io_per_op": query_io / max(1, queries), "mismatches": mismatches}


# ----------------------------------------------------------------------
# Phase: open loop (serve-mixed)
# ----------------------------------------------------------------------
def open_loop(
    index,
    requests: List[Request],
    space,
    rate: float,
    seed: int,
    expected: Dict[int, Any],
) -> Dict[str, Any]:
    """The same list on a Poisson schedule through one dispatch lane.

    Latency is charged from the *scheduled* arrival: a slow request also
    delays everything queued behind it.  ``lag`` is how late the generator
    itself ran — dispatch time past the moment the request was due and the
    lane free.  Answers must equal the closed-loop answers (same list, fresh
    index); they are compared after the phase, off the schedule.
    """
    rng = random.Random(seed + 104_729)
    offset = 0.0
    due: List[float] = []
    for _ in requests:
        offset += rng.expovariate(rate)
        due.append(offset)
    rows: List[tuple] = []
    got: Dict[int, Any] = {}
    raised = 0
    origin = _clock() + 0.02
    free_at = origin
    for position, request in enumerate(requests):
        scheduled = origin + due[position]
        while True:
            remaining = scheduled - _clock()
            if remaining <= 0:
                break
            # Sleep most of the wait, spin the last stretch: sleep overshoots.
            if remaining > 0.001:
                time.sleep(remaining - 0.0005)
        begun = _clock()
        try:
            answer = issue(index, request, space)
            ok = True
        except Exception:
            ok = False
        done = _clock()
        rows.append((request.kind, done - scheduled, begun - max(scheduled, free_at), ok))
        free_at = done
        if not ok:
            raised += 1
        elif request.kind != "update":
            got[position] = answer
    wrong = sum(1 for position, answer in got.items() if expected.get(position) != answer)
    return {"rows": rows, "raised": raised, "wrong": wrong, "span_s": free_at - origin}


# ----------------------------------------------------------------------
# Phase: SIGKILL and recovery (durable-writes)
# ----------------------------------------------------------------------
def durable_child(fd, parent, name, seed, seconds, scale, traced, setups, scratch) -> None:
    """The serving process of ``durable-writes`` (``run.py --serve-to``).

    Reports the timed phase over the pipe ``fd``, then keeps applying the
    unmeasured tail and acknowledges each applied update request by its
    ordinal — until the parent (pid ``parent``) kills it.  It never outlives
    the parent: the kernel kills it when the parent dies, however that
    happens.
    """
    die_with_parent()
    if os.getppid() != parent:  # it died before the signal was armed
        return
    conn = Connection(fd, readable=False)
    inputs = make_inputs(name, seed, seconds, scale)
    result = serve_pass(inputs, traced, setups, scratch)
    index = result.pop("index")
    result.pop("answers")
    result["digest"] = inputs.digest
    conn.send(result)
    for ordinal, request in enumerate(inputs.tail):
        issue(index, request, inputs.params.space)
        conn.send(ordinal)
    conn.send("idle")
    while True:
        time.sleep(1.0)


def durable_pass(
    inputs: Inputs, traced: bool, setups: Tuple[int, int], scratch: str
) -> Dict[str, Any]:
    """Serve from a child process, kill it mid-tail, recover, verify.

    The child is a plain ``subprocess``: ``multiprocessing`` would start a
    resource-tracker process next to it that ends only after this one has.
    """
    read_fd, write_fd = os.pipe()
    child = subprocess.Popen(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--serve-to", str(write_fd), str(os.getpid()),
            "--workload", inputs.name,
            "--seed", str(inputs.seed),
            "--seconds", repr(inputs.seconds),
            "--scale", inputs.scale,
            "--trace", str(int(traced)),
            "--setups", str(setups[0]), str(setups[1]),
            "--scratch", scratch,
        ],
        pass_fds=(write_fd,),
        stdout=subprocess.DEVNULL,  # this process's last line is the result
        cwd=ROOT,
    )  # fmt: skip
    os.close(write_fd)
    receiver = Connection(read_fd, writable=False)
    tail = inputs.tail
    seed = inputs.seed
    kill_at = random.Random(seed + 15_485_863).randrange(len(tail) // 4, 3 * len(tail) // 4)
    acked = -1
    try:
        if not receiver.poll(CHILD_TIMEOUT_S):
            raise RuntimeError("the serving child sent no report")
        result = receiver.recv()
        if result["digest"] != inputs.digest:
            raise RuntimeError("the serving child generated different inputs")
        while acked < kill_at:
            if not receiver.poll(CHILD_TIMEOUT_S):
                raise RuntimeError("the serving child stopped acknowledging")
            acked = receiver.recv()
        child.kill()
        killed_at = _clock()
        child.wait()
        # Acknowledgements already in the pipe when the kill landed count.
        try:
            while receiver.poll():
                message = receiver.recv()
                if isinstance(message, int):
                    acked = message
        except EOFError:
            pass
    finally:
        child.kill()
        child.wait()
        receiver.close()

    durable_dir = result["durable_dir"]
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    try:
        store = DurableStore(durable_dir)
        index = store.open()
        # Ask about the present of the recovered index: the event time of
        # the last request it can have seen.
        in_flight = tail[acked + 1] if acked + 1 < len(tail) else None
        clock_time = (in_flight or tail[acked]).time
        first = next(r for r in inputs.requests if r.kind == "range").payload
        probe = TimeSliceRangeQuery(
            first.range, time=clock_time + RANGE_PREDICTIVE_TS, issue_time=clock_time
        )
        first_answer = index.range_query_batch([probe])[0]
        recovery_s = _clock() - killed_at
        recovery_trace = tracer.take() if tracer is not None else {}
    finally:
        if tracer is not None:
            tracer.uninstall()

    try:
        space = inputs.params.space
        checker = Checker(inputs.workload.initial_objects, [], seed)
        for request in inputs.requests:
            if request.kind == "update":
                checker.apply(request.columns)
        touched = set()
        for request in tail[: acked + 1]:
            checker.apply(request.columns)
            touched.update(int(oid) for oid in request.columns[0])
        # The request in flight at the kill was never acknowledged: each of
        # its updates may or may not have reached the log.  Either is right;
        # ask the index which, and bring the table in line.
        if in_flight is not None:
            for position, (_, new) in enumerate(in_flight.payload):
                if checker.visible(index, new, clock_time, space):
                    checker.apply(tuple(c[position : position + 1] for c in in_flight.columns))
        lost = sum(
            1 for oid in sorted(touched)
            if not checker.visible(index, checker.object(oid), clock_time, space)
        )
        attempted = len(touched) + 1
        checker.range_matches(probe, first_answer, "first answer after recovery")
        rng = random.Random(seed + 32_452_843)
        ranges = [r.payload for r in inputs.requests if r.kind == "range"]
        for query in rng.sample(ranges, min(20, len(ranges))):
            retimed = TimeSliceRangeQuery(
                query.range, time=clock_time + RANGE_PREDICTIVE_TS, issue_time=clock_time
            )
            attempted += 1
            checker.range_matches(
                retimed, index.range_query_batch([retimed])[0], "range after recovery"
            )
        result["recovery"] = {
            "recovery_s": recovery_s,
            "trace": recovery_trace,
            "replayed_records": sum(store.replayed_on_open),
            "acknowledged": acked + 1,
            "lost": lost,
            "wrong": checker.wrong,
            "first_wrong": checker.first_wrong,
            "attempted": attempted,
        }
    finally:
        dispose(index, durable_dir)
    return result


# ----------------------------------------------------------------------
# One workload, all its phases
# ----------------------------------------------------------------------
def run_workload(
    inputs: Inputs, traced: bool, setups: Tuple[int, int] = SETUPS
) -> Dict[str, Any]:
    """Run every phase of one workload once; returns raw samples."""
    spec = inputs.spec
    scratch = str(SCRATCH / f"{os.getpid()}-{int(traced)}")
    os.makedirs(scratch, exist_ok=True)
    for left in os.listdir(SCRATCH):  # by runs that were killed outright
        if not os.path.exists(f"/proc/{left.split('-')[0]}"):
            shutil.rmtree(SCRATCH / left, ignore_errors=True)
    try:
        if spec.get("durable"):
            return durable_pass(inputs, traced, setups, scratch)
        result = serve_pass(inputs, traced, setups, scratch)
        index = result.pop("index")
        try:
            if "twin" in spec and not traced:
                result["twin"] = twin_replay(inputs, result["answers"])
            if "open_rate_per_second" in spec and not traced:
                dispose(index)
                gc.collect()
                index = timed_set_up(inputs, None, None, Yardstick(spec["yardstick_ms"]), result)
                result["open"] = open_loop(
                    index,
                    inputs.requests[: int(len(inputs.requests) * spec["open_share"])],
                    inputs.params.space,
                    spec["open_rate_per_second"],
                    inputs.seed,
                    result["answers"],
                )
        finally:
            dispose(index)
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass
