"""Pluggable shard executors: where a shard's operations actually run.

The :class:`~repro.serve.ShardedIndex` above this module decides *what*
runs on each shard (routing, WAL, merge) and its
:class:`~repro.serve.supervisor.Supervisor` how failures are handled; an
:class:`Executor` decides *where* (:meth:`Executor.run`):

* :class:`SerialExecutor` — every shard call runs inline on the calling
  thread, one shard after another.  No threads, no processes: the
  default, and the deterministic reference backend.
* :class:`ProcessExecutor` — each shard lives in its own worker process
  and the serving layer talks to it through a :class:`_ProcessShard`
  proxy speaking a compact message protocol over a pipe.  Queries cross
  as one batched message per shard, replies carry the worker's I/O
  counters so the parent-side aggregate stays exact, and a dead worker
  surfaces as :class:`~repro.storage.faults.ShardDownError` — which the
  supervisor already treats as "rebuild from the WAL", so process death
  recovers through the exact machinery shard faults do.

**Handles.**  ``attach(shards)`` returns one *handle* per shard and the
serving layer only ever talks to handles.  For the serial executor the
handle *is* the index; for the process executor it is a proxy with the
same method surface (``bulk_load`` … ``knn_query_batch``, ``buffer``
with live ``stats``), so the supervision/merge code upstairs is executor
agnostic.

**Message protocol** (process mode).  Parent → worker messages are
``(op, args, kwargs)`` tuples, pickled by the pipe; ``op`` is an index
method name (``"update_batch"``, ``"range_query_batch"``, …) or one of
the double-underscore control verbs (``"__len__"``, ``"__flush__"``,
``"__snapshot__"``, ``"__close__"``).  Worker → parent replies are
``(ok, payload, stats)``
where ``payload`` is the return value (or the raised exception) and
``stats`` is the worker's cumulative six-counter I/O state
``(physical r/w, logical r/w, buffer hit/miss)``, copied into the
parent's per-shard mirror :class:`~repro.storage.stats.IOStats` on every
reply — aggregate accounting is therefore exact, not sampled, at one
message per shard per batch.  See ``docs/serving.md``.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import threading
import time
import warnings
import weakref
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.objects.knn import ScalarVerbs
from repro.serve.supervisor import ShardFailedError
from repro.storage.faults import ShardDownError
from repro.storage.stats import IOStats

T = TypeVar("T")


class Executor:
    """Where shard operations run (see the module docstring).

    An executor is single-use: it binds to one :class:`ShardedIndex` via
    :meth:`attach` and is torn down by that index's ``close()``.  The
    :class:`~repro.serve.supervisor.Supervisor` holds the per-shard locks
    and the supervision policy; the executor only provides placement
    (:meth:`run`: inline / fanned out) and the handle objects the
    supervised calls run against.

    Attributes:
        kind: short name (``"serial"`` / ``"process"``).
    """

    kind = "base"

    def __init__(self) -> None:
        self._attached = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def attach(self, shards: Sequence[Any]) -> List[Any]:
        """Bind the executor to ``shards``; returns one handle per shard."""
        if self._attached:
            raise RuntimeError(
                f"{type(self).__name__} is already attached to a ShardedIndex "
                "(executors are single-use; build a fresh one per index)"
            )
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        self._attached = True
        return self._attach(list(shards))

    def _attach(self, shards: List[Any]) -> List[Any]:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Tear the executor down (idempotent at this level)."""
        self._closed = True

    # -- placement -----------------------------------------------------
    def run(
        self, calls: Dict[int, Callable[[], T]], timeout: Optional[float]
    ) -> Tuple[Dict[int, T], Dict[int, BaseException]]:
        """Run one call per shard; returns their results and failures, keyed by shard.

        A call raising :class:`~repro.serve.supervisor.ShardFailedError`
        is a failure; any other exception propagates.  This default runs
        the calls inline, in the order given (no ``timeout`` reaches it).
        """
        results: Dict[int, T] = {}
        failures: Dict[int, BaseException] = {}
        for shard_id, call in calls.items():
            try:
                results[shard_id] = call()
            except ShardFailedError as error:
                failures[shard_id] = error
        return results, failures

    # -- shard plumbing ------------------------------------------------
    def replace(self, shard_id: int, fresh: Any) -> Any:
        """Swap in a recovered shard; returns the replacement handle."""
        raise NotImplementedError

    def snapshot(self, shard_id: int) -> Any:
        """A parent-side deep copy of the shard's current state.

        Used as the in-memory checkpoint baseline: replaying the WAL tail
        into (a deepcopy of) the snapshot must reproduce the live shard.
        The caller flushes the shard's buffer first and holds its lock.
        """
        raise NotImplementedError


class SerialExecutor(Executor):
    """Deterministic reference backend: every shard call runs inline.

    Fan-out order is always ascending shard id on the calling thread, so
    a run's interleaving is reproducible operation for operation.  A
    per-call query timeout would need a second thread to enforce, so
    ``check_constructible`` refuses one here (``docs/serving.md``).
    """

    kind = "serial"

    def _attach(self, shards: List[Any]) -> List[Any]:
        self._shards = shards
        return shards

    def replace(self, shard_id: int, fresh: Any) -> Any:
        self._shards[shard_id] = fresh
        return fresh

    def snapshot(self, shard_id: int) -> Any:
        return copy.deepcopy(self._shards[shard_id])


# ----------------------------------------------------------------------
# Process mode
# ----------------------------------------------------------------------
def _stats_tuple(stats: IOStats) -> Tuple[int, int, int, int, int, int]:
    return (
        stats.physical.reads,
        stats.physical.writes,
        stats.logical.reads,
        stats.logical.writes,
        stats.buffer.hits,
        stats.buffer.misses,
    )


def _apply_stats(mirror: IOStats, values: Tuple[int, int, int, int, int, int]) -> None:
    (
        mirror.physical.reads,
        mirror.physical.writes,
        mirror.logical.reads,
        mirror.logical.writes,
        mirror.buffer.hits,
        mirror.buffer.misses,
    ) = values


def _shard_worker_main(conn, index: Any) -> None:
    """Worker-process loop: execute messages against the hosted shard.

    Runs until a ``__close__`` verb or a closed pipe.  Every reply —
    success or failure — carries the shard's cumulative I/O counters so
    the parent's mirror stays exact without extra round trips.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op, args, kwargs = message
        try:
            if op == "__close__":
                conn.send((True, None, _stats_tuple(index.buffer.stats)))
                break
            if op == "__len__":
                value: Any = len(index)
            elif op == "__flush__":
                value = index.buffer.flush()
            elif op == "__snapshot__":
                value = index
            else:
                value = getattr(index, op)(*args, **kwargs)
            reply = (True, value, _stats_tuple(index.buffer.stats))
        except BaseException as error:  # noqa: BLE001 - forwarded to the parent
            reply = (False, error, _stats_tuple(index.buffer.stats))
        try:
            conn.send(reply)
        except Exception:
            # Unpicklable payload (or a vanished parent): degrade to a
            # picklable error so the parent is never left blocked.
            try:
                conn.send(
                    (
                        False,
                        RuntimeError(f"shard worker could not send a {op!r} reply"),
                        _stats_tuple(index.buffer.stats),
                    )
                )
            except Exception:
                break
    conn.close()


class _ProcessBuffer:
    """The ``buffer`` facade of a :class:`_ProcessShard` handle.

    ``stats`` is the parent-side mirror — a plain :class:`IOStats`
    refreshed from every worker reply, so reads are local and exact as
    of the last completed call.  ``flush`` crosses the pipe.
    """

    def __init__(self, owner: "ProcessExecutor", shard_id: int, stats: IOStats) -> None:
        self._owner = owner
        self._shard_id = shard_id
        self.stats = stats

    def flush(self) -> None:
        self._owner._call(self._shard_id, "__flush__", (), {})


class _ProcessShard(ScalarVerbs):
    """Parent-side proxy of one worker-hosted shard.

    Exposes the same batch surface as the index it fronts, so the
    supervision and merge code of :class:`~repro.serve.ShardedIndex`
    is identical across executors.  Every method is one message over the
    shard's pipe; batched calls therefore cost one round trip per shard
    per batch regardless of batch size (a scalar verb is a batch of one).
    """

    def __init__(self, owner: "ProcessExecutor", shard_id: int, name: str, stats: IOStats) -> None:
        self._owner = owner
        self._shard_id = shard_id
        self.name = name
        self.buffer = _ProcessBuffer(owner, shard_id, stats)

    def _call(self, op: str, *args, **kwargs) -> Any:
        return self._owner._call(self._shard_id, op, args, kwargs)

    # -- mutations -----------------------------------------------------
    # Mutations forward **kwargs so the serving layer's snapshot plumbing
    # (``epoch=…, gc_floor=…``) crosses the pipe to the versioned shard
    # hosted in the worker.
    def insert_batch(self, objects, **kwargs) -> None:
        return self._call("insert_batch", list(objects), **kwargs)

    def delete_batch(self, objects, **kwargs) -> List[bool]:
        return self._call("delete_batch", list(objects), **kwargs)

    def update_batch(self, pairs, **kwargs) -> List[bool]:
        return self._call("update_batch", list(pairs), **kwargs)

    def bulk_load(self, objects, **kwargs) -> None:
        return self._call("bulk_load", list(objects), **kwargs)

    # -- queries -------------------------------------------------------
    def range_query_batch(self, queries, epoch=None) -> List[List[int]]:
        return self._call("range_query_batch", list(queries), epoch=epoch)

    def knn_query_batch(self, queries, space=None, epoch=None):
        return self._call("knn_query_batch", list(queries), space=space, epoch=epoch)

    def __len__(self) -> int:
        return self._call("__len__")


class _Worker:
    """One worker process plus its pipe and per-shard bookkeeping."""

    __slots__ = ("process", "conn", "lock", "dead")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.dead = False


def _terminate_workers(workers: Dict[int, _Worker], owner_pid: int) -> None:
    """GC/atexit backstop: reap worker processes without waiting.

    Holds the worker table, never the executor, so the finalizer cannot
    keep a leaked index alive.  The supported path is ``close()``; this
    exists so an index dropped without one cannot leak processes.

    The ``owner_pid`` guard matters under the fork start method: a worker
    forked while earlier workers already existed inherits this finalizer
    and would run it at its own interpreter shutdown — against processes
    it does not own (``multiprocessing`` asserts on exactly that).  Only
    the registering process reaps.
    """
    if os.getpid() != owner_pid:
        return
    for worker in workers.values():
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
    for worker in workers.values():
        worker.process.join(timeout=5)


class ProcessExecutor(Executor):
    """Host each shard in its own worker process (GIL-free fan-out).

    Shards are shipped to their workers by pickle at attach time (every
    standard family round-trips; the PR 7 codec work made the storage
    objects plain data).  Shard state then lives *only* in the worker:
    the parent talks through :class:`_ProcessShard` proxies and keeps a
    per-shard mirror of the worker's I/O counters, refreshed on every
    reply.

    Worker death (crash, ``SIGKILL``) raises
    :class:`~repro.storage.faults.ShardDownError` on the next touched
    call, which routes into the serving layer's WAL-replay recovery; the
    recovered shard is shipped to a respawned worker by
    :meth:`replace`.

    :meth:`run` fans calls out on a private thread pool, one thread per
    shard (created at attach, threads started on first use): pool threads
    wait on the workers' pipes, so the workers compute in parallel, and
    one that overruns the supervisor's query timeout can be abandoned
    while the others answer.

    Attributes:
        start_method: the ``multiprocessing`` start method in use:
            ``"fork"`` where available (no interpreter re-import per
            worker) and ``"spawn"`` elsewhere.
    """

    kind = "process"

    def __init__(self) -> None:
        super().__init__()
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self.start_method)
        self._workers: Dict[int, _Worker] = {}
        self._mirrors: List[IOStats] = []
        self._handles: List[_ProcessShard] = []
        self._pool: Optional[ThreadPoolExecutor] = None

    def _attach(self, shards: List[Any]) -> List[Any]:
        for shard_id, shard in enumerate(shards):
            self._mirrors.append(IOStats())
            self._handles.append(self._spawn(shard_id, shard))
        self._pool = ThreadPoolExecutor(len(shards), thread_name_prefix="shard-process")
        # GC backstop: terminate leaked workers and pool threads (close()
        # is the real path).
        weakref.finalize(self, _terminate_workers, self._workers, os.getpid())
        weakref.finalize(self, self._pool.shutdown, wait=False)
        return list(self._handles)

    def _spawn(self, shard_id: int, index: Any) -> _ProcessShard:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, index),
            name=f"shard-worker-{shard_id}",
            daemon=True,
        )
        with warnings.catch_warnings():
            # Respawns after recovery fork from a parent whose fan-out
            # threads exist; the child only ever runs the worker loop
            # (no inherited locks are taken), so the 3.12+ fork-with-
            # threads DeprecationWarning does not apply to this use.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        child_conn.close()
        self._workers[shard_id] = _Worker(process, parent_conn)
        mirror = self._mirrors[shard_id]
        _apply_stats(mirror, _stats_tuple(index.buffer.stats))
        name = getattr(index, "name", type(index).__name__)
        return _ProcessShard(self, shard_id, name, mirror)

    def _down(self, shard_id: int, worker: _Worker) -> ShardDownError:
        worker.dead = True
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        code = worker.process.exitcode
        return ShardDownError(
            f"shard {shard_id} worker process died (exit code {code})"
        )

    def _call(self, shard_id: int, op: str, args: tuple, kwargs: dict) -> Any:
        worker = self._workers[shard_id]
        with worker.lock:
            if worker.dead:
                raise ShardDownError(
                    f"shard {shard_id} worker process is down (awaiting recovery)"
                )
            try:
                worker.conn.send((op, args, kwargs))
                ok, payload, stats = worker.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
                raise self._down(shard_id, worker) from error
            _apply_stats(self._mirrors[shard_id], stats)
        if ok:
            return payload
        raise payload

    def run(
        self, calls: Dict[int, Callable[[], T]], timeout: Optional[float]
    ) -> Tuple[Dict[int, T], Dict[int, BaseException]]:
        """Fan the calls out on the pool under one shared deadline.

        One call without a deadline runs inline (a pool thread would only
        wait on the pipe).  A call still running at the deadline is
        abandoned and fails as a :class:`TimeoutError`; one ``close()``
        cancelled before it started fails as a :class:`RuntimeError`.
        """
        if len(calls) <= 1 and timeout is None:
            return super().run(calls, timeout)
        futures = {shard_id: self._pool.submit(call) for shard_id, call in calls.items()}
        return self._gather(futures, timeout)

    def _gather(
        self, futures: Dict[int, "Future[T]"], timeout: Optional[float]
    ) -> Tuple[Dict[int, T], Dict[int, BaseException]]:
        """Collect fan-out futures; returns the per-shard results and failures.

        A per-call ``timeout`` is a shared deadline: every future must
        resolve within ``timeout`` seconds of the gather starting.  On an
        unexpected (non-supervision) exception the remaining futures are
        cancelled and awaited before it propagates, so ``__exit__`` /
        ``close()`` never races abandoned workers.
        """
        results: Dict[int, T] = {}
        failures: Dict[int, BaseException] = {}
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = dict(futures)
        try:
            for shard_id, future in futures.items():
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                try:
                    results[shard_id] = future.result(timeout=remaining)
                except ShardFailedError as error:
                    failures[shard_id] = error
                except FutureTimeoutError:
                    # The worker cannot be interrupted; abandon it.
                    failures[shard_id] = TimeoutError(f"shard call exceeded {timeout}s")
                except CancelledError:
                    failures[shard_id] = RuntimeError("shard call cancelled")
                finally:
                    pending.pop(shard_id, None)
        except BaseException:
            for future in pending.values():
                future.cancel()
            wait(pending.values())
            raise
        return results, failures

    def replace(self, shard_id: int, fresh: Any) -> Any:
        """Ship a recovered shard to a fresh worker process."""
        old = self._workers.get(shard_id)
        if old is not None:
            if not old.dead:
                try:
                    old.conn.send(("__close__", (), {}))
                    old.conn.recv()
                except Exception:
                    pass
            try:
                old.conn.close()
            except Exception:
                pass
            if old.process.is_alive():
                old.process.terminate()
            old.process.join(timeout=5)
        handle = self._spawn(shard_id, fresh)
        self._handles[shard_id] = handle
        return handle

    def snapshot(self, shard_id: int) -> Any:
        """Materialize the worker's live index in the parent (pickled)."""
        return self._call(shard_id, "__snapshot__", (), {})

    def worker_pid(self, shard_id: int) -> Optional[int]:
        """OS pid of the shard's worker (tests and chaos tooling)."""
        return self._workers[shard_id].process.pid

    def worker_alive(self, shard_id: int) -> bool:
        """Whether the shard's worker process is currently alive."""
        worker = self._workers[shard_id]
        return not worker.dead and worker.process.is_alive()

    def close(self) -> None:
        """Stop the fan-out pool, then every worker process.

        Queued fan-out calls are cancelled and running ones awaited, so no
        pool thread can still be talking to a worker once this returns.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        for shard_id, worker in self._workers.items():
            with worker.lock:
                if not worker.dead:
                    try:
                        worker.conn.send(("__close__", (), {}))
                        worker.conn.recv()
                    except Exception:
                        pass
                try:
                    worker.conn.close()
                except Exception:
                    pass
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.dead = True
        self._closed = True


#: Executor registry of the string spellings accepted by ServeConfig.
EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def make_executor(spec: Any) -> Executor:
    """Resolve an executor spec: None, a kind name, or an instance.

    ``None`` resolves to the default, :class:`SerialExecutor`; a string
    must be one of :data:`EXECUTORS`; an :class:`Executor` instance
    passes through (it must not be attached or closed yet).
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        if spec not in EXECUTORS:
            raise ValueError(f"unknown executor {spec!r} (choose from {sorted(EXECUTORS)})")
        return EXECUTORS[spec]()
    if isinstance(spec, Executor):
        return spec
    raise TypeError(f"executor must be None, a name, or an Executor (got {type(spec).__name__})")


__all__ = [
    "EXECUTORS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "make_executor",
]
