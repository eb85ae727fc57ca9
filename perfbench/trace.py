"""Outside-in layer trace: spans around the public functions of each layer.

Nothing in ``src/repro`` knows it is traced.  :meth:`Tracer.install`
replaces the public batch functions of every layer (``core``, ``bxtree``,
its key stores, ``tprtree``, ``storage``, ``serve``) with wrappers that open
a span on entry and close it on exit; :meth:`Tracer.uninstall` puts the
originals back.  ``geometry`` and ``objects`` are called millions of times
per run and are not wrapped: their time is their caller's self time.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Spans are reduced as they close — per request the
tracer keeps, for every layer, the summed self time and the number of
spans, plus the inclusive time of a few named spans — because a run closes
millions of ``BufferManager.fetch`` spans.  ``Tracer(keep_spans=True)``
additionally keeps every span (the smoke test checks nesting on them).

Threads: ``ShardedIndex`` fans a request out to shard handles on pool
threads.  Each thread has its own span stack; a span that opens on an empty
stack of a pool thread is a child of the span open on the client thread,
and that parent subtracts the *union* of such intervals, not their sum.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Request methods every index exposes; traced on each layer that has them.
_BATCH_SURFACE = (
    "bulk_load",
    "update_batch",
    "apply_batch",
    "insert_batch",
    "delete_batch",
    "range_query_batch",
    "knn_query_batch",
    "knn_candidates_batch",
)
_KEY_STORE_SURFACE = (
    "bulk_load",
    "apply_batch",
    "range_search",
    "range_search_batch",
    "knn_candidates_batch",
)
_SERVE_SURFACE = ("bulk_load", "update_batch", "range_query_batch", "knn_query_batch")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _ThreadState:
    """One thread's open spans and what its closed spans added up to."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [layer, start, child_seconds]
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.incl_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, keep_spans: bool = False) -> None:
        self._main = threading.get_ident()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: Closed spans that were the root of a pool thread's stack.
        self._fanout: List[Tuple[float, float]] = []
        #: Free-form per-request samples (list.append is atomic).
        self.samples: Dict[str, list] = {}
        #: ``(layer, name, start, end, depth, thread)`` when kept.
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        inclusive: bool = False,
        hook: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span of ``layer`` around every call.

        ``inclusive`` also adds the span's whole duration to ``incl_s[name]``;
        ``hook(counts, args, kwargs, result, duration)`` runs after the span
        closed.
        """
        clock = time.perf_counter
        get_state = self._state
        main = self._main
        tracer = self

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                duration = end - start
                on_main = threading.get_ident() == main
                if on_main and tracer._fanout:
                    # Shard calls ran on pool threads while this span
                    # waited; they are its children.
                    mine = [i for i in tracer._fanout if i[0] >= start]
                    if mine:
                        frame[2] += _covered(mine)
                        tracer._fanout = [i for i in tracer._fanout if i[0] < start]
                state.self_s[layer] = state.self_s.get(layer, 0.0) + duration - frame[2]
                state.calls[layer] = state.calls.get(layer, 0) + 1
                if inclusive:
                    state.incl_s[name] = state.incl_s.get(name, 0.0) + duration
                if stack:
                    stack[-1][2] += duration
                elif not on_main:
                    tracer._fanout.append((start, end))
                if tracer.spans is not None:
                    tracer.spans.append(
                        (layer, name, start, end, len(stack), threading.get_ident())
                    )
                if hook is not None:
                    hook(state.counts, args, kwargs, result, duration)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def take(self) -> Dict[str, Dict[str, Any]]:
        """Everything recorded since the last call, merged over threads.

        Called by the client thread between requests, when no span is open.
        """
        merged: Dict[str, Dict[str, Any]] = {
            "self_s": {},
            "calls": {},
            "incl_s": {},
            "counts": {},
            "samples": self.samples,
        }
        with self._lock:
            states = list(self._states)
        for state in states:
            for field in ("self_s", "calls", "incl_s", "counts"):
                source = getattr(state, field)
                target = merged[field]
                for key, value in source.items():
                    target[key] = target.get(key, 0) + value
                source.clear()
        self.samples = {}
        self._fanout = []
        return merged

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, layer: str, **options) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        short = attr.lstrip("_")
        setattr(owner, attr, self.wrap(original, layer, f"{layer}.{short}", **options))

    def install(self, in_process: bool = True) -> None:
        """Wrap the layers' public functions.

        With ``in_process=False`` (shards live in worker processes) only the
        ``serve`` layer is wrapped: everything below runs in the workers,
        whose spans are not shipped back, and wrapping it there would only
        slow the hop this process measures.
        """
        from repro import BufferManager, BxTree, DiskManager, TPRTree, VelocityAnalyzer, VPIndex
        from repro.btree.store import BTreeKeyStore
        from repro.bxtree.key_store import FlatKeyStore
        from repro.serve import DurableStore, Executor, ShardedIndex, ShardLog, VersionedShard
        from repro.storage.durable import FileDiskManager

        for method in _SERVE_SURFACE:
            self._patch(ShardedIndex, method, "serve.coord", inclusive=method == "bulk_load")
            self._patch(VersionedShard, method, "serve.snapshot")
        self._patch(ShardedIndex, "checkpoint", "serve.checkpoint", inclusive=True)
        self._patch(ShardLog, "append", "serve.log")
        self._patch(Executor, "attach", "serve.spawn", inclusive=True)
        self._patch(DurableStore, "open", "serve.recovery", inclusive=True)
        if not in_process:
            return
        self._patch(VelocityAnalyzer, "analyze", "core.analyze", inclusive=True)
        for method in ("bulk_load", "update_batch", "range_query_batch", "knn_query_batch"):
            self._patch(VPIndex, method, "core", inclusive=method == "bulk_load")
        for method in _BATCH_SURFACE:
            self._patch(BxTree, method, "bxtree", inclusive=method == "bulk_load")
            self._patch(TPRTree, method, "tprtree", inclusive=method == "bulk_load")
        for store in (BTreeKeyStore, FlatKeyStore):
            for method in _KEY_STORE_SURFACE:
                hook = {"range_search": _count_scan, "range_search_batch": _count_scans}.get(method)
                self._patch(store, method, "key_store", hook=hook)
        self._patch(BufferManager, "fetch", "storage.buffer")
        self._patch(DiskManager, "read", "storage.disk.read")
        self._patch(DiskManager, "write", "storage.disk.write")
        self._patch(FileDiskManager, "read", "storage.disk.read")
        self._patch(FileDiskManager, "write", "storage.durable.write")
        self._patch(FileDiskManager, "sync", "storage.durable.sync")
        self._patch(os, "fsync", "storage.durable.fsync")
        self._patch_pwrite()

    def _patch_pwrite(self) -> None:
        """Count the bytes of every ``os.pwrite`` against the open span's layer."""
        original = os.pwrite
        get_state = self._state

        def pwrite(fd, data, offset):
            state = get_state()
            layer = state.stack[-1][0] if state.stack else "driver"
            key = "bytes." + layer
            state.counts[key] = state.counts.get(key, 0) + len(data)
            return original(fd, data, offset)

        self._undo.append((os, "pwrite", original))
        os.pwrite = pwrite

    def wrap_handles(self, index: Any) -> None:
        """Span the shard handles of a process-backed ``ShardedIndex``.

        The handle call is the whole hop as this process sees it: pickle,
        pipe, the worker's work, the reply.  Handles are per-index objects,
        so they are wrapped one by one after the index is built.
        """
        if getattr(getattr(index, "executor", None), "kind", None) != "process":
            return
        for handle in index.shards:
            for method in _SERVE_SURFACE:
                bound = getattr(handle, method)
                setattr(
                    handle,
                    method,
                    self.wrap(bound, "serve.executor", f"serve.executor.{method}", hook=self._hop(method)),
                )

    def _hop(self, method: str) -> Callable:
        def hook(counts, args, kwargs, result, duration) -> None:
            del counts, result
            # The message size is worked out from these after the request,
            # off its clock.
            self.samples.setdefault("hops", []).append((duration, (method, args, kwargs)))

        return hook

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count_scan(counts: Dict[str, float], args, kwargs, result: Any, duration) -> None:
    """One key range asked of a key store, and the keys it examined for it."""
    del args, kwargs, duration
    counts["key_ranges"] = counts.get("key_ranges", 0) + 1
    if result is not None:
        counts["keys_examined"] = counts.get("keys_examined", 0) + len(result)


def _count_scans(counts: Dict[str, float], args, kwargs, result: Any, duration) -> None:
    """The batch form of :func:`_count_scan`: ``args`` is ``(store, ranges)``."""
    del kwargs, duration
    counts["key_ranges"] = counts.get("key_ranges", 0) + len(args[1])
    if result is not None:
        counts["keys_examined"] = counts.get("keys_examined", 0) + sum(len(r) for r in result)
