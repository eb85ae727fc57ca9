"""Epoch-versioned shard overlay: snapshot reads above a live index.

The serving layer's queries historically assumed quiescence: a query
batch that overlapped an update batch could observe a *torn cut* — some
shards answering before the update, some after.  This module provides
the per-shard half of the fix.  :class:`VersionedShard` wraps one shard
index and keeps, next to the live structure, a bounded **undo log** of
epoch deltas: for every mutation applied at epoch ``e`` it records each
touched object's state *before* the mutation (``None`` for objects that
did not exist).  A query pinned at epoch ``E`` is then answered as

``state(E) = live state, with every object touched after E mapped back
to its first recorded prior state above E``

so the shard can serve any retained historical epoch while updates keep
streaming in.  :class:`EpochClock` assigns the sharded layer's epochs
(one per applied update batch, globally serialized) and keeps its pins;
the sharded layer threads the pinned epoch through every executor —
including the process backend, where the wrapper travels to the worker
whole and reconciles worker-side.

Why reconciliation is *exact* (bit-identical to a quiescent index):

* Exact range answers are a pure function of index **contents** — the
  shard-count-invariance suite pins this.  Objects untouched since the
  pinned epoch are answered by the live traversal; touched objects are
  removed and re-qualified from their recorded epoch-``E`` state with
  :meth:`RangeQuery.matches`, the documented ground-truth predicate.
* kNN answers are a pure function of (contents, ``k``, space-diagonal
  cap): the expanding search retires a probe only when its circle
  provably holds the ``k`` nearest or the radius hit the cap.  The live
  index is over-fetched by the number of touched objects, touched oids
  are dropped, and the touched objects' epoch-``E`` states are ranked
  through the **same** vectorized distance kernel the index uses
  (:func:`repro.objects.knn._rank_distances`), so merged distances are
  bit-identical, then merged by ``(distance, oid)`` and truncated.

The overlay trusts the repo-wide mutation contract (``delete``/``update``
receive the object's current stored snapshot; ``insert``/``bulk_load``
receive objects not currently present) — the same contract WAL replay
already relies on for determinism.
"""

from __future__ import annotations

import math
import operator
import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect
from repro.objects.knn import KNNQuery, ScalarVerbs, _rank_distances, motion_rows
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery

__all__ = ["SnapshotTooOldError", "VersionedShard"]

#: Prior-state record: ``(oid, state-before-the-mutation-or-None)``.
PriorState = Tuple[int, Optional[MovingObject]]


class SnapshotTooOldError(LookupError):
    """The pinned epoch's deltas were garbage-collected.

    Raised when a query pins an epoch below the shard's reconstruction
    floor — the overlay prunes deltas at or below the oldest epoch any
    live pin still needs, so this only happens for epochs obtained
    outside :meth:`ShardedIndex.pin` (which registers the pin and keeps
    its deltas alive).
    """


class VersionedShard(ScalarVerbs):
    """One shard index plus its epoch undo-log overlay.

    The wrapper exposes the shard's batch mutation/query surface; every
    mutation additionally accepts ``epoch`` (the batch's global epoch)
    and ``gc_floor`` (the oldest epoch any reader still needs — deltas
    at or below it are pruned), and every query additionally accepts
    ``epoch`` to answer at a pinned historical epoch.  The scalar verbs
    are :class:`~repro.objects.knn.ScalarVerbs`' batches of one, so they
    are undo-logged too.  Unknown attributes (``buffer``, ``name``,
    ``compact``, …) delegate to the wrapped index, so the wrapper drops
    into every call site that held a bare shard — including pickling
    into a worker process.
    """

    def __init__(self, base: object) -> None:
        self.base = base
        #: Highest epoch whose mutations this shard has applied.
        self.epoch = 0
        #: Oldest epoch whose snapshot is still reconstructible.
        self.floor = 0
        #: Ascending ``(epoch, {oid: prior state})`` undo deltas.
        self._deltas: List[Tuple[int, Dict[int, Optional[MovingObject]]]] = []

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        base = self.__dict__.get("base")
        if base is None:
            raise AttributeError(name)
        return getattr(base, name)

    def __len__(self) -> int:
        return len(self.base)

    # -- overlay bookkeeping -------------------------------------------
    def _record(self, epoch: Optional[int], priors: Sequence[PriorState]) -> None:
        """Fold prior states into the delta of ``epoch`` and advance."""
        if epoch is None:
            return
        if priors:
            if not self._deltas or self._deltas[-1][0] != epoch:
                self._deltas.append((epoch, {}))
            delta = self._deltas[-1][1]
            for oid, prior in priors:
                # First prior wins: it is the state the epoch started from.
                delta.setdefault(oid, prior)
        if epoch > self.epoch:
            self.epoch = epoch

    def _prune(self, gc_floor: Optional[int]) -> None:
        """Drop deltas no reader can still pin (epochs ``<= gc_floor``)."""
        if gc_floor is None or gc_floor <= self.floor:
            return
        deltas = self._deltas
        while deltas and deltas[0][0] <= gc_floor:
            deltas.pop(0)
        self.floor = gc_floor

    def states_at(self, epoch: int) -> Dict[int, Optional[MovingObject]]:
        """Epoch-``epoch`` states of every object touched after it.

        ``None`` values mark objects that did not exist at the pinned
        epoch (they were inserted later).  Objects absent from the map
        are untouched since the pinned epoch — their live state *is*
        their pinned state.
        """
        if epoch < self.floor:
            raise SnapshotTooOldError(
                f"epoch {epoch} is below this shard's reconstruction floor "
                f"{self.floor} (its deltas were pruned; pin epochs via "
                "ShardedIndex.pin() to keep them alive)"
            )
        states: Dict[int, Optional[MovingObject]] = {}
        for delta_epoch, prior in self._deltas:
            if delta_epoch <= epoch:
                continue
            for oid, state in prior.items():
                # Ascending deltas: the first one above ``epoch`` holds
                # the state the object had at ``epoch``.
                states.setdefault(oid, state)
        return states

    # -- mutations (undo-logged) ---------------------------------------
    def insert_batch(
        self,
        objects: Sequence[MovingObject],
        epoch: Optional[int] = None,
        gc_floor: Optional[int] = None,
    ):
        objects = list(objects)
        result = self.base.insert_batch(objects)
        self._record(epoch, [(obj.oid, None) for obj in objects])
        self._prune(gc_floor)
        return result

    def delete_batch(
        self,
        objects: Sequence[MovingObject],
        epoch: Optional[int] = None,
        gc_floor: Optional[int] = None,
    ) -> List[bool]:
        objects = list(objects)
        flags = self.base.delete_batch(objects)
        self._record(
            epoch, [(obj.oid, obj) for obj, flag in zip(objects, flags) if flag]
        )
        self._prune(gc_floor)
        return flags

    def update_batch(
        self,
        pairs: Sequence[Tuple[MovingObject, MovingObject]],
        epoch: Optional[int] = None,
        gc_floor: Optional[int] = None,
    ) -> List[bool]:
        pairs = list(pairs)
        flags = self.base.update_batch(pairs)
        # A pair whose old was not stored is an upsert: the object was absent.
        self._record(
            epoch, [(old.oid, old if hit else None) for (old, _), hit in zip(pairs, flags)]
        )
        self._prune(gc_floor)
        return flags

    def bulk_load(
        self,
        objects: Sequence[MovingObject],
        epoch: Optional[int] = None,
        gc_floor: Optional[int] = None,
    ):
        objects = list(objects)
        result = self.base.bulk_load(objects)
        self._record(epoch, [(obj.oid, None) for obj in objects])
        self._prune(gc_floor)
        return result

    # -- queries (epoch-reconciled) ------------------------------------
    def range_query_batch(
        self,
        queries: Sequence[RangeQuery],
        epoch: Optional[int] = None,
    ) -> List[List[int]]:
        """Per-query qualifying oids, reconciled to ``epoch`` when pinned.

        Touched oids are removed from the live answer and re-qualified
        from their recorded epoch states with :meth:`RangeQuery.matches`
        — the predicate the index answers are defined against — so the
        reconciled answer set equals a quiescent evaluation at ``epoch``.
        """
        queries = list(queries)
        answers = self.base.range_query_batch(queries)
        if epoch is None or epoch >= self.epoch:
            return answers
        states = self.states_at(epoch)
        if not states:
            return answers
        reconciled: List[List[int]] = []
        for query, answer in zip(queries, answers):
            merged = [oid for oid in answer if oid not in states]
            merged.extend(
                oid
                for oid, state in states.items()
                if state is not None and query.matches(state)
            )
            merged.sort()
            reconciled.append(merged)
        return reconciled

    def knn_query_batch(
        self,
        queries: Sequence[KNNQuery],
        space: Optional[Rect] = None,
        epoch: Optional[int] = None,
    ) -> List[List[Tuple[int, float]]]:
        """Per-probe ``(oid, distance)`` rankings at the pinned ``epoch``.

        The live index is asked for ``k + touched`` neighbours (touched
        oids can displace at most ``touched`` true answers), touched oids
        are dropped, and the touched objects' epoch states are ranked by
        the same vectorized kernel the index itself uses before the final
        ``(distance, oid)`` merge — keeping every distance bit-identical
        to a quiescent evaluation at ``epoch``.
        """
        queries = list(queries)
        if epoch is None or epoch >= self.epoch:
            return self.base.knn_query_batch(queries, space=space)
        states = self.states_at(epoch)
        if not states:
            return self.base.knn_query_batch(queries, space=space)
        overfetch = len(states)
        widened = [
            replace(query, k=query.k + overfetch) if query.k > 0 else query
            for query in queries
        ]
        raw = self.base.knn_query_batch(widened, space=space)
        pool = motion_rows(state for state in states.values() if state is not None)
        # The expanding search never returns candidates beyond the space
        # diagonal; the brute-forced epoch states honour the same cap.
        cap = math.hypot(space.width, space.height) if space is not None else None
        reconciled: List[List[Tuple[int, float]]] = []
        for query, ranked in zip(queries, raw):
            if query.k <= 0:
                reconciled.append([])
                continue
            merged = [pair for pair in ranked if pair[0] not in states]
            oids, distances = _rank_distances(pool, query.center, query.query_time)
            merged.extend(
                (int(oid), float(distance))
                for oid, distance in zip(oids, distances)
                if cap is None or distance <= cap
            )
            merged.sort(key=lambda pair: (pair[1], pair[0]))
            reconciled.append(merged[: query.k])
        return reconciled


class EpochClock:
    """The global snapshot epochs of one :class:`~repro.serve.ShardedIndex`.

    One counter, advanced per mutation batch under the single-writer lock;
    the *published* epoch trails it until the batch has scattered to every
    routed shard, and queries pin the published epoch.  Pins are refcounts
    keyed by epoch — their minimum is the GC floor no shard may prune past
    (see ``docs/htap.md``).
    """

    def __init__(self, start: int) -> None:
        self._epoch_counter = start
        self._published_epoch = start
        self._pins: Dict[int, int] = {}
        self._write_lock = threading.Lock()
        self._epoch_lock = threading.Lock()

    @property
    def published(self) -> int:
        """The highest epoch whose batch reached every shard it routes to."""
        return self._published_epoch

    @contextmanager
    def pin(self, epoch: Optional[int] = None):
        """Yield the epoch a read runs at: ``epoch``, or a pin on the published one.

        An explicit epoch is trusted (a ``pin()`` block keeps its deltas
        alive) but must already be published — pinning the future would
        break the consistent-cut guarantee — and integral.
        """
        if epoch is not None:
            epoch = operator.index(epoch)
            if epoch < 0 or epoch > self._published_epoch:
                raise ValueError(
                    f"epoch {epoch} is not published yet (published epoch: "
                    f"{self._published_epoch})"
                )
            yield epoch
            return
        with self._epoch_lock:
            epoch = self._published_epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
        try:
            yield epoch
        finally:
            with self._epoch_lock:
                count = self._pins.get(epoch, 0) - 1
                if count > 0:
                    self._pins[epoch] = count
                else:
                    self._pins.pop(epoch, None)

    @contextmanager
    def advance(self):
        """Serialize one mutation batch and hand it the next epoch.

        Yields ``(epoch, gc_floor)`` under the single-writer lock; the
        epoch is published in the ``finally`` — its WAL records exist and
        every routed shard applied its slice, rejected it whole, or is
        marked failed (a failed shard cannot silently answer a torn cut:
        strict queries raise on it and partial queries skip it until it
        recovers, and recovery replays the WAL through this very epoch).
        The GC floor is the oldest epoch a live pin still needs — computed
        under the epoch lock so a concurrently registered pin is never starved.
        """
        with self._write_lock:
            with self._epoch_lock:
                self._epoch_counter += 1
                epoch = self._epoch_counter
                gc_floor = min(self._pins) if self._pins else self._published_epoch
            try:
                yield epoch, gc_floor
            finally:
                with self._epoch_lock:
                    if epoch > self._published_epoch:
                        self._published_epoch = epoch
