"""Consistency oracle for epoch-pinned snapshot serving.

The snapshot machinery's promise (``docs/htap.md``) is falsifiable: an
epoch-pinned answer must be **bit-identical** to what a quiescent index
— one that applied exactly the update batches up to the pinned epoch and
nothing else — would answer.  :class:`EpochOracle` checks it against a
model, not a second index: a dict of the live objects by id, answered by
brute force (:func:`quiescent_answers`), so no routing, merge or index
code takes part in judging itself.

The workload records every mutation it applies as ``(epoch, op,
payload)`` — ``op`` and ``payload`` exactly as the write-ahead log holds
them — and every epoch-pinned answer it receives as ``(epoch, kind,
payload, answer)``; :meth:`EpochOracle.check` replays the mutations into
an empty model epoch by epoch and re-evaluates each answer at its pinned
epoch.  Equality is exact: ids and ``float`` distances come from the same
distance kernel on both sides, and any tolerance would mask a torn cut
whose victim object moved less than the tolerance.  Concurrency lives in
the workload; the oracle only sees the recorded streams afterwards, so
its verdict is deterministic and replayable.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.objects.knn import KNNQuery, _rank_distances, motion_rows
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery

__all__ = ["EpochOracle", "quiescent_answers"]


def quiescent_answers(
    live: Dict[int, MovingObject], queries: Sequence[RangeQuery], probes: Sequence[KNNQuery]
) -> Tuple[List[List[int]], List[List[Tuple[int, float]]]]:
    """What any index holding exactly ``live`` must answer, by brute force.

    Range answers are the matching ids, ascending, decided over the live
    objects' :data:`~repro.objects.knn.MOTION` rows by
    :meth:`RangeQuery.matches_rows` (the array twin of ``matches``); kNN
    answers are the ``k`` nearest ``(oid, distance)`` pairs, ordered by
    distance, then id.
    """
    rows = motion_rows(live.values())
    rows = rows.take(np.argsort(rows["oid"]))
    ranges = [rows["oid"][query.matches_rows(rows)].tolist() for query in queries]
    nearest = []
    for probe in probes:
        oids, distances = _rank_distances(rows, probe.center, probe.query_time)
        order = np.lexsort((oids, distances))[: probe.k]
        nearest.append([(int(oids[j]), float(distances[j])) for j in order])
    return ranges, nearest


def _apply(live: Dict[int, MovingObject], op: str, payload: Any) -> None:
    """Apply one recorded mutation to the model."""
    if op in ("bulk_load", "insert_batch"):
        live.update((obj.oid, obj) for obj in payload)
    elif op == "delete_batch":
        for obj in payload:
            live.pop(obj.oid, None)
    elif op == "update_batch":
        for old, new in payload:
            live.pop(old.oid, None)
            live[new.oid] = new
    else:
        raise ValueError(f"unknown mutation op {op!r}")


class EpochOracle:
    """Record a workload's epoch stream, then replay it into the model and compare.

    Usage::

        oracle = EpochOracle()
        index.bulk_load(objects)
        oracle.record_mutation(index.epoch, "bulk_load", objects)
        with index.pin() as epoch:
            answer = index.range_query_batch(queries, epoch=epoch)
        oracle.record_answer(epoch, "range", queries, answer)
        oracle.assert_consistent()
    """

    def __init__(self) -> None:
        self._mutations: List[Tuple[int, str, Any]] = []
        self._samples: List[Tuple[int, str, Any, Any]] = []

    def record_mutation(self, epoch: int, op: str, payload: Any) -> None:
        """Record one applied update batch and the epoch it was assigned.

        ``op``/``payload`` follow the WAL conventions
        (:data:`repro.serve.LOG_OPS`): a sequence of objects, or of
        ``(old, new)`` pairs for ``update_batch``.  Recording may happen in
        any order; mutations replay sorted by ``(epoch, recording order)``.
        """
        self._mutations.append((operator.index(epoch), op, payload))

    def record_answer(self, epoch: int, kind: str, payload: Any, answer: Any) -> None:
        """Record one epoch-pinned answer, of ``"range"`` queries or ``"knn"`` probes."""
        if kind not in ("range", "knn"):
            raise ValueError(f"unknown answer kind {kind!r}")
        self._samples.append((operator.index(epoch), kind, payload, answer))

    @property
    def answers_recorded(self) -> int:
        """How many epoch-pinned answers the workload recorded."""
        return len(self._samples)

    def check(self) -> List[str]:
        """One description per recorded answer that differs from the model at its epoch.

        Every call replays from an empty model, so a verdict may be
        repeated and recording resumed after it.
        """
        mutations = sorted(self._mutations, key=operator.itemgetter(0))
        live: Dict[int, MovingObject] = {}
        applied = 0
        mismatches: List[str] = []
        for epoch, kind, payload, answer in sorted(self._samples, key=operator.itemgetter(0)):
            while applied < len(mutations) and mutations[applied][0] <= epoch:
                _apply(live, *mutations[applied][1:])
                applied += 1
            ranges, nearest = quiescent_answers(
                live, payload if kind == "range" else (), payload if kind == "knn" else ()
            )
            expected = ranges if kind == "range" else nearest
            if list(answer) != expected:
                mismatches.append(
                    f"epoch {epoch} {kind} answer diverged from the quiescent model: "
                    f"got {list(answer)!r}, expected {expected!r}"
                )
        return mismatches

    def assert_consistent(self) -> None:
        """Raise ``AssertionError`` on the first recorded divergence."""
        mismatches = self.check()
        if mismatches:
            raise AssertionError(
                f"{len(mismatches)} epoch-pinned answer(s) diverged; first: " + mismatches[0]
            )
