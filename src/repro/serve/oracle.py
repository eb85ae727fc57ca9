"""Consistency oracle for epoch-pinned snapshot serving.

The snapshot machinery's promise (``docs/htap.md``) is falsifiable: an
epoch-pinned answer must be **bit-identical** to what a quiescent index
— one that applied exactly the update batches up to the pinned epoch and
nothing else — would answer.  :class:`EpochOracle` is the harness that
checks it.

It drives a *twin*: a second :class:`~repro.serve.ShardedIndex` the
caller builds with the same recipe (shard count and shard family) as the
index under test but the serial executor — the plainest quiescent
configuration the serving layer offers, sharing the exact merge code the
live index uses.  Only the oracle mutates it, one batch at a time, and it
is queried at its newest epoch, so nothing is ever read from its undo
overlay.
The workload records every mutation it applies as ``(epoch, op,
payload)`` — ``op`` and ``payload`` exactly as the write-ahead log holds
them (:mod:`repro.serve.shard_log`) — and every epoch-pinned answer it
receives as ``(epoch, kind, payload, answer)``; :meth:`check` then
replays the mutation stream into the twin epoch by epoch and
re-evaluates each answered query batch at its pinned epoch, reporting
every divergence.

Bit-identity is deliberate: answers are ids and ``float`` distances
computed by the same kernels on both sides, so even the distances must
match exactly — any tolerance would mask a torn cut whose victim object
moved less than the tolerance.

The oracle is single-threaded by design.  Concurrency lives in the
workload (threads hammering the index under test); the oracle only sees
the recorded streams afterwards, which makes its verdict deterministic
and replayable.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, List, Optional, Tuple

from repro.serve.shard_log import apply_record
from repro.serve.sharded_index import ShardedIndex

__all__ = ["EpochOracle"]

#: One recorded mutation: ``(epoch, sequence, op, payload)``.
_Mutation = Tuple[int, int, str, Any]


class EpochOracle:
    """Replay a recorded epoch stream into a quiescent twin and compare.

    Args:
        twin: an empty :class:`~repro.serve.ShardedIndex` built like the
            index under test — same family and shard count (answers are
            shard-count invariant, but matching removes even that reliance
            from the verdict) — on the ``"serial"`` executor.  The oracle
            owns it from here on and closes it.
        space: default kNN space forwarded to the twin's queries.

    Usage::

        twin = build_standard_indexes(
            workload, params, which=("Bx",), shards=4, executor="serial"
        )["Bx"]
        oracle = EpochOracle(twin, space=space)
        # workload side (under test):
        index.bulk_load(objects)
        oracle.record_mutation(index.epoch, "bulk_load", objects)
        ...
        with index.pin() as epoch:
            answer = index.range_query_batch(queries, epoch=epoch)
        oracle.record_answer(epoch, "range", queries, answer)
        ...
        mismatches = oracle.check()
        assert not mismatches, mismatches[0]
    """

    def __init__(self, twin: ShardedIndex, space: Optional[Any] = None) -> None:
        self.twin = twin
        self.space = space
        self._mutations: List[_Mutation] = []
        self._samples: List[Tuple[int, str, Any, Any]] = []
        self._seq = 0
        self._applied = 0  # how many mutations the twin has absorbed

    # -- recording (workload side) -------------------------------------
    def record_mutation(self, epoch: int, op: str, payload: Any) -> None:
        """Record one applied update batch and the epoch it was assigned.

        ``op``/``payload`` follow the WAL conventions
        (:data:`repro.serve.shard_log.LOG_OPS`): a sequence of objects,
        or of ``(old, new)`` pairs for ``update_batch``.
        Recording may happen in any order; mutations are replayed sorted
        by ``(epoch, recording order)``.
        """
        if self._applied:
            raise RuntimeError("cannot record after check() started replaying")
        insort(self._mutations, (int(epoch), self._seq, op, payload))
        self._seq += 1

    def record_answer(self, epoch: int, kind: str, payload: Any, answer: Any) -> None:
        """Record one epoch-pinned answer the index under test returned.

        ``kind`` is ``"range"`` (payload: the query list) or ``"knn"``
        (payload: the probe list; the oracle's ``space`` is used).
        """
        if kind not in ("range", "knn"):
            raise ValueError(f"unknown answer kind {kind!r}")
        self._samples.append((int(epoch), kind, payload, answer))

    @property
    def answers_recorded(self) -> int:
        """How many epoch-pinned answers the workload recorded."""
        return len(self._samples)

    # -- replay (verdict side) -----------------------------------------
    def advance_to(self, epoch: int) -> None:
        """Bring the twin to exactly the state at ``epoch`` (quiescent)."""
        while self._applied < len(self._mutations):
            mutation_epoch, _, op, payload = self._mutations[self._applied]
            if mutation_epoch > epoch:
                break
            apply_record(self.twin, op, payload)
            self._applied += 1

    def expected(self, epoch: int, kind: str, payload: Any) -> Any:
        """The quiescent answer at ``epoch`` (advances the twin to it)."""
        self.advance_to(epoch)
        if kind == "range":
            return self.twin.range_query_batch(list(payload))
        if kind == "knn":
            return self.twin.knn_query_batch(list(payload), space=self.space)
        raise ValueError(f"unknown answer kind {kind!r}")

    def check(self) -> List[str]:
        """Compare every recorded answer against its quiescent twin answer.

        Returns one human-readable description per mismatch (empty list
        = every epoch-pinned answer was bit-identical to the twin's).
        Samples are checked in ascending epoch order so the twin only
        ever moves forward; equality is plain ``==`` — exact ids and
        exact float distances, no tolerance.
        """
        mismatches: List[str] = []
        for epoch, kind, payload, answer in sorted(
            self._samples, key=lambda sample: sample[0]
        ):
            expected = self.expected(epoch, kind, payload)
            got = list(answer)
            if got != expected:
                mismatches.append(
                    f"epoch {epoch} {kind} answer diverged from the quiescent "
                    f"twin: got {got!r}, expected {expected!r}"
                )
        return mismatches

    def assert_consistent(self) -> None:
        """Raise ``AssertionError`` on the first recorded divergence."""
        mismatches = self.check()
        if mismatches:
            raise AssertionError(
                f"{len(mismatches)} epoch-pinned answer(s) diverged; first: "
                + mismatches[0]
            )

    def close(self) -> None:
        """Tear down the twin's executor."""
        self.twin.close()

    def __enter__(self) -> "EpochOracle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
