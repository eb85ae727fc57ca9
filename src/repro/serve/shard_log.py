"""Per-shard write-ahead update log backing shard recovery.

Every routed mutation of a :class:`~repro.serve.ShardedIndex` — bulk
load and the insert, delete and update batches (a scalar call is a batch
of one) — is appended to the owning shard's :class:`ShardLog` *before*
the shard executes it.  The log is therefore the shard's complete
intended history: replaying it, in order, through the same public calls
into a freshly built empty shard deterministically reconstructs the state
of a shard that never failed (the indexes are deterministic functions of
their operation sequence, so the rebuilt structure — and every subsequent
answer — is bit-identical; ``tests/test_faults.py`` pins this).

Logging ahead of execution is what makes mid-operation failure safe: if
a shard dies halfway through applying a batch, its on-"disk" state is
suspect, but the log still holds the full batch — recovery discards the
suspect shard entirely and replays the log, so the batch is applied
exactly once on the rebuilt timeline.  A record the shard *rejected*
(:func:`apply_outcome`: a duplicate id, a bad argument) stays too and
replays as the same rejection, the no-op it was live.  A log is never
edited after an append, so there is no undo for a crash to interrupt.

The base :class:`ShardLog` is in-memory; replay cost is kept bounded by
*compaction* — the serving layer truncates the log after a successful
checkpoint or recovery, once the records are folded into a checkpoint
image (durable) or deepcopy baseline (in-memory), so a recovery replays
only the tail since the last checkpoint instead of the shard's full
history.  :class:`DurableShardLog` adds the on-disk mode: every record is
appended to a file as a length-prefixed, CRC32-checksummed, fsync'd
pickle, and reopening the file recovers the record list — truncating a
torn tail, which is safe because records are appended *before* execution,
so a torn final record describes a mutation whose caller never got an
acknowledgement.  See ``docs/storage.md`` and ``docs/robustness.md``.

A mutation is one record, ``(op, payload, epoch)``, everywhere it travels:
the serving layer builds it, the log stores it, and :func:`apply_record`
— the only code that turns an op name into an index call — applies it,
whether to a live shard or a recovering one.
The payload is the op's data and nothing else, and has one shape: a tuple
of objects, or of ``(old, new)`` pairs for ``update_batch``.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.storage.durable import DurabilityError
from repro.storage.faults import InjectedFault

#: Operations a :class:`ShardLog` record may carry: the four mutations of
#: the index protocol (``repro.core.index_manager.MovingIndex``).
LOG_OPS = ("bulk_load", "insert_batch", "delete_batch", "update_batch")

#: What applying one record came to: ``(result, None)`` or ``(None, rejection)``.
Outcome = Tuple[Any, Optional[Exception]]


def apply_record(index: Any, op: str, payload: Any, **epoch_kwargs: int) -> Any:
    """Apply one logged mutation to ``index`` through its public method ``op``.

    ``payload`` is the op's sequence — objects, or ``(old, new)`` pairs for
    ``update_batch``.
    ``epoch_kwargs`` (``epoch``, ``gc_floor``) reach versioned shards only;
    callers applying to a bare index pass none.
    """
    if op not in LOG_OPS:
        raise ValueError(f"unknown shard-log op {op!r}")
    return getattr(index, op)(list(payload), **epoch_kwargs)


def apply_outcome(index: Any, op: str, payload: Any, **epoch_kwargs: int) -> Outcome:
    """:func:`apply_record`, with a rejection returned instead of raised.

    The one rule for what a shard's exception means, live and on replay:
    an :class:`~repro.storage.faults.InjectedFault` is a failure (the
    shard's state is suspect) and propagates; any other exception is the
    shard *rejecting* the record, which a replay meets again.
    """
    try:
        return apply_record(index, op, payload, **epoch_kwargs), None
    except InjectedFault:
        raise
    except Exception as rejection:
        return None, rejection


class ShardLog:
    """An append-only, in-memory WAL of one shard's mutations."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: List[Tuple[str, Any, int]] = []

    def append(self, op: str, payload: Any, epoch: int) -> None:
        """Append one record; ``op`` must be a member of :data:`LOG_OPS`.

        The payload is copied into a tuple so a caller mutating its
        batch list after the call cannot corrupt the replay history.
        ``epoch`` is the global snapshot epoch the mutation was assigned;
        replay hands it back to the shard, which restores its epoch
        counter and snapshot overlay from these values.
        """
        if op not in LOG_OPS:
            raise ValueError(f"unknown shard-log op {op!r}")
        self._store(op, tuple(payload), epoch)

    def _store(self, op: str, payload: Any, epoch: int) -> None:
        """Persist one canonicalized record (subclasses add durability)."""
        self._records.append((op, payload, epoch))

    def replay(self, index: Any) -> Tuple[Outcome, int]:
        """Apply every record to ``index`` in order, each by :func:`apply_outcome`.

        Returns the last record's outcome and how many records the shard
        rejected.  The last outcome — a result or a rejection — is what the
        *current* (most recently logged) operation came to on a
        never-failed shard: exactly what the supervisor must hand back to
        the caller whose mutation triggered the recovery.

        ``index`` is a :class:`~repro.serve.snapshot.VersionedShard`: each
        record reaches it with its epoch, so recovery also restores the
        shard's epoch counter and snapshot overlay.
        """
        outcome: Outcome = (None, None)
        rejected = 0
        for op, payload, epoch in self._records:
            outcome = apply_outcome(index, op, payload, epoch=epoch)
            rejected += outcome[1] is not None
        return outcome, rejected

    @property
    def entries(self) -> Sequence[Tuple[str, Any, int]]:
        """The logged ``(op, payload, epoch)`` records, oldest first."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop the history (only sensible when the shard is discarded)."""
        self._records.clear()

    def truncate(self) -> None:
        """Compact the log after a checkpoint folded its records away.

        Only correct when the shard's recovery source (checkpoint image or
        deepcopy baseline) already reflects every logged record — the
        serving layer enforces that ordering.  On the base class this is
        :meth:`clear`; the durable subclass also truncates the file.
        """
        self.clear()

    def close(self) -> None:
        """Release backing resources (no-op for the in-memory log)."""

    @property
    def path(self) -> Optional[str]:
        """Backing file of the log, or None for the in-memory mode."""
        return None


class DurableShardLog(ShardLog):
    """A :class:`ShardLog` whose records also live in an append-only file.

    Record format: ``length (u32) | crc32(body) (u32) | body`` where the
    body is the pickled ``(op, payload, epoch)`` record.  Appends are
    written and (by default) fsync'd before :meth:`append` returns, so by
    the time the serving layer executes a mutation its WAL record is
    already durable — the invariant shard recovery relies on.

    Opening an existing file rebuilds the record list, stopping at the
    first record whose length or checksum does not add up and truncating
    the file there: a torn tail record is a mutation that was never
    executed (append happens before execution) and never acknowledged, so
    dropping it keeps the log consistent with every answer the index ever
    returned.  A frame whose checksum holds but whose body is not an
    ``(op, payload, epoch)`` record — an unknown op, or an epoch that is
    not an ``int`` — is not a torn write; opening refuses it with
    :class:`~repro.storage.durable.DurabilityError` instead of silently
    dropping it and every acknowledged record after it.

    Appends are serialized by an internal lock — the serving layer appends
    outside the per-shard locks, so two routed mutations may hit the same
    shard's log concurrently.

    Args:
        path: backing file (created when absent, recovered when present).
        fsync: fsync after every append (disable only in tests).
        crash_hook: test-only callable invoked between the two halves of
            an append (``"wal:torn"``) so crash tests can land a SIGKILL
            inside a torn WAL write.
    """

    __slots__ = ("_path", "_fsync_enabled", "_crash_hook", "_lock", "_fd", "_size")

    _HEADER = struct.Struct("<II")

    def __init__(
        self,
        path: str,
        fsync: bool = True,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        super().__init__()
        self._path = str(path)
        self._fsync_enabled = fsync
        self._crash_hook = crash_hook
        self._lock = threading.Lock()
        self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        self._size = 0
        try:
            self._load_existing()
        except DurabilityError:
            os.close(self._fd)
            raise

    @property
    def path(self) -> str:
        """The log's backing file."""
        return self._path

    def _file_sync(self) -> None:
        if self._fsync_enabled:
            os.fsync(self._fd)

    def _load_existing(self) -> None:
        data = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
        offset = 0
        header = self._HEADER
        while offset + header.size <= len(data):
            length, crc = header.unpack_from(data, offset)
            body = data[offset + header.size : offset + header.size + length]
            if len(body) < length or zlib.crc32(body) != crc:
                break
            # A valid checksum means the frame was written whole: whatever
            # is wrong with its content, it is not a torn tail to drop.
            try:
                op, payload, epoch = pickle.loads(body)
            except Exception as error:
                raise DurabilityError(
                    f"{self._path}: WAL frame at offset {offset} passes its "
                    f"checksum but is not an (op, payload, epoch) record: {error}"
                ) from error
            if op not in LOG_OPS:
                raise DurabilityError(
                    f"{self._path}: WAL frame at offset {offset} names unknown op {op!r}"
                )
            if type(epoch) is not int:
                raise DurabilityError(
                    f"{self._path}: WAL frame at offset {offset} carries epoch "
                    f"{epoch!r}, not an int"
                )
            self._records.append((op, payload, epoch))
            offset += header.size + length
        self._size = offset
        if offset < len(data):
            # Torn/corrupt tail: drop it so the next append lands on a
            # clean record boundary.
            os.ftruncate(self._fd, offset)
            self._file_sync()

    def _store(self, op: str, payload: Any, epoch: int) -> None:
        body = pickle.dumps((op, payload, epoch), protocol=pickle.HIGHEST_PROTOCOL)
        frame = self._HEADER.pack(len(body), zlib.crc32(body)) + body
        with self._lock:
            if self._crash_hook is None:
                os.pwrite(self._fd, frame, self._size)
            else:
                half = max(1, len(frame) // 2)
                os.pwrite(self._fd, frame[:half], self._size)
                self._crash_hook("wal:torn")
                os.pwrite(self._fd, frame[half:], self._size + half)
            self._file_sync()
            self._size += len(frame)
            self._records.append((op, payload, epoch))

    def truncate(self) -> None:
        """Compact: drop the records and empty the backing file."""
        with self._lock:
            self._records.clear()
            os.ftruncate(self._fd, 0)
            self._file_sync()
            self._size = 0

    def rotate(self, new_path: str) -> None:
        """Switch the log to a fresh (empty) file at ``new_path``.

        Used by the checkpoint protocol: the WAL is generation-named, so a
        checkpoint starts a new empty log file instead of truncating the
        old one in place (the old file stays valid for a crash that lands
        before the checkpoint's commit point).
        """
        with self._lock:
            os.close(self._fd)
            self._path = str(new_path)
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            self._file_sync()
            self._records.clear()
            self._size = 0

    def close(self) -> None:
        """Close the backing file (idempotent)."""
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1


__all__ = ["LOG_OPS", "DurableShardLog", "Outcome", "ShardLog", "apply_outcome", "apply_record"]
