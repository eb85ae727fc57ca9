"""Shard supervision: retry/backoff, circuit breakers, statuses, recovery.

The serving layer's failure model (see ``docs/robustness.md``) separates
*policy* — how often to retry, how long to back off, when to stop calling
a failing shard — from routing and merging in
:mod:`repro.serve.sharded_index` and from placement in
:mod:`repro.serve.executor`.  This module holds the policy objects:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic, seeded jitter;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over an injectable clock, one per shard;
* :class:`SupervisorConfig` — the bundle a :class:`ShardedIndex` is
  configured with (retry policy, breaker thresholds, per-call timeouts,
  and the clock/sleep pair that makes every timing decision testable
  under a fake clock);
* :class:`ShardStatus` / :class:`PartialResult` — the per-shard outcome
  record and the degraded-answer wrapper returned by ``partial=True``
  queries;
* :class:`ShardFailedError` — what strict-mode callers see when a shard
  stays failed after the policy is exhausted;

and the :class:`Supervisor` that applies them to one index's shards: the
per-shard locks, breakers and jitter RNGs, the write-ahead logs and their
recovery sources, checkpoints, and WAL-replay recovery.

The policy objects are free of threads and I/O, so the chaos suite can
unit-test them exhaustively with fake clocks.
"""

from __future__ import annotations

import copy
import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.serve.shard_log import Outcome, ShardLog
from repro.storage.faults import InjectedFault, ShardDownError

T = TypeVar("T")


class ShardFailedError(RuntimeError):
    """A shard operation failed after the supervision policy was exhausted.

    Attributes:
        shard_id: the failing shard.
        cause: the final underlying failure (an
            :class:`~repro.storage.faults.InjectedFault`, a timeout, or a
            recovery error), also chained as ``__cause__``.
    """

    def __init__(self, shard_id: int, cause: Optional[BaseException] = None) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"shard {shard_id} failed{detail}")
        self.shard_id = shard_id
        self.cause = cause


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    The delay before retry attempt *n* (0-based) is::

        min(base_delay_s * multiplier**n, max_delay_s) * (1 + jitter * u)

    with ``u`` drawn uniformly from [0, 1) by the caller-supplied RNG —
    the supervisor keeps one seeded RNG per shard, so the full backoff
    schedule of a run is a pure function of (policy, seed, failure
    sequence) and chaos tests can assert it exactly.

    Attributes:
        max_attempts: total attempts per operation (1 = no retry).
        base_delay_s: delay before the first retry.
        multiplier: exponential growth factor between retries.
        max_delay_s: cap on the un-jittered delay.
        jitter: fractional jitter added on top (0 disables it).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.25
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")

    def backoff_delay(self, retry_index: int, rng: random.Random) -> float:
        """Delay before the ``retry_index``-th retry (0-based), jittered."""
        delay = min(self.base_delay_s * self.multiplier**retry_index, self.max_delay_s)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


#: Circuit-breaker states (plain strings so reports serialize directly).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-shard circuit breaker (closed → open → half-open → closed).

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — calls are refused (:meth:`allow` is False) until
      ``reset_timeout_s`` has elapsed on the injected clock, at which
      point the breaker moves to half-open.
    * **half-open** — exactly one probe call is allowed through; its
      success closes the breaker, its failure re-opens it (and restarts
      the cool-down).

    The breaker itself is not locked: in the serving layer every
    transition happens either under the owning shard's lock or from the
    fan-out coordinator recording a timeout, and the worst race is a
    duplicate probe — a liveness detail, never a correctness one.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state, with the open → half-open timeout applied."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = BREAKER_HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed; a half-open breaker admits one probe."""
        state = self.state
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_HALF_OPEN:
            # Re-open provisionally so concurrent callers are refused while
            # the single probe is in flight; the probe's outcome decides.
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()
            return True
        return False

    def record_success(self) -> None:
        """Note a successful call: closes the breaker, clears the streak."""
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a failed call; trips the breaker at the threshold."""
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()

    def reset(self) -> None:
        """Force-close the breaker (after a successful shard recovery)."""
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything the shard supervisor needs to make timing decisions.

    Attributes:
        retry: the per-operation retry/backoff policy.
        failure_threshold: consecutive failures that open a shard's
            breaker.
        reset_timeout_s: breaker cool-down before a half-open probe.
        query_timeout_s: per-shard wall-clock budget of one fanned-out
            query call (None disables the timeout); served by the
            process executor only.  A timed-out call cannot be
            interrupted — Python threads are not cancellable — so it is
            *abandoned*: its shard is marked failed for this batch and
            the breaker records the failure, while the worker finishes
            in the background under the shard lock.  Routed mutation
            calls carry no timeout.
        clock: time source for breaker cool-downs (fake-clock friendly).
        sleep: delay delivery for backoff (fake-sleep friendly).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_threshold: int = 3
    reset_timeout_s: float = 1.0
    query_timeout_s: Optional[float] = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep


#: Per-shard outcome states of one supervised call.
SHARD_OK = "ok"
SHARD_FAILED = "failed"
SHARD_SKIPPED = "skipped"


@dataclass
class ShardStatus:
    """Outcome of one shard's part of a fanned-out call.

    Attributes:
        shard_id: the shard this status describes.
        state: ``"ok"``, ``"failed"`` (the call errored or timed out), or
            ``"skipped"`` (the shard's breaker was open and the call was
            never attempted).
        attempts: how many attempts were made (0 for skipped shards).
        error: compact description of the final failure, if any.
    """

    shard_id: int
    state: str = SHARD_OK
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the shard answered."""
        return self.state == SHARD_OK


class PartialResult(Sequence):
    """A degraded query answer: merged results from the healthy shards.

    Returned by ``range_query_batch`` / ``knn_query_batch`` when
    ``partial=True`` and behaves like the plain list of per-query answers
    (indexing, iteration, equality), so downstream result-counting code
    works unchanged — plus the failure metadata a caller needs to decide
    whether the degraded answer is acceptable:

    * :attr:`complete` — True iff *no* shard failed or was skipped, i.e.
      the answer is exactly what strict mode would have returned;
    * :attr:`failed_shards` — ids of shards whose objects are missing
      from the answer;
    * :attr:`statuses` — the per-shard :class:`ShardStatus` records;
    * :attr:`epoch` — the snapshot epoch the answer was pinned at.

    Answers from healthy shards are exact for those shards' objects, so a
    partial range answer is a *subset* of the true answer and a partial
    kNN answer ranks only candidates from healthy shards (distances are
    exact, membership may miss better candidates on failed shards).
    """

    def __init__(
        self,
        results: List[object],
        statuses: Sequence[ShardStatus],
        epoch: int,
    ) -> None:
        self.results = results
        self.statuses = list(statuses)
        self.epoch = epoch

    @property
    def failed_shards(self) -> List[int]:
        """Shards whose answers are missing (failed or skipped)."""
        return [status.shard_id for status in self.statuses if not status.ok]

    @property
    def complete(self) -> bool:
        """True iff every shard answered (the result equals strict mode)."""
        return not self.failed_shards

    def __getitem__(self, item):
        return self.results[item]

    def __len__(self) -> int:
        return len(self.results)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PartialResult):
            return self.results == other.results and self.statuses == other.statuses
        if isinstance(other, list):
            return self.results == other
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"PartialResult(complete={self.complete}, epoch={self.epoch}, "
            f"failed_shards={self.failed_shards}, results={self.results!r})"
        )


class Supervisor:
    """Runs one index's shard calls under the supervision policy, and heals shards.

    Owns, per shard: the lock that serializes every call on it (the buffer
    pool's LRU bookkeeping mutates on every fetch, so even queries must not
    interleave on one shard), the circuit breaker, the jitter RNG, the
    write-ahead log and its recovery source — the durable store's
    checkpoint image, or in memory a deepcopy of the shard as it was
    handed over (replaced by every checkpoint).  ``handles`` is the
    executor's live handle list, which recovery updates in place;
    ``shards`` are the attached shards the baselines copy.
    """

    def __init__(
        self,
        handles: List[Any],
        shards: Sequence[Any],
        executor: Any,
        config: Optional[SupervisorConfig],
        stores: Optional[Sequence[Any]],
    ) -> None:
        self.shards = handles
        self._backend = executor
        self._config = config = config if config is not None else SupervisorConfig()
        self._locks = [threading.Lock() for _ in shards]
        self._stores: List[Optional[Any]] = list(stores or [None] * len(shards))
        self.logs = [ShardLog() if store is None else store.log for store in self._stores]
        self._baselines: List[Optional[Any]] = [
            copy.deepcopy(shard) if store is None else None
            for shard, store in zip(shards, self._stores)
        ]
        self._breakers = [
            CircuitBreaker(
                failure_threshold=config.failure_threshold,
                reset_timeout_s=config.reset_timeout_s,
                clock=config.clock,
            )
            for _ in shards
        ]
        # One jitter RNG per shard: backoff schedules stay deterministic
        # even when several shards retry concurrently.
        self._rngs = [random.Random(shard_id) for shard_id in range(len(shards))]
        self.recovery_events: List[Dict[str, float]] = []

    def breaker_states(self) -> List[str]:
        """Current circuit-breaker state per shard."""
        return [breaker.state for breaker in self._breakers]

    def run(
        self, tasks: Dict[int, Callable[[Any], T]], read_only: bool
    ) -> Tuple[Dict[int, T], Dict[int, ShardStatus], Dict[int, ShardFailedError]]:
        """Run one supervised task per shard through the executor.

        Results, statuses and failures are keyed by shard so merge order
        never depends on thread scheduling.  Queries carry the configured
        timeout, mutations none.  A call the executor abandoned at the
        deadline still holds the shard lock until it finishes; it is
        recorded against the breaker.
        """
        timeout = self._config.query_timeout_s if read_only else None
        statuses = {shard_id: ShardStatus(shard_id) for shard_id in tasks}
        calls = {
            sid: partial(self._locked_supervised, sid, task, read_only, statuses[sid])
            for sid, task in tasks.items()
        }
        results, failures = self._backend.run(calls, timeout)
        for shard_id, error in failures.items():
            if isinstance(error, ShardFailedError):
                continue
            statuses[shard_id].state = SHARD_FAILED
            if isinstance(error, TimeoutError):
                statuses[shard_id].error = f"timeout after {timeout}s"
                self._breakers[shard_id].record_failure()
            else:
                statuses[shard_id].error = "cancelled"
            failures[shard_id] = ShardFailedError(shard_id, error)
        return results, statuses, failures

    def _locked_supervised(
        self,
        shard_id: int,
        task: Callable[[Any], T],
        read_only: bool,
        status: ShardStatus,
    ) -> T:
        """Run ``task(shard)`` under the shard lock with the full policy.

        Read-only calls retry transient faults with backoff; mutations
        never blind-retry (the shard may have half-applied the batch) and
        recover from the write-ahead log instead.  A read-only call on an
        open circuit is skipped: it fails without being attempted.  Only
        an :class:`InjectedFault` is a failure: a query's other exceptions
        (caller bugs like a bad argument) propagate unchanged and do not
        touch the breaker, and a mutation task returns its rejection as
        an :data:`~repro.serve.shard_log.Outcome`
        (:func:`~repro.serve.shard_log.apply_outcome`).
        """
        with self._locks[shard_id]:
            breaker = self._breakers[shard_id]
            retry = self._config.retry
            rng = self._rngs[shard_id]
            if not breaker.allow():
                if read_only:
                    status.state = SHARD_SKIPPED
                    status.error = "circuit open"
                    raise ShardFailedError(shard_id, RuntimeError("circuit open"))
                # A mutation routed to an open shard: the WAL already
                # holds it, so recovery both heals the shard and applies
                # the mutation.
                value = self._recover_locked(shard_id)
                status.attempts = 1
                return value
            for attempt in range(retry.max_attempts):
                status.attempts = attempt + 1
                try:
                    value = task(self.shards[shard_id])
                except InjectedFault as fault:
                    transient = not isinstance(fault, ShardDownError)
                    if read_only:
                        if transient and attempt + 1 < retry.max_attempts:
                            self._config.sleep(retry.backoff_delay(attempt, rng))
                            continue
                        breaker.record_failure()
                        status.state = SHARD_FAILED
                        status.error = f"{type(fault).__name__}: {fault}"
                        raise ShardFailedError(shard_id, fault) from fault
                    try:
                        return self._recover_locked(shard_id)
                    except InjectedFault as recovery_fault:
                        breaker.record_failure()
                        status.state = SHARD_FAILED
                        status.error = (
                            f"recovery failed: {type(recovery_fault).__name__}: "
                            f"{recovery_fault}"
                        )
                        raise ShardFailedError(shard_id, recovery_fault) from recovery_fault
                else:
                    breaker.record_success()
                    return value
            raise AssertionError("unreachable: retry loop always returns or raises")

    def _fresh_shard_locked(self, shard_id: int) -> Any:
        """A shard holding exactly the state the WAL tail replays on top of.

        Durable shards restore their last checkpoint image; in-memory
        shards deepcopy their baseline (the shard as handed over, or as of
        its last checkpoint — the WAL holds every record since).  Either
        is a :class:`~repro.serve.snapshot.VersionedShard`, epoch and
        retained overlay included.
        """
        store = self._stores[shard_id]
        if store is not None:
            return store.restore_image()
        return copy.deepcopy(self._baselines[shard_id])

    def _compact_locked(self, shard_id: int) -> None:
        """Checkpoint one shard and truncate its WAL (lock held by caller).

        A durable shard commits a new checkpoint generation through its
        store; an in-memory shard flushes its buffer and captures a
        deepcopy baseline.  Either way the log's records are folded into
        the recovery source, so truncating them afterwards preserves the
        recovery invariant (fresh shard + tail replay == never-failed
        shard) while bounding replay to the post-checkpoint tail.
        """
        shard = self.shards[shard_id]
        store = self._stores[shard_id]
        log = self.logs[shard_id]
        if store is not None:
            store.checkpoint(shard, log)
        else:
            shard.buffer.flush()
            # The executor materializes the baseline in the parent: a
            # deepcopy in-process, the worker's pickled state in process
            # mode — either way a real index object, not a handle.
            self._baselines[shard_id] = self._backend.snapshot(shard_id)
            log.truncate()

    def _recover_locked(self, shard_id: int) -> Outcome:
        """Rebuild one shard from its WAL (caller holds the shard lock).

        Builds a fresh shard — restored from its durable checkpoint
        image or deepcopied from its in-memory baseline — and replays the
        write-ahead log into it, retrying with backoff when the replay
        itself meets transient faults (each attempt starts over on a new
        fresh shard, so a half-replayed attempt is simply discarded).
        Records the shard rejected live are rejected again and counted.
        On success the shard is swapped in, its breaker force-closed, the
        log compacted (the recovered state becomes the next checkpoint, so
        future recoveries replay only newer records), and the last
        replayed record's outcome returned — exactly what the mutation
        that triggered the recovery came to on a never-failed shard,
        rejection included.
        """
        retry = self._config.retry
        rng = self._rngs[shard_id]
        started = time.perf_counter()
        for attempt in range(retry.max_attempts):
            fresh = self._fresh_shard_locked(shard_id)
            try:
                outcome, rejected = self.logs[shard_id].replay(fresh)
            except InjectedFault:
                if attempt + 1 < retry.max_attempts:
                    self._config.sleep(retry.backoff_delay(attempt, rng))
                    continue
                raise
            # Hand the recovered shard to the executor: the serial
            # backend swaps it in place, the process backend ships it to
            # a respawned worker and returns a fresh proxy handle.
            self.shards[shard_id] = self._backend.replace(shard_id, fresh)
            self._breakers[shard_id].reset()
            replayed = len(self.logs[shard_id])
            try:
                self._compact_locked(shard_id)
                compacted = True
            except InjectedFault:
                # The shard is healthy either way; an uncompacted WAL just
                # keeps its history until the next successful checkpoint.
                compacted = False
            self.recovery_events.append(
                {
                    "shard_id": shard_id,
                    "wall_s": time.perf_counter() - started,
                    "replayed_records": replayed,
                    "rejected_records": rejected,
                    "attempts": attempt + 1,
                    "compacted": compacted,
                }
            )
            return outcome
        raise AssertionError("unreachable: recovery loop always returns or raises")

    def recover(self, shard_id: int) -> None:
        """Rebuild one shard from its write-ahead log, unconditionally."""
        with self._locks[shard_id]:
            self._recover_locked(shard_id)

    def checkpoint(self) -> None:
        """Checkpoint every shard (each under its lock)."""
        for shard_id in range(len(self.shards)):
            with self._locks[shard_id]:
                self._compact_locked(shard_id)

    def close(self) -> None:
        """Checkpoint and close every durable store; flush every in-memory shard.

        A shard whose storage is faulted cannot flush and is skipped:
        nothing is lost in memory, and a durable shard recovers from its
        WAL.
        """
        for shard_id in range(len(self.shards)):
            store = self._stores[shard_id]
            with self._locks[shard_id]:
                if store is not None:
                    self._compact_locked(shard_id)
                    store.close()
                else:
                    try:
                        self.shards[shard_id].buffer.flush()
                    except InjectedFault:
                        pass


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "PartialResult",
    "RetryPolicy",
    "SHARD_FAILED",
    "SHARD_OK",
    "SHARD_SKIPPED",
    "ShardFailedError",
    "ShardStatus",
    "Supervisor",
    "SupervisorConfig",
]
