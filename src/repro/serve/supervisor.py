"""Shard supervision policies: retry/backoff, circuit breakers, statuses.

The serving layer's failure model (see ``docs/robustness.md``) separates
*policy* — how often to retry, how long to back off, when to stop calling
a failing shard — from the fan-out *mechanism* in
:mod:`repro.serve.sharded_index`.  This module holds the policy objects:

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
  stays failed after the policy is exhausted.

Everything here is deliberately free of threads and I/O so the chaos
suite can unit-test the policies exhaustively with fake clocks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


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
    "SupervisorConfig",
]
