"""Sharded serving layer: fan moving-object indexes across worker shards.

The package turns the single-index replay stack into a serving topology: a
:class:`ShardedIndex` hash-partitions objects across N independent index
shards (any of the standard index families underneath, each with its own
buffer pool and I/O statistics), routes updates to the owning shard, fans
queries out to every shard, and merges the per-shard answers into exactly
the answer the unsharded index would have given.

Every shard call runs under a supervisor: transient storage faults are
retried with bounded exponential backoff, per-shard circuit breakers stop
calling shards that keep failing, failed mutations trigger automatic shard
recovery by replaying the shard's write-ahead :class:`ShardLog`, and
queries can opt into degraded :class:`PartialResult` answers from the
healthy shards instead of raising.  See ``docs/robustness.md``.

Since the snapshot-serving work, mixed read/write workloads are
consistent too: every applied update batch atomically advances a global
*epoch*, and each query batch pins one epoch and answers at that exact
cross-shard cut (per-shard :class:`VersionedShard` undo overlays
reconcile at merge time), verified bit-for-bit against a brute-force
model by the :class:`EpochOracle` harness.  See ``docs/htap.md``.
"""

from repro.serve.config import ServeConfig
from repro.serve.executor import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.serve.oracle import EpochOracle, quiescent_answers
from repro.serve.shard_log import LOG_OPS, DurableShardLog, ShardLog
from repro.serve.snapshot import SnapshotTooOldError, VersionedShard
from repro.serve.sharded_index import (
    DEFAULT_SHARDS,
    ShardedIndex,
    shard_of,
)
from repro.serve.durable_store import (
    DurableStore,
    ShardStore,
    dumps_index,
    loads_index,
)
from repro.serve.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    SHARD_FAILED,
    SHARD_OK,
    SHARD_SKIPPED,
    CircuitBreaker,
    PartialResult,
    RetryPolicy,
    ShardFailedError,
    ShardStatus,
    SupervisorConfig,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DEFAULT_SHARDS",
    "DurableShardLog",
    "DurableStore",
    "EXECUTORS",
    "EpochOracle",
    "Executor",
    "LOG_OPS",
    "PartialResult",
    "ProcessExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "ServeConfig",
    "SHARD_FAILED",
    "SHARD_OK",
    "SHARD_SKIPPED",
    "ShardFailedError",
    "ShardLog",
    "ShardStatus",
    "ShardStore",
    "ShardedIndex",
    "SnapshotTooOldError",
    "SupervisorConfig",
    "VersionedShard",
    "dumps_index",
    "loads_index",
    "make_executor",
    "quiescent_answers",
]
