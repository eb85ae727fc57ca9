"""Serving-layer configuration: one dataclass instead of eight kwargs.

:class:`ServeConfig` consolidates the loosely coupled keyword arguments
that :class:`~repro.serve.ShardedIndex` historically took one by one
(``name``/``space``/``max_workers``/``shard_factory``/``supervisor``/
``logs``/``stores``) and adds the executor choice introduced with the
pluggable-executor redesign.

Typical use::

    from repro.serve import ServeConfig, ShardedIndex

    index = ShardedIndex(
        shards,
        config=ServeConfig(name="Bx", space=space, executor="process"),
    )

or, end to end, :meth:`ShardedIndex.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Sequence


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.ShardedIndex` needs beyond its shards.

    Attributes:
        name: display name used in reprs, logs and benchmark rows.
        space: default query-space rectangle forwarded to per-shard kNN
            calls that do not pass their own.
        executor: where shard operations run — ``"serial"``, ``"thread"``
            (the default when ``None``), ``"process"``, or a pre-built
            (unattached) :class:`~repro.serve.Executor` instance.
        max_workers: fan-out width for the parallel executors (default:
            the shard count).
        shard_factory: zero-argument callable building one empty shard;
            arms WAL-replay recovery for in-memory deployments.
        supervisor: retry/breaker/timeout policy
            (:class:`~repro.serve.SupervisorConfig`).
        logs: pre-existing write-ahead logs, one per shard (used by
            :class:`~repro.serve.DurableStore` when reopening).
        stores: per-shard durable page stores (ditto).
        snapshots: epoch-based snapshot isolation (see ``docs/htap.md``).
            When true (the default) every applied update batch advances a
            global epoch, queries pin a consistent cross-shard epoch, and
            shards keep the undo deltas readers still need.  ``False``
            restores the quiescent-read contract with zero overlay
            overhead (and makes epoch pinning raise).
        key_store: Bx key-store backend for *factory-built* shards —
            ``"btree"`` (the paged default when ``None``) or ``"flat"``
            (the vectorized sorted array), or a backend class; see
            ``docs/backends.md``.  A name or class, never an instance:
            each shard needs its own store.  Pre-built shards passed to
            the constructor keep whatever backend they were built with.
    """

    name: Optional[str] = None
    space: Optional[Any] = None
    executor: Optional[Any] = None
    max_workers: Optional[int] = None
    shard_factory: Optional[Callable[[], Any]] = None
    supervisor: Optional[Any] = None
    logs: Optional[Sequence[Any]] = field(default=None, repr=False)
    stores: Optional[Sequence[Any]] = field(default=None, repr=False)
    snapshots: bool = True
    key_store: Optional[Any] = None

    def merged(self, **overrides: Any) -> "ServeConfig":
        """A copy with every non-``None`` override applied."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in overrides.items():
            if key not in values:
                raise TypeError(f"ServeConfig has no field {key!r}")
            if value is not None:
                values[key] = value
        return ServeConfig(**values)


__all__ = ["ServeConfig"]
