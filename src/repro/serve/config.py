"""Serving-layer configuration: the one recipe, and the one place it is refused.

:class:`ServeConfig` is everything a :class:`~repro.serve.ShardedIndex`
needs beyond its shards: the constructor takes nothing else, and
:class:`~repro.serve.DurableStore` and :meth:`ShardedIndex.build` take it
whole (``build`` keeps ``executor=`` and ``space=`` as its two shorthands).

Typical use::

    from repro.serve import ServeConfig, ShardedIndex

    index = ShardedIndex(
        shards,
        ServeConfig(name="Bx", space=space, executor="process"),
    )

or, end to end, :meth:`ShardedIndex.build`.  :func:`check_constructible` is
called by every entry point before it creates anything, so a combination
that cannot be served fails with nothing on disk and no worker spawned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.serve.executor import make_executor


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.ShardedIndex` needs beyond its shards.

    Attributes:
        name: display name used in reprs, logs and benchmark rows.
        space: default query-space rectangle forwarded to per-shard kNN
            calls that do not pass their own.
        executor: where shard operations run — ``"serial"`` (the default
            when ``None``), ``"process"``, or a pre-built (unattached)
            :class:`~repro.serve.Executor` instance.
        supervisor: retry/breaker/timeout policy
            (:class:`~repro.serve.SupervisorConfig`); a query timeout
            needs the process executor.
        stores: per-shard durable page stores, each carrying its shard's
            write-ahead log (set by :class:`~repro.serve.DurableStore`).
    """

    name: Optional[str] = None
    space: Optional[Any] = None
    executor: Optional[Any] = None
    supervisor: Optional[Any] = None
    stores: Optional[Sequence[Any]] = field(default=None, repr=False)

    def merged(self, **overrides: Any) -> "ServeConfig":
        """A copy with every non-``None`` override applied."""
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def check_constructible(
    config: ServeConfig,
    num_shards: int,
    *,
    durable: bool = False,
    buffers: Sequence[Any] = (),
    family: Any = None,
    key_store: Optional[str] = None,
) -> ServeConfig:
    """Refuse every family x key store x executor x durable cell that cannot be served.

    The single rejection site of the serving layer: ``ShardedIndex.build``,
    ``DurableStore.create``/``open`` and the ``ShardedIndex`` constructor
    each call it *first*, with what they know, so nothing — directory,
    file, worker process or shard — exists yet when it raises.  Returns
    ``config`` with its executor spec resolved to an (unattached)
    :class:`~repro.serve.Executor`, which is how the executor's kind is
    known this early; unknown names stay :func:`make_executor`'s error.
    A supervisor query timeout is refused on every executor but the
    process one, the only one that can stop waiting for a shard.
    """
    config = replace(config, executor=make_executor(config.executor))
    if num_shards < 1:
        raise ValueError("a ShardedIndex needs at least one shard (shards >= 1)")
    timeout = None if config.supervisor is None else config.supervisor.query_timeout_s
    if timeout is not None and config.executor.kind != "process":
        raise ValueError(
            f"a query timeout needs the process executor, not {config.executor.kind!r}: "
            "a shard call running inline cannot be abandoned"
        )
    if config.stores is not None and len(config.stores) != num_shards:
        raise ValueError("stores must match the shard count")
    if len({id(buffer) for buffer in buffers}) != len(buffers):
        raise ValueError("shards must not share a buffer pool")
    if durable or config.stores is not None:
        if config.executor.kind == "process":
            raise ValueError(
                "durable stores require an in-process executor (serial): "
                "checkpointing talks to the shard's pages directly"
            )
        if key_store not in (None, "btree"):
            raise ValueError(
                "durable_dir requires the paged 'btree' key store: "
                "checkpoints persist buffer pages, and the flat "
                "backend keeps its arrays off-page (docs/backends.md)"
            )
        if callable(family):
            raise ValueError(
                "durable_dir needs a named family (the store owns each "
                "shard's buffer; a custom factory cannot accept it)"
            )
    return config


__all__ = ["ServeConfig", "check_constructible"]
