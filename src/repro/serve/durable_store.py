"""Durable checkpoint/WAL store behind the sharded serving layer.

This module makes a :class:`~repro.serve.ShardedIndex` outlive its
process.  Each shard gets a directory holding:

* ``pages.db`` — the live :class:`~repro.storage.FileDiskManager` page
  file (CRC'd slots), which the buffer writes pages out to and which is
  never fsync'd;
* ``pages.<G>.ckpt`` — the generation-``G`` checkpoint image: an fsync'd
  byte copy of ``pages.db`` taken after a full buffer flush, plus nothing
  else — the only version of the page file recovery ever trusts;
* ``wal.<G>.log`` — the :class:`~repro.serve.shard_log.DurableShardLog`
  of every mutation since checkpoint ``G``;
* ``checkpoint.meta`` — a CRC-framed record naming the current generation
  and carrying the pickled index metadata (tree shape, capacities, root
  page id) with its buffer/disk/stats externalized.

**Why an image, not in-place replay.**  The serving layer's WAL is
*logical* (operation-level).  Between checkpoints the buffer keeps
evicting dirty pages into ``pages.db``, so the live page file holds a
state strictly *newer* than the checkpoint — replaying the WAL tail onto
it would apply every operation twice.  Recovery therefore always restores
``pages.db`` from the generation image first, then replays the tail onto
that exact checkpoint state.  The durable state is the image,
``checkpoint.meta`` and the WAL, all fsync'd; whatever a crash leaves in
``pages.db`` — stale pages, a torn page, no file at all — is overwritten
unread.

**Checkpoint commit protocol** (per shard, crash-safe at every step):

1. flush the buffer and ``sync()`` the disk — ``pages.db`` now holds the
   complete shard state (in the page cache; it is never fsync'd);
2. write ``pages.<G+1>.ckpt`` (copy to a temp file, fsync, rename);
3. create an empty ``wal.<G+1>.log`` (fsync'd);
4. **commit point**: atomically replace ``checkpoint.meta`` with a record
   naming generation ``G+1``;
5. switch the live log to ``wal.<G+1>.log`` and delete generation-``G``
   files.

A crash before step 4 recovers at generation ``G`` (its image and WAL are
untouched; stray ``G+1`` files are garbage-collected on open).  A crash
after step 4 recovers at ``G+1`` with an empty WAL — the new image
already contains everything the old WAL held.

Index *metadata* is pickled with the storage objects cut out: a custom
pickler replaces the index's :class:`~repro.storage.BufferManager` (and
any disk/stats reference) with persistent ids, and unpickling binds them
to a fresh buffer over the restored page file.  Every standard family —
Bx, TPR/TPR*, B+ and the ``VPIndex`` variants (their velocity-partition
factories are consumed at construction, not retained) — round-trips;
an index that genuinely cannot be pickled fails checkpointing with a
clear :class:`~repro.storage.durable.DurabilityError`.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import zlib
from typing import Any, Callable, List, Optional

from repro.geometry.rect import Rect
from repro.serve.config import ServeConfig, check_constructible
from repro.serve.shard_log import DurableShardLog, ShardLog
from repro.serve.sharded_index import ShardedIndex
from repro.serve.snapshot import VersionedShard
from repro.storage.buffer_manager import DEFAULT_BUFFER_PAGES, BufferManager
from repro.storage.disk_manager import DiskManager
from repro.storage.durable import (
    DEFAULT_SLOT_BYTES,
    DurabilityError,
    FileDiskManager,
)
from repro.storage.faults import FaultInjectingDiskManager
from repro.storage.stats import IOStats

_META_HEADER = struct.Struct("<II")
_MANIFEST = "MANIFEST.json"
#: Covers the WAL record shapes too (the log files carry no version of
#: their own); 4 = every record is one of the four batch ``LOG_OPS`` with
#: an ``int`` epoch, and every checkpoint image (generation 0 included)
#: is a :class:`~repro.serve.snapshot.VersionedShard`; 5 = a pickled Bx
#: velocity histogram keeps its extrema in one array whose empty cells
#: hold sentinels (a v4 image has four arrays with stale extrema in its
#: empty cells, which a lookup without an occupancy mask would count);
#: 6 = a pickled ``VPIndex`` keeps a ``MOTION`` slab of its objects'
#: original snapshots (a v5 image has none, so its first kNN would fail);
#: 7 = a pickled ``VPIndex`` and TPR-family tree keep a ``CountGrid`` of
#: their objects' positions, and a TPR tree its ``space`` (a v6 image has
#: neither, so its first kNN would fail); 8 = the value records (points,
#: vectors, moving objects, queries) pickle by position, as their class and
#: field values (a v7 WAL body or image carries each record's field dict,
#: which a slotted record without ``__setstate__`` refuses to load); 9 = a
#: pickled ``VPIndex`` keeps ``_by_oid``, its kNN candidates' oid-sorted
#: view of the directory (a v8 image has no such attribute, so its first
#: kNN would fail); 10 = the images hold format-2 page files, whose pages
#: start at slot 1 (a v9 image is a format-1 file, which the disk refuses).
_MANIFEST_VERSION = 10


# ----------------------------------------------------------------------
# fsync'd file helpers
# ----------------------------------------------------------------------
def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes, fsync: bool) -> None:
    """Write ``data`` to ``path`` via temp file + rename (all-or-nothing)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path) or ".")


def _copy_file(src: str, dst: str, fsync: bool) -> None:
    with open(src, "rb") as handle:
        _atomic_write(dst, handle.read(), fsync)


# ----------------------------------------------------------------------
# Index metadata pickling (storage objects externalized)
# ----------------------------------------------------------------------
class _IndexPickler(pickle.Pickler):
    """Pickles an index with buffer/disk/stats replaced by persistent ids."""

    def persistent_id(self, obj: Any) -> Optional[str]:
        if isinstance(obj, BufferManager):
            return "buffer"
        if isinstance(obj, (DiskManager, FileDiskManager, FaultInjectingDiskManager)):
            return "disk"
        if isinstance(obj, IOStats):
            return "stats"
        return None


class _IndexUnpickler(pickle.Unpickler):
    def __init__(self, stream: io.BytesIO, buffer: BufferManager) -> None:
        super().__init__(stream)
        self._buffer = buffer

    def persistent_load(self, pid: str) -> Any:
        if pid == "buffer":
            return self._buffer
        if pid == "disk":
            return self._buffer.disk
        if pid == "stats":
            return self._buffer.stats
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dumps_index(index: Any) -> bytes:
    """Pickle an index's metadata with its storage objects cut out."""
    stream = io.BytesIO()
    try:
        _IndexPickler(stream, protocol=pickle.HIGHEST_PROTOCOL).dump(index)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise DurabilityError(
            f"index {type(index).__name__} cannot be checkpointed: {error} "
            "(the index holds something pickle cannot serialize — every "
            "standard family, VP variants included, round-trips cleanly)"
        ) from error
    return stream.getvalue()


def loads_index(blob: bytes, buffer: BufferManager) -> Any:
    """Rebuild an index from :func:`dumps_index` bytes over ``buffer``."""
    return _IndexUnpickler(io.BytesIO(blob), buffer).load()


# ----------------------------------------------------------------------
# Per-shard store
# ----------------------------------------------------------------------
class ShardStore:
    """Checkpoint/WAL persistence of one shard (see module docstring).

    After :meth:`create` or :meth:`open`, the store owns the shard's live
    :class:`FileDiskManager` (:attr:`disk`) and durable WAL (:attr:`log`);
    the :class:`~repro.serve.ShardedIndex` above calls :meth:`checkpoint`
    to commit a new generation and :meth:`restore_image` to rebuild the
    shard during recovery.
    """

    def __init__(
        self,
        root: str,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        fsync: bool = True,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = str(root)
        self.buffer_pages = buffer_pages
        self.slot_bytes = slot_bytes
        self._fsync = fsync
        self._crash_hook = crash_hook
        self.generation = -1
        self.disk: Optional[FileDiskManager] = None
        self.log: Optional[DurableShardLog] = None
        #: WAL records replayed by the last :meth:`open` (the bounded
        #: recovery tail; 0 after a clean shutdown), and how many of them
        #: the shard rejected, as it did live.
        self.replayed_on_open = self.rejected_on_open = 0
        self._blob: Optional[bytes] = None

    # -- paths ---------------------------------------------------------
    def _pages_path(self) -> str:
        return os.path.join(self.root, "pages.db")

    def _image_path(self, generation: int) -> str:
        return os.path.join(self.root, f"pages.{generation}.ckpt")

    def _wal_path(self, generation: int) -> str:
        return os.path.join(self.root, f"wal.{generation}.log")

    def _meta_path(self) -> str:
        return os.path.join(self.root, "checkpoint.meta")

    # -- meta records --------------------------------------------------
    def _write_meta(self, meta: dict) -> None:
        body = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        framed = _META_HEADER.pack(len(body), zlib.crc32(body)) + body
        _atomic_write(self._meta_path(), framed, self._fsync)

    def _read_meta(self) -> dict:
        try:
            with open(self._meta_path(), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise DurabilityError(
                f"{self.root}: no checkpoint.meta (not a shard store, or its "
                "creating checkpoint never committed)"
            ) from None
        if len(data) < _META_HEADER.size:
            raise DurabilityError(f"{self.root}: checkpoint.meta is truncated")
        length, crc = _META_HEADER.unpack_from(data)
        body = data[_META_HEADER.size : _META_HEADER.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            raise DurabilityError(f"{self.root}: checkpoint.meta failed its checksum")
        return pickle.loads(body)

    def _gc(self, keep: int) -> None:
        """Remove images/WALs of every generation except ``keep``."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return
        for name in names:
            for prefix, suffix in (("pages.", ".ckpt"), ("wal.", ".log")):
                if not (name.startswith(prefix) and name.endswith(suffix)):
                    continue
                middle = name[len(prefix) : -len(suffix)]
                if middle.isdigit() and int(middle) != keep:
                    os.unlink(os.path.join(self.root, name))

    # -- lifecycle -----------------------------------------------------
    def _open_disk(self) -> BufferManager:
        self.disk = FileDiskManager(
            self._pages_path(), slot_bytes=self.slot_bytes, crash_hook=self._crash_hook
        )
        return BufferManager(disk=self.disk, capacity=self.buffer_pages)

    def create(self, factory: Callable[[BufferManager], Any]) -> VersionedShard:
        """Build a fresh shard and commit its generation-0 checkpoint.

        The shard is epoch-versioned before that checkpoint, so every image
        the store ever restores is a :class:`VersionedShard` and WAL replay
        hands each record its epoch.
        """
        if os.path.exists(self._meta_path()):
            raise DurabilityError(f"{self.root}: shard store already exists; open() it")
        os.makedirs(self.root, exist_ok=True)
        buffer = self._open_disk()
        index = VersionedShard(factory(buffer))
        self.log = DurableShardLog(
            self._wal_path(0), fsync=self._fsync, crash_hook=self._crash_hook
        )
        self.checkpoint(index, self.log)
        return index

    def open(self) -> Any:
        """Recover the shard: restore the checkpoint image, replay the WAL.

        Returns the recovered index; :attr:`replayed_on_open` holds the
        WAL-tail length that was replayed (bounded by construction — the
        tail only covers mutations since the last committed checkpoint).
        The log keeps its records after replay so callers can inspect the
        tail; an explicit checkpoint compacts it.
        """
        meta = self._read_meta()
        self.generation = meta["generation"]
        self.slot_bytes = meta["slot_bytes"]
        self.buffer_pages = meta["buffer_pages"]
        self._blob = meta["blob"]
        self._gc(keep=self.generation)
        index = self.restore_image()
        self.log = DurableShardLog(
            self._wal_path(self.generation),
            fsync=self._fsync,
            crash_hook=self._crash_hook,
        )
        self.replayed_on_open = len(self.log)
        _, self.rejected_on_open = self.log.replay(index)
        return index

    def restore_image(self) -> Any:
        """A fresh shard at exactly the current checkpoint's state.

        Replaces ``pages.db`` with the generation image (not fsync'd: a
        crash before the next checkpoint restores it again) and rebuilds
        the index metadata over a fresh buffer.  The WAL is untouched: the
        caller replays whatever tail it needs (recovery replays all of
        it).
        """
        if self.generation < 0 or self._blob is None:
            raise DurabilityError(f"{self.root}: no committed checkpoint to restore")
        if self.disk is not None:
            self.disk.close()
            self.disk = None
        _copy_file(self._image_path(self.generation), self._pages_path(), fsync=False)
        buffer = self._open_disk()
        return loads_index(self._blob, buffer)

    def checkpoint(self, index: Any, log: ShardLog) -> None:
        """Commit a new checkpoint generation (the 5-step protocol above)."""
        new_generation = self.generation + 1
        blob = dumps_index(index)
        index.buffer.flush()
        self.disk.sync()
        _copy_file(self._pages_path(), self._image_path(new_generation), self._fsync)
        wal_path = self._wal_path(new_generation)
        rotate = log.path != wal_path
        if rotate:
            with open(wal_path, "wb") as handle:
                if self._fsync:
                    os.fsync(handle.fileno())
        self._write_meta(
            {
                "generation": new_generation,
                "slot_bytes": self.slot_bytes,
                "buffer_pages": self.buffer_pages,
                "blob": blob,
            }
        )
        if rotate and isinstance(log, DurableShardLog):
            log.rotate(wal_path)
        else:
            log.truncate()
        self.generation = new_generation
        self._blob = blob
        self._gc(keep=new_generation)

    def close(self) -> None:
        """Sync and close the shard's disk and WAL (idempotent)."""
        if self.disk is not None:
            self.disk.close()
            self.disk = None
        if self.log is not None:
            self.log.close()


# ----------------------------------------------------------------------
# Whole-index store
# ----------------------------------------------------------------------
class DurableStore:
    """A directory of shard stores plus a manifest: one durable index.

    ``create()`` builds a new durable :class:`ShardedIndex` (each shard
    over its own :class:`FileDiskManager` + :class:`DurableShardLog`);
    ``open()`` recovers one after a clean shutdown *or* a crash — same
    code path, the only difference is how long the replayed WAL tails
    are.  The manifest (JSON) records the topology so ``open()`` needs no
    arguments beyond policy knobs.
    """

    def __init__(
        self,
        root: str,
        fsync: bool = True,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = str(root)
        self._fsync = fsync
        self._crash_hook = crash_hook
        #: Per shard, the WAL records the last :meth:`open` replayed and rejected.
        self.replayed_on_open: List[int] = []
        self.rejected_on_open: List[int] = []

    @property
    def exists(self) -> bool:
        """Whether a manifest is already committed at :attr:`root`."""
        return os.path.exists(os.path.join(self.root, _MANIFEST))

    def _shard_root(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard-{shard_id:03d}")

    def _stores(self, manifest: dict) -> List[ShardStore]:
        return [
            ShardStore(
                self._shard_root(shard_id),
                buffer_pages=manifest["buffer_pages"],
                slot_bytes=manifest["slot_bytes"],
                fsync=self._fsync,
                crash_hook=self._crash_hook,
            )
            for shard_id in range(manifest["num_shards"])
        ]

    def _assemble(
        self, shards: List[Any], stores: List[ShardStore], manifest: dict, config: ServeConfig
    ) -> ShardedIndex:
        # The stores are the durable state; the manifest supplies the
        # name/space defaults the config can override.
        space = manifest.get("space")
        if config.space is None and space is not None:
            config = config.merged(space=Rect(*space))
        return ShardedIndex(
            shards, config.merged(name=config.name or manifest.get("name"), stores=stores)
        )

    def create(
        self,
        shard_factory: Callable[[BufferManager], Any],
        num_shards: int = 1,
        name: Optional[str] = None,
        space: Optional[Rect] = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        config: Optional[ServeConfig] = None,
        family: Optional[str] = None,
    ) -> ShardedIndex:
        """Create a new durable sharded index at :attr:`root`.

        ``shard_factory`` takes the shard's :class:`BufferManager` and
        returns an empty index over it: a durable shard's storage is owned
        by its store.
        ``config`` carries the serving policy (supervisor, executor —
        which must be the serial one for durable shards) and the
        default ``space``; ``family`` is recorded in the manifest for
        :meth:`open` to compare (``ShardedIndex.build`` passes it).
        """
        if self.exists:
            raise DurabilityError(f"{self.root}: store already exists; open() it")
        config = check_constructible(
            (config if config is not None else ServeConfig()).merged(space=space),
            num_shards,
            durable=True,
        )
        os.makedirs(self.root, exist_ok=True)
        space = config.space
        manifest = {
            "version": _MANIFEST_VERSION,
            "family": family,
            "num_shards": num_shards,
            "name": name,
            "buffer_pages": buffer_pages,
            "slot_bytes": DEFAULT_SLOT_BYTES,
            "space": None
            if space is None
            else [space.x_min, space.y_min, space.x_max, space.y_max],
        }
        stores = self._stores(manifest)
        shards = [store.create(shard_factory) for store in stores]
        # Commit the manifest last: a crash mid-create leaves a directory
        # without one, which open() rejects cleanly.
        _atomic_write(
            os.path.join(self.root, _MANIFEST),
            json.dumps(manifest, indent=2).encode("utf-8"),
            self._fsync,
        )
        return self._assemble(shards, stores, manifest, config)

    def open(
        self, config: Optional[ServeConfig] = None, expect: Optional[dict] = None
    ) -> ShardedIndex:
        """Recover the durable index (checkpoint images + WAL-tail replay).

        ``expect`` maps manifest keys (``family``, ``num_shards``,
        ``buffer_pages``) to the values the caller believes the store was
        created with; the first one the manifest contradicts raises
        ``ValueError`` before any shard is touched (a key the manifest
        does not record is not compared).
        """
        try:
            with open(os.path.join(self.root, _MANIFEST), "r", encoding="utf-8") as f:
                manifest = json.load(f)
        except FileNotFoundError:
            raise DurabilityError(
                f"{self.root}: no manifest (not a durable store, or create() "
                "crashed before committing one)"
            ) from None
        if manifest.get("version") != _MANIFEST_VERSION:
            raise DurabilityError(
                f"{self.root}: manifest version {manifest.get('version')} "
                f"(this build reads {_MANIFEST_VERSION})"
            )
        for key, wanted in (expect or {}).items():
            if manifest.get(key) not in (None, wanted):
                raise ValueError(
                    f"{self.root}: the store was created with {key}={manifest[key]!r}, "
                    f"not {wanted!r} (open it as it is, or build into a new directory)"
                )
        config = check_constructible(
            config if config is not None else ServeConfig(),
            manifest["num_shards"],
            durable=True,
        )
        stores = self._stores(manifest)
        shards = [store.open() for store in stores]
        self.replayed_on_open = [store.replayed_on_open for store in stores]
        self.rejected_on_open = [store.rejected_on_open for store in stores]
        return self._assemble(shards, stores, manifest, config)


__all__ = [
    "DurableStore",
    "ShardStore",
    "dumps_index",
    "loads_index",
]
