"""Checksummed file-backed page store behind the ``DiskManager`` contract.

:class:`FileDiskManager` persists pages into a single file of fixed-size
*slots*, duck-type compatible with the in-memory
:class:`~repro.storage.disk_manager.DiskManager` (same ``allocate`` /
``free`` / ``read`` / ``write`` / ``peek`` / ``stats`` surface), so it
slides under an unmodified :class:`~repro.storage.BufferManager` — and
under the :class:`~repro.storage.faults.FaultInjectingDiskManager`
wrapper, which composes injected faults with real file I/O.

**File layout.**  Slot 0 holds the store header (magic, format version,
byte order, slot size, allocation state: ``next_id`` plus the free list);
page ``p`` lives in slot ``1 + p``.  Every slot is framed as
``crc32 | length | body`` where the CRC covers the *frame id* and body
length as well as the body, so an all-zero slot, a short slot, or a frame
misdirected to the wrong slot can never validate.

**Checksums.**  Every :meth:`read` decodes the frame and verifies its CRC;
a mismatch raises :class:`PageCorruptionError`, a subclass of the fault
module's ``PageReadError`` — the serving layer's supervisor already treats
that as a transient infrastructure fault (bounded retries, then breaker +
recovery), so a flipped bit on disk degrades into a shard recovery instead
of silently corrupt answers.

**No fsync, no torn-write protection.**  A page write is one framed
``pwrite``, and nothing here ever fsyncs the file.  The file is the
buffer pool's write-back target, not durable state: the checkpoint
protocol in :mod:`repro.serve.durable_store` copies it into an fsync'd
generation image, and every recovery overwrites it from that image
before opening it, so a write torn by a crash is never read back.

Page payloads are serialized with :mod:`repro.storage.codec`; a payload
whose encoding outgrows the slot raises :class:`PageOverflowError` (raise
``slot_bytes`` — the slot is deliberately larger than the simulated 4 KB
logical page because Python object encodings are not byte-budgeted).

The CRC detects corruption, not staleness: layers that need
point-in-time consistency recover from a synced snapshot plus a log,
which is exactly what the serve-layer checkpoint/WAL protocol does.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from typing import Any, Callable, Dict, List, Optional

from repro.storage.codec import decode_payload, encode_payload
from repro.storage.faults import PageReadError
from repro.storage.page import Page
from repro.storage.stats import IOStats

#: Default slot size.  Four times the simulated 4 KB logical page: the
#: codec's Python-object encodings (pickled fallback values, per-value
#: tags) are not as tight as the paper's fixed-width entry model, and a
#: page that no longer fits its slot is unrecoverable.
DEFAULT_SLOT_BYTES = 16384

_MAGIC = b"RPRODSK1"
#: 2 = pages start at slot 1 (format 1 kept slot 1 for a second copy of
#: every page write).
_FORMAT_VERSION = 2
#: Synthetic frame id of the header slot (real page ids are >= 0).
_HEADER_ID = -2

_FRAME_HEADER = struct.Struct("<II")
_CRC_PREFIX = struct.Struct("<qI")
_HEADER_FIXED = struct.Struct("<8sIBIqI")


def _slot_offset(frame_id: int, slot_bytes: int) -> int:
    """Byte offset of ``frame_id``'s slot: the header at 0, page ``p`` at ``1 + p``."""
    return 0 if frame_id == _HEADER_ID else (1 + frame_id) * slot_bytes


class DurabilityError(RuntimeError):
    """The durable store is unusable (bad header, wrong format, misuse)."""


class PageOverflowError(DurabilityError):
    """A page payload's encoding does not fit its fixed-size slot."""


class PageCorruptionError(PageReadError):
    """A page frame failed its CRC32 check on read.

    Subclassing :class:`~repro.storage.faults.PageReadError` is the
    integration with the serving layer: corruption surfaces as a transient
    read fault, so supervised reads retry it and repeated failures trip
    the shard's breaker / trigger recovery — no special-casing above the
    storage layer.
    """


class FileDiskManager:
    """A ``DiskManager`` over one paged file with a CRC on every frame.

    Args:
        path: backing file; created when absent, reopened when present.
        slot_bytes: on-disk slot size; must match the file's header when
            reopening an existing store.
        crash_hook: optional test-only callable invoked as
            ``crash_hook("page:torn")`` between the two halves of every
            frame write.  The crash tests SIGKILL the process inside the
            hook to land a real kill inside a torn write.
    """

    def __init__(
        self,
        path: str,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        if slot_bytes < 256:
            raise ValueError("slot_bytes must be at least 256")
        self.path = str(path)
        self.slot_bytes = slot_bytes
        self.stats = IOStats()
        self._crash_hook = crash_hook
        self._free_ids: List[int] = []
        self._next_id = 0
        self._allocated: set = set()
        #: Pages allocated but never written back yet: their payloads only
        #: exist in memory (matching the in-memory manager, where a read
        #: after allocate returns the live object).
        self._pending: Dict[int, Page] = {}
        #: CRC mismatches detected by :meth:`read`/:meth:`peek`.
        self.checksum_failures = 0
        self._closed = False
        existed = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if existed:
            self._load_header()
        else:
            self._write_header()

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def _write_frame(self, frame_id: int, body: bytes) -> None:
        """Frame ``body`` (CRC over id, length and body) and write it to its slot."""
        frame = _FRAME_HEADER.pack(
            zlib.crc32(_CRC_PREFIX.pack(frame_id, len(body)) + body), len(body)
        ) + body
        if len(frame) > self.slot_bytes:
            raise PageOverflowError(
                f"frame {frame_id}: encoded payload is {len(body)} bytes and "
                f"does not fit a {self.slot_bytes}-byte slot (construct the "
                "FileDiskManager with a larger slot_bytes)"
            )
        offset = _slot_offset(frame_id, self.slot_bytes)
        if self._crash_hook is None:
            os.pwrite(self._fd, frame, offset)
            return
        # Two-part write with the hook between the halves: a SIGKILL
        # inside the hook leaves a genuinely torn frame on disk.
        half = max(1, len(frame) // 2)
        os.pwrite(self._fd, frame[:half], offset)
        self._crash_hook("page:torn")
        os.pwrite(self._fd, frame[half:], offset + half)

    def _read_frame(self, frame_id: int) -> Optional[bytes]:
        """The frame body at ``frame_id``'s slot, or None if torn/invalid."""
        data = os.pread(self._fd, self.slot_bytes, _slot_offset(frame_id, self.slot_bytes))
        if len(data) < _FRAME_HEADER.size:
            return None
        crc, length = _FRAME_HEADER.unpack_from(data)
        if length > len(data) - _FRAME_HEADER.size:
            return None
        body = data[_FRAME_HEADER.size : _FRAME_HEADER.size + length]
        if zlib.crc32(_CRC_PREFIX.pack(frame_id, length) + body) != crc:
            return None
        return body

    # ------------------------------------------------------------------
    # Header (allocation state) persistence
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        free = sorted(self._free_ids)
        body = _HEADER_FIXED.pack(
            _MAGIC,
            _FORMAT_VERSION,
            1 if sys.byteorder == "little" else 0,
            self.slot_bytes,
            self._next_id,
            len(free),
        ) + struct.pack(f"<{len(free)}q", *free)
        if len(body) + _FRAME_HEADER.size > self.slot_bytes:
            raise DurabilityError(
                f"free list with {len(self._free_ids)} entries overflows the "
                f"{self.slot_bytes}-byte header slot; raise slot_bytes"
            )
        self._write_frame(_HEADER_ID, body)

    def _load_header(self) -> None:
        body = self._read_frame(_HEADER_ID)
        if body is None:
            raise DurabilityError(f"{self.path}: store header is missing or corrupt")
        magic, version, little, slot_bytes, next_id, free_count = (
            _HEADER_FIXED.unpack_from(body)
        )
        if magic != _MAGIC:
            raise DurabilityError(f"{self.path}: not a FileDiskManager store")
        if version != _FORMAT_VERSION:
            raise DurabilityError(
                f"{self.path}: format version {version} (this build reads "
                f"{_FORMAT_VERSION})"
            )
        if bool(little) != (sys.byteorder == "little"):
            raise DurabilityError(
                f"{self.path}: store was written on a "
                f"{'little' if little else 'big'}-endian machine"
            )
        if slot_bytes != self.slot_bytes:
            raise DurabilityError(
                f"{self.path}: store uses {slot_bytes}-byte slots, opened with "
                f"slot_bytes={self.slot_bytes}"
            )
        self._next_id = next_id
        free = struct.unpack_from(f"<{free_count}q", body, _HEADER_FIXED.size)
        self._free_ids = list(free)
        self._allocated = set(range(next_id)) - set(free)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None) -> Page:
        """Allocate a fresh page (or reuse a freed page id).

        Pure metadata: nothing touches the file until the page's first
        write-back (the buffer keeps fresh pages dirty, so one always
        happens before the page can be evicted) or the next :meth:`sync`.
        """
        if self._free_ids:
            page_id = self._free_ids.pop()
        else:
            page_id = self._next_id
            self._next_id += 1
        page = Page(page_id=page_id, payload=payload)
        self._allocated.add(page_id)
        self._pending[page_id] = page
        return page

    def free(self, page_id: int) -> None:
        """Release a page and recycle its id.

        Raises:
            KeyError: if the page does not exist.
        """
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} does not exist")
        self._allocated.discard(page_id)
        self._pending.pop(page_id, None)
        self._free_ids.append(page_id)

    # ------------------------------------------------------------------
    # Physical I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int) -> Page:
        """Read and CRC-verify a page (counted as one physical read).

        Raises:
            KeyError: if the page is not allocated.
            PageCorruptionError: if the slot's frame fails its checksum —
                counted in :attr:`checksum_failures`, and *not* counted as
                a physical read (the read never yielded a page, matching
                the fault injector's accounting of failed attempts).
        """
        page = self.peek(page_id)
        self.stats.record_physical_read()
        return page

    def write(self, page: Page) -> None:
        """Serialize a page into its slot (one framed ``pwrite``, no fsync).

        Counted as one physical write.

        Raises:
            KeyError: if the page is not allocated.
            PageOverflowError: if the encoded payload outgrows the slot.
        """
        if page.page_id not in self._allocated:
            raise KeyError(f"page {page.page_id} does not exist")
        self._write_frame(page.page_id, encode_payload(page.payload))
        self._pending.pop(page.page_id, None)
        page.dirty = False
        page.write_backs += 1
        self.stats.record_physical_write()

    def sync(self) -> None:
        """Write the allocation header into slot 0 (no fsync).

        After ``sync()`` returns, the file holds every previously written
        page and the current ``next_id``/free-list — the precondition for
        copying it into a checkpoint image.  Pages still pending
        (allocated, never written) are *not* in it; flush the buffer
        first.
        """
        self._write_header()

    def close(self) -> None:
        """``sync()`` then close the file descriptor (idempotent)."""
        if self._closed:
            return
        self.sync()
        self._closed = True
        os.close(self._fd)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek(self, page_id: int) -> Page:
        """Access a page without recording I/O (testing/debugging only)."""
        if page_id not in self._allocated:
            raise KeyError(f"page {page_id} does not exist")
        pending = self._pending.get(page_id)
        if pending is not None:
            return pending
        body = self._read_frame(page_id)
        if body is None:
            self.checksum_failures += 1
            raise PageCorruptionError(
                f"page {page_id} failed its CRC32 check in {self.path}"
            )
        return Page(page_id=page_id, payload=decode_payload(body))

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._allocated

    def __len__(self) -> int:
        return len(self._allocated)

    @property
    def allocated_page_ids(self) -> List[int]:
        """Page ids currently allocated."""
        return sorted(self._allocated)


# ----------------------------------------------------------------------
# File-level fault injection (the durable analogue of faults.py)
# ----------------------------------------------------------------------
def inject_bit_flip(
    path: str,
    page_id: int,
    slot_bytes: int = DEFAULT_SLOT_BYTES,
    byte_offset: int = 0,
    bit: int = 0,
) -> None:
    """Flip one bit inside a stored page's body (silent media corruption).

    ``byte_offset`` is relative to the frame *body*; the frame's CRC is
    left untouched, so the next read of the page must fail its checksum.
    """
    offset = _slot_offset(page_id, slot_bytes) + _FRAME_HEADER.size + byte_offset
    fd = os.open(path, os.O_RDWR)
    try:
        byte = os.pread(fd, 1, offset)
        if not byte:
            raise ValueError(f"page {page_id} has no byte at body offset {byte_offset}")
        os.pwrite(fd, bytes([byte[0] ^ (1 << bit)]), offset)
    finally:
        os.close(fd)


def inject_torn_page(
    path: str, page_id: int, slot_bytes: int = DEFAULT_SLOT_BYTES
) -> None:
    """Zero the second half of a page's slot (a simulated torn write)."""
    offset = _slot_offset(page_id, slot_bytes)
    half = slot_bytes // 2
    fd = os.open(path, os.O_RDWR)
    try:
        os.pwrite(fd, b"\0" * half, offset + half)
    finally:
        os.close(fd)


__all__ = [
    "DEFAULT_SLOT_BYTES",
    "DurabilityError",
    "FileDiskManager",
    "PageCorruptionError",
    "PageOverflowError",
    "inject_bit_flip",
    "inject_torn_page",
]
