"""Durable storage layer: codec round-trips, FileDiskManager, injection.

Covers the crash-safe file-backed page store underneath the serving
layer's checkpoint/WAL protocol (``docs/storage.md``):

* the node codec's exact round-trips (bit-identical re-encoding);
* the ``DiskManager`` contract over a file (allocation, free-list reuse,
  pending pages, KeyError surface, header persistence across reopen);
* CRC verification — injected bit flips and torn pages surface as
  :class:`PageCorruptionError` (a ``PageReadError``, so the serving
  supervisor treats corruption as a transient fault);
* a page write torn by a crash is refused on read after reopening (the
  file has no torn-write protection: recovery never reads it after a
  crash);
* composition with the fault injector and the buffer manager (including
  the ``with`` form that flushes on exit);
* the durable WAL's reopen rule: a torn tail is dropped, a whole frame
  that is not a record — or whose epoch is not an ``int`` — is refused.
"""

import os
import pickle
import struct
import zlib
from array import array

import pytest

from repro.btree.bplus_tree import _InteriorNode, _LeafNode
from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.serve.shard_log import DurableShardLog
from repro.storage import (
    BufferManager,
    DurabilityError,
    FaultInjectingDiskManager,
    FaultProfile,
    FileDiskManager,
    PageCorruptionError,
    PageOverflowError,
    PageReadError,
    inject_bit_flip,
    inject_torn_page,
)
from repro.storage import durable
from repro.storage.codec import decode_payload, encode_payload
from repro.tprtree.node import TPREntry, TPRNode

SLOT = 4096  # small slots keep the test files tiny


def _moving_object(oid: int) -> MovingObject:
    return MovingObject(
        oid=oid,
        position=Point(10.5 * oid, -3.25),
        velocity=Vector(1.5, -0.75),
        reference_time=float(oid),
    )


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------
def test_codec_leaf_round_trip_is_bit_identical():
    leaf = _LeafNode(
        page_id=7,
        keys=array("q", [3, 9, 27, 81]),
        values=[
            _moving_object(1),
            ("a", [1, 2.5, None], b"\x00\xff"),
            {"pickled": "fallback"},
            True,
        ],
        next_leaf=12,
    )
    blob = encode_payload(leaf)
    decoded = decode_payload(blob)
    assert decoded == leaf
    assert encode_payload(decoded) == blob


def test_codec_leaf_without_successor():
    leaf = _LeafNode(page_id=0, keys=array("q", [5]), values=[None], next_leaf=None)
    decoded = decode_payload(encode_payload(leaf))
    assert decoded == leaf
    assert decoded.next_leaf is None


def test_codec_interior_round_trip():
    node = _InteriorNode(
        page_id=3, keys=array("q", [100, 200]), children=[1, 2, 4]
    )
    blob = encode_payload(node)
    decoded = decode_payload(blob)
    assert decoded == node
    assert encode_payload(decoded) == blob


def test_codec_tpr_node_round_trip():
    node = TPRNode(page_id=9, is_leaf=True, parent_page_id=4)
    for oid in range(3):
        node.append_entry(
            TPREntry(
                bound=MovingRect.from_moving_point(
                    Point(1.0 + oid, 2.0 - oid), Vector(0.5, -0.25), 3.0
                ),
                oid=oid,
            )
        )
    blob = encode_payload(node)
    decoded = decode_payload(blob)
    assert decoded.page_id == 9
    assert decoded.is_leaf and decoded.parent_page_id == 4
    assert list(decoded.refs) == [0, 1, 2]
    assert list(decoded.iter_records()) == list(node.iter_records())
    assert encode_payload(decoded) == blob


def test_codec_scalar_and_fallback_payloads():
    for payload in (None, {"arbitrary": [1, 2, 3]}, "just a string"):
        assert decode_payload(encode_payload(payload)) == payload


def test_codec_rejects_unknown_tags():
    with pytest.raises(ValueError, match="payload tag"):
        decode_payload(bytes([250]))


# ----------------------------------------------------------------------
# FileDiskManager: DiskManager contract
# ----------------------------------------------------------------------
def test_file_disk_allocate_write_read_round_trip(tmp_path):
    disk = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=SLOT)
    page = disk.allocate(_moving_object(1))
    # Pending page: allocated but never written — reads return the live
    # object, exactly like the in-memory manager.
    assert disk.read(page.page_id) is page
    page.mark_dirty()
    disk.write(page)
    assert not page.dirty
    assert page.write_backs == 1
    reread = disk.read(page.page_id)
    assert reread is not page
    assert reread.payload == _moving_object(1)
    assert disk.stats.physical.reads == 2
    assert disk.stats.physical.writes == 1
    assert page.page_id in disk
    assert len(disk) == 1
    disk.close()


def test_file_disk_missing_pages_raise_key_error(tmp_path):
    disk = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=SLOT)
    for call in (disk.read, disk.peek, disk.free):
        with pytest.raises(KeyError):
            call(99)
    from repro.storage.page import Page

    with pytest.raises(KeyError):
        disk.write(Page(page_id=99, payload="x"))
    disk.close()


def test_file_disk_free_list_reuse_is_lifo(tmp_path):
    disk = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=SLOT)
    pages = [disk.allocate(i) for i in range(4)]
    disk.free(pages[1].page_id)
    disk.free(pages[2].page_id)
    assert disk.allocate("a").page_id == pages[2].page_id
    assert disk.allocate("b").page_id == pages[1].page_id
    assert disk.allocate("c").page_id == 4
    assert disk.allocated_page_ids == [0, 1, 2, 3, 4]
    disk.close()


def test_file_disk_state_survives_reopen(tmp_path):
    path = str(tmp_path / "pages.db")
    disk = FileDiskManager(path, slot_bytes=SLOT)
    for i in range(3):
        page = disk.allocate(_moving_object(i))
        disk.write(page)
    disk.free(1)
    disk.close()

    reopened = FileDiskManager(path, slot_bytes=SLOT)
    assert reopened.allocated_page_ids == [0, 2]
    assert reopened.read(0).payload == _moving_object(0)
    assert reopened.read(2).payload == _moving_object(2)
    assert reopened.checksum_failures == 0
    # The freed id comes back before a fresh one is minted.
    assert reopened.allocate("x").page_id == 1
    reopened.close()


def test_file_disk_close_is_idempotent(tmp_path):
    disk = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=SLOT)
    disk.close()
    disk.close()


def test_file_disk_rejects_tiny_slots(tmp_path):
    with pytest.raises(ValueError, match="at least 256"):
        FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=64)


def test_file_disk_overflowing_payload_raises(tmp_path):
    disk = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=256)
    page = disk.allocate(b"x" * 1024)
    with pytest.raises(PageOverflowError, match="slot_bytes"):
        disk.write(page)
    disk.close()


def test_file_disk_header_mismatches_refuse_to_open(tmp_path, monkeypatch):
    path = str(tmp_path / "pages.db")
    FileDiskManager(path, slot_bytes=SLOT).close()
    with pytest.raises(DurabilityError, match="slots"):
        FileDiskManager(path, slot_bytes=2 * SLOT)

    # Format 1 kept slot 1 for a double-write copy, so its pages sit one
    # slot further in: refused, not read from the wrong slots.
    format_1 = str(tmp_path / "format-1.db")
    monkeypatch.setattr(durable, "_FORMAT_VERSION", 1)
    FileDiskManager(format_1, slot_bytes=SLOT).close()
    monkeypatch.undo()
    with pytest.raises(DurabilityError, match="format version 1 "):
        FileDiskManager(format_1, slot_bytes=SLOT)

    garbage = str(tmp_path / "garbage.db")
    with open(garbage, "wb") as handle:
        handle.write(b"\x00" * SLOT * 2)
    with pytest.raises(DurabilityError, match="missing or corrupt"):
        FileDiskManager(garbage, slot_bytes=SLOT)


# ----------------------------------------------------------------------
# Checksums: injected corruption is detected on every read
# ----------------------------------------------------------------------
def test_bit_flip_fails_checksum_on_read_and_peek(tmp_path):
    path = str(tmp_path / "pages.db")
    disk = FileDiskManager(path, slot_bytes=SLOT)
    page = disk.allocate([1, 2, 3])
    disk.write(page)
    disk.close()

    inject_bit_flip(path, page.page_id, slot_bytes=SLOT, byte_offset=2, bit=5)
    reopened = FileDiskManager(path, slot_bytes=SLOT)
    with pytest.raises(PageCorruptionError):
        reopened.read(page.page_id)
    with pytest.raises(PageCorruptionError):
        reopened.peek(page.page_id)
    assert reopened.checksum_failures == 2
    # Corruption is a PageReadError: the serving supervisor retries it and
    # escalates to shard recovery without any storage-specific casing.
    assert issubclass(PageCorruptionError, PageReadError)
    reopened.close()


def test_torn_page_fails_checksum(tmp_path):
    path = str(tmp_path / "pages.db")
    disk = FileDiskManager(path, slot_bytes=SLOT)
    # The payload must span the tear point (half the slot) to be affected.
    page = disk.allocate(b"\xa5" * (SLOT * 3 // 4))
    disk.write(page)
    disk.close()

    inject_torn_page(path, page.page_id, slot_bytes=SLOT)
    reopened = FileDiskManager(path, slot_bytes=SLOT)
    with pytest.raises(PageCorruptionError):
        reopened.read(page.page_id)
    reopened.close()


# ----------------------------------------------------------------------
# A torn page write: refused on read, never repaired
# ----------------------------------------------------------------------
class _CrashNow(Exception):
    pass


def test_torn_page_write_is_refused_on_read_after_reopen(tmp_path):
    # The hook fires between the two halves of the frame write, so the
    # slot is left as a real torn write leaves it: the first half new (CRC,
    # length, body start), the second half old.  Nothing repairs it — the
    # checkpoint protocol restores pages.db from its image after a crash.
    path = str(tmp_path / "pages.db")
    armed = [False]

    def hook(event):
        assert event == "page:torn"
        if armed[0]:
            raise _CrashNow(event)

    disk = FileDiskManager(path, slot_bytes=SLOT, crash_hook=hook)
    page = disk.allocate("version-1")
    disk.write(page)
    disk.sync()  # the allocation state is in the file before the crash
    armed[0] = True
    page.payload = "version-2"
    with pytest.raises(_CrashNow):
        disk.write(page)
    # Simulated kill: the manager is abandoned without close()/sync().

    reopened = FileDiskManager(path, slot_bytes=SLOT)
    with pytest.raises(PageCorruptionError):
        reopened.read(page.page_id)
    assert reopened.checksum_failures == 1
    reopened.close()


# ----------------------------------------------------------------------
# Composition: fault injector and buffer manager over the file store
# ----------------------------------------------------------------------
def test_fault_injector_wraps_file_disk(tmp_path):
    inner = FileDiskManager(str(tmp_path / "pages.db"), slot_bytes=SLOT)
    disk = FaultInjectingDiskManager(
        inner=inner, profile=FaultProfile(fail_reads_at=frozenset({1}))
    )
    page = disk.allocate("payload")
    disk.write(page)
    assert disk.read(page.page_id).payload == "payload"  # read op 0
    with pytest.raises(PageReadError):
        disk.read(page.page_id)  # read op 1: injected, never hits the file
    assert disk.read(page.page_id).payload == "payload"
    assert inner.checksum_failures == 0
    inner.close()


def test_buffer_manager_context_manager_flushes_on_exit(tmp_path):
    path = str(tmp_path / "pages.db")
    disk = FileDiskManager(path, slot_bytes=SLOT)
    with BufferManager(disk=disk, capacity=4) as buffer:
        page = buffer.new_page("durable-me")
        page.mark_dirty()
        page_id = page.page_id
    disk.sync()
    disk.close()
    reopened = FileDiskManager(path, slot_bytes=SLOT)
    assert reopened.read(page_id).payload == "durable-me"
    reopened.close()


def test_buffer_manager_context_manager_flushes_on_exception(tmp_path):
    path = str(tmp_path / "pages.db")
    disk = FileDiskManager(path, slot_bytes=SLOT)
    with pytest.raises(RuntimeError, match="boom"):
        with BufferManager(disk=disk, capacity=4) as buffer:
            page = buffer.new_page("still-flushed")
            page.mark_dirty()
            page_id = page.page_id
            raise RuntimeError("boom")
    disk.close()
    reopened = FileDiskManager(path, slot_bytes=SLOT)
    assert reopened.read(page_id).payload == "still-flushed"
    reopened.close()


# ----------------------------------------------------------------------
# Durable WAL: what reopening keeps, drops and refuses
# ----------------------------------------------------------------------
def _wal_with_two_records(path):
    log = DurableShardLog(path, fsync=False)
    log.append("insert_batch", [_moving_object(1)], epoch=1)
    log.append("delete_batch", [_moving_object(1)], epoch=2)
    log.close()
    return os.path.getsize(path)


@pytest.mark.parametrize("damage", ("short", "crc"))
def test_wal_reopen_truncates_a_torn_tail(tmp_path, damage):
    path = str(tmp_path / "wal.log")
    size = _wal_with_two_records(path)
    with open(path, "r+b") as handle:
        if damage == "short":  # the append stopped halfway through the frame
            handle.truncate(size - 5)
        else:  # the whole length landed, the last bytes did not
            handle.seek(size - 1)
            handle.write(b"\xff")
    log = DurableShardLog(path, fsync=False)
    assert [(op, epoch) for op, _, epoch in log.entries] == [("insert_batch", 1)]
    log.append("update_batch", [(_moving_object(1), _moving_object(1))], epoch=2)
    log.close()
    reopened = DurableShardLog(path, fsync=False)
    assert [op for op, _, _ in reopened.entries] == ["insert_batch", "update_batch"]
    reopened.close()


@pytest.mark.parametrize(
    "body, names",
    (
        (pickle.dumps(("insert_batch", (_moving_object(2),))), "WAL frame"),  # pre-epoch 2-tuple
        (pickle.dumps(("compact", None, 3)), "unknown op 'compact'"),
        # What a parent-commit WAL may hold: a scalar op this build no longer replays.
        (pickle.dumps(("update", (_moving_object(2),) * 2, 3)), "unknown op 'update'"),
        (b"not a pickle", "WAL frame"),
        # What a version-3 store's WAL may hold: a record without an epoch.
        (
            pickle.dumps(("insert_batch", (_moving_object(2),), None)),
            r"offset \d+ carries epoch None, not an int",
        ),
        (pickle.dumps(("insert_batch", (_moving_object(2),), 3.0)), "carries epoch 3.0, not"),
    ),
    ids=("two_tuple", "unknown_op", "scalar_op", "not_a_pickle", "none_epoch", "float_epoch"),
)
def test_wal_reopen_refuses_a_whole_frame_that_is_not_a_record(tmp_path, body, names):
    path = str(tmp_path / "wal.log")
    _wal_with_two_records(path)
    with open(path, "ab") as handle:
        handle.write(struct.pack("<II", len(body), zlib.crc32(body)) + body)
    # An acknowledged record after the bad frame: truncating at the frame
    # would silently lose it.
    tail = DurableShardLog(str(tmp_path / "tail.log"), fsync=False)
    tail.append("insert_batch", [_moving_object(3)], epoch=3)
    tail.close()
    with open(str(tmp_path / "tail.log"), "rb") as source, open(path, "ab") as handle:
        handle.write(source.read())
    size = os.path.getsize(path)
    with pytest.raises(DurabilityError, match=names):
        DurableShardLog(path, fsync=False)
    assert os.path.getsize(path) == size  # refused, not truncated

