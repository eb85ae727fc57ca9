"""Crash recovery: checkpoint/WAL reopen equals the never-crashed twin.

Two tiers (see ``docs/storage.md`` for the recovery state machine):

* in-process tests simulate a crash by abandoning a durable
  :class:`~repro.serve.DurableStore` without closing it, then reopen and
  pin bit-identical range/kNN answers plus bounded WAL-tail replay;
* subprocess tests (marked slow) land a real ``SIGKILL`` inside a chosen
  torn-write window — mid page write and mid WAL append — via the
  storage crash hooks, then recover in the parent and compare against a
  clean twin.
"""

import glob
import json
import os
import random
import signal
import subprocess
import sys
from functools import partial

import pytest

import crash_child
import repro
from repro.core.partitioned_index import analyze_sample, sample_velocities_from_objects
from repro.objects.moving_object import MovingObject
from repro.serve import ServeConfig, ShardedIndex, VersionedShard
from repro.serve.durable_store import DurableStore, ShardStore
from repro.storage import FaultProfile, fault_wrap
from repro.storage.durable import DurabilityError, FileDiskManager


def _create_store(root):
    """A fresh durable sharded Bx index under ``root`` (``crash_child``'s topology)."""
    return DurableStore(root, fsync=False).create(
        crash_child.make_shard,
        num_shards=crash_child.NUM_SHARDS,
        space=crash_child.SPACE,
        buffer_pages=crash_child.BUFFER_PAGES,
    )


def _twin_with_history(objects, updates):
    """A never-crashed in-memory reference with the same history applied."""
    twin = crash_child.build_twin()
    twin.bulk_load(objects)
    for old, new in updates:
        twin.update(old, new)
    return twin


def _assert_pages_checksum_clean(index):
    """Directly re-read every allocated page of every durable shard."""
    for shard in index.shards:
        disk = shard.buffer.disk
        assert isinstance(disk, FileDiskManager)
        for page_id in disk.allocated_page_ids:
            disk.read(page_id)  # PageCorruptionError would fail the test
        assert disk.checksum_failures == 0


# ----------------------------------------------------------------------
# In-process: clean shutdown, simulated crash, explicit checkpoint
# ----------------------------------------------------------------------
def test_clean_close_reopen_replays_nothing(tmp_path):
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)

    index = _create_store(root)
    index.bulk_load(objects)
    for old, new in updates:
        index.update(old, new)
    live = crash_child.answers(index)
    index.close()

    store = DurableStore(root, fsync=False)
    reopened = store.open()
    # close() checkpointed every shard: nothing is left to replay.
    assert store.replayed_on_open == [0] * crash_child.NUM_SHARDS
    assert crash_child.answers(reopened) == live
    assert crash_child.answers(reopened) == crash_child.answers(
        _twin_with_history(objects, updates)
    )
    _assert_pages_checksum_clean(reopened)
    reopened.close()


def test_abandoned_store_reopen_replays_bounded_tail(tmp_path):
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)

    index = _create_store(root)
    index.bulk_load(objects)
    index.checkpoint()
    for old, new in updates:
        index.update(old, new)
    live = crash_child.answers(index)
    # Simulated crash: the process state is simply abandoned — dirty
    # buffer pages never reach pages.db, no checkpoint, no close.

    store = DurableStore(root, fsync=False)
    recovered = store.open()
    # Bounded replay: the checkpoint truncated the bulk-load history, so
    # each shard replays exactly its post-checkpoint updates and nothing
    # else.
    assert sum(store.replayed_on_open) == len(updates)
    for shard_id in range(crash_child.NUM_SHARDS):
        ops = [op for op, _, _ in recovered.shard_log(shard_id).entries]
        assert "bulk_load" not in ops
    assert crash_child.answers(recovered) == live
    _assert_pages_checksum_clean(recovered)
    recovered.close()


def test_recovery_never_reads_the_live_page_file(tmp_path):
    # The durable state is each shard's checkpoint image, checkpoint.meta
    # and WAL.  pages.db is only where the buffer writes pages out to, so
    # whatever a crash leaves in it — here random bytes in one shard and
    # an empty file in the other — recovery overwrites unread.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)

    index = _create_store(root)
    index.bulk_load(objects)
    index.checkpoint()
    for old, new in updates:
        index.update(old, new)
    # Abandoned.  The 8-page pools evicted post-checkpoint pages into
    # pages.db, so the live file is newer than the image in every shard.
    rng = random.Random(crash_child.SEED)
    for shard_id in range(crash_child.NUM_SHARDS):
        shard_root = os.path.join(root, f"shard-{shard_id:03d}")
        (image,) = glob.glob(os.path.join(shard_root, "pages.*.ckpt"))
        with open(image, "rb") as handle:
            checkpointed = handle.read()
        pages = os.path.join(shard_root, "pages.db")
        with open(pages, "rb") as handle:
            live = handle.read()
        assert live != checkpointed
        with open(pages, "wb") as handle:
            handle.write(rng.randbytes(len(live)) if shard_id == 0 else b"")

    recovered = DurableStore(root, fsync=False).open()
    assert crash_child.answers(recovered) == crash_child.answers(
        _twin_with_history(objects, updates)
    )
    _assert_pages_checksum_clean(recovered)
    recovered.close()


def test_abandoned_bx_store_replays_a_bulk_load(tmp_path):
    # No checkpoint follows the bulk load, so reopening restores the empty
    # generation-0 image (a versioned BxTree) and replays that one record.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()

    index = _create_store(root)
    index.bulk_load(objects)
    live = crash_child.answers(index)

    store = DurableStore(root, fsync=False)
    recovered = store.open()
    assert store.replayed_on_open == [1] * crash_child.NUM_SHARDS
    assert crash_child.answers(recovered) == live
    assert crash_child.answers(recovered) == crash_child.answers(
        _twin_with_history(objects, [])
    )
    recovered.close()


def test_bulk_load_into_a_nonempty_index_is_rejected_before_it_is_logged(tmp_path):
    # The shards refuse such a load only after its record is in their WAL,
    # and a record a shard refuses is one every later recovery dies on.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    half = len(objects) // 2
    in_memory = ShardedIndex.build(
        "Bx",
        shards=crash_child.NUM_SHARDS,
        executor="serial",
        space=crash_child.SPACE,
        max_update_interval=crash_child.MAX_UPDATE_INTERVAL,
        page_size=crash_child.PAGE_SIZE,
    )
    durable = _create_store(root)
    for index in (in_memory, durable):
        index.bulk_load(objects[:half])
        logged = [len(index.shard_log(s)) for s in range(index.num_shards)]
        with pytest.raises(ValueError, match="bulk_load requires an empty index"):
            index.bulk_load(objects[half:])
        assert [len(index.shard_log(s)) for s in range(index.num_shards)] == logged
    live = crash_child.answers(in_memory)
    assert crash_child.answers(durable) == live

    in_memory.recover_shard(0)
    assert crash_child.answers(in_memory) == live
    in_memory.close()
    # The durable index is abandoned, not closed: reopening replays its WAL.
    reopened = DurableStore(root, fsync=False).open()
    assert crash_child.answers(reopened) == live
    reopened.close()


def _vp_recipe(objects):
    """A ``Bx(VP)`` shard recipe: a VP shard rejects an id it already indexes."""
    return partial(
        repro.make_index,
        "Bx(VP)",
        partitioning=analyze_sample(sample_velocities_from_objects(objects), k=2),
        space=crash_child.SPACE,
        max_update_interval=crash_child.MAX_UPDATE_INTERVAL,
        page_size=crash_child.PAGE_SIZE,
    )


def _vp_index(root, recipe, kind):
    """Two ``Bx(VP)`` shards: a durable serial store at ``root``, or in memory on ``kind``."""
    if kind == "durable":
        return DurableStore(root, fsync=False).create(
            lambda buffer: recipe(buffer=buffer),
            num_shards=2,
            space=crash_child.SPACE,
            buffer_pages=crash_child.BUFFER_PAGES,
            config=ServeConfig(executor="serial"),
        )
    return ShardedIndex.build(recipe, shards=2, executor=kind, space=crash_child.SPACE)


def _recovered(index, root, kind):
    """``index`` rebuilt from its WALs, and each shard's count of rejected records.

    A durable store is abandoned, not closed, and reopened; an in-memory
    index recovers every shard in place.
    """
    if kind == "durable":
        store = DurableStore(root, fsync=False)
        recovered = store.open()
        return recovered, store.rejected_on_open
    for shard_id in range(index.num_shards):
        index.recover_shard(shard_id)
    return index, [event["rejected_records"] for event in index.recovery_events]


@pytest.mark.parametrize("kind", ["serial", "process", "durable"])
def test_a_rejected_batch_still_runs_every_shard_and_replays_as_the_same_rejection(
    tmp_path, kind
):
    # Only the shard knows an id is already indexed, so its record is in the
    # WAL before the KeyError.  The record stays and replays as the same
    # rejection, and every other routed shard applies its slice — on every
    # executor, so what survives the raising call does not depend on it.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    recipe = _vp_recipe(objects)
    index = _vp_index(root, recipe, kind)
    twin = ShardedIndex.build(recipe, shards=2, executor="serial", space=crash_child.SPACE)
    index.bulk_load(objects)
    twin.bulk_load(objects)
    duplicate = next(obj for obj in objects if index.shard_of(obj.oid) == 0)
    fresh_oid = next(oid for oid in range(len(objects), 10**6) if index.shard_of(oid) == 1)
    fresh = MovingObject(
        oid=fresh_oid,
        position=duplicate.position,
        velocity=duplicate.velocity,
        reference_time=duplicate.reference_time,
    )

    with pytest.raises(KeyError, match="already indexed"):
        index.insert(duplicate)
    with pytest.raises(KeyError, match="already indexed"):
        index.insert_batch([duplicate, fresh])
    # Shard 0 refused both; shard 1 applied its slice of the batch.  Every
    # record stays logged: the bulk load, then what each shard was handed.
    assert len(index.shards[1]) - len(twin.shards[1]) == 1
    assert [len(index.shard_log(shard_id)) for shard_id in range(2)] == [3, 2]
    twin.insert(fresh)
    expected = crash_child.answers(twin)
    assert crash_child.answers(index) == expected

    recovered, rejected = _recovered(index, root, kind)
    assert rejected == [2, 0]
    assert len(recovered) == len(objects) + 1
    assert crash_child.answers(recovered) == expected
    recovered.close()
    twin.close()


@pytest.mark.parametrize("kind", ["serial", "durable"], ids=["memory", "durable"])
def test_a_rejected_record_left_in_the_wal_recovers_as_a_rejection(tmp_path, kind):
    # What a crash between the shard's rejection and the record's removal
    # used to leave behind: the WAL holds a record the shard refuses.  Every
    # recovery — and every DurableStore.open() — died on it with a KeyError.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    recipe = _vp_recipe(objects)
    index = _vp_index(root, recipe, kind)
    twin = ShardedIndex.build(recipe, shards=2, executor="serial", space=crash_child.SPACE)
    index.bulk_load(objects)
    twin.bulk_load(objects)
    duplicate = next(obj for obj in objects if index.shard_of(obj.oid) == 0)
    index.shard_log(0).append("insert_batch", (duplicate,), epoch=index.epoch + 1)

    recovered, rejected = _recovered(index, root, kind)
    assert rejected == [1, 0]
    assert len(recovered) == len(objects)
    assert crash_child.answers(recovered) == crash_child.answers(twin)
    recovered.close()
    twin.close()


@pytest.mark.parametrize(
    "version",
    [
        2,  # what builds that logged scalar insert/delete/update records wrote
        4,  # Bx histograms with stale extrema in empty cells, not sentinels
        5,  # VP images without the motion slab
        6,  # VP and TPR images without a kNN count grid
        7,  # value records pickled with a field dict, not by position
        8,  # VP images without the kNN candidates' oid-sorted view
        9,  # format-1 page files, with a double-write slot before the pages
    ],
)
def test_open_refuses_a_manifest_of_another_version(tmp_path, version):
    # The manifest version also covers the WAL record shapes and the
    # pickled checkpoint images: a store written by another build is
    # refused whole, not replayed or unpickled on a guess.
    root = str(tmp_path / "store")
    index = _create_store(root)
    index.bulk_load(crash_child.make_objects())  # abandoned: the WALs hold it
    manifest_path = os.path.join(root, "MANIFEST.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["version"] = version
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)

    def snapshot():
        files = {}
        for folder, _, names in os.walk(root):
            for name in names:
                with open(os.path.join(folder, name), "rb") as handle:
                    files[os.path.join(folder, name)] = handle.read()
        return files

    before = snapshot()
    with pytest.raises(DurabilityError, match=f"manifest version {version} "):
        DurableStore(root, fsync=False).open()
    assert snapshot() == before  # nothing truncated or rewritten


def test_every_checkpoint_image_is_a_versioned_shard(tmp_path):
    # Generation 0 included: WAL replay hands every record its epoch, so
    # the manifest version moved past 3, whose first image was the bare index.
    shard_store = ShardStore(str(tmp_path / "shard"), fsync=False)
    assert isinstance(shard_store.create(crash_child.make_shard), VersionedShard)
    assert isinstance(shard_store.restore_image(), VersionedShard)
    shard_store.close()
    _create_store(str(tmp_path / "store")).close()
    with open(tmp_path / "store" / "MANIFEST.json", encoding="utf-8") as handle:
        assert json.load(handle)["version"] == 10


def _open_descriptors_under(root):
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            pass  # the listing's own descriptor
    return [link for link in links if link.startswith(root)]


@pytest.mark.parametrize(
    "recipe",
    [
        {"executor": "process"},
        {"key_store": "flat"},
        {"family": crash_child.make_shard},
    ],
    ids=["process-executor", "flat-key-store", "callable-family"],
)
def test_build_refuses_an_unservable_durable_recipe_before_the_store_exists(tmp_path, recipe):
    # At the parent commit the first two raised only after a complete store
    # (manifest + shard directories) was committed, with its files left
    # open: the retry below then silently opened the leftover.
    root = str(tmp_path / "store")
    with pytest.raises(ValueError) as raised:
        ShardedIndex.build(**{"family": "Bx", "shards": 2, "durable_dir": root, **recipe})
    assert not os.path.exists(root)
    assert _open_descriptors_under(root) == []
    assert raised.traceback[-1].path.name == "config.py"
    assert raised.traceback[-1].name == "check_constructible"
    with ShardedIndex.build("Bx", shards=2, executor="serial", durable_dir=root) as index:
        assert index.shard_log(0).entries == ()  # created here, not reopened


def test_build_into_an_existing_store_compares_its_arguments_with_the_manifest(tmp_path):
    # At the parent commit the second build returned the stored 2-shard Bx
    # topology (50-page pools) under the name "TPR*", armed with a factory
    # of TPR*-trees.
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    with ShardedIndex.build("Bx", shards=2, executor="serial", durable_dir=root) as index:
        index.bulk_load(objects)
    for arguments, mismatch in (
        ({"family": "TPR*", "shards": 4, "buffer_pages": 7}, "family='Bx', not 'TPR\\*'"),
        ({"family": "Bx", "shards": 4}, "num_shards=2, not 4"),
        ({"family": "Bx", "shards": 2, "buffer_pages": 7}, "buffer_pages=50, not 7"),
    ):
        with pytest.raises(ValueError, match=mismatch):
            ShardedIndex.build(durable_dir=root, **arguments)
        assert _open_descriptors_under(root) == []  # refused before a shard was opened
    with ShardedIndex.build("Bx", shards=2, executor="serial", durable_dir=root) as index:
        assert (index.name, index.num_shards, len(index)) == ("Bx", 2, len(objects))
    # A store made by DurableStore.create directly records no family: not compared.
    bare = str(tmp_path / "bare")
    _create_store(bare).close()
    with open(os.path.join(bare, "MANIFEST.json"), encoding="utf-8") as handle:
        assert json.load(handle)["family"] is None
    ShardedIndex.build(
        "TPR*",
        shards=crash_child.NUM_SHARDS,
        buffer_pages=crash_child.BUFFER_PAGES,
        durable_dir=bare,
    ).close()


def test_explicit_checkpoint_truncates_wals(tmp_path):
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)

    index = _create_store(root)
    index.bulk_load(objects)
    for old, new in updates:
        index.update(old, new)
    assert sum(len(index.shard_log(s)) for s in range(crash_child.NUM_SHARDS)) > 0
    live = crash_child.answers(index)

    index.checkpoint()
    for shard_id in range(crash_child.NUM_SHARDS):
        assert len(index.shard_log(shard_id)) == 0
        wal = index.shard_log(shard_id).path
        assert wal is not None and os.path.getsize(wal) == 0
    # Abandon post-checkpoint: recovery now replays nothing at all.
    store = DurableStore(root, fsync=False)
    recovered = store.open()
    assert store.replayed_on_open == [0] * crash_child.NUM_SHARDS
    assert crash_child.answers(recovered) == live
    recovered.close()


def test_checkpoint_fsyncs_do_not_depend_on_the_pages_it_writes(tmp_path, monkeypatch):
    # A checkpoint fsyncs its image, its new WAL, checkpoint.meta and their
    # directories — never pages.db — so a checkpoint that writes out a
    # whole bulk-loaded tree runs as many fsyncs as one after one update.
    index = DurableStore(str(tmp_path / "store")).create(
        crash_child.make_shard,
        num_shards=2,
        space=crash_child.SPACE,
        buffer_pages=200,  # the whole tree stays dirty until the checkpoint
    )
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)

    def checkpoint():
        """(fsyncs, pages written) of one ``index.checkpoint()``."""
        disks = [shard.buffer.disk for shard in index.shards]
        writes = sum(disk.stats.physical.writes for disk in disks)
        fsyncs.clear()
        index.checkpoint()
        return len(fsyncs), sum(disk.stats.physical.writes for disk in disks) - writes

    objects = crash_child.make_objects()
    index.bulk_load(objects)
    many_fsyncs, many_pages = checkpoint()
    old, new = crash_child.make_updates(objects)[0]
    index.update(old, new)
    few_fsyncs, few_pages = checkpoint()
    assert 0 < 4 * few_pages < many_pages
    assert few_fsyncs == many_fsyncs > 0
    index.close()


def test_supervised_recovery_restores_durable_shard_from_store(tmp_path):
    """An injected mid-batch kill on a durable shard recovers through its
    store (checkpoint image + WAL replay), not a factory rebuild."""
    root = str(tmp_path / "store")
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)

    index = _create_store(root)
    index.bulk_load(objects)
    index.checkpoint()
    # Kill shard 0's storage a few physical ops into the update storm.
    fault_wrap(index.shards[0].buffer, FaultProfile(kill_at_op=5))
    for old, new in updates:
        index.update(old, new)
    assert len(index.recovery_events) >= 1
    event = index.recovery_events[0]
    assert event["shard_id"] == 0
    assert event["replayed_records"] > 0
    assert event["compacted"]
    live = crash_child.answers(index)
    assert crash_child.answers(_twin_with_history(objects, updates)) == live
    index.close()

    store = DurableStore(root, fsync=False)
    recovered = store.open()
    assert crash_child.answers(recovered) == live
    recovered.close()


# ----------------------------------------------------------------------
# Subprocess: a real SIGKILL inside each torn-write window
# ----------------------------------------------------------------------
def _run_child(root, kill_event, kill_ordinal):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "crash_child.py"),
         root, kill_event, str(kill_ordinal)],
        env=env,
        capture_output=True,
        timeout=300,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "kill_event,kill_ordinal",
    [
        ("page:torn", 3),  # mid page write (recovery never reads pages.db)
        ("wal:torn", 4),  # mid WAL append (record never executed)
    ],
)
def test_sigkill_recovery_matches_clean_twin(tmp_path, kill_event, kill_ordinal):
    root = str(tmp_path / "store")
    result = _run_child(root, kill_event, kill_ordinal)
    assert result.returncode == -signal.SIGKILL, (
        f"child exited {result.returncode}: {result.stderr.decode()[-2000:]}"
    )

    store = DurableStore(root)
    recovered = store.open()
    # Bounded replay: only post-checkpoint updates live in the tails —
    # never the bulk load the checkpoint folded away.
    assert sum(store.replayed_on_open) <= crash_child.NUM_UPDATES
    replayed_pairs = []
    for shard_id in range(crash_child.NUM_SHARDS):
        records = recovered.shard_log(shard_id).entries
        assert all(op == "update_batch" and len(payload) == 1 for op, payload, _ in records)
        replayed_pairs.extend(payload[0] for _, payload, _ in records)
    _assert_pages_checksum_clean(recovered)

    # The clean twin applies exactly the updates whose WAL append
    # completed: a mutation is acknowledged only after its log record is
    # durable, so the recovered index must answer as if precisely those
    # updates happened.
    objects = crash_child.make_objects()
    updates = crash_child.make_updates(objects)
    durable_set = {(old.oid, new.reference_time) for old, new in replayed_pairs}
    twin = crash_child.build_twin()
    twin.bulk_load(objects)
    applied = 0
    for old, new in updates:
        if (old.oid, new.reference_time) in durable_set:
            twin.update(old, new)
            applied += 1
    assert applied == len(replayed_pairs)
    assert crash_child.answers(recovered) == crash_child.answers(twin)
    recovered.close()
