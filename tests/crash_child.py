"""Subprocess body + shared fixtures for the SIGKILL crash-recovery tests.

Not a test module (pytest does not collect it).  Run as a script it
builds a durable sharded Bx index, checkpoints it, then SIGKILLs itself
at a chosen ordinal of a chosen crash-hook event during an update storm:

    python crash_child.py <store_root> <kill_event> <kill_ordinal>

``kill_event`` is the page file's torn-write window (``page:torn``) or
the WAL's (``wal:torn``).
The parent test asserts the process died of SIGKILL, reopens the store,
and compares its answers against a clean twin built by the same
deterministic helpers below — which is why they live here, importable
from both sides.
"""

import os
import random
import signal
import sys

from repro.bxtree.bx_tree import BxTree
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import KNNQuery
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery, RectangularRange
from repro.serve.config import ServeConfig
from repro.serve.durable_store import DurableStore
from repro.serve.sharded_index import ShardedIndex
from repro.storage.buffer_manager import BufferManager

NUM_SHARDS = 2
NUM_OBJECTS = 120
NUM_UPDATES = 40
#: Small pool so post-checkpoint evictions dirty ``pages.db`` — the
#: recovery path must restore the checkpoint image, not trust the live
#: file.
BUFFER_PAGES = 8
SPACE = Rect(0.0, 0.0, 100.0, 100.0)
MAX_UPDATE_INTERVAL = 20.0
#: Tiny pages (many nodes) + the small pool guarantee evictions — and so
#: torn page-write windows — during the armed update storm.
PAGE_SIZE = 512
SEED = 20260808


def make_shard(buffer):
    """One Bx shard over ``buffer`` (the durable ``shard_factory``)."""
    return BxTree(
        buffer=buffer,
        space=SPACE,
        max_update_interval=MAX_UPDATE_INTERVAL,
        page_size=PAGE_SIZE,
    )


def make_objects():
    rng = random.Random(SEED)
    return [
        MovingObject(
            oid=oid,
            position=Point(rng.uniform(5.0, 95.0), rng.uniform(5.0, 95.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            reference_time=0.0,
        )
        for oid in range(NUM_OBJECTS)
    ]


def make_updates(objects):
    """Deterministic (old, new) update pairs touching every shard."""
    rng = random.Random(SEED + 1)
    live = {obj.oid: obj for obj in objects}
    pairs = []
    for step in range(NUM_UPDATES):
        old = live[rng.randrange(NUM_OBJECTS)]
        new = MovingObject(
            oid=old.oid,
            position=Point(rng.uniform(5.0, 95.0), rng.uniform(5.0, 95.0)),
            velocity=Vector(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            reference_time=1.0 + step / NUM_UPDATES,
        )
        pairs.append((old, new))
        live[old.oid] = new
    return pairs


def probes():
    """The fixed query mix both sides answer (range + kNN)."""
    ranges = [
        RangeQuery(
            range=RectangularRange(Rect(10.0 * i, 5.0, 10.0 * i + 30.0, 80.0)),
            start_time=3.0,
            end_time=4.0,
            issue_time=2.0,
        )
        for i in range(5)
    ]
    knns = [
        KNNQuery(center=Point(20.0 + 12.0 * i, 50.0), k=5, query_time=3.5, issue_time=2.0)
        for i in range(4)
    ]
    return ranges, knns


def answers(index):
    """The full range + kNN answer set of ``index`` to the probes.

    Returned verbatim (ids, distances, order) so equality between two
    indexes means bit-identical answers.
    """
    ranges, knns = probes()
    return index.range_query_batch(ranges), index.knn_query_batch(knns, space=SPACE)


def build_twin():
    """An in-memory sharded twin (same factories, same topology)."""
    shards = [make_shard(BufferManager(capacity=BUFFER_PAGES)) for _ in range(NUM_SHARDS)]
    return ShardedIndex(shards, ServeConfig(name="Bx-twin", space=SPACE))


def main(root, kill_event, kill_ordinal):
    armed = [False]
    seen = [0]

    def hook(event):
        if armed[0] and event == kill_event:
            seen[0] += 1
            if seen[0] >= kill_ordinal:
                os.kill(os.getpid(), signal.SIGKILL)

    store = DurableStore(root, crash_hook=hook)
    index = store.create(
        make_shard,
        num_shards=NUM_SHARDS,
        name="Bx",
        space=SPACE,
        buffer_pages=BUFFER_PAGES,
    )
    index.bulk_load(make_objects())
    index.checkpoint()
    armed[0] = True
    for old, new in make_updates(make_objects()):
        index.update(old, new)
    # The kill never fired: exit distinctly so the parent flags the miss.
    sys.exit(3)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
