"""The public ``ShardedIndex`` surface against a brute-force model (Hypothesis).

One :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a sharded
index through arbitrary interleavings of the four mutations, epoch pins,
pinned queries, shard recoveries, checkpoints and — on the durable cell —
abandon-and-reopen, and checks every answer and every returned flag
against a model that is nothing but a dict of objects per epoch: range
answers by :meth:`RangeQuery.matches` over the dict, kNN answers by
ranking the whole dict through the kernel the indexes use
(:func:`repro.objects.knn._rank_distances`), so ids *and* float distances
must be bit-identical.

The write outcomes are what the model pins down hardest.  A shard's slice
of a batch is applied or rejected whole (a ``VPIndex`` refuses an id it
already holds), every routed shard runs its slice whatever the executor,
and a rejected record stays in the shard's WAL: each recovery and each
reopen replays it as the same rejection and counts it
(``rejected_records`` / ``rejected_on_open``) — the model keeps the
same per-shard tally.

Cells: ``Bx(VP)`` on the serial and process executors in memory,
``Bx(VP)`` durable on the serial executor, and ``TPR*(VP)`` serial.  The
Hypothesis seed is ``CHAOS_SEED`` (environment; CI runs the three
published values), so a failing seed fails identically on any machine.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    invariant,
    precondition,
    rule,
)

from repro import make_index
from repro.core.partitioned_index import analyze_sample
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import KNNQuery, _rank_distances, motion_rows
from repro.objects.moving_object import MovingObject
from repro.objects.queries import RangeQuery, RectangularRange
from repro.serve import DurableStore, ServeConfig, ShardedIndex, shard_of

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SPACE = Rect(0.0, 0.0, 1000.0, 1000.0)
SHARDS = 2
BUFFER_PAGES = 8
PAGE_SIZE = 512
#: Ids the machine draws from: small, so hits, misses and duplicates are common.
UNIVERSE = 48
LOADED = 20

#: ``(family, executor, durable)``.
CELLS = (
    ("Bx(VP)", "serial", False),
    ("Bx(VP)", "process", False),
    ("Bx(VP)", "serial", True),
    ("TPR*(VP)", "serial", False),
)

#: No shrinking: a failing program is at most ``stateful_step_count`` steps
#: and is printed whole, while shrinking one rebuilds an index per attempt
#: (a seeded bug took Hypothesis's five-minute shrink budget and 1.5 GB).
MACHINE_SETTINGS = settings(
    max_examples=12,
    stateful_step_count=20,
    deadline=None,
    database=None,
    phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

speeds = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
coords = st.floats(min_value=100.0, max_value=900.0, allow_nan=False, allow_subnormal=False)
velocities = st.one_of(
    st.builds(lambda s: Vector(s, 0.0), speeds),
    st.builds(lambda s: Vector(0.0, s), speeds),
    st.builds(Vector, speeds, speeds),
)
#: ``(oid, x, y, velocity)``: a motion, stamped with the machine's clock when used.
motions = st.tuples(st.integers(0, UNIVERSE - 1), coords, coords, velocities)
batches = st.lists(motions, min_size=1, max_size=8)
steps = st.sampled_from((0.0, 0.5, 1.0))
ranges = st.lists(
    st.tuples(coords, coords, coords, coords, st.sampled_from((0.0, 1.0, 4.0)), steps),
    min_size=1,
    max_size=3,
)
probes = st.lists(
    st.tuples(coords, coords, st.integers(1, 8), st.sampled_from((0.0, 1.0, 4.0))),
    min_size=1,
    max_size=3,
)


def _partitioning():
    """Two DVAs (the axes) plus outliers, analyzed from a fixed sample."""
    rng = random.Random(7)
    sample = [Vector(rng.uniform(-3.0, 3.0), rng.gauss(0.0, 0.05)) for _ in range(150)]
    sample += [Vector(rng.gauss(0.0, 0.05), rng.uniform(-3.0, 3.0)) for _ in range(150)]
    sample += [Vector(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(30)]
    return analyze_sample(sample, k=2)


PARTITIONING = _partitioning()


def _brute_range(state, query):
    return sorted(oid for oid, obj in state.items() if query.matches(obj))


def _brute_knn(state, probe):
    if not state:
        return []
    oids, distances = _rank_distances(motion_rows(state.values()), probe.center, probe.query_time)
    order = np.lexsort((oids, distances))[: probe.k]
    return [(int(oids[j]), float(distances[j])) for j in order]


class ServeMachine(RuleBasedStateMachine):
    """A two-shard ``ShardedIndex`` of one cell, checked against the model."""

    def __init__(self, cell, scratch):
        super().__init__()
        family, executor, durable = cell
        self.root = scratch() if durable else None
        recipe = partial(
            make_index,
            family,
            partitioning=PARTITIONING,
            space=SPACE,
            page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES,
        )
        if durable:
            self.index = DurableStore(self.root, fsync=False).create(
                lambda buffer: recipe(buffer=buffer),
                num_shards=SHARDS,
                space=SPACE,
                buffer_pages=BUFFER_PAGES,
                config=ServeConfig(executor=executor),
            )
        else:
            self.index = ShardedIndex.build(recipe, SHARDS, executor, space=SPACE)
        # The model: live objects, their state at every epoch a pin may
        # still read, and per shard the WAL records (and rejected ones)
        # since the shard's log was last compacted.
        self.now = 0.0
        self.live = {}
        self.epoch = 0
        self.states = {}
        self.pins = []
        self.records = [0] * SHARDS
        self.rejected = [0] * SHARDS
        self.ghosts = itertools.count(10 * UNIVERSE)
        loaded = [self._object(motion) for motion in self._initial()]
        self.index.bulk_load(loaded)
        self._logged(self._slices(loaded), rejected=())
        self.live.update((obj.oid, obj) for obj in loaded)
        self._committed()

    # -- model plumbing --------------------------------------------------
    @staticmethod
    def _initial():
        rng = random.Random(CHAOS_SEED)
        axes = (Vector(1.5, 0.0), Vector(0.0, -2.0), Vector(1.0, 1.0))  # two DVAs and an outlier
        return [
            (oid, rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0), axes[oid % 3])
            for oid in range(LOADED)
        ]

    def _object(self, motion):
        oid, x, y, velocity = motion
        return MovingObject(oid, Point(x, y), velocity, self.now)

    def _ghost(self, oid):
        """A snapshot of ``oid`` that is not stored (the old of an upsert, a delete miss)."""
        return MovingObject(oid, Point(500.0, 500.0), Vector(0.0, 0.0), self.now)

    @staticmethod
    def _slices(objects):
        slices = {}
        for obj in objects:
            slices.setdefault(shard_of(obj.oid, SHARDS), []).append(obj)
        return slices

    def _logged(self, slices, rejected):
        for shard_id in slices:
            self.records[shard_id] += 1
            self.rejected[shard_id] += shard_id in rejected

    def _committed(self):
        """One non-empty mutation call published one epoch."""
        self.epoch += 1
        pinned = {epoch for _, epoch in self.pins}
        self.states = {e: s for e, s in self.states.items() if e in pinned}
        self.states[self.epoch] = dict(self.live)

    def _check_answers(self, epoch, range_specs, probe_specs):
        queries = [
            RangeQuery(
                range=RectangularRange(Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))),
                start_time=self.now + ahead,
                end_time=self.now + ahead + length,
                issue_time=self.now,
            )
            for x0, y0, x1, y1, ahead, length in range_specs
        ]
        knn = [
            KNNQuery(center=Point(x, y), k=k, query_time=self.now + ahead, issue_time=self.now)
            for x, y, k, ahead in probe_specs
        ]
        state = self.states[self.epoch if epoch is None else epoch]
        assert self.index.range_query_batch(queries, epoch=epoch) == [
            _brute_range(state, query) for query in queries
        ]
        assert self.index.knn_query_batch(knn, space=SPACE, epoch=epoch) == [
            _brute_knn(state, probe) for probe in knn
        ]

    # -- the four mutations ----------------------------------------------
    @rule(batch=batches, step=steps)
    def insert_batch(self, batch, step):
        """Fresh ids are stored; a shard whose slice repeats a stored id rejects it whole."""
        self.now += step
        objects = [self._object(motion) for motion in batch]
        slices = self._slices(objects)
        rejected = set()
        for shard_id, members in slices.items():
            oids = [obj.oid for obj in members]
            if len(set(oids)) < len(oids) or any(oid in self.live for oid in oids):
                rejected.add(shard_id)
        if rejected:
            with pytest.raises(KeyError, match="already indexed"):
                self.index.insert_batch(objects)
        else:
            self.index.insert_batch(objects)
        for shard_id, members in slices.items():
            if shard_id not in rejected:
                self.live.update((obj.oid, obj) for obj in members)
        self._logged(slices, rejected)
        self._committed()

    @rule(oids=st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=8))
    def delete_batch(self, oids):
        """Per object, whether it was stored — a repeated id misses the second time."""
        objects, expected = [], []
        for oid in oids:
            objects.append(self.live.get(oid) or self._ghost(oid))
            expected.append(self.live.pop(oid, None) is not None)
        assert self.index.delete_batch(objects) == expected
        self._logged(self._slices(objects), rejected=())
        self._committed()

    @rule(batch=batches, step=steps, unseen=st.booleans())
    def update_batch(self, batch, step, unseen):
        """Per pair, whether its old was stored: a miss upserts, a repeat sees the pairs before it."""
        self.now += step
        pairs, expected = [], []
        for motion in batch:
            if unseen and not pairs:  # an id the index has never held
                motion = (next(self.ghosts), *motion[1:])
            new = self._object(motion)
            old = self.live.get(new.oid)
            expected.append(old is not None)
            pairs.append((old or self._ghost(new.oid), new))
            self.live[new.oid] = new
        assert self.index.update_batch(pairs) == expected
        self._logged(self._slices([new for _, new in pairs]), rejected=())
        self._committed()

    # -- epochs ----------------------------------------------------------
    @precondition(lambda self: len(self.pins) < 3)
    @rule()
    def pin(self):
        context = self.index.pin()
        epoch = context.__enter__()
        assert epoch == self.epoch
        self.pins.append((context, epoch))

    @precondition(lambda self: self.pins)
    @rule(which=st.integers(0, 2))
    def release(self, which):
        context, _ = self.pins.pop(which % len(self.pins))
        context.__exit__(None, None, None)

    @rule(which=st.integers(0, 3), range_specs=ranges, probe_specs=probes)
    def query(self, which, range_specs, probe_specs):
        """Range and kNN answers at the published epoch or a pinned one."""
        epochs = [None] + [epoch for _, epoch in self.pins]
        self._check_answers(epochs[which % len(epochs)], range_specs, probe_specs)

    # -- recovery and durability -----------------------------------------
    @rule(shard_id=st.integers(0, SHARDS - 1), range_specs=ranges, probe_specs=probes)
    def recover_shard(self, shard_id, range_specs, probe_specs):
        """Replaying the WAL tail rejects what the live shard rejected, and nothing else."""
        self.index.recover_shard(shard_id)
        event = self.index.recovery_events[-1]
        assert (event["shard_id"], event["compacted"]) == (shard_id, True)
        assert event["replayed_records"] == self.records[shard_id]
        assert event["rejected_records"] == self.rejected[shard_id]
        self.records[shard_id] = self.rejected[shard_id] = 0
        for _, epoch in [(None, None), *self.pins]:
            self._check_answers(epoch, range_specs, probe_specs)

    @rule()
    def checkpoint(self):
        self.index.checkpoint()
        self.records = [0] * SHARDS
        self.rejected = [0] * SHARDS

    @precondition(lambda self: self.root is not None)
    @rule(range_specs=ranges, probe_specs=probes)
    def reopen(self, range_specs, probe_specs):
        """Abandon the durable index (no checkpoint, no flush) and reopen its store."""
        for context, _ in self.pins:
            context.__exit__(None, None, None)
        self.pins = []
        for store in self.index.config.stores:
            store.close()  # drops the descriptors only: the buffers' dirty pages are lost
        store = DurableStore(self.root, fsync=False)
        self.index = store.open(ServeConfig(executor="serial"))
        assert store.replayed_on_open == self.records
        assert store.rejected_on_open == self.rejected
        # An epoch whose batch every shard rejected left no trace to restore.
        assert self.index.epoch <= self.epoch
        self.epoch = self.index.epoch
        self.states = {self.epoch: dict(self.live)}
        self._check_answers(None, range_specs, probe_specs)

    @invariant()
    def published_epoch_and_size(self):
        assert self.index.epoch == self.epoch
        assert len(self.index) == len(self.live)

    def teardown(self):
        for context, _ in self.pins:
            context.__exit__(None, None, None)
        self.index.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


@pytest.mark.parametrize(
    "cell",
    CELLS,
    ids=[f"{family}-{'durable' if durable else executor}" for family, executor, durable in CELLS],
)
def test_sharded_index_matches_the_model(tmp_path, cell):
    roots = (str(tmp_path / f"store-{n}") for n in itertools.count())
    machine = get_state_machine_test(
        lambda: ServeMachine(cell, partial(next, roots)), settings=MACHINE_SETTINGS
    )
    seed(CHAOS_SEED)(machine)()
