"""The public ``ShardedIndex`` surface against a brute-force model (Hypothesis).

One :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a sharded
index through arbitrary interleavings of the four mutations (empty ones
included), epoch pins, strict and partial queries, shard recoveries,
checkpoints, faults and — on the durable cells — abandon-and-reopen, and
checks every answer, flag and recovery count against a model that is
nothing but a dict of objects per epoch: range answers by
:meth:`RangeQuery.matches` over the dict, kNN answers by ranking the whole
dict through the kernel the indexes use
(:func:`repro.objects.knn._rank_distances`), so ids *and* float distances
must be bit-identical.

The write outcomes are what the model pins down hardest.  A shard's slice
of a batch is applied or rejected whole (a ``VPIndex`` refuses an id it
already holds), every routed shard runs its slice whatever the executor,
and a rejected record stays in the shard's WAL: each recovery and each
reopen replays it as the same rejection and counts it
(``rejected_records`` / ``rejected_on_open``) — the model keeps the
same per-shard tally.

Fault episodes (``docs/robustness.md``) each end with the shard recovered
and its breaker closed, so they compose with every other rule (and every
example opens with a pin, a delete and an update miss under it, and one
episode of each fault rule its cell serves, whatever rules swarm testing
switches off):

* a transient read fault is retried after exactly one backoff — the next
  draw of the shard's seeded jitter schedule, which the model replays;
* an outage (a killed injector, reads that always fail, or a SIGKILLed
  worker) makes strict queries raise :class:`ShardFailedError`, while
  partial ones answer exactly the model restricted to the other shards'
  objects — until the breaker opens and the shard is skipped;
* a write fault under a mutation is recovered from the WAL, never
  blind-retried, so the batch lands once.

Cells: every served ``MATRIX`` cell of ``tests/test_index_protocol.py``
with pages to fault — the five families on the serial and process
executors, and durable Bx, TPR and TPR* (``ShardedIndex.build``) and
Bx(VP) (``DurableStore.create``) — at a shard count drawn per example
from :data:`SHARD_COUNTS`.  The flat key store is left out: it keeps no
pages for a fault to reach (``tests/test_backend_invariance.py`` pins it
to the B+-tree).  The Hypothesis seed is ``CHAOS_SEED`` (environment; CI
runs the three published values), so a failing seed fails identically on
any machine.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import tempfile
import signal
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, event, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    get_state_machine_test,
    initialize,
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
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    SHARD_FAILED,
    SHARD_OK,
    SHARD_SKIPPED,
    DurableStore,
    RetryPolicy,
    ServeConfig,
    ShardedIndex,
    ShardFailedError,
    SupervisorConfig,
    shard_of,
)
from repro.storage import FaultProfile, PageReadError, ShardDownError, fault_wrap

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SPACE = Rect(0.0, 0.0, 1000.0, 1000.0)
SHARD_COUNTS = (1, 2, 3, 5)
BUFFER_PAGES = 8
PAGE_SIZE = 512
#: Ids the machine draws from: small, so hits, misses and duplicates are common.
UNIVERSE = 48
LOADED = 20
#: The supervisor's retry policy (the default); a failing read is tried this often.
RETRY = RetryPolicy()

#: No shrinking: a failing program is at most ``stateful_step_count`` steps
#: and is printed whole, while shrinking one rebuilds an index per attempt
#: (a seeded bug took Hypothesis's five-minute shrink budget and 1.5 GB).
MACHINE_SETTINGS = settings(
    stateful_step_count=8,
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
    max_size=2,
)
probes = st.lists(
    st.tuples(coords, coords, st.integers(1, 8), st.sampled_from((0.0, 1.0, 4.0))),
    min_size=1,
    max_size=2,
)
#: A range spec every object matches: a check at a pinned epoch covers every object with it,
#: and a query of a shard that holds one must read a page.
EVERYTHING = (0.0, 0.0, 1000.0, 1000.0, 0.0, 0.0)

#: The shard an episode faults (an index into the candidates), and the queries it checks.
TARGET = {"which": st.integers(0, 4), "range_specs": ranges, "probe_specs": probes}
#: How the episode heals: an update batch routed to the shard, or ``recover_shard``.
HEAL = {"heal": st.booleans(), "batch": batches, "step": steps}
#: Arguments of the fault rules, by name; each example also opens with one episode of each.
FAULT_RULES = {
    "transient_read_fault": TARGET,
    "outage": {**TARGET, **HEAL, "dead": st.booleans(), "trip": st.booleans()},
    "write_fault_mutation": {**TARGET, "batch": batches, "step": steps},
    "sigkill_worker": {**TARGET, **HEAL, "trip": st.booleans()},
}


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
    """A ``ShardedIndex`` of one cell, checked against the model."""

    def __init__(self, family, executor, durable=False):
        super().__init__()
        self.family, self.executor = family, executor
        self.root = tempfile.mkdtemp(prefix="serve-machine-") if durable else None
        self.index = None
        self.pins = []
        # Backoff delays the fake sleep was asked for, and the ones the model expects.
        self.slept = []
        self.delays = []
        self.supervisor = SupervisorConfig(
            failure_threshold=2, reset_timeout_s=3600.0, sleep=self.slept.append
        )

    @initialize(shards=st.sampled_from(SHARD_COUNTS), data=st.data())
    def build(self, shards, data):
        self.shards = shards
        self.owned = [[] for _ in range(shards)]
        for oid in range(UNIVERSE):
            self.owned[shard_of(oid, shards)].append(oid)
        self.index = self._build(ServeConfig(executor=self.executor, supervisor=self.supervisor))
        # The model: live objects, their state at every epoch a pin may
        # still read, and per shard the WAL records (and rejected ones)
        # since the shard's log was last compacted, and the jitter draws
        # of its retry schedule.
        self.now = 0.0
        self.live = {}
        self.epoch = 0
        self.states = {}
        self.records = [0] * shards
        self.rejected = [0] * shards
        self.rngs = [random.Random(s) for s in range(shards)]
        self.ghosts = itertools.count(10 * UNIVERSE)
        loaded = [self._object(motion) for motion in self._initial()]
        self.index.bulk_load(loaded)
        self._logged(self._slices(loaded), rejected=())
        self.live.update((obj.oid, obj) for obj in loaded)
        self._committed()
        self.pin()  # held until a ``release``: the mutations below run under a pin
        # A stored object deleted and a never-held id upserted under the pin,
        # then the pinned cut checked whole before any fault or recovery: every
        # example reads a deleted object's pre-image and an update miss at a pin.
        self.delete_batch([data.draw(st.sampled_from(sorted(self.live)))])
        self.update_batch(data.draw(batches), data.draw(steps), unseen=True, scalar=False)
        self._check_every_epoch(data.draw(ranges), data.draw(probes))
        # Swarm testing switches a random subset of rules off in each
        # example, so every example opens with one episode of each fault
        # rule its cell serves: each fires on every cell under every seed,
        # and the rules repeat them later amid pins and WAL history.
        self.empty_batches()
        if self.executor == "process":
            opening = ("sigkill_worker",)
        else:
            opening = ("transient_read_fault", "outage", "write_fault_mutation")
        for name in opening:
            getattr(self, name)(**data.draw(st.fixed_dictionaries(FAULT_RULES[name])))

    def _build(self, config):
        recipe = partial(
            make_index,
            self.family,
            partitioning=PARTITIONING,
            space=SPACE,
            page_size=PAGE_SIZE,
            buffer_pages=BUFFER_PAGES,
        )
        if self.root is None:
            return ShardedIndex.build(recipe, self.shards, config=config, space=SPACE)
        if self.family.endswith("(VP)"):  # a VP recipe needs its partitioning: a factory
            return DurableStore(self.root, fsync=False).create(
                lambda buffer: recipe(buffer=buffer),
                num_shards=self.shards,
                space=SPACE,
                buffer_pages=BUFFER_PAGES,
                config=config,
            )
        return ShardedIndex.build(
            self.family,
            self.shards,
            durable_dir=self.root,
            config=config,
            space=SPACE,
            buffer_pages=BUFFER_PAGES,
            page_size=PAGE_SIZE,
        )

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

    def _slices(self, objects):
        slices = {}
        for obj in objects:
            slices.setdefault(shard_of(obj.oid, self.shards), []).append(obj)
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

    def _queries(self, range_specs, probe_specs):
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
        return queries, knn

    @staticmethod
    def _expected(state, queries, knn):
        return (
            [_brute_range(state, query) for query in queries],
            [_brute_knn(state, probe) for probe in knn],
        )

    def _check_answers(self, epoch, range_specs, probe_specs, partial=False):
        if epoch is not None:  # a pinned cut is checked whole
            range_specs = [EVERYTHING, *range_specs]
        queries, knn = self._queries(range_specs, probe_specs)
        at = self.epoch if epoch is None else epoch
        answers = (
            self.index.range_query_batch(queries, epoch=epoch, partial=partial),
            self.index.knn_query_batch(knn, space=SPACE, epoch=epoch, partial=partial),
        )
        assert answers == self._expected(self.states[at], queries, knn)
        if partial:  # a complete degraded answer is the strict one
            for answer in answers:
                assert (answer.complete, answer.epoch) == (True, at)
                assert [status.state for status in answer.statuses] == [SHARD_OK] * self.shards

    def _check_every_epoch(self, range_specs, probe_specs):
        """Both kinds at the published epoch; the ranges at each pinned one (``query`` does kNN)."""
        self._check_answers(None, range_specs, probe_specs)
        for _, epoch in self.pins:
            self._check_answers(epoch, range_specs, [])

    def _victim(self, which):
        """A shard that holds objects, so querying it reads pages."""
        loaded = sorted({shard_of(oid, self.shards) for oid in self.live})
        return loaded[which % len(loaded)]

    def _routed_to(self, shard_id, batch):
        """``batch`` re-addressed to ids ``shard_id`` owns."""
        owned = self.owned[shard_id]
        return [(owned[oid % len(owned)], *motion) for oid, *motion in batch]

    def _backoffs(self, shard_id, count):
        """The next ``count`` delays of the shard's seeded retry schedule."""
        rng = self.rngs[shard_id]
        self.delays.extend(RETRY.backoff_delay(attempt, rng) for attempt in range(count))

    def _recovered(self, shard_id, before):
        """Exactly one recovery since ``before`` events: of ``shard_id``, at the model's counts."""
        [recovery] = self.index.recovery_events[before:]
        assert (recovery["shard_id"], recovery["compacted"]) == (shard_id, True)
        assert recovery["replayed_records"] == self.records[shard_id]
        assert recovery["rejected_records"] == self.rejected[shard_id]
        self.records[shard_id] = self.rejected[shard_id] = 0

    def _heal(self, shard_id, heal, batch, step):
        """End a fault episode: recover the shard, through a routed batch or ``recover_shard``."""
        before = len(self.index.recovery_events)
        if heal:  # the WAL already holds the batch, so the recovery applies it
            self.update_batch(self._routed_to(shard_id, batch), step, unseen=False, scalar=False)
        else:
            self.index.recover_shard(shard_id)
        self._recovered(shard_id, before)

    def _degraded(self, shard_id, answer, expected, state, attempts):
        """A partial answer without ``shard_id``: the model restricted to the other shards."""
        assert answer.results == expected
        assert (answer.failed_shards, answer.complete, answer.epoch) == (
            [shard_id],
            False,
            self.epoch,
        )
        status = answer.statuses[shard_id]
        assert (status.state, status.attempts) == (state, attempts)

    def _outage(self, shard_id, cause, trip, range_specs, probe_specs):
        """Strict and partial queries while every call to ``shard_id`` fails with ``cause``."""
        queries, knn = self._queries([EVERYTHING, *range_specs], probe_specs)
        healthy = {
            oid: obj
            for oid, obj in self.states[self.epoch].items()
            if shard_of(oid, self.shards) != shard_id
        }
        ranges, nearest = self._expected(healthy, queries, knn)
        attempts = RETRY.max_attempts if cause is PageReadError else 1
        self._backoffs(shard_id, attempts - 1)
        with pytest.raises(ShardFailedError) as failed:
            self.index.range_query_batch(queries)
        assert (failed.value.shard_id, type(failed.value.cause)) == (shard_id, cause)
        if trip:  # a second failed call opens the breaker: then the shard is skipped
            self._backoffs(shard_id, attempts - 1)
            answer = self.index.range_query_batch(queries, partial=True)
            self._degraded(shard_id, answer, ranges, SHARD_FAILED, attempts)
            assert self.index.breaker_states()[shard_id] == BREAKER_OPEN
            answer = self.index.knn_query_batch(knn, space=SPACE, partial=True)
            self._degraded(shard_id, answer, nearest, SHARD_SKIPPED, 0)
            with pytest.raises(ShardFailedError) as failed:  # strict: a skipped shard fails
                self.index.knn_query_batch(knn, space=SPACE)
            assert failed.value.shard_id == shard_id

    # -- the four mutations ----------------------------------------------
    @rule(batch=batches, step=steps)
    def insert_batch(self, batch, step):
        """Fresh ids are stored; a shard whose slice repeats a stored id rejects it whole."""
        if not self.family.endswith("(VP)"):
            # Only a VPIndex refuses a stored id; a tree family would store a
            # second entry, so its batches insert fresh, distinct ids.
            batch = [m for m in dict((m[0], m) for m in batch).values() if m[0] not in self.live]
            if not batch:
                return
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
        if self.family in ("TPR", "TPR*"):
            # A TPR tree deletes a batch in space order, by id under the
            # snapshot's position: a repeated id's two flags can swap.
            oids = list(dict.fromkeys(oids))
        objects, expected = [], []
        for oid in oids:
            objects.append(self.live.get(oid) or self._ghost(oid))
            expected.append(self.live.pop(oid, None) is not None)
        assert self.index.delete_batch(objects) == expected
        self._logged(self._slices(objects), rejected=())
        self._committed()

    @rule(batch=batches, step=steps, unseen=st.booleans(), scalar=st.booleans())
    def update_batch(self, batch, step, unseen, scalar):
        """Per pair, whether its old was stored: a miss upserts, a repeat sees earlier pairs."""
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
        if scalar and len(pairs) == 1:  # the scalar verb is a batch of one
            assert [self.index.update(*pairs[0])] == expected
        else:
            assert self.index.update_batch(pairs) == expected
        self._logged(self._slices([new for _, new in pairs]), rejected=())
        self._committed()

    @rule()
    def empty_batches(self):
        """A mutation of nothing publishes no epoch and logs no record (the invariant checks)."""
        event("empty_batches")
        self.index.insert_batch([])
        assert self.index.delete_batch([]) == []
        assert self.index.update_batch([]) == []
        self.index.bulk_load([])

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

    @rule(which=st.integers(0, 3), range_specs=ranges, probe_specs=probes, partial=st.booleans())
    def query(self, which, range_specs, probe_specs, partial):
        """Range and kNN answers at the published epoch or a pinned one, strict or partial."""
        epochs = [None] + [epoch for _, epoch in self.pins]
        self._check_answers(epochs[which % len(epochs)], range_specs, probe_specs, partial)

    # -- recovery and durability -----------------------------------------
    @rule(shard_id=st.integers(0, max(SHARD_COUNTS) - 1), range_specs=ranges, probe_specs=probes)
    def recover_shard(self, shard_id, range_specs, probe_specs):
        """Replaying the WAL tail rejects what the live shard rejected, and nothing else."""
        self._heal(shard_id % self.shards, False, None, None)
        self._check_every_epoch(range_specs, probe_specs)

    @rule()
    def checkpoint(self):
        self.index.checkpoint()
        self.records = [0] * self.shards
        self.rejected = [0] * self.shards

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
        self.index = store.open(ServeConfig(executor="serial", supervisor=self.supervisor))
        assert store.replayed_on_open == self.records
        assert store.rejected_on_open == self.rejected
        # An epoch whose batch every shard rejected left no trace to restore.
        assert self.index.epoch <= self.epoch
        self.epoch = self.index.epoch
        self.states = {self.epoch: dict(self.live)}
        self.rngs = [random.Random(s) for s in range(self.shards)]  # schedules start over
        self._check_answers(None, range_specs, probe_specs)

    # -- faults (each episode ends with the shard recovered) ---------------
    @precondition(lambda self: self.executor == "serial" and self.live)
    @rule(**FAULT_RULES["transient_read_fault"])
    def transient_read_fault(self, which, range_specs, probe_specs):
        """One failed read is retried after one backoff: the next draw of the shard's schedule."""
        event("transient_read_fault")
        shard_id = self._victim(which)
        buffer = self.index.shards[shard_id].buffer
        injector = fault_wrap(buffer, FaultProfile(fail_reads_at=frozenset({0})))
        buffer.clear()  # cold: the query must read
        self._backoffs(shard_id, 1)
        self._check_answers(None, [EVERYTHING, *range_specs], probe_specs)
        assert injector.counters.read_errors == 1
        self._heal(shard_id, False, None, None)

    @precondition(lambda self: self.executor == "serial" and self.live)
    @rule(**FAULT_RULES["outage"])
    def outage(self, which, range_specs, probe_specs, heal, batch, step, dead, trip):
        """A killed disk, or one whose every read fails after the retries."""
        event("outage")
        shard_id = self._victim(which)
        buffer = self.index.shards[shard_id].buffer
        injector = fault_wrap(buffer, None if dead else FaultProfile(read_error_rate=1.0))
        buffer.clear()  # cold: every query must read
        if dead:
            injector.kill()
        cause = ShardDownError if dead else PageReadError
        self._outage(shard_id, cause, trip, range_specs, probe_specs)
        self._heal(shard_id, heal, batch, step)
        self._check_every_epoch(range_specs, probe_specs)

    @precondition(lambda self: self.executor == "serial")
    @rule(**FAULT_RULES["write_fault_mutation"])
    def write_fault_mutation(self, which, range_specs, probe_specs, batch, step):
        """Every write of one shard fails: its slice is recovered from the WAL and lands once."""
        event("write_fault_mutation")
        shard_id = which % self.shards
        buffer = self.index.shards[shard_id].buffer
        # A cold three-frame pool (the recovery's fresh shard gets its own pool
        # back) makes the batch evict, so a dirty page's write-back fails under it.
        buffer.clear()
        buffer.capacity = 3
        fault_wrap(buffer, FaultProfile(write_error_rate=1.0))
        before = len(self.index.recovery_events)
        self.update_batch(self._routed_to(shard_id, batch), step, unseen=False, scalar=False)
        if len(self.index.recovery_events) == before:  # nothing was written back
            event("write_fault_mutation: no write-back")
            self.index.recover_shard(shard_id)
        else:
            event("write_fault_mutation: recovered by the batch")
        self._recovered(shard_id, before)
        self._check_every_epoch(range_specs, probe_specs)

    @precondition(lambda self: self.executor == "process")
    @rule(**FAULT_RULES["sigkill_worker"])
    def sigkill_worker(self, which, range_specs, probe_specs, heal, batch, step, trip):
        """A SIGKILLed worker is an outage; its recovery respawns it."""
        event("sigkill_worker")
        shard_id = which % self.shards
        executor = self.index.executor
        os.kill(executor.worker_pid(shard_id), signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while executor.worker_alive(shard_id):
            assert time.monotonic() < deadline, "the SIGKILLed worker is still alive"
            time.sleep(0.001)
        self._outage(shard_id, ShardDownError, trip, range_specs, probe_specs)
        self._heal(shard_id, heal, batch, step)
        self._check_every_epoch(range_specs, probe_specs)
        assert executor.worker_alive(shard_id)

    @invariant()
    def published_epoch_size_logs_and_health(self):
        if self.index is None:  # before ``build``
            return
        assert self.index.epoch == self.epoch
        assert len(self.index) == len(self.live)
        assert [len(self.index.shard_log(s)) for s in range(self.shards)] == self.records
        assert self.index.breaker_states() == [BREAKER_CLOSED] * self.shards
        assert self.slept == self.delays
        # The aggregate counters read through the live (possibly recovered) shards.
        assert self.index.buffer.stats.physical.reads == sum(
            stats.physical.reads for stats in self.index.shard_stats()
        )

    def teardown(self):
        for context, _ in self.pins:
            context.__exit__(None, None, None)
        if self.index is not None:
            self.index.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def _cell(family, executor, durable=False):
    """The machine on one cell, as a Hypothesis test (statistics list its events).

    A Bx cell costs two to four TPR ones (a query decomposes into curve
    windows per partition), so it runs three examples to their four: 50 per
    seed over the 14 cells.
    """
    examples = 3 if family.startswith("Bx") else 4
    test = get_state_machine_test(
        partial(ServeMachine, family, executor, durable),
        settings=settings(MACHINE_SETTINGS, max_examples=examples),
    )
    return seed(CHAOS_SEED)(test)


test_bx_serial = _cell("Bx", "serial")
test_bx_process = _cell("Bx", "process")
test_bx_vp_serial = _cell("Bx(VP)", "serial")
test_bx_vp_process = _cell("Bx(VP)", "process")
test_tpr_serial = _cell("TPR", "serial")
test_tpr_process = _cell("TPR", "process")
test_tpr_star_serial = _cell("TPR*", "serial")
test_tpr_star_process = _cell("TPR*", "process")
test_tpr_star_vp_serial = _cell("TPR*(VP)", "serial")
test_tpr_star_vp_process = _cell("TPR*(VP)", "process")
test_bx_durable = _cell("Bx", "serial", durable=True)
test_bx_vp_durable = _cell("Bx(VP)", "serial", durable=True)
test_tpr_durable = _cell("TPR", "serial", durable=True)
test_tpr_star_durable = _cell("TPR*", "serial", durable=True)
