"""Batch-vs-sequential equivalence of the whole index stack.

The batched execution pipeline (``update_batch`` / ``range_query_batch``
through ``BxTree``, the TPR family and ``VPIndex``) must
be an *optimization*, not a behavior change: replaying grouped batches has
to return the same query answers as per-event replay, leave the same
objects stored, and never touch more B+-tree nodes per update.

The tests replay one real workload both ways against all four standard
indexes, plus a property-style check that shuffling the order of updates
inside a batch does not change the outcome, a check over every index
family that a range batch of one takes no buffer hints, and a check that
the batch size at which the mutation helpers switch from a plain loop to
numpy changes no bit of the resulting indexes.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro import bulk
from repro.bench.harness import build_standard_indexes
from repro.bxtree import BxTree
from repro.core.partitioned_index import FAMILIES
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=500, time_duration=60.0, num_queries=15)

#: Window used to group events into batches (matches the harness default).
WINDOW = 1.0

INDEX_NAMES = ("Bx", "Bx(VP)", "TPR*", "TPR*(VP)")


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def batches(workload):
    return workload.grouped_events(window=WINDOW)


def _fresh(workload, name):
    return build_standard_indexes(workload, PARAMS, which=(name,))[name]


def _build(workload, name):
    index = _fresh(workload, name)
    index.bulk_load(workload.initial_objects)
    return index


def _replay(index, batches, mode, shuffle_seed=None):
    """Replay grouped batches; returns (per-query results, update stats)."""
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    stats = index.buffer.stats
    query_results = []
    update_io = 0
    update_nodes = 0
    for batch in batches:
        if isinstance(batch[0], UpdateEvent):
            pairs = [(event.old, event.new) for event in batch]
            if rng is not None:
                rng.shuffle(pairs)
            io_before = stats.physical.total
            nodes_before = stats.logical.reads
            if mode == "batch":
                index.update_batch(pairs)
            else:
                for old, new in pairs:
                    index.update(old, new)
            update_io += stats.physical.total - io_before
            update_nodes += stats.logical.reads - nodes_before
        else:
            queries = [event.query for event in batch]
            if mode == "batch":
                query_results.extend(index.range_query_batch(queries))
            else:
                query_results.extend(index.range_query(q) for q in queries)
    return query_results, update_io, update_nodes


def _stored_objects(index, name, workload):
    """Canonical multiset of stored objects (for content comparison)."""
    if name.endswith("(VP)"):
        # The stream only moves objects, so the live ids are the initial ones.
        oids = sorted(obj.oid for obj in workload.initial_objects)
        assert len(index) == len(oids)
        stored = [(oid, index.partition_of(oid), index.stored_object(oid)) for oid in oids]
        assert all(obj is not None for _, _, obj in stored)
        return stored
    if name.startswith("Bx"):
        return sorted(
            (key, obj.oid, repr(obj)) for key, obj in index.store.items()
        )
    return sorted(
        (oid, bound.rect.x_min, bound.rect.y_min, bound.reference_time)
        for oid, bound in index.iter_objects()
    )


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_batch_replay_matches_sequential(workload, batches, name):
    sequential = _build(workload, name)
    batched = _build(workload, name)

    seq_queries, seq_io, seq_nodes = _replay(sequential, batches, "seq")
    bat_queries, bat_io, bat_nodes = _replay(batched, batches, "batch")

    # Identical query answers, query by query (as id sets: candidate order
    # can differ when batch insertion order changes tree internals).
    assert [sorted(r) for r in seq_queries] == [sorted(r) for r in bat_queries]
    # The Bx family additionally preserves the exact answer order (key
    # order is content-determined, independent of physical leaf layout).
    if name.startswith("Bx"):
        assert seq_queries == bat_queries

    # Identical final contents.
    assert len(sequential) == len(batched)
    assert _stored_objects(sequential, name, workload) == _stored_objects(
        batched, name, workload
    )

    # Update work is never worse: the shared descents of the batch path
    # strictly reduce logical node touches for the Bx family, and the TPR
    # family's space-ordered replay stays within rounding of sequential.
    if name.startswith("Bx"):
        assert bat_nodes <= seq_nodes, (bat_nodes, seq_nodes)
    else:
        assert bat_nodes <= seq_nodes * 1.05, (bat_nodes, seq_nodes)


def _counters(stats):
    """Every I/O counter of the ledger, as one comparable tuple."""
    return (
        stats.physical.reads,
        stats.physical.writes,
        stats.logical.reads,
        stats.logical.writes,
        stats.buffer.hits,
        stats.buffer.misses,
    )


def _mutation_state(index):
    """Everything a mutation leaves behind in ``index`` and its sub-trees.

    Per Bx tree its key-store items, size, partition counts and the raw
    bytes of its velocity histogram; per TPR tree its entries in traversal
    order; for a VP index also its directory and the slab rows it names.
    """
    trees = [index]
    state = []
    if hasattr(index, "dva_indexes"):
        trees = [*index.dva_indexes, index.outlier_index]
        directory = dict(index._directory)
        slots = [record.slot for record in directory.values()]
        state += [
            directory,
            index._rows[slots].tobytes(),
            index.partition_sizes(),
            index.density.counts.tobytes(),
        ]
    for tree in trees:
        if isinstance(tree, BxTree):
            histogram = tree.histogram
            state += [
                list(tree.store.items()),
                len(tree),
                dict(tree._partition_counts),
                histogram._extrema.tobytes(),
                histogram._count.tobytes(),
            ]
        else:
            grid = None if tree.density is None else tree.density.counts.tobytes()
            state += [list(tree.iter_objects()), len(tree), grid]
    return state


@pytest.mark.parametrize("name", ("Bx", "Bx(VP)", "TPR*(VP)"))
@pytest.mark.parametrize("dataset", ("SA", "CH"))
def test_the_vector_threshold_changes_nothing(dataset, name, monkeypatch):
    """Loop and numpy arithmetic leave bit-identical indexes.

    ``MIN_VECTOR_BATCH`` only picks how the batch helpers compute keys,
    histogram cells and VP routing, never the algorithm.  Twin indexes are
    insertion-built in chunks of 1-11 objects and replay the stream window
    by window, one twin with the threshold at 0 (numpy for every batch) and
    one at 10**9 (a plain loop for every batch); after every batch their
    flags, answers, stored state (kNN count grids included) and every I/O
    counter must agree.
    """
    workload = build_workload(dataset, PARAMS)
    twins = {threshold: _fresh(workload, name) for threshold in (0, 10**9)}

    def each(call):
        results = []
        for threshold, index in twins.items():
            monkeypatch.setattr(bulk, "MIN_VECTOR_BATCH", threshold)
            results.append(call(index))
        numpy_twin, loop_twin = twins.values()
        assert results[0] == results[1]
        assert _counters(numpy_twin.buffer.stats) == _counters(loop_twin.buffer.stats)
        assert _mutation_state(numpy_twin) == _mutation_state(loop_twin)

    objects = workload.initial_objects
    start = 0
    for size in itertools.cycle(range(1, 12)):
        if start >= len(objects):
            break
        chunk = objects[start : start + size]
        each(lambda index: index.insert_batch(chunk))
        start += size
    for batch in workload.grouped_events(window=WINDOW):
        if isinstance(batch[0], UpdateEvent):
            pairs = [(event.old, event.new) for event in batch]
            each(lambda index: index.update_batch(pairs))
        else:
            queries = [event.query for event in batch]
            each(lambda index: index.range_query_batch(queries))
    current = {
        event.new.oid: event.new
        for event in workload.sorted_events()
        if isinstance(event, UpdateEvent)
    }
    leaving = [current.get(obj.oid, obj) for obj in objects[::7]]
    each(lambda index: index.delete_batch(leaving[:3]))
    each(lambda index: index.delete_batch(leaving[3:]))


@pytest.mark.parametrize("name", FAMILIES)
def test_a_range_query_takes_no_buffer_hints(workload, name):
    """A range batch of one costs what it costs under plain LRU.

    Every range query of the figures is a batch of one, and the paper counts
    its I/O under a plain LRU buffer, so a lone range query must neither pin
    pages nor advise sequential eviction.  The stream is replayed per event
    on twin indexes, one with ``batch_hints_enabled`` off, and every counter
    is compared after every event.  (Hinting a TPR batch of one would cut
    the TPR family's figure query I/O by a fifth or more.)
    """
    hinted = _build(workload, name)
    plain = _build(workload, name)
    plain.buffer.batch_hints_enabled = False
    for event in workload.sorted_events():
        if isinstance(event, UpdateEvent):
            hinted.update(event.old, event.new)
            plain.update(event.old, event.new)
        else:
            assert hinted.range_query(event.query) == plain.range_query(event.query)
        assert _counters(hinted.buffer.stats) == _counters(plain.buffer.stats)


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_batch_order_within_timestamp_is_irrelevant(workload, batches, name):
    """Shuffling update pairs inside each batch must not change the outcome."""
    reference = _build(workload, name)
    shuffled = _build(workload, name)

    ref_queries, _, _ = _replay(reference, batches, "batch")
    shuf_queries, _, _ = _replay(shuffled, batches, "batch", shuffle_seed=1234)

    assert [sorted(r) for r in ref_queries] == [sorted(r) for r in shuf_queries]
    assert len(reference) == len(shuffled)

    assert _stored_objects(reference, name, workload) == _stored_objects(
        shuffled, name, workload
    )


def test_update_io_not_worse_at_bench_density():
    """Physical update I/O of batched replay at a disk-bound scale.

    At very small scales the LRU buffer makes physical I/O noisy in both
    directions (fewer logical touches can age pages out sooner); at the
    bench-like density used here the batch path's shared descents and
    space-ordered sweeps win outright (the batched-vs-per-event speed-up
    PR 2 measured, ROADMAP § Performance).
    """
    params = WorkloadParameters(num_objects=1200, time_duration=60.0, num_queries=10)
    workload = build_workload("SA", params)
    batches = workload.grouped_events(window=WINDOW)
    for name in ("Bx", "Bx(VP)"):
        sequential = build_standard_indexes(workload, params, which=(name,))[name]
        sequential.bulk_load(workload.initial_objects)
        batched = build_standard_indexes(workload, params, which=(name,))[name]
        batched.bulk_load(workload.initial_objects)
        _, seq_io, _ = _replay(sequential, batches, "seq")
        _, bat_io, _ = _replay(batched, batches, "batch")
        assert bat_io <= seq_io, (name, bat_io, seq_io)


def _replay_holding_queries(index, batches, group):
    """Batch replay that holds the range queries and issues them ``group`` at a time.

    Returns ``(answers, update physical I/O, query physical reads)``.
    """
    stats = index.buffer.stats
    answers = []
    held = []
    update_io = 0
    query_reads = 0

    def issue(queries):
        nonlocal query_reads
        reads_before = stats.physical.reads
        answers.extend(index.range_query_batch(queries))
        query_reads += stats.physical.reads - reads_before

    for batch in batches:
        if isinstance(batch[0], UpdateEvent):
            io_before = stats.physical.total
            index.update_batch([(event.old, event.new) for event in batch])
            update_io += stats.physical.total - io_before
            continue
        held.extend(event.query for event in batch)
        while len(held) >= group:
            issue(held[:group])
            del held[:group]
    if held:
        issue(held)
    return answers, update_io, query_reads


@pytest.mark.parametrize("dataset", ("SA", "CH"))
def test_frontier_pinning_never_raises_physical_io(dataset):
    """Batch replay with the buffer's sweep hints on versus off.

    Pinning the sweep frontier is an eviction-policy improvement, not a
    semantics change: the replay must produce identical per-query answers,
    and physical I/O — updates, range queries and the total — must not
    exceed the unhinted run on the bench-density workload.  The 40 range
    queries are held and issued ten at a time, so every query sweep is a
    multi-query batch.  Sequential-eviction advice on those sweeps reads
    about twice the pages of the unhinted run (SA Bx 474 vs 228, CH Bx 406
    vs 198), which is why no Bx range sweep takes it.
    """
    params = WorkloadParameters(num_objects=1200, time_duration=60.0, num_queries=40)
    workload = build_workload(dataset, params)
    batches = workload.grouped_events(window=WINDOW)
    for name in ("Bx", "Bx(VP)"):
        pinned = build_standard_indexes(workload, params, which=(name,))[name]
        pinned.bulk_load(workload.initial_objects)
        unpinned = build_standard_indexes(workload, params, which=(name,))[name]
        unpinned.buffer.batch_hints_enabled = False
        unpinned.bulk_load(workload.initial_objects)

        pin_answers, pin_update_io, pin_reads = _replay_holding_queries(pinned, batches, 10)
        base_answers, base_update_io, base_reads = _replay_holding_queries(unpinned, batches, 10)

        assert pin_answers == base_answers, name
        assert pin_update_io <= base_update_io, (name, pin_update_io, base_update_io)
        assert pin_reads <= base_reads, (name, pin_reads, base_reads)
        pin_total = pinned.buffer.stats.physical.total
        base_total = unpinned.buffer.stats.physical.total
        assert pin_total <= base_total, (name, pin_total, base_total)
        # No pins may outlive their sweep.
        assert pinned.buffer.frontier_page_ids == frozenset()


# ----------------------------------------------------------------------
# kNN: batched expanding-range filter versus sequential probes
# ----------------------------------------------------------------------
from repro.geometry.point import Point  # noqa: E402
from repro.geometry.vector import Vector  # noqa: E402
from repro.objects import knn  # noqa: E402
from repro.objects.knn import KNNQuery  # noqa: E402
from repro.objects.moving_object import MovingObject  # noqa: E402


def _knn_probes(workload, ks=(1, 5, 10)):
    """One kNN probe per query event, cycling through several k values.

    Probes are issued at the end of the event stream (the replayed index's
    clock) and look ahead by each event's predictive offset: an index only
    answers about the present and future of its clock, since entry bounds
    do not cover past positions.
    """
    events = workload.sorted_events()
    issue_time = events[-1].time if events else 0.0
    probes = []
    for i, event in enumerate(workload.query_events):
        query = event.query
        probes.append(
            KNNQuery(
                center=query.range.center,
                k=ks[i % len(ks)],
                query_time=issue_time + query.predictive_time,
                issue_time=issue_time,
            )
        )
    return probes


def _replayed_index(workload, batches, name):
    index = _build(workload, name)
    _replay(index, batches, "batch")
    return index


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_knn_batch_matches_sequential(workload, batches, name):
    """Batched kNN answers — ids, distances and tie order — equal sequential.

    Two identically replayed indexes answer the same probes, one probe at a
    time versus one batch; the batch path's shared traversals must also
    never touch more nodes.  (Physical I/O is asserted at bench density in
    :func:`test_knn_io_not_worse_at_bench_density` — at this module's tiny
    scale LRU eviction noise can swing physical reads either way.)
    """
    sequential = _replayed_index(workload, batches, name)
    batched = _replayed_index(workload, batches, name)
    probes = _knn_probes(workload)

    stats = sequential.buffer.stats
    nodes_before = stats.logical.reads
    seq = [
        sequential.knn_query(
            p.center, p.k, p.query_time, issue_time=p.issue_time, space=PARAMS.space
        )
        for p in probes
    ]
    seq_nodes = stats.logical.reads - nodes_before

    stats = batched.buffer.stats
    nodes_before = stats.logical.reads
    bat = batched.knn_query_batch(probes, space=PARAMS.space)
    bat_nodes = stats.logical.reads - nodes_before

    assert bat == seq, name
    for answer, probe in zip(bat, probes):
        assert len(answer) <= probe.k
        distances = [d for _, d in answer]
        assert distances == sorted(distances)
    assert bat_nodes <= seq_nodes, (name, bat_nodes, seq_nodes)


def test_knn_io_not_worse_at_bench_density():
    """Batched kNN physical I/O versus sequential probes at bench density.

    At a disk-bound scale the shared traversals and shared filter rounds
    mean the batch path reads no more pages than per-probe replay, for all
    four standard indexes.
    """
    params = WorkloadParameters(num_objects=1200, time_duration=60.0, num_queries=10)
    wl = build_workload("SA", params)
    probes = _knn_probes(wl, ks=(5, 10))
    for name in INDEX_NAMES:
        sequential = build_standard_indexes(wl, params, which=(name,))[name]
        sequential.bulk_load(wl.initial_objects)
        batched = build_standard_indexes(wl, params, which=(name,))[name]
        batched.bulk_load(wl.initial_objects)

        stats = sequential.buffer.stats
        io_before = stats.physical.total
        seq = [
            sequential.knn_query(
                p.center, p.k, p.query_time, issue_time=p.issue_time, space=params.space
            )
            for p in probes
        ]
        seq_io = stats.physical.total - io_before

        stats = batched.buffer.stats
        io_before = stats.physical.total
        bat = batched.knn_query_batch(probes, space=params.space)
        bat_io = stats.physical.total - io_before

        assert bat == seq, name
        assert bat_io <= seq_io, (name, bat_io, seq_io)


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_knn_batch_is_shuffle_invariant(workload, batches, name):
    """Probe order within a kNN batch must not change any probe's answer."""
    index = _replayed_index(workload, batches, name)
    probes = _knn_probes(workload)
    reference = index.knn_query_batch(probes, space=PARAMS.space)
    rng = random.Random(99)
    perm = list(range(len(probes)))
    rng.shuffle(perm)
    shuffled_answers = index.knn_query_batch(
        [probes[i] for i in perm], space=PARAMS.space
    )
    unshuffled = [None] * len(probes)
    for position, original in enumerate(perm):
        unshuffled[original] = shuffled_answers[position]
    assert unshuffled == reference, name


@pytest.mark.parametrize(
    "start",
    [1e-6, math.hypot(PARAMS.space.width, PARAMS.space.height)],
    ids=["tiny", "diagonal"],
)
@pytest.mark.parametrize(
    "name, key_store",
    [(name, "btree") for name in INDEX_NAMES] + [("Bx", "flat"), ("Bx(VP)", "flat")],
)
def test_knn_answers_ignore_the_start_radius(
    workload, batches, name, key_store, start, monkeypatch
):
    """The radius schedule is a cost decision only: answers are invariant.

    A start radius far below the data density takes the batch through
    many doubled and capped rounds; one at the space diagonal answers in
    a single round.  Both rank exactly what the count-grid seed ranks, on
    either Bx key store.
    """
    index = build_standard_indexes(workload, PARAMS, which=(name,), key_store=key_store)[name]
    index.bulk_load(workload.initial_objects)
    _replay(index, batches, "batch")
    probes = _knn_probes(workload)
    reference = index.knn_query_batch(probes, space=PARAMS.space)
    monkeypatch.setattr(knn, "density_seed", lambda density, center, target: start)
    assert index.knn_query_batch(probes, space=PARAMS.space) == reference, name


@pytest.mark.parametrize("name", INDEX_NAMES)
def test_knn_ties_break_by_object_id(workload, name):
    """Exactly equidistant neighbours are ranked by ascending object id."""
    index = _build(workload, name)
    center = Point(50_000.0, 50_000.0)
    offsets = [(700.0, 0.0), (-700.0, 0.0), (0.0, 700.0), (0.0, -700.0)]
    tied = [
        MovingObject(
            oid=1_000_000 + i,
            position=Point(center.x + dx, center.y + dy),
            velocity=Vector(0.0, 0.0),
            reference_time=0.0,
        )
        for i, (dx, dy) in enumerate(offsets)
    ]
    for obj in tied:
        index.insert(obj)
    probe = KNNQuery(center=center, k=3, query_time=5.0)
    (batched,) = index.knn_query_batch([probe], space=PARAMS.space)
    sequential = index.knn_query(probe.center, probe.k, probe.query_time, space=PARAMS.space)
    assert batched == sequential
    assert [oid for oid, _ in batched] == [1_000_000, 1_000_001, 1_000_002]
    assert len({round(d, 6) for _, d in batched}) == 1


def test_knn_batch_matches_brute_force_after_replay(workload, batches):
    """Replayed-index batched kNN equals brute force over the live objects.

    The VP index keeps the original (unrotated) snapshot of every live
    object in its directory, which makes an exact ground truth available
    after an arbitrary update replay.
    """
    index = _replayed_index(workload, batches, "TPR*(VP)")
    probes = _knn_probes(workload)
    answers = index.knn_query_batch(probes, space=PARAMS.space)
    live = [index.stored_object(obj.oid) for obj in workload.initial_objects]
    assert len(live) == len(index) and None not in live
    for probe, answer in zip(probes, answers):
        ranked = sorted(
            (obj.position_at(probe.query_time).distance_to(probe.center), obj.oid)
            for obj in live
        )
        assert [oid for oid, _ in answer] == [oid for _, oid in ranked[: probe.k]]


@pytest.mark.parametrize("buffer_pages", [10, 50])
def test_knn_hints_never_raise_physical_io(buffer_pages):
    """The TPR shared traversal's buffer hints must never cost physical I/O.

    Covered at the paper's 50-page buffer and at a 10-page pressure
    configuration: unlike a Bx range sweep (whose re-scanned *leaves* are
    what the sequential hint would evict, so it takes none), the TPR
    traversal pins its interior path, so the hint's MRU victims are
    completed leaves while plain LRU would evict the interiors every next
    round still descends through.
    """
    params = WorkloadParameters(
        num_objects=1200, time_duration=60.0, num_queries=10, buffer_pages=buffer_pages
    )
    wl = build_workload("SA", params)
    probes = _knn_probes(wl, ks=(5, 10, 20))
    for name in ("TPR*", "TPR*(VP)"):
        hinted = build_standard_indexes(wl, params, which=(name,))[name]
        hinted.bulk_load(wl.initial_objects)
        unhinted = build_standard_indexes(wl, params, which=(name,))[name]
        unhinted.buffer.batch_hints_enabled = False
        unhinted.bulk_load(wl.initial_objects)

        hinted_answers = hinted.knn_query_batch(probes, space=params.space)
        unhinted_answers = unhinted.knn_query_batch(probes, space=params.space)

        assert hinted_answers == unhinted_answers, name
        hint_io = hinted.buffer.stats.physical.total
        base_io = unhinted.buffer.stats.physical.total
        assert hint_io <= base_io, (name, hint_io, base_io)
        # No pins may outlive the traversal.
        assert hinted.buffer.frontier_page_ids == frozenset()
