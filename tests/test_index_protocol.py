"""One index protocol, one mutation record, one construction path.

Four contracts that everything above the index families leans on:

* every index — the four families, the VP variants, and the serving
  layer's ``VersionedShard``, process-shard handle and ``ShardedIndex`` —
  satisfies :class:`~repro.core.index_manager.MovingIndex` (the batch
  verbs), including a ``bulk_load`` that takes the objects and nothing
  else;
* the five scalar verbs are :class:`~repro.objects.knn.ScalarVerbs`'
  batches of one: no serving class spells one out, ``knn_query`` is defined
  nowhere else, and they answer like the batch verbs on every index;
* a ``ShardedIndex`` mutation is exactly one ``(op, payload, epoch)`` WAL
  entry per routed shard, ``op`` one of the four batch ``LOG_OPS``, and
  :func:`~repro.serve.shard_log.apply_record` replaying a shard's entries
  into a fresh shard reproduces that shard's answers — on every executor;
* the configuration matrix is a table (:data:`MATRIX`): every cell of
  family x key store x executor x durable is either built through
  ``make_index`` / ``ShardedIndex.build`` and answers like its unsharded
  twin — before and after a shard recovery — or is refused by
  ``serve/config.py::check_constructible`` with nothing on disk and no
  worker spawned; with a supervisor query timeout, every serial cell is
  refused and every process cell is what it was.  ``docs/serving.md``
  carries the same table, rendered by :func:`matrix_table`.
"""

from __future__ import annotations

import ast
import itertools
import multiprocessing
import os
import pathlib
from functools import partial

import pytest

import repro
from repro import VelocityAnalyzer, make_index
from repro.core.index_manager import MovingIndex, SubIndex
from repro.objects.knn import KNNQuery, ScalarVerbs
from repro.objects.moving_object import MovingObject
from repro.serve import LOG_OPS, ServeConfig, ShardedIndex, SupervisorConfig, VersionedShard
from repro.serve.executor import _ProcessShard
from repro.serve.shard_log import apply_record
from repro.workload.events import UpdateEvent
from repro.workload.generator import build_workload
from repro.workload.parameters import WorkloadParameters

PARAMS = WorkloadParameters(num_objects=300, time_duration=30.0, num_queries=10)

SCALAR_VERBS = ("insert", "delete", "update", "range_query", "knn_query")

MEMBERS = (
    "buffer",
    "__len__",
    *LOG_OPS,
    "range_query_batch",
    "knn_query_batch",
    *SCALAR_VERBS,
)

FAMILIES = ("Bx", "Bx(VP)", "TPR", "TPR*", "TPR*(VP)")
KEY_STORES = (None, "btree", "flat")  # of the Bx families; the TPR family has none
EXECUTORS = ("serial", "process")


def _refusal(family, key_store, executor, durable):
    """Why ``check_constructible`` refuses a cell (``None``: the cell is served)."""
    if not durable:
        return None
    if executor == "process":
        return "in-process executor"
    if family.endswith("(VP)"):  # built from workload data, so passed as a callable
        return "named family"
    if key_store == "flat":
        return "paged 'btree' key store"
    return None


#: ``(family, key store, executor, durable) -> refusal`` for every cell.
MATRIX = {
    cell: _refusal(*cell)
    for family in FAMILIES
    for cell in itertools.product(
        (family,), KEY_STORES if family.startswith("Bx") else (None,), EXECUTORS, (False, True)
    )
}


def matrix_table():
    """The constructible-cell table of ``docs/serving.md``, one row per family x key store."""
    columns = list(itertools.product((False, True), EXECUTORS))
    lines = [
        "| family | key store | "
        + " | ".join(f"{'durable' if d else 'memory'} {e}" for d, e in columns)
        + " |",
        "|---|---|" + "---|" * len(columns),
    ]
    for family, key_store in dict.fromkeys(cell[:2] for cell in MATRIX):
        cells = [MATRIX[family, key_store, e, d] or "served" for d, e in columns]
        store = "-" if not family.startswith("Bx") else f"`{key_store or 'None'}`"
        lines.append(f"| `{family}` | {store} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def workload():
    return build_workload("SA", PARAMS)


@pytest.fixture(scope="module")
def partitioning(workload):
    return VelocityAnalyzer().analyze(workload.velocity_sample())


def _recipe(family, partitioning, key_store=None):
    """``make_index`` bound to the module's Table-1 setting (no instance yet)."""
    return partial(
        make_index, family, partitioning=partitioning, key_store=key_store, **PARAMS.index_kwargs()
    )


def _build_sharded(family, shards, executor, durable_dir=None, key_store=None):
    return ShardedIndex.build(
        family,
        shards=shards,
        executor=executor,
        durable_dir=durable_dir,
        key_store=key_store,
        **PARAMS.index_kwargs(),
    )


def _family(name):
    def make(partitioning):
        return _recipe(name, partitioning)(), None

    return make


def _versioned(partitioning):
    return VersionedShard(_recipe("Bx", partitioning)()), None


def _process_handle(partitioning):
    owner = _build_sharded("TPR*", 1, "process")
    return owner.shards[0], owner


def _sharded(partitioning):
    index = _build_sharded("TPR*", 2, "serial")
    return index, index


#: name -> factory returning ``(empty index, what to close afterwards)``.
INDEXES = {
    **{family: _family(family) for family in FAMILIES},
    "VersionedShard": _versioned,
    "process handle": _process_handle,
    "ShardedIndex": _sharded,
}


@pytest.mark.parametrize("name", list(INDEXES))
def test_every_index_satisfies_the_protocol(workload, partitioning, name):
    index, owner = INDEXES[name](partitioning)
    try:
        assert [member for member in MEMBERS if not hasattr(index, member)] == []
        assert isinstance(index, MovingIndex)
        if name in ("Bx", "TPR", "TPR*"):
            assert isinstance(index, SubIndex)
        objects = workload.initial_objects
        with pytest.raises(TypeError):
            index.bulk_load(objects, strategy="velocity_str")
        assert len(index) == 0
        index.bulk_load(objects)
        assert len(index) == len(objects)
        if isinstance(index, ShardedIndex):
            for sid in range(index.num_shards):
                ((op, payload, _),) = index.shard_log(sid).entries  # the TypeError logged nothing
                assert op == "bulk_load" and isinstance(payload, tuple)
                assert all(isinstance(obj, MovingObject) for obj in payload)
        for event in workload.query_events:
            expected = sorted(obj.oid for obj in objects if event.query.matches(obj))
            answer = index.range_query(event.query)
            assert sorted(answer) == expected
            assert index.range_query_batch([event.query]) == [answer]
        probe = KNNQuery(center=objects[0].position, k=5, query_time=2.0, issue_time=1.0)
        nearest = index.knn_query(
            probe.center, probe.k, probe.query_time, issue_time=1.0, space=PARAMS.space
        )
        assert len(nearest) == 5
        assert [nearest] == index.knn_query_batch([probe], space=PARAMS.space)
        # The scalar mutations: what each returns, hit and miss.
        old = objects[0]
        new = old.with_update(old.position_at(1.0), old.velocity, 1.0)
        ghost = MovingObject(len(objects) + 7, old.position, old.velocity, 1.0)
        assert index.update(old, new) is True
        assert index.update(ghost, ghost) is False  # an upsert: it is stored now
        extra = MovingObject(ghost.oid + 1, old.position, old.velocity, 1.0)
        assert index.insert(extra) is None
        assert len(index) == len(objects) + 2
        assert index.delete(new) is True
        assert index.delete(new) is False
        assert len(index) == len(objects) + 1
        # update_batch: one bool per pair, in input order, True iff its old
        # was stored — mixed hits and misses, below and above
        # repro.bulk.MIN_VECTOR_BATCH (3 and 6 pairs, 6 and 12 Bx
        # snapshots), and a batch repeating an id (applied pair by pair:
        # each pair sees the ones before it).
        live = {obj.oid: obj for obj in (*objects[1:], ghost, extra)}
        spare = itertools.count(extra.oid + 1)

        def moved(obj, t):
            return obj, obj.with_update(obj.position_at(t), obj.velocity, t)

        def miss(t):
            return moved(MovingObject(next(spare), old.position, old.velocity, t), t)

        hits = [live[obj.oid] for obj in objects[1:7]]
        repeated = moved(hits[5], 4.0)
        unseen = miss(4.0)
        for pairs in (
            [moved(hits[0], 2.0), miss(2.0), moved(hits[1], 2.0)],
            [miss(3.0), moved(hits[2], 3.0), miss(3.0), moved(hits[3], 3.0)]
            + [moved(hits[4], 3.0), miss(3.0)],
            [repeated, moved(repeated[1], 4.5), unseen, moved(unseen[1], 4.5)],
        ):
            expected = []
            for pair_old, pair_new in pairs:
                expected.append(pair_old.oid in live)
                live[pair_old.oid] = pair_new
            flags = index.update_batch(pairs)
            assert type(flags) is list and {type(flag) for flag in flags} == {bool}
            assert flags == expected
        assert len(index) == len(live)
    finally:
        if owner is not None:
            owner.close()


def _cell_id(cell):
    family, key_store, executor, durable = cell
    return f"{family}-{key_store}-{executor}-{'durable' if durable else 'memory'}"


def _serve_or_refuse(workload, partitioning, tmp_path, cell, refusal, supervisor=None):
    """Build ``cell``: refused with ``refusal`` up front, or served like its twin."""
    family, key_store, executor, durable = cell
    root = str(tmp_path / "store") if durable else None
    recipe = _recipe(family, partitioning, key_store)

    def build():
        config = ServeConfig(supervisor=supervisor)
        if family.endswith("(VP)"):  # the analyzed workload rides in on a callable
            config = config.merged(name=family, space=PARAMS.space)
            return ShardedIndex.build(recipe, 2, executor, root, config)
        return ShardedIndex.build(
            family, 2, executor, root, config, key_store=key_store, **PARAMS.index_kwargs()
        )

    if refusal is not None:
        with pytest.raises(ValueError, match=refusal) as raised:
            build()
        frame = raised.traceback[-1]
        assert (frame.frame.f_globals["__name__"], frame.name) == (
            "repro.serve.config",
            "check_constructible",
        )
        assert root is None or not os.path.exists(root)
        assert multiprocessing.active_children() == []
        return
    queries = [event.query for event in workload.query_events]
    probes = [
        KNNQuery(center=query.range.center, k=5, query_time=query.end_time) for query in queries
    ]
    twin = recipe()
    twin.bulk_load(workload.initial_objects)
    with build() as index:
        assert (index.name, index.num_shards, index.executor.kind) == (family, 2, executor)
        assert not durable or os.path.exists(os.path.join(root, "MANIFEST.json"))
        index.bulk_load(workload.initial_objects)
        for recover in (False, True):
            if recover:  # from the durable image or the in-memory baseline
                index.recover_shard(0)
            assert len(index) == len(twin)
            assert index.range_query_batch(queries) == [
                sorted(answer) for answer in twin.range_query_batch(queries)
            ]
            assert index.knn_query_batch(probes, space=PARAMS.space) == (
                twin.knn_query_batch(probes, space=PARAMS.space)
            )


@pytest.mark.parametrize("cell", list(MATRIX), ids=_cell_id)
def test_every_cell_of_the_matrix_is_served_or_refused_up_front(
    workload, partitioning, tmp_path, cell
):
    _serve_or_refuse(workload, partitioning, tmp_path, cell, MATRIX[cell])


@pytest.mark.parametrize("cell", list(MATRIX), ids=_cell_id)
def test_a_query_timeout_is_served_on_the_process_executor_and_refused_elsewhere(
    workload, partitioning, tmp_path, cell
):
    # Only a worker process can be stopped waiting for, so the timeout is
    # refused on every serial cell (before the cell's own refusal), and a
    # process cell is served or refused exactly as without one.  The
    # budget is generous: a served cell must answer in full, not degrade.
    refusal = MATRIX[cell]
    if cell[2] != "process":
        refusal = "query timeout needs the process executor"
    supervisor = SupervisorConfig(query_timeout_s=30.0)
    _serve_or_refuse(workload, partitioning, tmp_path, cell, refusal, supervisor)


@pytest.mark.parametrize("durable", (False, True), ids=("memory", "durable"))
@pytest.mark.parametrize(
    "recipe, owner",
    [
        ({"family": "quad"}, "make_index"),
        ({"family": "Bx(VP)"}, "make_index"),  # a VP name without its partitioning
        ({"family": "TPR*", "key_store": "btree"}, "make_index"),  # no key store to name
        ({"key_store": "lsm"}, "make_key_store"),
        ({"executor": "fibers"}, "make_executor"),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(value.values()),
)
def test_an_unknown_name_is_refused_by_the_function_that_owns_its_registry(
    tmp_path, recipe, owner, durable
):
    root = str(tmp_path / "store") if durable else None
    if durable and "lsm" in recipe.values():
        owner = "check_constructible"  # anything but the paged store is refused there first
    with pytest.raises(ValueError) as raised:
        ShardedIndex.build(**{"family": "Bx", "shards": 2, "durable_dir": root, **recipe})
    assert raised.traceback[-1].name == owner
    assert root is None or not os.path.exists(root)
    assert multiprocessing.active_children() == []


def test_the_docs_carry_the_matrix_table():
    docs = pathlib.Path(__file__).resolve().parents[1] / "docs" / "serving.md"
    assert matrix_table() in docs.read_text(encoding="utf-8")
    assert len(MATRIX) == 36 and sum(refusal is None for refusal in MATRIX.values()) == 22


def _mutation_script(workload):
    """Seven calls as ``(verb, arguments, oids they route by, logged op)`` rows."""
    objects = workload.initial_objects
    loaded, spare = objects[:200], objects[200:]
    moves = {}
    for event in workload.sorted_events():
        if isinstance(event, UpdateEvent):  # each object's first move
            moves.setdefault(event.old.oid, (event.old, event.new))
    pairs = [moves[obj.oid] for obj in loaded if obj.oid in moves][:40]
    untouched = [obj for obj in loaded if obj.oid not in moves]
    rows = [
        ("bulk_load", (loaded,), loaded, "bulk_load"),
        ("insert", (spare[0],), spare[:1], "insert_batch"),
        ("insert_batch", (spare[1:30],), spare[1:30], "insert_batch"),
        ("update", pairs[0], [pairs[0][0]], "update_batch"),
        ("update_batch", (pairs[1:],), [old for old, _ in pairs[1:]], "update_batch"),
        ("delete", (untouched[0],), untouched[:1], "delete_batch"),
        ("delete_batch", (untouched[1:20],), untouched[1:20], "delete_batch"),
    ]
    assert sorted({op for _, _, _, op in rows}) == sorted(LOG_OPS)  # all four, nothing else
    return rows


@pytest.mark.parametrize("executor", EXECUTORS)
def test_each_mutation_is_one_record_per_routed_shard_and_replays(workload, executor):
    index = _build_sharded("Bx", 3, executor)
    try:
        for verb, arguments, routed_by, op in _mutation_script(workload):
            before = [len(index.shard_log(sid)) for sid in range(index.num_shards)]
            getattr(index, verb)(*arguments)
            routed = {index.shard_of(obj.oid) for obj in routed_by}
            for sid in range(index.num_shards):
                entries = index.shard_log(sid).entries[before[sid] :]
                if sid not in routed:
                    assert entries == (), (verb, sid)
                    continue
                assert len(entries) == 1, (verb, sid)
                assert (entries[0][0], entries[0][2]) == (op, index.epoch), (verb, sid)
                # The shard's slice of the batch: for a scalar verb, a tuple of one.
                mine = [obj for obj in routed_by if index.shard_of(obj.oid) == sid]
                assert isinstance(entries[0][1], tuple) and len(entries[0][1]) == len(mine)

        queries = [event.query for event in workload.query_events]
        probes = [
            KNNQuery(center=query.range.center, k=5, query_time=query.end_time)
            for query in queries
        ]
        for sid in range(index.num_shards):
            fresh = _recipe("Bx", None)()
            for op, payload, _ in index.shard_log(sid).entries:
                apply_record(fresh, op, payload)
            live = index.shards[sid]
            assert len(fresh) == len(live)
            assert fresh.range_query_batch(queries) == live.range_query_batch(queries)
            assert fresh.knn_query_batch(probes, space=PARAMS.space) == (
                live.knn_query_batch(probes, space=PARAMS.space)
            )
    finally:
        index.close()


def test_scalar_verbs_are_defined_once():
    """No serving class spells out a scalar verb; ``knn_query`` lives on the mixin alone."""
    root = pathlib.Path(repro.__file__).parent
    defined = [
        (path.relative_to(root).as_posix(), node.name, item.name)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in SCALAR_VERBS
    ]
    assert [row for row in defined if row[2] == "knn_query"] == [
        ("objects/knn.py", "ScalarVerbs", "knn_query")
    ]
    assert [row for row in defined if row[0].startswith("serve/")] == []
    # Inherited, not delegated: VersionedShard's __getattr__ would hand an
    # unknown ``insert`` to the bare index and skip the undo log.
    for cls in (VersionedShard, _ProcessShard, ShardedIndex):
        for verb in SCALAR_VERBS:
            assert getattr(cls, verb) is getattr(ScalarVerbs, verb), (cls.__name__, verb)
