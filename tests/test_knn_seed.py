"""The count grids that seed kNN radii: always the live objects' positions.

Every kNN probe starts at the radius where the cells around it hold
``2k`` objects (``repro.objects.knn.density_seed``).  The seed is a cost
decision only — ``tests/test_batch_equivalence.py::
test_knn_answers_ignore_the_start_radius`` holds the answers to those of
a forced tiny and a forced diagonal start — so a grid that drifts from
the live set would cost rounds and pages without failing any answer.
Here each grid is held to its definition after a seeded stream of every
kind of mutation:

* ``VPIndex``'s grid (original frame) equals the counts of its live
  slots' slab rows;
* a TPR-family tree's grid equals the counts of the reference positions
  it stores, from a model;
* the trees inside a TPR*(VP) keep no grid: the index seeds their probes;

and a checkpointed durable shard restores its grids equal.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import bulk
from repro.core.dva import DominantVelocityAxis
from repro.core.partitioned_index import make_vp_bx_tree, make_vp_tprstar_tree
from repro.core.velocity_analyzer import VelocityPartitioning
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.moving_object import MovingObject
from repro.serve.durable_store import ShardStore
from repro.tprtree.tpr_tree import TPRTree
from repro.tprtree.tprstar_tree import TPRStarTree

SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)
#: Along the x axis, along the y axis, and diagonal: an outlier once fast.
HEADINGS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]
#: One batch size below ``MIN_VECTOR_BATCH`` and one above it.
SIZES = (3, 3 * bulk.MIN_VECTOR_BATCH)
FAMILIES = ("TPR", "TPR*", "Bx(VP)", "TPR*(VP)")


def _make(family, buffer=None):
    """An empty index of ``family``; VP families partition along x and y (τ = 5)."""
    if family in ("TPR", "TPR*"):
        tree = TPRTree if family == "TPR" else TPRStarTree
        return tree(buffer=buffer, space=SPACE, max_entries=8)
    partitioning = VelocityPartitioning(
        dvas=[
            DominantVelocityAxis(axis=Vector(1.0, 0.0), tau=5.0),
            DominantVelocityAxis(axis=Vector(0.0, 1.0), tau=5.0),
        ]
    )
    build = make_vp_bx_tree if family == "Bx(VP)" else make_vp_tprstar_tree
    return build(partitioning, space=SPACE, buffer=buffer, buffer_pages=32, page_size=1024)


def _counts(density, xs, ys):
    expected = np.zeros_like(density.counts)
    np.add.at(expected, density.grid.cells_of_arrays(np.asarray(xs), np.asarray(ys)), 1)
    return expected


def _assert_grids_hold(index, live):
    """Every grid of ``index`` counts exactly its live objects' positions."""
    if isinstance(index, TPRTree):
        positions = [obj.position for obj in live.values()]
        expected = _counts(index.density, [p.x for p in positions], [p.y for p in positions])
        np.testing.assert_array_equal(index.density.counts, expected)
        return
    rows = index._rows[[record.slot for record in index._directory.values()]]
    np.testing.assert_array_equal(
        index.density.counts, _counts(index.density, rows["x"], rows["y"])
    )
    for sub in index.dva_indexes + [index.outlier_index]:
        if isinstance(sub, TPRTree):  # a TPR*(VP) tree is seeded by the index
            assert sub.density is None


def _stream(rng, index, live):
    """Mutate ``index`` through every verb; yields after each step."""
    next_oid = 1_000

    def fresh(time, count):
        nonlocal next_oid
        made = [_moving(rng, next_oid + i, time) for i in range(count)]
        next_oid += count
        return made

    for time in range(1, 4):
        for size in SIZES:
            inserted = fresh(float(time), size)
            index.insert_batch(inserted)
            live.update((obj.oid, obj) for obj in inserted)
            yield
            # Deletions with a miss and a repeat: only stored snapshots leave.
            victims = rng.sample(sorted(live), min(size, len(live)))
            doomed = [live[oid] for oid in victims]
            missing = _moving(rng, 999_999, float(time))
            flags = index.delete_batch(doomed + [missing, doomed[0]])
            assert flags == [True] * len(doomed) + [False, False]
            for oid in victims:
                del live[oid]
            yield
            # Updates that turn (migrating between VP partitions), plus upserts.
            movers = rng.sample(sorted(live), min(size, len(live)))
            pairs = [(live[oid], _moving(rng, oid, float(time))) for oid in movers]
            upserts = fresh(float(time), 2)
            pairs += [(obj, obj) for obj in upserts]
            assert index.update_batch(pairs) == [True] * len(movers) + [False, False]
            live.update((new.oid, new) for _, new in pairs)
            yield
    if not isinstance(index, TPRTree):
        # A rejected batch (a live id inserted again) changes no grid.
        before = index.density.counts.copy()
        with pytest.raises(KeyError):
            index.insert_batch(fresh(4.0, 2) + [next(iter(live.values()))])
        np.testing.assert_array_equal(index.density.counts, before)
        yield


def _moving(rng, oid, time):
    hx, hy = rng.choice(HEADINGS)
    speed = rng.uniform(10.0, 50.0)
    return MovingObject(
        oid,
        Point(rng.uniform(0.0, SPACE.width), rng.uniform(0.0, SPACE.height)),
        Vector(speed * hx, speed * hy),
        reference_time=time,
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_each_grid_counts_the_live_positions(family):
    rng = random.Random(42)
    index = _make(family)
    loaded = [_moving(rng, oid, 0.0) for oid in range(60)]
    index.bulk_load(loaded)
    live = {obj.oid: obj for obj in loaded}
    _assert_grids_hold(index, live)
    for _ in _stream(rng, index, live):
        _assert_grids_hold(index, live)
    assert int(index.density.counts.sum()) == len(live) == len(index)


@pytest.mark.parametrize("family", ["TPR*", "Bx(VP)", "TPR*(VP)"])
def test_a_checkpoint_restores_the_grids(tmp_path, family):
    rng = random.Random(7)
    store = ShardStore(str(tmp_path / "shard"), fsync=False)
    shard = store.create(lambda buffer: _make(family, buffer))
    objects = [_moving(rng, oid, 0.0) for oid in range(80)]
    shard.bulk_load(objects)
    shard.update_batch([(obj, _moving(rng, obj.oid, 1.0)) for obj in objects[:20]])
    store.checkpoint(shard, store.log)
    restored = store.restore_image()
    grid, again = shard.base.density, restored.base.density
    assert grid.grid == again.grid
    np.testing.assert_array_equal(grid.counts, again.counts)
    if family == "TPR*(VP)":
        subs = restored.base.dva_indexes + [restored.base.outlier_index]
        assert [sub.density for sub in subs] == [None] * len(subs)
    store.close()
