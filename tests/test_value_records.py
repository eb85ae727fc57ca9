"""The value records: slotted, frozen, and pickled by position.

Every record declared through ``repro.geometry.record.value_record``
travels as a pickle: over the process executor's pipe, in every WAL body
and in every checkpoint image.  For each record type this holds that

* an instance has no ``__dict__`` (its fields live in slots);
* pickle protocols 2-5, ``copy.copy`` and ``copy.deepcopy`` give back an
  equal value of the same type;
* the pickle is the class and its positional field values: no field name,
  no state dict and no ``BUILD`` step;
* unpickling calls the constructor, so ``__post_init__`` validation runs
  again on what a pipe or a log hands back;
* a pickle in the pre-slots layout (``NEWOBJ`` and a ``BUILD`` of a field
  dict, what a manifest-7 store holds) fails loudly instead of loading.
"""

from __future__ import annotations

import copy
import pickle
import pickletools
from dataclasses import fields

import pytest

from repro.geometry.moving_rect import MovingRect
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.vector import Vector
from repro.objects.knn import KNNQuery
from repro.objects.moving_object import MovingObject
from repro.objects.queries import CircularRange, RangeQuery, RectangularRange
from repro.workload.events import QueryEvent, UpdateEvent

_OLD = MovingObject(7, Point(1.5, -2.0), Vector(0.5, 3.0), reference_time=2.5)
_NEW = MovingObject(7, Point(3.0, 4.0), Vector(-1.0, 0.25), reference_time=4.0)
_QUERY = RangeQuery(
    CircularRange(Point(10.0, 20.0), 5.0), 1.0, 2.0, velocity=Vector(1.0, 1.0), issue_time=0.5
)

RECORDS = [
    Point(1.5, -2.0),
    Vector(0.5, 3.0),
    Rect(0.0, 1.0, 2.0, 3.0),
    MovingRect(Rect(0.0, 1.0, 2.0, 3.0), -1.0, -2.0, 1.0, 2.0, reference_time=3.0),
    _OLD,
    CircularRange(Point(10.0, 20.0), 5.0),
    RectangularRange(Rect(0.0, 1.0, 2.0, 3.0)),
    _QUERY,
    KNNQuery(Point(4.0, 5.0), 3, 4.0, issue_time=1.0),
    UpdateEvent(4.0, _OLD, _NEW),
    QueryEvent(1.0, _QUERY),
]
FIELD_NAMES = {f.name for record in RECORDS for f in fields(record)}

#: Per record type with ``__post_init__`` checks: field values it refuses.
INVALID_ARGS = {
    Rect: (2.0, 0.0, 1.0, 1.0),
    CircularRange: (Point(0.0, 0.0), -1.0),
    RangeQuery: (CircularRange(Point(0.0, 0.0), 1.0), 2.0, 1.0, None, 0.0),
    UpdateEvent: (4.0, _OLD, MovingObject(8, _NEW.position, _NEW.velocity, 4.0)),
}


def _id(record):
    return type(record).__name__


class _Forged:
    """Pickles as ``cls(*args)``: a pipe or log body carrying ``args``."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return (self.cls, self.args)


def _v7_pickle(record):
    """``record`` in the pre-slots layout: ``NEWOBJ``, then ``BUILD`` of a field dict."""
    cls = type(record)
    state = pickle.dumps({f.name: getattr(record, f.name) for f in fields(record)}, protocol=2)
    header = f"c{cls.__module__}\n{cls.__qualname__}\n".encode()
    # PROTO 2, GLOBAL cls, EMPTY_TUPLE, NEWOBJ, <the dict>, BUILD, STOP.
    return b"\x80\x02" + header + b")\x81" + state[2:-1] + b"b."


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_a_record_has_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == tuple(f.name for f in fields(record))


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_pickle_and_copy_give_back_an_equal_record(record):
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(2, 6)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for again in copies:
        assert type(again) is type(record)
        assert again == record


@pytest.mark.parametrize("record", RECORDS, ids=_id)
@pytest.mark.parametrize("protocol", range(2, 6))
def test_a_record_pickles_by_position(record, protocol):
    ops = list(pickletools.genops(pickle.dumps(record, protocol)))
    strings = {arg for op, arg, _ in ops if isinstance(arg, str)}
    assert not strings & FIELD_NAMES
    names = {op.name for op, _, _ in ops}
    assert not names & {"BUILD", "EMPTY_DICT", "NEWOBJ", "NEWOBJ_EX"}
    assert "REDUCE" in names


@pytest.mark.parametrize("cls", list(INVALID_ARGS), ids=lambda cls: cls.__name__)
def test_unpickling_runs_the_constructor_checks(cls):
    with pytest.raises(ValueError):
        cls(*INVALID_ARGS[cls])
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(_Forged(cls, INVALID_ARGS[cls])))


@pytest.mark.parametrize("record", RECORDS, ids=_id)
def test_a_pickle_of_the_pre_slots_layout_is_refused(record):
    data = _v7_pickle(record)
    assert "BUILD" in {op.name for op, _, _ in pickletools.genops(data)}
    with pytest.raises(AttributeError):
        pickle.loads(data)
