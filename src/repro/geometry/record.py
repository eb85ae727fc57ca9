"""One declaration rule for the immutable value records.

Points, vectors, rectangles, moving objects, queries and workload events
are small frozen values that travel everywhere: into index directories,
across the process executor's pipe, into every WAL body and checkpoint
image.  :func:`value_record` declares each of them the same way:

* ``dataclass(frozen=True, slots=True)``, so an instance holds its fields
  in slots and carries no ``__dict__``;
* a positional ``__reduce__``: a record pickles (and copies) as its class
  and the tuple of its field values, so the bytes hold no field names and
  unpickling calls the constructor, re-running ``__post_init__``;
* no ``__getstate__``/``__setstate__``: the ones ``dataclass`` generates
  for frozen slotted classes pickle through Python-level calls, and
  without ``__setstate__`` a pickle that carries a state dict (the layout
  of the pre-slots records) fails instead of loading field names as
  values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import TypeVar

T = TypeVar("T", bound=type)


def value_record(cls: T) -> T:
    """Declare ``cls`` as a frozen, slotted, positionally pickled record."""
    cls = dataclass(frozen=True, slots=True)(cls)
    for name in ("__getstate__", "__setstate__"):
        if name in cls.__dict__:
            delattr(cls, name)
    names = [f.name for f in fields(cls)]
    values = operator.attrgetter(*names)
    if len(names) == 1:

        def __reduce__(self):
            return (self.__class__, (values(self),))

    else:

        def __reduce__(self):
            return (self.__class__, values(self))

    cls.__reduce__ = __reduce__
    return cls
