"""``dataclass`` with shared record methods.

The stdlib compiles every method it generates from source, about
0.1 ms each, and a command creates up to 80 record classes.  This
drop-in still lets the stdlib build ``__init__`` (and, for frozen
classes, ``__setattr__`` and ``__delattr__``), then installs
``__repr__``, ``__eq__`` and ``__hash__`` as closures over the class's
fields.  They return what the stdlib's return: the same text, the same
tuple comparison (identity before equality, so a NaN field equals
itself) and the same hash values.  A method the class defines itself
is kept.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from reprlib import recursive_repr


def _values(fields):
    """A function from a record to the tuple of its ``fields``' values."""
    names = [f.name for f in fields]
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


def dataclass(cls=None, /, *, frozen=False, slots=False):
    """``dataclasses.dataclass`` with ``repr``, ``eq`` and, for frozen
    classes, ``hash`` built from the fields instead of compiled."""
    if cls is None:
        return lambda cls: dataclass(cls, frozen=frozen, slots=slots)
    cls = dataclasses.dataclass(
        cls, frozen=frozen, slots=slots, repr=False, eq=False
    )
    fields = dataclasses.fields(cls)
    shown = [f.name for f in fields if f.repr]
    compared = _values(f for f in fields if f.compare)
    hashed = _values(
        f for f in fields if (f.compare if f.hash is None else f.hash)
    )

    @recursive_repr()
    def __repr__(self):
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    body = cls.__dict__
    # Python sets __hash__ = None beside a class's own __eq__; like the
    # stdlib, only a __hash__ written in the class counts as its own
    own_hash = "__hash__" in body and (
        body["__hash__"] is not None or "__eq__" not in body
    )
    for name, method in (("__repr__", __repr__), ("__eq__", __eq__)):
        if name not in body:
            setattr(cls, name, method)
    if not own_hash:
        cls.__hash__ = __hash__ if frozen else None
    return cls
