"""Immutable records: named tuples whose every construction is checked."""

from collections import namedtuple


def record(typename: str, field_names: str) -> type:
    """A named-tuple base for a record class that checks its fields.

    The subclass sets ``__slots__ = ()`` and checks in ``__new__``.  A plain
    named tuple's ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``; here it calls the subclass, so a copy made by
    ``_replace`` is checked like any other construction.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
