"""The base of the package's plain value classes.

A value class lists its fields in `__slots__`.  A record whose fields carry
no invariant writes no constructor: `Value.__init__` takes one argument
per slot, in slot order, and assigns it.  A class writes its own `__init__`
only to check an invariant its type promises (then rejecting bad input
before assigning) or to fill a slot derived from its fields.  Values are
immutable by convention: nothing assigns a field after construction.
Slots named with a leading underscore hold what is derived from the
public fields, a cache or a value computed once; they take no part in
equality, hashing or the repr, and only a class with its own constructor
has them.
"""


class Value:
    """Construction, equality, hashing and repr over the slots, in slot order.

    `Value(*fields)` raises TypeError unless it gets exactly one field per
    slot, so no slot is left unset.  Instances are equal only to instances
    of the same class, and compare and hash the tuple of their public
    fields.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__qualname__} takes {len(slots)} fields "
                            f"({', '.join(slots)}), got {len(fields)}")
        for name, value in zip(slots, fields):
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({parts})"
