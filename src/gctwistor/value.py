"""The base of the package's plain value classes.

A value class lists its fields in `__slots__` and assigns each one in a
hand-written `__init__`, which also checks the invariants the type
promises.  It is immutable by convention: nothing assigns a field after
`__init__`.  Slots named with a leading underscore hold caches; they take
no part in equality, hashing or the repr.
"""


class Value:
    """Equality, hashing and repr over the public slots, in slot order.

    Instances are equal only to instances of the same class.  Types built
    in hot loops define `__eq__` and `__hash__` themselves; the results
    are the same.
    """

    __slots__ = ()

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
