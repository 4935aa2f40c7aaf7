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

`CheckResult` is the outcome of one named check, and `_ok` and `_fail`
build it.  It sits here, below every layer, so that the modules holding a
suite's checks need nothing from `harness`.
"""

from operator import attrgetter


class Value:
    """Construction, equality, hashing and repr over the slots, in slot order.

    `Value(*fields)` raises TypeError unless it gets exactly one field per
    slot, so no slot is left unset.  Instances are equal only to instances
    of the same class, and compare and hash the tuple of their public
    fields, which each class reads with the one `operator.attrgetter`
    that `__init_subclass__` sets; a class has at least one public field.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        public = [name for name in cls.__slots__ if name[0] != "_"]
        # the tuple of several fields; of one, the bare value, which equals
        # another exactly when their 1-tuples do and is hashed as its 1-tuple
        cls._public_fields = attrgetter(*public)
        cls._one_field = len(public) == 1

    def __init__(self, *fields) -> None:
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__qualname__} takes {len(slots)} fields "
                            f"({', '.join(slots)}), got {len(fields)}")
        for name, value in zip(slots, fields):
            setattr(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._public_fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        fields = self._public_fields(self)
        return hash((fields,) if self._one_field else fields)

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({parts})"


class CheckResult(Value):
    """One check's outcome.  `name` is the CHECKS key, stamped by
    `run_scenario`; `status` is "pass", "fail" or "finding"."""

    __slots__ = ("name", "status", "residual", "witness")

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "finding")


def _ok(witness: dict | None = None, finding: bool = False) -> CheckResult:
    return CheckResult("", "finding" if finding else "pass", "0", witness)


def _fail(residual, witness: dict | None = None) -> CheckResult:
    """A failed check; the residual is rendered with `str`, which writes an
    exact rational as p/q, or as p when it is an integer."""
    return CheckResult("", "fail", str(residual), witness)
