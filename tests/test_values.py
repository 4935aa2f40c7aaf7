"""The package's value classes: plain `__slots__` classes, built by
`Value.__init__` unless they check an invariant or fill a derived slot,
equal and hashed by their fields, with derived slots kept out of equality,
hashing and the repr."""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gctwistor
from gctwistor.gclinalg import DimensionMismatchError, Endo, GElement, InvariantError
from gctwistor.linalg import ProjectionReport
from gctwistor.oracle import OracleSample
from gctwistor.poly import Poly, RationalFn, chart_point, random_chart_point
from gctwistor.reference import MuForm
from gctwistor.structures import random_orthonormal_basis, sample_fibre_structure
from gctwistor.twistor import (
    CurvatureValue,
    MuSystemReport,
    TwistorPoint,
    TwistorTangent,
    connection,
)
from gctwistor.value import CheckResult, Value


def test_import_loads_neither_dataclasses_nor_inspect():
    # The package __init__ imports nothing, so import every module by name.
    modules = sorted(f"gctwistor.{info.name}" for info in pkgutil.iter_modules(gctwistor.__path__)
                     if info.name != "__main__")
    assert {"gctwistor.cli", "gctwistor.harness"} <= set(modules)
    code = (f"import sys; before = set(sys.modules); import {', '.join(modules)}; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    package_root = os.path.dirname(os.path.dirname(gctwistor.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# equality and hashing by value


def _q(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _vec(rng, k):
    return tuple(_q(rng) for _ in range(k))


def _mat(rng, r, c):
    return tuple(_vec(rng, c) for _ in range(r))


def _poly(rng):
    return Poly.from_dict(2, {(rng.randint(0, 2), rng.randint(0, 2)): _q(rng) for _ in range(2)})


def _structure(rng):
    return sample_fibre_structure(1, rng)


# one factory per compared or hashed type; the same seed makes equal,
# distinct objects
FACTORIES = {
    "Poly": _poly,
    "RationalFn": lambda rng: RationalFn(_poly(rng), Poly.constant(2, rng.randint(1, 3))),
    "GElement": lambda rng: GElement(2, _vec(rng, 2), _vec(rng, 2)),
    "Endo": lambda rng: Endo(4, _mat(rng, 4, 4)),
    "ChartPoint": lambda rng: chart_point(_vec(rng, 2)),
    "TwistorTangent": lambda rng: TwistorTangent(GElement(2, _vec(rng, 2), _vec(rng, 2)),
                                                 Endo(4, _mat(rng, 4, 4)),
                                                 Endo(4, _mat(rng, 4, 4))),
    "Connection": lambda rng: connection(1, {(0, 0, 1): _poly(rng)}),
    "CurvatureValue": lambda rng: CurvatureValue(1, _mat(rng, 2, 2)),
    "GCStructure": _structure,
    "TwistorPoint": lambda rng: TwistorPoint(random_chart_point(2, rng), _structure(rng)),
    "OrthonormalBasis": lambda rng: random_orthonormal_basis(1, rng),
    "MuForm": lambda rng: MuForm(_mat(rng, 2, 2)),
    "MuSystemReport": lambda rng: MuSystemReport(*(rng.randint(0, 2) for _ in range(4))),
    "ProjectionReport": lambda rng: ProjectionReport(_q(rng), rng.random() < 0.5),
    "OracleSample": lambda rng: OracleSample(_vec(rng, 2), _vec(rng, 2), rng.choice((1, -1))),
    "CheckResult": lambda rng: CheckResult("x", rng.choice(("pass", "fail")),
                                           str(rng.randint(0, 1)), None),
}


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__ if name[0] != "_")


def _twin(value):
    """An instance of another value class with the same slots and fields."""
    cls = type(value)
    twin = object.__new__(type("Twin" + cls.__name__, (Value,), {"__slots__": cls.__slots__}))
    for name in cls.__slots__:
        setattr(twin, name, getattr(value, name))
    return twin


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6), other=st.integers(0, 10 ** 6))
def test_equal_and_hashed_by_fields(kind, seed, other):
    make = FACTORIES[kind]
    a, b = make(random.Random(seed)), make(random.Random(seed))
    assert a is not b and a == b and not a != b and hash(a) == hash(b) == hash(_fields(a))
    c = make(random.Random(other))
    assert (a == c) == (_fields(a) == _fields(c)) and (a != c) == (not a == c)
    twin = _twin(a)
    assert a != twin and twin != a
    assert repr(a) == repr(b) and repr(a).startswith(f"{kind}(")
    assert all(f"{name}=" in repr(a) for name in type(a).__slots__ if name[0] != "_")


def test_caches_take_no_part_in_equality_or_repr():
    tangent = FACTORIES["TwistorTangent"](random.Random(0))
    twin = FACTORIES["TwistorTangent"](random.Random(0))
    assert tangent.is_zero() is False and tangent._zero is False and twin._zero is None
    assert tangent == twin and hash(tangent) == hash(twin)
    assert "_zero" not in repr(tangent) and repr(tangent) == repr(twin)


def test_repr_names_the_fields():
    assert repr(chart_point([F(1, 2)])) == "ChartPoint(coords=(Fraction(1, 2),))"
    assert repr(MuSystemReport(2, 16, 16, 0)) == \
        "MuSystemReport(n=2, unknowns=16, rank=16, kernel_dim=0)"


# ---------------------------------------------------------------------------
# construction


def _value_classes():
    """Every Value subclass defined in the gctwistor package."""
    for info in pkgutil.iter_modules(gctwistor.__path__):
        if info.name != "__main__":
            importlib.import_module(f"gctwistor.{info.name}")
    found, todo = [], [Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("gctwistor."):
                found.append(sub)
    return found


def test_generic_constructor_only_for_cache_free_records():
    # Value.__init__ assigns every slot from an argument, so a class that
    # keeps a derived (underscore) slot must fill it in its own constructor
    classes = _value_classes()
    assert len(classes) >= 25
    for cls in classes:
        if "__init__" not in vars(cls):
            assert not [s for s in cls.__slots__ if s[0] == "_"], cls.__qualname__


def test_constructors_fill_their_derived_slots():
    for make in FACTORIES.values():
        value = make(random.Random(0))
        for name in type(value).__slots__:
            getattr(value, name)  # AttributeError for a slot left unset


@pytest.mark.parametrize("fields", [(), (2, 16, 16), (2, 16, 16, 0, 0)])
def test_generic_constructor_rejects_wrong_field_count(fields):
    # a missing field never leaves a slot unset
    with pytest.raises(TypeError, match="MuSystemReport takes 4 fields"):
        MuSystemReport(*fields)


# ---------------------------------------------------------------------------
# construction-time validation not covered elsewhere


def test_non_square_endo_rejected():
    with pytest.raises(DimensionMismatchError):
        Endo(2, ((F(1), F(0)), (F(0),)))
    with pytest.raises(DimensionMismatchError):
        Endo(3, ((F(1), F(0)), (F(0), F(1))))


def test_odd_dim_v_element_rejected():
    with pytest.raises(InvariantError):
        GElement(3, (F(0),) * 3, (F(0),) * 3)
    with pytest.raises(DimensionMismatchError):
        GElement(2, (F(0),) * 2, (F(0),) * 3)


def test_rational_function_with_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.variable(2, 0), Poly.constant(2, 0))
    with pytest.raises(ValueError):
        RationalFn(Poly.variable(2, 0), Poly.constant(3, 1))
