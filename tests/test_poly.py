import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctwistor.poly import (
    Jet,
    Poly,
    RationalFn,
    MAX_EXPONENT,
    ZeroDenominatorError,
    poly_from_json,
    scalar_to_str,
)


def test_poly_arithmetic_and_partials():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x * y + x * Poly.constant(2, 3)  # x^2 y + 3x
    assert p.evaluate((F(2), F(5))) == 4 * 5 + 6
    # d/dx = 2xy + 3, d/dy = x^2, expanded by hand
    assert p.partial(0).evaluate((F(2), F(5))) == 23
    assert p.partial(1).evaluate((F(2), F(5))) == 4
    assert p.jet((F(2), F(5))) == Jet(F(26), (F(23), F(4)))


def test_poly_cancellation():
    x = Poly.variable(1, 0)
    assert (x - x).is_zero()
    assert not (x * x - x).is_zero()


def test_rational_jet_quotient_rule():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    one = Poly.constant(2, 1)
    f = RationalFn(x * y, one + x * x)   # xy / (1 + x^2)
    p = (F(1, 2), F(3))
    jet = f.jet(p)
    assert jet.value == F(3, 2) / F(5, 4)
    # hand quotient rule: d/dx = y(1 - x^2)/(1 + x^2)^2, d/dy = x/(1 + x^2)
    assert jet.grad[0] == F(3) * F(3, 4) / (F(5, 4) ** 2)
    assert jet.grad[1] == F(1, 2) / F(5, 4)


def test_rational_vanishing_denominator():
    x = Poly.variable(1, 0)
    f = RationalFn(Poly.constant(1, 1), x)
    with pytest.raises(ZeroDenominatorError):
        f.evaluate((F(0),))
    with pytest.raises(ZeroDenominatorError):
        f.jet((F(0),))


def test_jet_scalar_rules():
    point = (F(2), F(3))
    x = Jet.variable(0, point)
    y = Jet.variable(1, point)
    p = x * x * y  # value 12, gradient (12, 4)
    assert p.value == 12
    assert p.grad == (F(12), F(4))
    q = p / (x + Jet.constant(1, 2))
    assert q.value == 4
    # quotient rule at (2, 3): d/dx [x^2 y / (x+1)] = (2xy(x+1) - x^2 y)/(x+1)^2
    assert q.grad[0] == (F(36) - F(12)) / 9
    assert q.grad[1] == F(4, 3)
    with pytest.raises(ZeroDivisionError):
        p / Jet.constant(0, 2)


small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rationals,
                        max_size=4).map(lambda terms: Poly.from_dict(2, terms))


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.tuples(small_rationals, small_rationals))
def test_jet_matches_polynomial_and_rational_arithmetic(p, q, point):
    # the jet of a sum, product or quotient is the sum, product or quotient of jets
    assert (p + q).jet(point) == p.jet(point) + q.jet(point)
    assert (p * q).jet(point) == p.jet(point) * q.jet(point)
    if q.evaluate(point) != 0:
        assert RationalFn(p, q).jet(point) == p.jet(point) / q.jet(point)
    # q shifted to vanish at the point: a zero denominator, not a value
    vanishing = q - Poly.constant(2, q.evaluate(point))
    if not vanishing.is_zero():
        with pytest.raises(ZeroDenominatorError):
            RationalFn(p, vanishing).jet(point)


@st.composite
def _poly_and_point(draw):
    """A polynomial in 1..5 variables, exponents 0..3, coefficients with
    mixed denominators (sometimes the zero polynomial), and a point whose
    coordinates are all zero, all nonzero, about half zeros, or of distinct
    denominators with either sign."""
    nvars = draw(st.integers(1, 5))
    coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
    terms = draw(st.one_of(st.just({}), st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                                                        coeffs, max_size=5)))
    kind = draw(st.sampled_from(["zero", "nonzero", "mixed", "distinct"]))
    if kind == "distinct":
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7, 11]), min_size=nvars,
                             max_size=nvars, unique=True))
        point = tuple(F(draw(st.integers(-6, 6).filter(lambda k: k % q)) if q > 1
                        else draw(st.integers(-6, 6)), q) for q in dens)
    else:
        coords = {"zero": st.just(F(0)), "nonzero": small_rationals.filter(bool),
                  "mixed": small_rationals}[kind]
        point = tuple(draw(coords) for _ in range(nvars))
    return Poly.from_dict(nvars, terms), point


@settings(max_examples=80, deadline=None)
@given(_poly_and_point())
def test_poly_jet_matches_partial_polynomials(operands):
    # the gradient read off the monomials is that of the partial polynomials
    p, point = operands
    jet = p.jet(point)
    assert jet.value == p.evaluate(point)
    assert jet.grad == tuple(p.partial(i).evaluate(point) for i in range(p.nvars))
    assert all(type(x) is F for x in (jet.value,) + jet.grad)


@pytest.mark.parametrize("p, point", [
    (Poly.from_dict(3, {}), (F(1, 2), F(-2, 3), F(5, 7))),
    (Poly.from_dict(0, {}), ()),
    (Poly.constant(2, F(-3, 4)), (F(1, 3), F(2, 5))),
    # x_1 appears in no term, and its coordinate has the largest denominator
    (Poly.from_dict(3, {(2, 0, 1): F(1, 6), (0, 0, 3): F(-2)}), (F(3, 2), F(1, 11), F(-1, 3))),
    (Poly.from_dict(2, {(2, 1): F(1, 3), (0, 1): F(5, 2)}), (3, -2)),
    (Poly.from_dict(2, {(1, 0): F(1)}), (0, 7)),
], ids=["zero", "zero-no-variables", "constant", "absent-variable", "integer-point",
        "integer-zero-coordinate"])
def test_poly_jet_edge_cases(p, point):
    jet = p.jet(point)
    assert jet.value == p.evaluate([F(x) for x in point])
    assert jet.grad == tuple(p.partial(i).evaluate([F(x) for x in point])
                             for i in range(p.nvars))
    assert jet.den > 0 and math.gcd(*jet.num, jet.den) == 1
    assert jet == Jet(jet.value, jet.grad)
    if p.is_zero():
        assert jet.is_zero() and jet.num == (0,) * (p.nvars + 1) and jet.den == 1


@settings(max_examples=80, deadline=None)
@given(_poly_and_point())
def test_rational_jet_over_one_is_the_quotient_rule(operands):
    # over the constant denominator 1 the jet is the numerator's, as the quotient rule gives
    p, point = operands
    one = Poly.constant(p.nvars, 1)
    jet = RationalFn.from_poly(p).jet(point)
    assert jet == p.jet(point) / one.jet(point)
    assert all(type(x) is F for x in (jet.value,) + jet.grad)
    # other constant denominators still go through the quotient rule
    half = Jet.constant(F(1, 2), p.nvars)
    assert RationalFn(p, Poly.constant(p.nvars, 2)).jet(point) == p.jet(point) * half


# ---------------------------------------------------------------------------
# the integer jet against the Fraction formulae


def _ref_add(a, b):
    return a[0] + b[0], tuple(x + y for x, y in zip(a[1], b[1]))


def _ref_mul(a, b):
    return a[0] * b[0], tuple(a[0] * y + x * b[0] for x, y in zip(a[1], b[1]))


def _ref_div(a, b):
    w2 = b[0] * b[0]
    return a[0] / b[0], tuple((x * b[0] - a[0] * y) / w2 for x, y in zip(a[1], b[1]))


def _ref_scale(c, a):
    return c * a[0], tuple(c * x for x in a[1])


def _rationals_of(jet):
    """(value, grad) of a jet, checked to be exactly Fractions, with the
    jet checked to be in its canonical form."""
    assert type(jet.value) is F and all(type(x) is F for x in jet.grad)
    assert jet.den > 0 and math.gcd(*jet.num, jet.den) == 1
    assert jet == Jet(jet.value, jet.grad) and hash(jet) == hash(Jet(jet.value, jet.grad))
    return jet.value, jet.grad


_jet_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _jet_operands(draw):
    """Two (value, grad) pairs with 1..4 partials and a scale factor; the
    values are as often zero or negative as positive."""
    nvars = draw(st.integers(1, 4))
    values = st.one_of(st.just(F(0)), _jet_rationals)

    def pair():
        return draw(values), tuple(draw(_jet_rationals) for _ in range(nvars))

    return pair(), pair(), draw(_jet_rationals)


@settings(max_examples=150, deadline=None)
@given(_jet_operands())
def test_jet_matches_fraction_formulae(operands):
    a, b, c = operands
    ja, jb = Jet(*a), Jet(*b)
    assert _rationals_of(ja) == a
    assert _rationals_of(ja + jb) == _ref_add(a, b)
    assert _rationals_of(ja - jb) == _ref_add(a, _ref_scale(F(-1), b))
    assert _rationals_of(-ja) == _ref_scale(F(-1), a)
    assert _rationals_of(ja * jb) == _ref_mul(a, b)
    assert _rationals_of(ja * Jet.constant(c, len(a[1]))) == _ref_scale(c, a)
    assert ja.is_zero() == (a[0] == 0 and not any(a[1]))
    if b[0] == 0:
        with pytest.raises(ZeroDenominatorError):
            ja / jb
        with pytest.raises(ZeroDenominatorError):
            ja / -jb
    else:
        # one of jb and -jb has a negative value
        assert _rationals_of(ja / jb) == _ref_div(a, b)
        assert _rationals_of(ja / -jb) == _ref_div(a, _ref_scale(F(-1), b))
        assert (ja * jb) / jb == ja


def test_jet_equality_and_hash_are_by_value():
    assert Jet(F(2, 4), (F(1),)) == Jet(F(1, 2), (F(1),))
    assert hash(Jet(F(2, 4), (F(1),))) == hash(Jet(F(1, 2), (F(1),)))
    x = Jet.variable(0, (F(2, 3), F(5)))
    # (x + x) / 2 and x reach the same rationals along different denominators
    assert (x + x) * Jet.constant(F(1, 2), 2) == x
    assert len({x, (x * x) / x, Jet(F(2, 3), (F(1), F(0)))}) == 1
    assert Jet.constant(F(-3, 6), 2) == Jet(F(-1, 2), (F(0), F(0)))


def test_jet_is_zero_needs_value_and_gradient():
    assert Jet.constant(0, 3).is_zero()
    assert not Jet(F(0), (F(0), F(1))).is_zero()
    assert not Jet.constant(F(1, 2), 2).is_zero()


def test_scalar_strings():
    assert scalar_to_str(F(3, 4)) == "3/4"
    assert scalar_to_str(F(-5)) == "-5"


def test_poly_serialization_roundtrip():
    p = Poly.from_dict(3, {(1, 0, 2): F(5, 3), (0, 0, 0): F(-2)})
    data = json.loads('[{"exponents": [1, 0, 2], "coeff": "5/3"},'
                      ' {"exponents": [0, 0, 0], "coeff": "-2"}]')
    assert poly_from_json(3, data) == p


@pytest.mark.parametrize("coeff", ["1e400", "1.5", " 1/2"])
def test_poly_from_json_rejects_coefficients_outside_the_grammar(coeff):
    # a coefficient string is [+-]digits or [+-]digits/digits and nothing
    # else, so no exponent is evaluated
    with pytest.raises(ValueError, match="a coefficient is a rational string"):
        poly_from_json(1, [{"exponents": [0], "coeff": coeff}])


@pytest.mark.parametrize("coeff, value", [("-3/4", F(-3, 4)), ("7", F(7)), ("+2", F(2)),
                                          (-5, F(-5))])
def test_poly_from_json_accepts_integers_and_fractions(coeff, value):
    assert poly_from_json(1, [{"exponents": [0], "coeff": coeff}]) == Poly.constant(1, value)


def test_poly_from_json_bounds_the_exponents():
    top = poly_from_json(2, [{"exponents": [0, MAX_EXPONENT], "coeff": "1"}])
    assert top == Poly.from_dict(2, {(0, MAX_EXPONENT): F(1)})
    with pytest.raises(ValueError, match=f"an exponent is at most {MAX_EXPONENT}"):
        poly_from_json(2, [{"exponents": [MAX_EXPONENT + 1, 0], "coeff": "1"}])
