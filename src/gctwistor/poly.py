"""Multivariate polynomials, rational functions and forward-mode jets
over exact rationals.

Polynomials and rational functions are the closed-form coefficients of
every section in the package.  Each carrier evaluates to a `Jet`: a value
plus a full gradient, which is all any bracket formula downstream
consumes.  `Jet` is the package's one forward-mode scalar; every product,
quotient and chain rule of a derivative goes through its arithmetic.
A section's 1-jet is a tuple of `Jet`s and a structure field's a matrix
of them; `jmat_mul` is the one product of jet matrices, and a field
applied to a section is that product with a one-column matrix.  A
`ChartPoint` holds the coordinates that jets are evaluated at.

A `Jet` takes and returns `Fraction`s, as `exactmat` does, and computes
in Python ints inside: it stores integer numerators over one positive
denominator in lowest terms, and each result of `+ - * /`, `neg` and
`scale` is normalised by one gcd.  `Poly.jet` works in integers over a
common denominator of its coefficients and the point, and builds the
`Jet` directly.

Rational functions are kept as unreduced numerator/denominator pairs
and offer `from_poly`, `+` (the skew check of a two-form field), `*` and
`jet`, plus `evaluate`, which no check runs but the benchmark's tracer
wraps.  Evaluation guards against vanishing denominators, without a gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

from .exactmat import F0, F1, _scaled, fr, vec
from .value import Value

Monomial = tuple[int, ...]


class ChartPoint(Value):
    __slots__ = ("coords",)

    @property
    def dim(self) -> int:
        return len(self.coords)


def chart_point(coords: Iterable) -> ChartPoint:
    return ChartPoint(vec(coords))


class ZeroDenominatorError(ZeroDivisionError):
    """A rational coefficient was evaluated where its denominator vanishes."""


class Jet:
    """A value together with its gradient in the chart variables.

    Stored as integer numerators, the value's then the gradient's, over
    one positive denominator, in lowest terms: gcd(*num, den) == 1.  That
    form is unique, so equality and hashing compare values.  `value` and
    `grad` read the rationals back as `Fraction`s.
    """

    __slots__ = ("num", "den")

    def __init__(self, value, grad: Sequence):
        ints, self.den = _scaled((value, *grad))
        self.num = tuple(ints)

    @staticmethod
    def _lowest(num: Sequence[int], den: int) -> "Jet":
        """The jet num / den for den > 0, divided by one gcd."""
        out = object.__new__(Jet)
        g = gcd(*num, den)
        if g > 1:
            out.num, out.den = tuple(x // g for x in num), den // g
        else:
            out.num, out.den = tuple(num), den
        return out

    @staticmethod
    def constant(c, nvars: int) -> "Jet":
        return Jet._lowest((c.numerator,) + (0,) * nvars, c.denominator)

    @staticmethod
    def variable(i: int, point: Sequence[Fraction]) -> "Jet":
        x = point[i]
        q = x.denominator
        return Jet._lowest((x.numerator,) + tuple(q if k == i else 0 for k in range(len(point))), q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    @property
    def grad(self) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(x, d) for x in self.num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Jet(value={self.value!r}, grad={self.grad!r})"

    def __add__(self, other: "Jet") -> "Jet":
        da, db = self.den, other.den
        if da == db:
            return Jet._lowest([a + b for a, b in zip(self.num, other.num)], da)
        return Jet._lowest([a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __neg__(self) -> "Jet":
        return Jet._lowest([-a for a in self.num], self.den)

    def __mul__(self, other: "Jet") -> "Jet":
        a0, b0 = self.num[0], other.num[0]
        return Jet._lowest([a0 * b0] + [a0 * b + a * b0
                                        for a, b in zip(self.num[1:], other.num[1:])],
                           self.den * other.den)

    def __truediv__(self, other: "Jet") -> "Jet":
        """(a / da) / (b / db) = a0 b0 db / (da b0^2), and each partial is
        (a_i b0 - a0 b_i) db / (da b0^2): the denominator is positive."""
        a0, b0, db = self.num[0], other.num[0], other.den
        if b0 == 0:
            raise ZeroDenominatorError("jet division by a vanishing value")
        return Jet._lowest([a0 * b0 * db] + [(a * b0 - a0 * b) * db
                                             for a, b in zip(self.num[1:], other.num[1:])],
                           self.den * b0 * b0)

    def scale(self, c) -> "Jet":
        p, q = c.numerator, c.denominator
        return Jet._lowest([p * a for a in self.num], self.den * q)

    def is_zero(self) -> bool:
        """True for the zero jet: zero value and an all-zero gradient."""
        return not any(self.num)


JetMat = Sequence[Sequence[Jet]]


def jmat_mul(a: JetMat, b: JetMat) -> list[list[Jet]]:
    """a b, accumulated row by row over the nonzero jets of a and b."""
    nvars = len(a[0][0].num) - 1
    sparse_b = [[(c, y) for c, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for row in a:
        acc = [Jet.constant(0, nvars)] * len(b[0])
        for x, nonzero in zip(row, sparse_b):
            if not x.is_zero():
                for c, y in nonzero:
                    acc[c] = acc[c] + x * y
        out.append(acc)
    return out


def _canonical(nvars: int, terms: Mapping[Monomial, Fraction]) -> tuple[tuple[Monomial, Fraction], ...]:
    cleaned = {}
    for exps, coeff in terms.items():
        if len(exps) != nvars:
            raise ValueError("monomial arity does not match the variable count")
        if coeff != 0:
            key = tuple(int(e) for e in exps)
            cleaned[key] = cleaned.get(key, F0) + coeff
    return tuple(sorted((k, c) for k, c in cleaned.items() if c != 0))


class Poly(Value):
    """A multivariate polynomial as a sorted tuple of (exponents, coefficient)."""

    __slots__ = ("nvars", "terms")

    @staticmethod
    def from_dict(nvars: int, terms: Mapping[Monomial, Fraction]) -> "Poly":
        return Poly(nvars, _canonical(nvars, {k: fr(v) for k, v in terms.items()}))

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly.from_dict(nvars, {(0,) * nvars: fr(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly.from_dict(nvars, {exps: F1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            acc[exps] = acc.get(exps, F0) + coeff
        return Poly(self.nvars, _canonical(self.nvars, acc))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[Monomial, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, F0) + c1 * c2
        return Poly(self.nvars, _canonical(self.nvars, acc))

    def partial(self, index: int) -> "Poly":
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in self.terms:
            e = exps[index]
            if e:
                key = tuple(x - 1 if i == index else x for i, x in enumerate(exps))
                acc[key] = acc.get(key, F0) + coeff * e
        return Poly(self.nvars, _canonical(self.nvars, acc))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = F0
        for exps, coeff in self.terms:
            term = coeff
            for x, e in zip(point, exps):
                for _ in range(e):
                    term *= x
            total += term
        return total

    def jet(self, point: Sequence[Fraction]) -> Jet:
        """Value and gradient at the point, read off the monomials: the
        partial in x_i of c x^e is c e_i x_i^(e_i - 1) times the other powers.

        Computed in integers over D = lcm(coefficient denominators) times
        q_i^deg_i over the variables, where x_i = p_i / q_i and deg_i is
        the highest power of x_i in the polynomial; the scaled term of
        c x^e is then c D / (c.denominator q^e) p^e, an integer.  The zero
        polynomial has the zero jet.
        """
        n = self.nvars
        if not self.terms:  # ~5x faster; 295/672 jets in b-transform-automorphism are zero
            return Jet._lowest((0,) * (n + 1), 1)
        ps = [x.numerator for x in point]
        qs = [x.denominator for x in point]
        big = lcm(*(c.denominator for _, c in self.terms))
        for q, deg in zip(qs, map(max, zip(*(exps for exps, _ in self.terms)))):
            big *= q ** deg
        num = [0] * (n + 1)
        for exps, coeff in self.terms:
            powers = [(i, e) for i, e in enumerate(exps) if e]
            rest = coeff.denominator
            for i, e in powers:
                rest *= qs[i] ** e
            rest = coeff.numerator * (big // rest)
            num[0] += rest * prod(ps[i] ** e for i, e in powers)
            for i, e in powers:
                d = rest * e * qs[i] * ps[i] ** (e - 1)
                for k, f in powers:
                    if k != i:
                        d *= ps[k] ** f
                num[i + 1] += d
        return Jet._lowest(num, big)


class RationalFn(Value):
    """A quotient of polynomials, stored unreduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator arity differ")
        if den.is_zero():
            raise ZeroDivisionError("denominator is the zero polynomial")
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @staticmethod
    def from_poly(p: Poly) -> "RationalFn":
        return RationalFn(p, Poly.constant(p.nvars, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDenominatorError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def jet(self, point: Sequence[Fraction]) -> Jet:
        """The quotient-rule jet; ZeroDenominatorError where the denominator vanishes.

        Over the constant denominator 1 (every `from_poly`), the numerator's jet.
        """
        if self.den.terms == ((self.den.nvars * (0,), F1),):
            return self.num.jet(point)
        return self.num.jet(point) / self.den.jet(point)


Coefficient = Poly | RationalFn


def as_rational(f: Coefficient | Fraction | int) -> RationalFn:
    if isinstance(f, RationalFn):
        return f
    if isinstance(f, Poly):
        return RationalFn.from_poly(f)
    raise TypeError("expected a Poly or RationalFn (wrap constants explicitly)")


# ---------------------------------------------------------------------------
# serialization: a polynomial is a list of {exponents, coeff} entries with
# coefficients as canonical "p/q" strings.


def scalar_to_str(x: Fraction) -> str:
    x = fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_from_json(nvars: int, data: Sequence[Mapping]) -> Poly:
    """The polynomial of a list of terms, each an object with exactly the
    keys "exponents" and "coeff"; anything else, and two terms with the
    same exponents, raises ValueError."""
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"a polynomial is a list of terms, got {data!r}")
    terms = {}
    for t in data:
        if not isinstance(t, Mapping) or set(t) != {"exponents", "coeff"}:
            raise ValueError(f"a polynomial term is an object with exactly the keys "
                             f"exponents and coeff, got {t!r}")
        exps = t["exponents"]
        if not isinstance(exps, (list, tuple)) or any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"exponents must be a list of integers >= 0, got {exps!r}")
        exps = tuple(exps)
        if exps in terms:
            raise ValueError(f"two terms have the exponents {list(exps)}")
        if type(t["coeff"]) not in (str, int):
            raise ValueError(f"a coefficient is a rational string such as \"1/3\", "
                             f"got {t['coeff']!r}")
        try:
            terms[exps] = Fraction(t["coeff"])
        except ZeroDivisionError:
            raise ValueError(f"coefficient {t['coeff']!r} has a zero denominator") from None
    return Poly.from_dict(nvars, terms)
