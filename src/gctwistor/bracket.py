"""Sections of TM + T*M over a chart, their Courant bracket and Nijenhuis tensor.

A section is represented by its evaluator only: at a chart point it
returns its 1-jet, the tuple of 2m scalar `poly.Jet`s of its components
(m vector components, then m covector components), each a value and its
m first partials.  A structure field's 1-jet is its 2m x 2m matrix of
`Jet`s.  Every operation in this module consumes nothing beyond these
jets.  That first-order completeness is an API contract: the Lie
derivative and exterior-derivative pieces of the Courant bracket are
expanded in coordinates so no second derivative ever appears.

Chart dimension m is arbitrary here; a section has m vector and m
covector components.  Exact evaluators (polynomial or rational
coefficients) return exact rationals.

The bracket has one kernel, in integers: the jets' numerators are scaled
to the lcm d of their denominators, and one loop over their nonzero
entries gives 2 d^2 times the bracket.  `lie_bracket` scales its two
jets.  `nijenhuis_table` forms each J-image jet as the jet product J a
(`poly.jmat_mul`), scales every probe jet, J-image jet and J once per
point, and builds each component of a pair's value as one `Fraction`.

This module holds no check, and only what the oracle reads.  The oracle
computes N(J) from it directly, and the `courant/` suite (`courant`)
tests it with what it builds on it; each run compiles the sources it
imports, so a scenario that schedules neither compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import exactmat as xm
from .exactmat import F0, Vec
from .gclinalg import Endo, GElement, coordinate_elements, from_coords, is_pairing_skew
from .poly import ChartPoint, Jet, JetMat, jmat_mul
from .value import Value


class ChartMismatchError(ValueError):
    """Point, section or field disagree about the chart dimension."""


class FieldInvariantError(ValueError):
    """A structure field violated its defining identities at a sampled point."""


SectionJet = tuple[Jet, ...]


class JetSection(Value):
    """A section of TM + T*M given by a deterministic 1-jet evaluator."""

    __slots__ = ("chart_dim", "evaluate")

    def at(self, p: ChartPoint) -> SectionJet:
        if p.dim != self.chart_dim:
            raise ChartMismatchError("point does not belong to this chart")
        return self.evaluate(p)

    def value_at(self, p: ChartPoint) -> GElement:
        return from_coords(tuple(c.value for c in self.at(p)))


def constant_section(chart_dim: int, values: Sequence) -> JetSection:
    vals = xm.vec(values)
    if len(vals) != 2 * chart_dim:
        raise ChartMismatchError("a section needs 2m components")
    jets = tuple(Jet.constant(v, chart_dim) for v in vals)

    def evaluate(p: ChartPoint) -> SectionJet:
        return jets

    return JetSection(chart_dim, evaluate)


def coordinate_sections(chart_dim: int) -> list[JetSection]:
    """The constant frame d/dx_1, ..., d/dx_m, dx_1, ..., dx_m: the
    coordinate elements of V + V* with V = R^m, m even."""
    return [constant_section(chart_dim, e.coords) for e in coordinate_elements(chart_dim)]


# ---------------------------------------------------------------------------
# structure fields


class GACField(Value):
    """A generalized almost complex structure field on a chart.

    The evaluator returns the 2m x 2m matrix of the entries' `Jet`s.
    `validate_at` reads that matrix once and checks the pointwise
    identities (square -Id, pairing skewness) exactly; every consumer
    that needs a valid structure calls it.
    """

    __slots__ = ("chart_dim", "evaluate")

    def jet_at(self, p: ChartPoint) -> JetMat:
        if p.dim != self.chart_dim:
            raise ChartMismatchError("point does not belong to this chart")
        return self.evaluate(p)

    def validate_at(self, p: ChartPoint) -> tuple[Endo, JetMat]:
        """The structure's value at p, checked, with the jet matrix it was
        read from; FieldInvariantError if the value fails."""
        jets = self.jet_at(p)
        m = Endo(2 * self.chart_dim, tuple(tuple(e.value for e in row) for row in jets))
        if not m.squares_to_minus_identity():
            raise FieldInvariantError(f"structure field does not square to -Id at {p.coords}")
        if not is_pairing_skew(m):
            raise FieldInvariantError(f"structure field is not pairing skew at {p.coords}")
        return m, jets


# ---------------------------------------------------------------------------
# brackets


def lie_bracket(xs: JetSection, ys: JetSection, p: ChartPoint) -> Vec:
    """Lie bracket of two purely vector sections, from their 1-jets."""
    m = p.dim
    jx, jy = xs.at(p), ys.at(p)
    if not all(c.is_zero() for jet in (jx, jy) for c in jet[m:]):
        raise ChartMismatchError("lie_bracket expects purely vector sections")
    return _bracket(jx, jy, m).vec


def _integer_jets(jets: Sequence[SectionJet], m: int) -> tuple[list[tuple], int]:
    """The section jets over the lcm d of their components' denominators,
    in the sparse integer form the bracket kernel reads, and d.

    Each jet becomes (x, xi, dx rows, dx columns, dxi rows, dxi columns):
    the nonzero (index, numerator) pairs of the vector and covector values,
    and of each row and each column of the two Jacobian blocks (row i is
    the gradient of component i).
    """
    d = lcm(*(c.den for jet in jets for c in jet))
    out = []
    for jet in jets:
        nums = [c.num if c.den == d else [x * (d // c.den) for x in c.num] for c in jet]
        blocks = []
        for comps in (nums[:m], nums[m:]):
            grads = [c[1:] for c in comps]
            blocks.append([_nonzero(row) for row in grads])
            blocks.append([_nonzero(col) for col in zip(*grads)])
        out.append((_nonzero([c[0] for c in nums[:m]]), _nonzero([c[0] for c in nums[m:]]),
                    *blocks))
    return out, d


def _nonzero(entries: Sequence[int]) -> list[tuple[int, int]]:
    return [(i, v) for i, v in enumerate(entries) if v]


def _integer_bracket(ja: tuple, jb: tuple, m: int) -> list[int]:
    """2 d^2 times the Courant bracket of two jets in `_integer_jets` form
    over one denominator d, as 2m integers (vector, then covector).

    The covector part is regrouped by component of the two sections,

        sum_j x_j (d_j eta_i - d_i eta_j / 2) - y_j (d_j xi_i - d_i xi_j / 2)
              + (eta_j d_i X^j - xi_j d_i Y^j) / 2,

    so only the nonzero entries of x, y, xi and eta, and of the partials
    they multiply, are visited.
    """
    x, xi, dx_rows, dx_cols, dxi_rows, dxi_cols = ja
    y, eta, dy_rows, dy_cols, deta_rows, deta_cols = jb
    vec = [0] * m
    cov = [0] * m
    for j, xj in x:
        x2 = 2 * xj
        for i, v in dy_cols[j]:
            vec[i] += x2 * v
        for i, v in deta_cols[j]:
            cov[i] += x2 * v
        for i, v in deta_rows[j]:
            cov[i] -= xj * v
    for j, yj in y:
        y2 = 2 * yj
        for i, v in dx_cols[j]:
            vec[i] -= y2 * v
        for i, v in dxi_cols[j]:
            cov[i] -= y2 * v
        for i, v in dxi_rows[j]:
            cov[i] += yj * v
    for j, ej in eta:
        for i, v in dx_rows[j]:
            cov[i] += ej * v
    for j, xij in xi:
        for i, v in dy_rows[j]:
            cov[i] -= xij * v
    return vec + cov


def _bracket(ja: SectionJet, jb: SectionJet, m: int) -> GElement:
    """The Courant bracket of two sections from their 1-jets at one point,
    computed in integers over the jets' common denominator."""
    (a, b), d = _integer_jets((ja, jb), m)
    scale = 2 * d * d
    out = tuple(Fraction(v, scale) if v else F0 for v in _integer_bracket(a, b, m))
    return GElement(m, out[:m], out[m:])


def nijenhuis_table(jf: GACField, probes: Sequence[JetSection],
                    p: ChartPoint) -> dict[tuple[int, int], GElement]:
    """N(A_i, A_k) = -[A, B] - J[A, JB] - J[JA, B] + [JA, JB] (Courant brackets)
    for every probe pair i < k at p, in (i, k) order."""
    return _jet_table(jf, [a.at(p) for a in probes], p)


def _jet_table(jf: GACField, jets: Sequence[SectionJet],
               p: ChartPoint) -> dict[tuple[int, int], GElement]:
    """`nijenhuis_table` from the probes' jets at p.  The field's jet matrix
    is read and validated at p once, and each probe's J-image jet is built
    once, as the jet product of that matrix with the probe's jet as a column.

    All the jets are scaled to integers over one denominator d and J over
    its own d_J, once per point; each pair is assembled as 2 d^2 d_J N in
    integers, and each of its components is built once as a Fraction.
    """
    j, fj = jf.validate_at(p)
    m = p.dim
    images = [tuple(row[0] for row in jmat_mul(fj, [(c,) for c in aj])) for aj in jets]
    ints, d = _integer_jets([*jets, *images], m)
    plain, imaged = ints[:len(jets)], ints[len(jets):]
    dj = j.den
    j_rows = [[(c, v) for c, v in enumerate(row) if v] for row in j.num]
    scale = 2 * d * d * dj
    table = {}
    for i in range(len(jets)):
        for k in range(i + 1, len(jets)):
            t1 = _integer_bracket(plain[i], plain[k], m)
            t23 = [a + b for a, b in zip(_integer_bracket(plain[i], imaged[k], m),
                                         _integer_bracket(imaged[i], plain[k], m))]
            t4 = _integer_bracket(imaged[i], imaged[k], m)
            out = tuple(Fraction(v, scale) if v else F0
                        for v in (dj * (b - a) - sum(x * t23[c] for c, x in row)
                                  for a, b, row in zip(t1, t4, j_rows)))
            table[(i, k)] = GElement(m, out[:m], out[m:])
    return table
