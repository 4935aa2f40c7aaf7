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
entries gives 2 d^2 times the bracket.  `courant_bracket` and
`lie_bracket` scale their two jets.  `nijenhuis_table` forms each
J-image jet as the jet product J a (`poly.jmat_mul`), scales every probe
jet, J-image jet and J once per point, and builds each component of a
pair's value as one `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import exactmat as xm
from .exactmat import F0, Mat, Vec
from .gclinalg import (
    Endo,
    GElement,
    coordinate_elements,
    from_coords,
    is_pairing_skew,
)
from .poly import ChartPoint, Coefficient, Jet, JetMat, Poly, RationalFn, as_rational, jmat_mul
from .value import Value


class ChartMismatchError(ValueError):
    """Point, section or field disagree about the chart dimension."""


class FieldInvariantError(ValueError):
    """A structure field violated its defining identities at a sampled point."""


class ProbeSpanError(ValueError):
    """A probe set fails to span TM + T*M at a sampled point."""


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


def section_from_coefficients(chart_dim: int, comps: Sequence[Coefficient]) -> JetSection:
    """Closed-form section: 2m polynomial or rational components."""
    if len(comps) != 2 * chart_dim:
        raise ChartMismatchError("a section needs m vector and m covector components")
    rationals = tuple(as_rational(c) for c in comps)
    if any(r.nvars != chart_dim for r in rationals):
        raise ChartMismatchError("component arity does not match the chart")

    def evaluate(p: ChartPoint) -> SectionJet:
        return tuple(r.jet(p.coords) for r in rationals)

    return JetSection(chart_dim, evaluate)


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


def constant_field(j: Endo) -> GACField:
    chart_dim = j.dim // 2
    jets = tuple(tuple(Jet.constant(x, chart_dim) for x in row) for row in j.rows)

    def evaluate(p: ChartPoint) -> JetMat:
        return jets

    return GACField(chart_dim, evaluate)


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


def courant_bracket(a: JetSection, b: JetSection, p: ChartPoint) -> GElement:
    """[X + xi, Y + eta] = [X, Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2."""
    m = p.dim
    if a.chart_dim != m or b.chart_dim != m:
        raise ChartMismatchError("sections do not match the chart point")
    return _bracket(a.at(p), b.at(p), m)


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


def nijenhuis(jf: GACField, a: JetSection, b: JetSection, p: ChartPoint) -> GElement:
    """N(A, B) at p: the two-probe case of `nijenhuis_table`."""
    return nijenhuis_table(jf, (a, b), p)[(0, 1)]


# ---------------------------------------------------------------------------
# two-form fields and the bracket automorphism test


class TwoFormField(Value):
    """A pointwise skew two-form with closed-form entries."""

    __slots__ = ("chart_dim", "entries")

    def __init__(self, chart_dim: int, entries: tuple[tuple[RationalFn, ...], ...]):
        m = chart_dim
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ChartMismatchError("a two-form on an m-chart is an m x m matrix")
        for i in range(m):
            for j in range(i, m):
                if not (entries[i][j] + entries[j][i]).is_zero():
                    raise FieldInvariantError("two-form entries are not skew")
        self.chart_dim = chart_dim
        self.entries = entries


def two_form_field(chart_dim: int, entries: Sequence[Sequence[Coefficient]]) -> TwoFormField:
    return TwoFormField(chart_dim, tuple(tuple(as_rational(e) for e in row) for row in entries))


def _exp_b_value(bmat: Mat, g: GElement) -> GElement:
    extra = xm.mat_vec(xm.transpose(bmat), g.vec)
    return GElement(g.dim_v, g.vec, tuple(c + e for c, e in zip(g.cov, extra)))


def _exp_b_jet(b_jets: JetMat, aj: SectionJet, m: int) -> SectionJet:
    """The 1-jet of e^B a = a + i_X B at a point, from the jets of B's
    entries and of a: (i_X B)_j = sum_i B_ij X^i over the nonzero B_ij."""
    comps = list(aj)
    for i in range(m):
        for j in range(m):
            if not b_jets[i][j].is_zero():
                comps[m + j] = comps[m + j] + b_jets[i][j] * comps[i]
    return tuple(comps)


def b_automorphism_defect(bf: TwoFormField, a: JetSection, c: JetSection,
                          p: ChartPoint) -> GElement:
    """e^B [A, C] - [e^B A, e^B C] at p; zero everywhere iff dB = 0.

    The jets of a, c and of every entry of B are evaluated once."""
    m = bf.chart_dim
    if a.chart_dim != m or c.chart_dim != m:
        raise ChartMismatchError("section and two-form live on different charts")
    b_jets = [[e.jet(p.coords) for e in row] for row in bf.entries]
    aj, cj = a.at(p), c.at(p)
    bmat = tuple(tuple(e.value for e in row) for row in b_jets)
    lhs = _exp_b_value(bmat, _bracket(aj, cj, m))
    return lhs - _bracket(_exp_b_jet(b_jets, aj, m), _exp_b_jet(b_jets, cj, m), m)


# ---------------------------------------------------------------------------
# scanning


def default_probes(chart_dim: int) -> list[JetSection]:
    """Coordinate sections, then polynomial-perturbed copies: the i-th
    coordinate section times 1 + x_(i mod m)."""
    probes = coordinate_sections(chart_dim)
    for i in range(2 * chart_dim):
        factor = Poly.constant(chart_dim, 1) + Poly.variable(chart_dim, i % chart_dim)
        comps = [Poly.constant(chart_dim, 0)] * (2 * chart_dim)
        comps[i] = factor
        probes.append(section_from_coefficients(chart_dim, comps))
    return probes


def check_spanning(jets: Sequence[SectionJet], p: ChartPoint) -> None:
    """ProbeSpanError unless the values of the probes' jets at p span TM + T*M."""
    if xm.rank(tuple(tuple(c.value for c in jet) for jet in jets)) != 2 * p.dim:
        raise ProbeSpanError(f"probe set does not span TM + T*M at {p.coords}")


def integrability_scan(jf: GACField, points: Sequence[ChartPoint],
                       probes: Sequence[JetSection]) -> tuple[ChartPoint, tuple[int, int]] | None:
    """The first point, and its first probe pair in (i, k) order, at which
    the Nijenhuis residual of a structure field is not exactly zero; None
    when every residual is zero.

    Each point runs one `nijenhuis_table`, from the probe jets that the
    spanning check read, and the scan stops at the first witness.  An
    empty point list raises ValueError, so a scan never passes over zero
    points.
    """
    if not points:
        raise ValueError("an integrability scan needs at least one point")
    for p in points:
        jets = [a.at(p) for a in probes]
        check_spanning(jets, p)
        for pair, value in _jet_table(jf, jets, p).items():
            if not value.is_zero():
                return p, pair
    return None
