"""The `courant/` suite: two-form fields, the B-transform defect and the
probe-pair integrability scan, built on the sections and brackets of
`bracket`, with the sections from coefficients, the constant structure
fields, the two-section Courant bracket and Nijenhuis value that only
this suite builds.

A two-form field B acts on sections by e^B (X + xi) = X + xi + i_X B,
and e^B is an automorphism of the Courant bracket exactly when dB = 0;
`b_automorphism_defect` evaluates e^B [A, C] - [e^B A, e^B C] at a point
from the jets of A, C and the entries of B.  `integrability_scan` runs
one Nijenhuis table per point over a probe set, `default_probes` by
default, after checking that the probes span TM + T*M there.

The checks of the suite, keyed by name in `CHECKS`, end this module,
which `harness` loads only for a scenario that schedules one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import exactmat as xm
from .exactmat import Mat
# the benchmark's tracer wraps courant.GACField.jet_at, courant.GACField.validate_at
# and courant.JetSection.at by name, so both classes stay bound here
from .bracket import (
    ChartMismatchError,
    FieldInvariantError,
    GACField,
    JetSection,
    SectionJet,
    _bracket,
    _jet_table,
    coordinate_sections,
    lie_bracket,
    nijenhuis_table,
)
from .gclinalg import Endo, GElement, gelem, standard_complex_matrix
from .poly import (
    ChartPoint,
    Coefficient,
    Jet,
    JetMat,
    Poly,
    RationalFn,
    as_rational,
    chart_point,
    random_chart_point,
    scalar_to_str,
)
from .structures import from_complex
from .value import CheckResult, Value, _fail, _ok


class ProbeSpanError(ValueError):
    """A probe set fails to span TM + T*M at a sampled point."""


# ---------------------------------------------------------------------------
# sections, fields and brackets that only the suite builds


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


def constant_field(j: Endo) -> GACField:
    chart_dim = j.dim // 2
    jets = tuple(tuple(Jet.constant(x, chart_dim) for x in row) for row in j.rows)

    def evaluate(p: ChartPoint) -> JetMat:
        return jets

    return GACField(chart_dim, evaluate)


def courant_bracket(a: JetSection, b: JetSection, p: ChartPoint) -> GElement:
    """[X + xi, Y + eta] = [X, Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2."""
    m = p.dim
    if a.chart_dim != m or b.chart_dim != m:
        raise ChartMismatchError("sections do not match the chart point")
    return _bracket(a.at(p), b.at(p), m)


def nijenhuis(jf: GACField, a: JetSection, b: JetSection, p: ChartPoint) -> GElement:
    """N(A, B) at p: the two-probe case of `bracket.nijenhuis_table`."""
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


# ---------------------------------------------------------------------------
# the courant/ suite


def _element_witness(g: GElement) -> dict:
    return {"vec": [scalar_to_str(c) for c in g.vec],
            "cov": [scalar_to_str(c) for c in g.cov]}


def _first_nonzero(g: GElement) -> Fraction:
    return next((c for c in g.coords if c != 0), Fraction(0))


def _check_bracket_examples(scenario, hooks: Mapping) -> CheckResult:
    m = 2
    x1 = Poly.variable(m, 0)
    x2 = Poly.variable(m, 1)
    one = Poly.constant(m, 1)
    zero = Poly.constant(m, 0)
    p = chart_point([Fraction(1, 3), Fraction(2, 7)])
    xs = section_from_coefficients(m, [x2, zero, zero, zero])
    ys = section_from_coefficients(m, [zero, one, zero, zero])
    if lie_bracket(xs, ys, p) != (Fraction(-1), Fraction(0)):
        return _fail("lie", {"case": "[x2 d1, d2]"})
    a = section_from_coefficients(m, [zero, zero, zero, x1])
    b = section_from_coefficients(m, [one, zero, zero, zero])
    got = courant_bracket(a, b, p)
    if got != gelem([0, 0], [0, -1]):
        return _fail("courant", {"case": "(0, x1 dx2) with (d1, 0)"})
    if not courant_bracket(a, a, p).is_zero():
        return _fail("courant", {"case": "[A, A]"})
    return _ok()


def _check_nijenhuis_antisymmetry(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 6)
    m = 2
    field = constant_field(from_complex(standard_complex_matrix(1)).j)

    def rand_poly():
        return Poly.from_dict(m, {(rng.randint(0, 2), rng.randint(0, 2)):
                                  Fraction(rng.randint(-3, 3)) for _ in range(2)})

    for trial in range(5):
        a = section_from_coefficients(m, [rand_poly() for _ in range(4)])
        b = section_from_coefficients(m, [rand_poly() for _ in range(4)])
        p = chart_point([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3)])
        if not (nijenhuis(field, a, b, p) + nijenhuis(field, b, a, p)).is_zero():
            return _fail("antisymmetry", {"trial": trial})
    return _ok()


def _check_constant_structure(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 7)
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    points = [random_chart_point(2, rng) for _ in range(5)]
    witness = integrability_scan(field, points, default_probes(2))
    if witness is not None:
        return _fail("nonzero residual",
                     {"point": [scalar_to_str(c) for c in witness[0].coords]})
    return _ok()


def _check_b_automorphism(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 8)
    m = 4
    zero = Poly.constant(m, 0)
    one = Poly.constant(m, 1)
    x1 = Poly.variable(m, 0)
    x2 = Poly.variable(m, 1)

    def skew_entries(fill):
        entries = [[zero] * m for _ in range(m)]
        for (i, j), val in fill.items():
            entries[i][j] = val
            entries[j][i] = -val
        return entries

    def rand_section():
        comps = []
        for _ in range(2 * m):
            comps.append(Poly.from_dict(m, {tuple(rng.randint(0, 1) for _ in range(m)):
                                            Fraction(rng.randint(-3, 3)) for _ in range(2)}))
        return section_from_coefficients(m, comps)

    points = [chart_point([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)])
              for _ in range(10)]
    closed_fields = [two_form_field(m, skew_entries({(0, 1): one})),
                     two_form_field(m, skew_entries({(0, 1): x1}))]
    a, c = rand_section(), rand_section()
    for idx, bf in enumerate(closed_fields):
        for p in points:
            defect = b_automorphism_defect(bf, a, c, p)
            if not defect.is_zero():
                return _fail(_first_nonzero(defect),
                             {"field": idx, "point": [scalar_to_str(x) for x in p.coords]})
    open_field = two_form_field(m, skew_entries({(0, 2): x2}))
    for p in points:
        for _ in range(4):
            a2, c2 = rand_section(), rand_section()
            defect = b_automorphism_defect(open_field, a2, c2, p)
            if not defect.is_zero():
                witness = {"point": [scalar_to_str(x) for x in p.coords],
                           "defect": _element_witness(defect)}
                return _ok(witness, finding=True)
    return _fail("no witness", {"reason": "non-closed form gave zero defect"})


# each check of the suite by its name after "courant/", as harness._SUITES lists it
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "bracket-examples": _check_bracket_examples,
    "nijenhuis-antisymmetry": _check_nijenhuis_antisymmetry,
    "constant-structure-integrable": _check_constant_structure,
    "b-transform-automorphism": _check_b_automorphism,
}
