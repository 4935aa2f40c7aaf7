import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctwistor import exactmat as xm
from gctwistor.bracket import (
    ChartMismatchError,
    FieldInvariantError,
    GACField,
    JetSection,
    constant_section,
    coordinate_sections,
    lie_bracket,
    nijenhuis_table,
)
from gctwistor.bracket import _bracket
from gctwistor.courant import (
    ProbeSpanError,
    b_automorphism_defect,
    constant_field,
    courant_bracket,
    default_probes,
    integrability_scan,
    nijenhuis,
    section_from_coefficients,
    two_form_field,
)
from gctwistor.gclinalg import GElement, gelem, standard_complex_matrix
from gctwistor.structures import from_complex, from_symplectic, standard_symplectic_matrix
from gctwistor.poly import Jet, Poly, RationalFn, as_rational, chart_point

ZERO2 = Poly.constant(2, 0)
ONE2 = Poly.constant(2, 1)
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def rand_point(rng, m=2):
    return chart_point([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)])


def rand_section(rng, m=2, degree=2):
    comps = []
    for _ in range(2 * m):
        comps.append(Poly.from_dict(m, {
            tuple(rng.randint(0, degree) for _ in range(m)): F(rng.randint(-3, 3))
            for _ in range(2)}))
    return section_from_coefficients(m, comps)


# ---------------------------------------------------------------------------
# lie bracket


def test_lie_bracket_coordinate_example():
    xs = section_from_coefficients(2, [X2, ZERO2, ZERO2, ZERO2])
    ys = section_from_coefficients(2, [ZERO2, ONE2, ZERO2, ZERO2])
    p = chart_point([F(1, 3), F(2, 7)])
    assert lie_bracket(xs, ys, p) == (F(-1), F(0))


def test_lie_bracket_antisymmetry_and_constants():
    rng = random.Random(0)
    xs = rand_section(rng)
    p = rand_point(rng)
    vec_only = section_from_coefficients(2, [X1 * X2, X2, ZERO2, ZERO2])
    assert lie_bracket(vec_only, vec_only, p) == (0, 0)
    c1 = constant_section(2, [1, 2, 0, 0])
    c2 = constant_section(2, [3, -1, 0, 0])
    assert lie_bracket(c1, c2, p) == (0, 0)


def test_lie_bracket_rejects_covector_parts():
    p = chart_point([F(0), F(0)])
    bad = section_from_coefficients(2, [ONE2, ZERO2, X1, ZERO2])
    good = section_from_coefficients(2, [ONE2, ZERO2, ZERO2, ZERO2])
    with pytest.raises(ChartMismatchError):
        lie_bracket(bad, good, p)


# ---------------------------------------------------------------------------
# courant bracket


def test_courant_reduces_to_lie_on_vectors():
    rng = random.Random(1)
    for _ in range(5):
        a = section_from_coefficients(2, [Poly.from_dict(2, {(1, 1): F(rng.randint(-3, 3))}),
                                          X2, ZERO2, ZERO2])
        b = section_from_coefficients(2, [X1, ONE2, ZERO2, ZERO2])
        p = rand_point(rng)
        value = courant_bracket(a, b, p)
        assert value.vec == lie_bracket(a, b, p)
        assert all(c == 0 for c in value.cov)


def test_courant_hand_example():
    a = section_from_coefficients(2, [ZERO2, ZERO2, ZERO2, X1])
    b = section_from_coefficients(2, [ONE2, ZERO2, ZERO2, ZERO2])
    p = chart_point([F(2), F(-1)])
    assert courant_bracket(a, b, p) == gelem([0, 0], [0, -1])


def test_courant_self_bracket_vanishes():
    rng = random.Random(2)
    for _ in range(5):
        a = rand_section(rng)
        assert courant_bracket(a, a, rand_point(rng)).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_courant_antisymmetry_property(seed):
    rng = random.Random(seed)
    a = rand_section(rng)
    b = rand_section(rng)
    p = rand_point(rng)
    assert (courant_bracket(a, b, p) + courant_bracket(b, a, p)).is_zero()


def textbook_bracket(ja, jb, m: int):
    """[X + xi, Y + eta] = [X, Y] + L_X eta - L_Y xi - d(i_X eta - i_Y xi)/2,
    every term written out in coordinates and summed densely, in Fractions
    read off the two section jets."""
    values = [tuple(c.value for c in j) for j in (ja, jb)]
    grads = [tuple(c.grad for c in j) for j in (ja, jb)]
    x, xi, dx, dxi = values[0][:m], values[0][m:], grads[0][:m], grads[0][m:]
    y, eta, dy, deta = values[1][:m], values[1][m:], grads[1][:m], grads[1][m:]
    vec, cov = [], []
    for i in range(m):
        vec.append(sum((x[j] * dy[i][j] - y[j] * dx[i][j] for j in range(m)), F(0)))
        lie_x_eta = sum((x[j] * deta[i][j] + eta[j] * dx[j][i] for j in range(m)), F(0))
        lie_y_xi = sum((y[j] * dxi[i][j] + xi[j] * dy[j][i] for j in range(m)), F(0))
        d_pairing = sum((eta[j] * dx[j][i] + x[j] * deta[j][i]
                         - xi[j] * dy[j][i] - y[j] * dxi[j][i] for j in range(m)), F(0))
        cov.append(lie_x_eta - lie_y_xi - d_pairing / 2)
    return tuple(vec), tuple(cov)


_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


def _zero_pattern(draw):
    """Entries that are all zero, all nonzero or about half zeros."""
    kind = draw(st.sampled_from(["zero", "dense", "mixed"]))
    return {"zero": st.just(F(0)), "dense": _nonzero,
            "mixed": st.one_of(st.just(F(0)), _nonzero)}[kind]


@st.composite
def _bracket_operands(draw):
    """Two section jets on an m-chart, m = 2, 4 or 6 (a GElement has even
    dimension): tuples of 2m component `Jet`s whose values and gradients
    each follow their own zero pattern.  Each component has its own
    denominator, so the kernel's scaling to their lcm is exercised."""
    m = draw(st.sampled_from([2, 4, 6]))

    def jet():
        values, partials = _zero_pattern(draw), _zero_pattern(draw)
        return tuple(Jet(draw(values), [draw(partials) for _ in range(m)])
                     * Jet.constant(F(1, draw(st.integers(1, 12))), m) for _ in range(2 * m))

    return jet(), jet(), m


@settings(max_examples=60, deadline=None)
@given(_bracket_operands())
def test_bracket_matches_textbook_formula(operands):
    # the regrouped, zero-skipping bracket is the same rational as the definition
    ja, jb, m = operands
    value = _bracket(ja, jb, m)
    assert (value.vec, value.cov) == textbook_bracket(ja, jb, m)
    assert all(type(c) is F for c in value.vec + value.cov)


def test_rational_coefficient_sections():
    one = Poly.constant(1, 1)
    x = Poly.variable(1, 0)
    f = RationalFn(one, one + x * x)
    s = section_from_coefficients(1, [f, RationalFn.from_poly(x)])
    jet = s.at(chart_point([F(1, 2)]))
    assert (jet[0].value, jet[1].value) == (F(4, 5), F(1, 2))
    assert jet[0].grad == (F(-16, 25),)


# ---------------------------------------------------------------------------
# the Nijenhuis tensor of structure fields


def test_constant_structure_constant_sections():
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    a = constant_section(2, [1, 0, F(1, 2), 0])
    b = constant_section(2, [0, 1, 0, -2])
    assert nijenhuis(field, a, b, chart_point([F(1), F(2)])).is_zero()


def test_constant_structure_polynomial_sections():
    rng = random.Random(4)
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    for _ in range(5):
        assert nijenhuis(field, rand_section(rng), rand_section(rng),
                         rand_point(rng)).is_zero()


def test_nijenhuis_antisymmetry():
    rng = random.Random(5)
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    a, b, p = rand_section(rng), rand_section(rng), rand_point(rng)
    assert (nijenhuis(field, a, b, p) + nijenhuis(field, b, a, p)).is_zero()


def field_from_coefficients(chart_dim, entries):
    """The structure field with the given polynomial or rational entries."""
    rationals = tuple(tuple(as_rational(c) for c in row) for row in entries)
    return GACField(chart_dim, lambda p: tuple(tuple(r.jet(p.coords) for r in row)
                                               for row in rationals))


def test_field_invariant_violation_reported():
    bad = field_from_coefficients(1, [[Poly.constant(2, 0) for _ in range(2)] for _ in range(2)])
    # zero matrix squares to zero, not -Id
    bad1 = field_from_coefficients(1, [[Poly.constant(1, 0), Poly.constant(1, 0)],
                                       [Poly.constant(1, 0), Poly.constant(1, 0)]])
    a = constant_section(1, [1, 0])
    with pytest.raises(FieldInvariantError):
        nijenhuis(bad1, a, a, chart_point([F(0)]))


def varying_field():
    # the pointwise transform of the constant symplectic-type structure by
    # the closed two-form x1 dx1^dx2, written out: a genuinely varying field
    # that stays a valid structure and is integrable
    one_plus = ONE2 + X1 * X1
    return field_from_coefficients(2, [
        [-X1, ZERO2, ZERO2, ONE2],
        [ZERO2, -X1, -ONE2, ZERO2],
        [ZERO2, one_plus, X1, ZERO2],
        [-one_plus, ZERO2, ZERO2, X1],
    ])


def test_varying_field_from_coefficients():
    field = varying_field()
    rng = random.Random(11)
    for _ in range(4):
        p = rand_point(rng)
        field.validate_at(p)
        assert nijenhuis(field, rand_section(rng), rand_section(rng), p).is_zero()


# ---------------------------------------------------------------------------
# two-forms and the bracket automorphism


def make_skew_field(m, fill):
    zero = Poly.constant(m, 0)
    entries = [[zero] * m for _ in range(m)]
    for (i, j), val in fill.items():
        entries[i][j] = val
        entries[j][i] = -val
    return two_form_field(m, entries)


def test_two_form_requires_skewness():
    one = Poly.constant(2, 1)
    zero = Poly.constant(2, 0)
    with pytest.raises(FieldInvariantError):
        two_form_field(2, [[zero, one], [one, zero]])


def test_defect_zero_for_closed_forms():
    rng = random.Random(6)
    m = 4
    one = Poly.constant(m, 1)
    x1 = Poly.variable(m, 0)
    a = rand_section(rng, m=m, degree=1)
    c = rand_section(rng, m=m, degree=1)
    points = [rand_point(rng, m) for _ in range(10)]
    for bf in (make_skew_field(m, {(0, 1): one}), make_skew_field(m, {(0, 1): x1})):
        for p in points:
            assert b_automorphism_defect(bf, a, c, p).is_zero()


def test_defect_nonzero_for_non_closed_form():
    rng = random.Random(7)
    m = 4
    x2 = Poly.variable(m, 1)
    bf = make_skew_field(m, {(0, 2): x2})
    found = False
    for _ in range(6):
        a = rand_section(rng, m=m, degree=1)
        c = rand_section(rng, m=m, degree=1)
        if not b_automorphism_defect(bf, a, c, rand_point(rng, m)).is_zero():
            found = True
            break
    assert found


# ---------------------------------------------------------------------------
# scanning


def test_scan_constant_field_all_zero():
    rng = random.Random(9)
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    points = [rand_point(rng) for _ in range(3)]
    assert integrability_scan(field, points, default_probes(2)) is None


def test_scan_empty_points_distinct_from_all_zero():
    # a scan over no points raises rather than reading as all zero
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    with pytest.raises(ValueError):
        integrability_scan(field, [], default_probes(2))


def test_scan_rejects_non_spanning_probes():
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    probes = coordinate_sections(2)[:3]
    with pytest.raises(ProbeSpanError):
        integrability_scan(field, [chart_point([F(0), F(0)])], probes)


def test_field_orientation_validation():
    # validate_at checks square -Id and pairing skewness, not the orientation:
    # both orientations pass, each with the jet matrix its value was read from
    p = chart_point([F(0), F(0)])
    for j in (from_complex(standard_complex_matrix(1)).j,
              from_symplectic(standard_symplectic_matrix(1)).j):
        field = constant_field(j)
        value, jets = field.validate_at(p)
        assert value == j and jets == field.jet_at(p)


# ---------------------------------------------------------------------------
# the per-point Nijenhuis table


def field_image_section(f: GACField, a: JetSection) -> JetSection:
    """p -> J(p) a(p) as a section, with the product-rule jet in Fractions
    read off the jets of J and a: the reference the table's pair brackets
    are compared against."""
    def evaluate(p):
        fj, aj = f.jet_at(p), a.at(p)
        j = tuple(tuple(e.value for e in row) for row in fj)
        av = tuple(c.value for c in aj)
        cols = []
        for k in range(f.chart_dim):
            dj = tuple(tuple(e.grad[k] for e in row) for row in fj)
            da = tuple(c.grad[k] for c in aj)
            cols.append(tuple(x + y for x, y in zip(xm.mat_vec(dj, av), xm.mat_vec(j, da))))
        return tuple(Jet(v, g) for v, g in zip(xm.mat_vec(j, av), zip(*cols)))

    return JetSection(f.chart_dim, evaluate)


def reference_nijenhuis(f: GACField, a: JetSection, b: JetSection, p):
    """N(A, B) from dense textbook brackets, independent of the bracket
    kernel that `courant_bracket` and the table share."""
    m = p.dim

    def bracket(s, t):
        return GElement(m, *textbook_bracket(s.at(p), t.at(p), m))

    j = f.validate_at(p)[0]
    ja, jb = field_image_section(f, a), field_image_section(f, b)
    return (-bracket(a, b) - j.apply(bracket(a, jb))
            - j.apply(bracket(ja, b)) + bracket(ja, jb))


def test_table_matches_pairwise_nijenhuis_constant_field():
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    probes = default_probes(2)
    p = chart_point([F(1, 2), F(-2, 3)])
    table = nijenhuis_table(field, probes, p)
    pairs = [(i, k) for i in range(len(probes)) for k in range(i + 1, len(probes))]
    assert list(table) == pairs
    for i, k in pairs:
        assert table[(i, k)] == nijenhuis(field, probes[i], probes[k], p)
        assert table[(i, k)] == reference_nijenhuis(field, probes[i], probes[k], p)


def test_table_matches_reference_on_varying_field():
    # a varying field with non-constant probes: the table's J-image jets
    # carry the product-rule term that a constant field never exercises
    rng = random.Random(12)
    field = varying_field()
    probes = [rand_section(rng) for _ in range(4)]
    p = rand_point(rng)
    for (i, k), value in nijenhuis_table(field, probes, p).items():
        assert value == reference_nijenhuis(field, probes[i], probes[k], p)


def _poly_matrix_product(a, b):
    zero = Poly.constant(a[0][0].nvars, 0)
    out = []
    for row in a:
        out.append([])
        for c in range(len(b[0])):
            acc = zero
            for x, brow in zip(row, b):
                acc = acc + x * brow[c]
            out[-1].append(acc)
    return out


def b_transformed_field(m, fill):
    """e^B J0 e^-B for the constant symplectic-type J0 and the two-form B
    with the given upper entries; not integrable where dB does not vanish."""
    zero, one = Poly.constant(m, 0), Poly.constant(m, 1)
    j0 = [[Poly.constant(m, x) for x in row]
          for row in from_symplectic(standard_symplectic_matrix(m // 2)).j.rows]

    def exp_b(sign):
        e = [[one if r == c else zero for c in range(2 * m)] for r in range(2 * m)]
        for (i, k), val in fill.items():
            e[m + k][i] = val * Poly.constant(m, sign)
            e[m + i][k] = val * Poly.constant(m, -sign)
        return e

    return field_from_coefficients(
        m, _poly_matrix_product(_poly_matrix_product(exp_b(1), j0), exp_b(-1)))


def test_table_matches_reference_with_rational_sections():
    # rational-coefficient sections against a varying, non-integrable field
    # at a point whose coordinates have distinct denominators
    m = 4
    x = [Poly.variable(m, i) for i in range(m)]
    zero, one = Poly.constant(m, 0), Poly.constant(m, 1)

    def k(c):
        return Poly.constant(m, c)

    field = b_transformed_field(m, {(0, 2): x[1] * k(F(3, 2)), (1, 3): x[0] * x[2]})
    den = RationalFn(one, one + x[1] * x[1] * k(F(1, 3)))
    probes = [
        section_from_coefficients(m, [den * RationalFn.from_poly(x[0] * k(F(2, 3)) + one),
                                      zero, x[3] * k(F(-1, 5)), zero,
                                      zero, x[2] * x[3], zero, k(F(5, 7))]),
        section_from_coefficients(m, [zero, x[2] * k(F(1, 4)), zero, one,
                                      den, zero, x[0] * k(F(-3, 2)), zero]),
        section_from_coefficients(m, [one, zero, zero, x[1] * x[0] * k(F(7, 3)),
                                      zero, zero, zero, zero]),
    ]
    p = chart_point([F(1, 3), F(-2, 5), F(3, 7), F(-1, 2)])
    table = nijenhuis_table(field, probes, p)
    assert any(not value.is_zero() for value in table.values())
    for (i, k), value in table.items():
        assert value == reference_nijenhuis(field, probes[i], probes[k], p)


def test_table_of_fewer_than_two_probes_is_empty():
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    assert nijenhuis_table(field, coordinate_sections(2)[:1], chart_point([F(0), F(0)])) == {}


def test_table_rejects_section_on_other_chart():
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    with pytest.raises(ChartMismatchError):
        nijenhuis_table(field, coordinate_sections(4), chart_point([F(0), F(0)]))


def test_scan_validates_field_at_every_point():
    # (1 + x1^2) J0 is pairing skew everywhere but squares to -Id only where
    # x1 = 0, and its 1-jet at the origin is that of J0, so the origin gives
    # no witness: the scan must go on and reject the field at the second point
    j0 = from_complex(standard_complex_matrix(1)).j
    field = field_from_coefficients(2, [[(ONE2 + X1 * X1) * Poly.constant(2, c) for c in row]
                                        for row in j0.rows])
    probes = coordinate_sections(2)
    origin, off = chart_point([F(0), F(0)]), chart_point([F(1), F(0)])
    assert integrability_scan(field, [origin], probes) is None
    with pytest.raises(FieldInvariantError):
        integrability_scan(field, [origin, off], probes)


def test_scan_evaluates_each_probe_jet_once_per_point():
    # the spanning check and the table read the same jets
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    calls = []

    def counted(probe):
        def evaluate(p):
            calls.append(p.coords)
            return probe.at(p)
        return JetSection(2, evaluate)

    probes = [counted(probe) for probe in default_probes(2)]
    points = [chart_point([F(0), F(0)]), chart_point([F(1, 2), F(-1)])]
    assert integrability_scan(field, points, probes) is None
    assert len(calls) == len(probes) * len(points)
