import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctwistor import exactmat as xm
from gctwistor import oracle
from gctwistor.courant import (
    coordinate_sections,
    lie_bracket,
    nijenhuis,
    nijenhuis_table,
    section_from_coefficients,
)
from gctwistor.gclinalg import (
    DegenerateInputError,
    GCStructure,
    GElement,
    InvariantError,
    fib_pairing,
    gelem,
    hyperboloid_point,
    is_vertical,
    reference_basis,
)
from gctwistor.harness import load_scenario
from gctwistor.oracle import (
    OracleSample,
    TwistorChart,
    chart_bracket_curvature_check,
    chart_vertical_bracket_check,
    lift_bracket_curvature_check,
    oracle_compare_nijenhuis,
    seeded_oracle_samples,
)
from gctwistor.poly import Jet, Poly, chart_point, jmat_mul
from gctwistor.twistor import (
    CurvatureValue,
    TwistorPoint,
    connection,
    flat_connection,
    horizontal_lift,
    random_chart_point,
    sample_fibre_structure,
)

CONN = connection(1, {(0, 1, 1): Poly.variable(2, 0)})
ONE = Poly.constant(2, 1)
ZERO = Poly.constant(2, 0)
X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def all_equal(results):
    """Every comparison of the oracle agrees: each sample's Nijenhuis pairs
    and both bracket identities."""
    return all(r.all_equal and r.lift_bracket_ok and r.vertical_bracket_ok for r in results)


def q_at(x1=F(1, 2), x2=F(1, 3), u=F(1, 4), v=F(1, 5)):
    return chart_point([x1, x2, u, v])


# ---------------------------------------------------------------------------
# the chart


def test_chart_structure_matches_constructor():
    chart = TwistorChart(CONN, 1)
    q = q_at()
    expected = hyperboloid_point(F(1, 4), F(1, 5), 1, reference_basis(1))
    at = chart.context(q).at
    assert at.structure.j == expected.j and at.point == chart_point([F(1, 2), F(1, 3)])
    negative = TwistorChart(CONN, -1)
    expected_neg = hyperboloid_point(F(1, 4), F(1, 5), -1, reference_basis(1))
    assert negative.context(q).at.structure.j == expected_neg.j


def test_chart_views_memoized_per_point():
    chart = TwistorChart(CONN, 1)
    q, other = q_at(), q_at(u=F(-1, 3), v=F(1, 2))
    ctx = chart.context(q)
    assert chart.context(q) is ctx
    # a fresh chart recomputes the same rationals; another point gives other values
    fresh = TwistorChart(CONN, 1).context(q)
    assert (fresh.gamma_values, fresh.basis, fresh.at) == (ctx.gamma_values, ctx.basis, ctx.at)
    moved = chart.context(other)
    assert moved.gamma_values != ctx.gamma_values and moved.basis != ctx.basis


def test_chart_builds_one_structure_per_sample(monkeypatch):
    # the twistor point, and so its GCStructure, is built once per sample
    # point and read by the closed form and both bracket identities
    built = []

    def counted(j):
        built.append(j)
        return GCStructure(j)

    monkeypatch.setattr(oracle, "GCStructure", counted)
    results = oracle_compare_nijenhuis(CONN, seeded_oracle_samples(2, 3))
    assert all_equal(results) and len(built) == 2


def test_chart_connection_form_matches_connection_matrix():
    # the jet connection form, at a polynomial field and a point, has the
    # values of the closed form's `connection_matrix` at the field's value
    conn = connection(1, {(0, 1, 1): X1, (1, 0, 1): X2 * X2, (0, 0, 0): X1 * X2})
    point = (F(1, 2), F(-2, 3))
    christoffel = [(key, oracle._padded_jet(p, point, 2)) for key, p in conn.entries]
    for comps in ([ONE, ZERO], [ZERO, ONE], [X2, ONE + X1 * X1]):
        x = [oracle._padded_jet(p, point, 2) for p in comps]
        omega = oracle._connection_form(christoffel, x)
        xv = tuple(p.evaluate(point) for p in comps)
        expected = oracle.connection_matrix(conn, xv, chart_point(point))
        assert tuple(tuple(e.value for e in row) for row in omega) == expected.rows


def test_chart_rejects_singular_fibre():
    chart = TwistorChart(CONN, 1)
    with pytest.raises(DegenerateInputError):
        chart.context(chart_point([F(0), F(0), F(3, 5), F(4, 5)]))


def test_fields_are_valid_structures():
    chart = TwistorChart(CONN, 1)
    for alpha in (1, 2):
        field = chart.field(alpha)
        for q in (q_at(), q_at(u=F(2), v=F(0)), q_at(x1=F(-3))):
            field.validate_at(q)


def test_vertical_chart_basis_is_vertical():
    chart = TwistorChart(CONN, 1)
    q = q_at()
    ctx = chart.context(q)
    j = ctx.at.structure.j
    b_u, b_v = ctx.basis
    assert is_vertical(b_u, j) and is_vertical(b_v, j)
    # uv coordinates invert the basis construction
    assert chart.uv_coordinates(b_u, q) == (1, 0)
    assert chart.uv_coordinates(b_v.scale(F(3, 2)), q) == (0, F(3, 2))


def test_uv_coordinates_rejects_a_non_tangent_endomorphism():
    # j itself is normal to the hyperboloid at j: the (u, v) solve from two
    # chart rows cannot reproduce the third
    chart = TwistorChart(CONN, 1)
    for q in (q_at(), q_at(u=F(-1, 2), v=F(1, 3))):
        with pytest.raises(InvariantError):
            chart.uv_coordinates(chart.context(q).at.structure.j, q)


def test_lift_section_matches_closed_form_lift():
    from gctwistor.twistor import horizontal_lift
    chart = TwistorChart(CONN, 1)
    q = q_at()
    lift = chart.lift_section([ONE, ZERO]).value_at(q)
    assert lift.vec[:2] == (1, 0)
    closed = horizontal_lift(CONN, (F(1), F(0)), chart.context(q).at)
    assert chart.uv_coordinates(closed.vertical, q) == lift.vec[2:]


def test_decompose_compose_roundtrip():
    chart = TwistorChart(CONN, 1)
    q = q_at(u=F(1, 3), v=F(0))
    rng = random.Random(5)
    for _ in range(6):
        value = gelem([F(rng.randint(-3, 3), 2) for _ in range(4)],
                      [F(rng.randint(-3, 3), 3) for _ in range(4)])
        t = chart.decompose(value, q)
        assert chart.compose(t, q) == value


def test_decompose_reuses_the_gram_inverse_of_its_point(monkeypatch):
    from gctwistor import oracle
    calls = []

    def counted(a, b):
        calls.append(1)
        return fib_pairing(a, b)

    monkeypatch.setattr(oracle, "fib_pairing", counted)
    chart = TwistorChart(CONN, 1)
    q = q_at()
    b_u, b_v = chart.context(q).basis
    for probe in coordinate_sections(4):
        value = probe.value_at(q)
        coform = chart.decompose(value, q).vertical_coform
        # the coform's representer pairs with the chart fibre basis to theta_u, theta_v
        assert (fib_pairing(coform, b_u), fib_pairing(coform, b_v)) == value.cov[2:]
    assert len(calls) == 4  # one 2 x 2 Gram matrix for the point, not one per probe


def test_bracket_identities_checked_once_per_sample(monkeypatch):
    from gctwistor import oracle
    calls = {"lift": 0, "vertical": 0}

    def counting(key, check):
        def counted(*args):
            calls[key] += 1
            return check(*args)
        return counted

    monkeypatch.setattr(oracle, "chart_bracket_curvature_check",
                        counting("lift", chart_bracket_curvature_check))
    monkeypatch.setattr(oracle, "chart_vertical_bracket_check",
                        counting("vertical", chart_vertical_bracket_check))
    results = oracle_compare_nijenhuis(CONN, seeded_oracle_samples(2, 3))
    assert calls == {"lift": 2, "vertical": 2}
    assert [r.alpha for r in results] == [1, 2, 1, 2]
    assert all(r.lift_bracket_ok and r.vertical_bracket_ok for r in results)


def test_decompose_splits_lift_directions():
    chart = TwistorChart(CONN, 1)
    q = q_at()
    t = chart.decompose(chart.lift_section([ONE, ZERO]).value_at(q), q)
    # a lift decomposes into a purely horizontal tangent
    assert t.vertical.is_zero() and t.vertical_coform.is_zero()
    assert t.horizontal == gelem([1, 0], [0, 0])


# ---------------------------------------------------------------------------
# bracket identities on the chart


def test_bracket_curvature_identity_on_chart():
    chart = TwistorChart(CONN, 1)
    for q in (q_at(), q_at(u=F(1, 2), v=F(1, 2)), q_at(x1=F(2), u=F(0), v=F(2))):
        res = chart_bracket_curvature_check(chart, [ONE, ZERO], [ZERO, ONE], q)
        assert all(r == 0 for r in res)
        res = chart_bracket_curvature_check(chart, [X2, X1], [X1 * X1, ONE + X2], q)
        assert all(r == 0 for r in res)


def test_bracket_curvature_identity_flat():
    chart = TwistorChart(flat_connection(1), 1)
    res = chart_bracket_curvature_check(chart, [ONE, ZERO], [ZERO, ONE], q_at())
    assert all(r == 0 for r in res)


def test_vertical_bracket_identity_on_chart():
    chart = TwistorChart(CONN, 1)
    a_entries = [[ZERO, ZERO, ZERO, X1],
                 [ZERO, ZERO, -X1, ZERO],
                 [ZERO, ZERO, ZERO, ZERO],
                 [ZERO, ZERO, ZERO, ZERO]]
    for q in (q_at(), q_at(u=F(2), v=F(1, 2))):
        res = chart_vertical_bracket_check(chart, [ONE, X2], a_entries, q)
        assert all(r == 0 for r in res)


def test_bundle_chart_identity_n1_n2():
    basis = reference_basis(1)
    at = TwistorPoint(chart_point([F(1), F(2)]),
                      hyperboloid_point(F(1, 3), F(1, 7), 1, basis))
    res = lift_bracket_curvature_check(CONN, [ONE, X1], [X1, ONE + X1 * X1], at)
    assert all(r == 0 for r in res)
    # the curvature term is load-bearing here, the two sides differ without it
    from gctwistor.twistor import curvature
    r_val = curvature(CONN, (F(1), F(1)), (F(1), F(1) + F(1)), at.point)
    assert not r_val.act_on(at.structure.j).is_zero()
    conn2 = connection(2, {(0, 1, 1): Poly.variable(4, 0)})
    rng = random.Random(3)
    at2 = TwistorPoint(random_chart_point(4, rng), sample_fibre_structure(2, rng))
    one4 = Poly.constant(4, 1)
    zero4 = Poly.constant(4, 0)
    x14 = Poly.variable(4, 0)
    res2 = lift_bracket_curvature_check(conn2, [one4, zero4, x14, zero4],
                                        [zero4, one4, zero4, x14 * x14], at2)
    assert all(r == 0 for r in res2)


def _polynomial_lift_residual(conn, x_components, y_components, at):
    """Reference for `lift_bracket_curvature_check`: the lift fields built as
    polynomial sections on the endomorphism-bundle chart, then jetted."""
    dim = conn.dim
    fibre = (2 * dim) ** 2
    nvars = dim + fibre

    def lift(p):
        return Poly.from_dict(nvars, {e + (0,) * fibre: c for e, c in p.terms})

    a_var = [[Poly.variable(nvars, dim + (2 * dim) * i + j) for j in range(2 * dim)]
             for i in range(2 * dim)]

    def lift_field(comps):
        gx = [[Poly.constant(nvars, 0) for _ in range(dim)] for _ in range(dim)]
        for (k, i, j), poly in conn.entries:
            gx[k][j] = gx[k][j] + lift(poly * comps[i])
        omega = [[Poly.constant(nvars, 0) for _ in range(2 * dim)] for _ in range(2 * dim)]
        for r in range(dim):
            for c in range(dim):
                omega[r][c] = gx[r][c]
                omega[dim + r][dim + c] = -gx[c][r]
        vertical = []
        for i in range(2 * dim):
            for j in range(2 * dim):
                acc = Poly.constant(nvars, 0)
                for k in range(2 * dim):
                    acc = acc - omega[i][k] * a_var[k][j] + a_var[i][k] * omega[k][j]
                vertical.append(acc)
        comps_all = [lift(p) for p in comps] + vertical + [Poly.constant(nvars, 0)] * nvars
        return section_from_coefficients(nvars, comps_all)

    point = chart_point(tuple(at.point.coords)
                        + tuple(x for row in at.structure.j.rows for x in row))
    lhs = lie_bracket(lift_field(x_components), lift_field(y_components), point)
    xy = oracle._poly_lie_bracket(x_components, y_components)
    rhs = [c.value for c in lift_field(xy).at(point)[:nvars]]
    xv = tuple(p.evaluate(at.point.coords) for p in x_components)
    yv = tuple(p.evaluate(at.point.coords) for p in y_components)
    r_vert = oracle.curvature(conn, xv, yv, at.point).act_on(at.structure.j)
    for idx, val in enumerate(x for row in r_vert.rows for x in row):
        rhs[dim + idx] += val
    return tuple(a - b for a, b in zip(lhs, rhs))


def _bundle_chart_cases():
    """Seeded points at n = 1 and n = 2 with connections of several entries."""
    rng = random.Random(23)
    x = [Poly.variable(2, i) for i in range(2)]
    one = Poly.constant(2, 1)
    conn1 = connection(1, {(0, 1, 1): x[0], (1, 0, 1): x[1] * x[1], (0, 0, 0): x[0] * x[1]})
    cases = [(conn1, [one, x[0]], [x[0] * x[1], one + x[0] * x[0]],
              TwistorPoint(random_chart_point(2, rng), sample_fibre_structure(1, rng)))
             for _ in range(2)]
    y = [Poly.variable(4, i) for i in range(4)]
    one4, zero4 = Poly.constant(4, 1), Poly.constant(4, 0)
    conn2 = connection(2, {(0, 1, 1): y[0], (2, 3, 1): y[1] * y[2], (1, 0, 3): y[3]})
    cases += [(conn2, [one4, zero4, y[0], zero4], [zero4, one4, zero4, y[0] * y[0]],
               TwistorPoint(random_chart_point(4, rng), sample_fibre_structure(2, rng)))
              for _ in range(2)]
    return cases


def test_bundle_chart_jets_match_polynomial_reference():
    for case in _bundle_chart_cases():
        residual = lift_bracket_curvature_check(*case)
        assert residual == _polynomial_lift_residual(*case)
        assert not any(residual)


def test_bundle_chart_jets_match_reference_under_scaled_curvature(monkeypatch):
    # a curvature term scaled by 2 leaves the residual R(X, Y) a, nonzero, and
    # both evaluations of the lift must report the same vector
    exact = oracle.curvature

    def doubled(conn, x, y, p):
        return CurvatureValue(conn.n, xm.mat_scale(F(2), exact(conn, x, y, p).endo_tm))

    monkeypatch.setattr(oracle, "curvature", doubled)
    for case in _bundle_chart_cases():
        residual = lift_bracket_curvature_check(*case)
        assert residual == _polynomial_lift_residual(*case)
        assert any(residual)


# ---------------------------------------------------------------------------
# the oracle


def test_oracle_equality_both_alphas():
    samples = seeded_oracle_samples(2, 42)
    results = oracle_compare_nijenhuis(CONN, samples)
    assert all_equal(results)
    for r in results:
        assert r.pairs == 28
        assert r.lift_bracket_ok and r.vertical_bracket_ok
        if r.alpha == 1:
            assert r.direct_all_zero
        else:
            assert not r.direct_all_zero


def test_oracle_flat_connection():
    samples = [OracleSample((F(0), F(0)), (F(1, 3), F(1, 4)), 1)]
    results = oracle_compare_nijenhuis(flat_connection(1), samples)
    assert all_equal(results)
    assert {r.alpha: r.direct_all_zero for r in results}[1]


def test_oracle_detects_perturbed_closed_form():
    samples = [OracleSample((F(1), F(0)), (F(1, 2), F(0)), 1)]

    def tamper(g):
        return GElement(g.dim_v, g.vec, tuple(c + 1 for c in g.cov))

    results = oracle_compare_nijenhuis(CONN, samples, perturb=tamper)
    assert not all_equal(results)
    assert {r.alpha: r.mismatch for r in results}[2] is not None


def test_oracle_mixed_probe_nonzero_for_alpha2():
    # a mixed horizontal and vertical probe pair where both sides agree and
    # the common value is nonzero
    chart = TwistorChart(CONN, 1)
    q = q_at(u=F(1, 2), v=F(0))
    probes = coordinate_sections(4)
    field = chart.field(2)
    direct = nijenhuis(field, probes[0], probes[2], q)  # d/dx1 against d/du
    assert not direct.is_zero()


def test_seeded_samples_avoid_singularity():
    for s in seeded_oracle_samples(20, 3):
        assert s.fibre[0] ** 2 + s.fibre[1] ** 2 != 1
        assert s.sheet in (1, -1)


def test_oracle_samples_and_n1_scan_draw_from_the_fibre_sampler(monkeypatch):
    # one fibre-chart sampler feeds the oracle samples, the bundle-chart
    # point, the n = 1 scan and the hyperboloid-chart check
    from gctwistor import harness, twistor
    from gctwistor.harness import PRESETS, run_scenario
    counts = []

    def spy(rng, count):
        counts.append(count)
        yield from twistor.fibre_chart_samples(rng, count)

    rng = random.Random(1)
    expected = [OracleSample(random_chart_point(2, rng).coords, (u, v), sheet)
                for u, v, sheet in twistor.fibre_chart_samples(rng, 3)]
    monkeypatch.setattr(oracle, "fibre_chart_samples", spy)
    monkeypatch.setattr(harness, "fibre_chart_samples", spy)
    assert seeded_oracle_samples(3, 1) == expected and counts == [3]
    for preset, samples, checks in (
            ("thm1-n1", {"base_points": 2}, ["integrability/n1-structure1-vanishes"]),
            ("oracle-n1", {"fibre_params": 1}, ["oracle/lift-bracket-identity"]),
            ("linalg-all", {}, ["linalg/hyperboloid-chart"])):
        scenario = load_scenario({**PRESETS[preset], "samples": samples, "checks": checks})
        assert run_scenario(scenario).ok
    assert counts == [3, 2, 1, 1, 10]


def test_horizontal_lift_matches_chart_lift():
    # the closed form's lift takes its vertical part from `connection_matrix`;
    # the chart solves its lift coefficients from its own jet connection form,
    # built from the Christoffel polynomials: a sign or index slip in either
    # shows here, and the direct oracle cannot see it, since both of its
    # sides go through the chart
    scenario = load_scenario("oracle-n1")
    samples = seeded_oracle_samples(6, scenario.seed + 14)
    assert {s.sheet for s in samples} == {1, -1}
    charts = {sheet: TwistorChart(scenario.conn, sheet) for sheet in (1, -1)}
    for sample in samples:
        chart = charts[sample.sheet]
        q = sample.chart_point()
        ctx = chart.context(q)
        for a, e_a in enumerate(((F(1), F(0)), (F(0), F(1)))):
            vertical = horizontal_lift(scenario.conn, e_a, ctx.at).vertical
            assert chart.uv_coordinates(vertical, q) == ctx.gamma_values[a]


def test_scan_of_noninteg_structure_field_on_chart():
    # the second twistor structure realized on the chart is never
    # integrable: the generic scan machinery finds a witness
    from gctwistor.courant import integrability_scan
    chart = TwistorChart(CONN, 1)
    points = [q_at(), q_at(u=F(1, 2), v=F(0))]
    assert integrability_scan(chart.field(2), points, coordinate_sections(4)) is not None
    # while the first structure scans all-zero on the same points
    assert integrability_scan(chart.field(1), points, coordinate_sections(4)) is None


def test_direct_nijenhuis_is_tensorial():
    # the Nijenhuis value depends only on the pointwise values of its
    # arguments: rescaling a probe by a function equal to one at the point
    # (changing its jet, not its value) must not change the output
    from gctwistor.courant import section_from_coefficients
    chart = TwistorChart(CONN, 1)
    q = q_at(u=F(1, 3), v=F(1, 2))
    field = chart.field(2)
    probes = coordinate_sections(4)
    m = 4
    for idx_a, idx_b in ((0, 2), (1, 6), (3, 5)):
        base = [c.value for c in probes[idx_a].at(q)]
        comps = []
        for i, val in enumerate(base):
            # (val) * (1 + (x_i - x_i(q))) as a polynomial: value unchanged at
            # q, jacobian shifted by val in direction i mod m
            factor = Poly.constant(m, 1) + Poly.variable(m, i % m) \
                - Poly.constant(m, q.coords[i % m])
            comps.append(Poly.constant(m, val) * factor)
        perturbed = section_from_coefficients(m, comps)
        assert perturbed.value_at(q) == probes[idx_a].value_at(q)
        assert [c.grad for c in perturbed.at(q)] != [c.grad for c in probes[idx_a].at(q)]
        direct = nijenhuis(field, probes[idx_a], probes[idx_b], q)
        assert nijenhuis(field, perturbed, probes[idx_b], q) == direct


def test_oracle_with_generic_polynomial_connection():
    # several interacting Christoffel entries of mixed degree
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    conn = connection(1, {
        (0, 1, 1): x1,
        (1, 0, 1): x2 * x2,
        (0, 0, 0): x1 * x2,
    })
    samples = [OracleSample((F(1, 2), F(-1, 3)), (F(1, 5), F(1, 2)), 1),
               OracleSample((F(2), F(1)), (F(0), F(1, 3)), -1)]
    results = oracle_compare_nijenhuis(conn, samples)
    assert all_equal(results)
    assert all(r.lift_bracket_ok and r.vertical_bracket_ok for r in results)
    assert all(r.direct_all_zero for r in results if r.alpha == 1)


def test_table_matches_pairwise_nijenhuis_on_chart_fields():
    # the twistor structure fields vary over the chart, so every J-image
    # jet carries a nonzero product-rule term
    sample = seeded_oracle_samples(1, 5)[0]
    q = sample.chart_point()
    chart = TwistorChart(CONN, sample.sheet)
    probes = coordinate_sections(4)
    for alpha in (1, 2):
        field = chart.field(alpha)
        assert any(any(e.grad) for row in field.jet_at(q) for e in row)
        table = nijenhuis_table(field, probes, q)
        assert len(table) == 28
        for (i, k), value in table.items():
            assert value == nijenhuis(field, probes[i], probes[k], q)


# ---------------------------------------------------------------------------
# jet matrix products


_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


def _zero_pattern(draw):
    """Entries that are all zero, all nonzero or about half zeros."""
    kind = draw(st.sampled_from(["zero", "dense", "mixed"]))
    return {"zero": st.just(F(0)), "dense": _nonzero,
            "mixed": st.one_of(st.just(F(0)), _nonzero)}[kind]


@st.composite
def _jet_matrices(draw):
    """Two square jet matrices whose values and gradients each follow their
    own zero pattern, so zero jets, zero-valued jets with a gradient and
    constant jets all occur."""
    size, nvars = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def matrix():
        values, grads = _zero_pattern(draw), _zero_pattern(draw)
        return [[Jet(draw(values), tuple(draw(grads) for _ in range(nvars)))
                 for _ in range(size)] for _ in range(size)]

    return matrix(), matrix(), nvars


@settings(max_examples=80, deadline=None)
@given(_jet_matrices())
def test_jmat_mul_matches_dense_triple_loop(operands):
    # zero jets of either factor are skipped; the product is the same jets
    a, b, nvars = operands
    size = len(a)
    dense = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = Jet.constant(0, nvars)
            for k in range(size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        dense.append(row)
    product = jmat_mul(a, b)
    assert product == dense
    assert all(type(x) is F for row in product for e in row for x in (e.value,) + e.grad)
