import json
import random
import re
from fractions import Fraction as F

import pytest

from gctwistor import exactmat as xm
from gctwistor import twistor
from gctwistor.gclinalg import (
    Endo,
    InvariantError,
    basis_covector,
    basis_vector,
    coordinate_elements,
    fib_pairing,
    gelem,
    hyperboloid_point,
    is_vertical,
    gl_action,
    gl_endo,
    neutral_pairing,
    reference_basis,
    vertical_space_basis,
)
from gctwistor.harness import _probe_set
from gctwistor.poly import Poly, chart_point
from gctwistor.twistor import (
    Connection,
    CurvatureValue,
    MuForm,
    NotVerticalError,
    TwistorPoint,
    TwistorTangent,
    connection,
    connection_from_json,
    curvature,
    curvature_from_mu,
    fibre_chart_samples,
    flat_connection,
    horizontal_lift,
    hybrid_nijenhuis_horizontal,
    interchanging_structure,
    mu_forced_zero_check,
    nijenhuis_closed_form_table,
    nijenhuis_coform,
    nijenhuis_horizontal,
    nijenhuis_mixed,
    random_chart_point,
    random_invertible_matrix,
    sample_adapted_point,
    sample_fibre_structure,
    tangent_from_parts,
    twistor_J,
    validate_tangent,
)
from gctwistor.twistor import _mu_constraint_rows

X1_2 = Poly.variable(2, 0)
CONN_N1 = connection(1, {(0, 1, 1): X1_2})
CONN_N2 = connection(2, {(0, 1, 1): Poly.variable(4, 0)})


def n1_point(u, v, sheet=1, base=(F(1), F(2))):
    structure = hyperboloid_point(u, v, sheet, reference_basis(1))
    return TwistorPoint(chart_point(base), structure)


# ---------------------------------------------------------------------------
# connections and curvature


def test_torsion_free_enforced():
    with pytest.raises(InvariantError):
        Connection(1, (((0, 0, 1), X1_2),))  # mirror entry absent


def test_repeated_entry_rejected():
    # the curvature sums would add both entries, the torsion check only the last
    with pytest.raises(InvariantError, match='lists Christoffel key "1,2,2" twice'):
        Connection(1, (((0, 1, 1), X1_2), ((0, 1, 1), X1_2)))


def test_connection_json_roundtrip():
    # Gamma^1_22 = x1 (1-based), its mirror filled in by the loader
    data = json.loads('{"1,2,2": [{"exponents": [1, 0], "coeff": "1"}]}')
    back = connection_from_json(1, data)
    assert back.entries == CONN_N1.entries


def test_zero_entries_are_dropped():
    # a connection has no entries exactly when every Christoffel symbol is zero
    zero = Poly.constant(2, 0)
    assert connection(1, {(0, 0, 1): zero}).entries == ()
    assert connection_from_json(1, {"1,1,1": []}).entries == ()
    assert connection_from_json(
        1, {"1,1,1": [{"exponents": [0, 0], "coeff": "0"}]}).entries == ()
    assert connection(1, {(0, 1, 1): X1_2, (1, 0, 0): zero}).entries == CONN_N1.entries


def test_curvature_zero_at_a_point_is_still_curved():
    assert flat_connection(2).is_flat and not CONN_N1.is_flat and not CONN_N2.is_flat
    # Gamma^1_22 = x1^2: R(d_1, d_2) e_2 = -2 x1 e_1, zero on x1 = 0 only
    quadratic = connection(1, {(0, 1, 1): X1_2 * X1_2})
    assert not quadratic.is_flat
    assert xm.is_zero(quadratic.curvature_basis_at(chart_point([F(0), F(3)]))[(0, 1)])
    assert quadratic.curvature_basis_at(chart_point([F(1, 2), F(3)]))[(0, 1)] == \
        ((F(0), F(-1)), (F(0), F(0)))


@pytest.mark.parametrize("second", [" 1,2,2", "01,2,2", "1, 2,2"])
def test_duplicate_christoffel_key_rejected(second):
    # two spellings of one triple: neither may silently replace the other
    x1 = [{"exponents": [1, 0], "coeff": "1"}]
    message = f"Christoffel keys '1,2,2' and '{second}' both name Gamma^1_22"
    with pytest.raises(ValueError, match=re.escape(message)):
        connection_from_json(1, {"1,2,2": x1, second: []})


X1_JSON = [{"exponents": [1, 0], "coeff": "1"}]


@pytest.mark.parametrize("gamma, message", [
    ({"1,1,2": X1_JSON, "1,2,1": [{"exponents": [0, 1], "coeff": "1"}]},
     'connection has torsion: Christoffel key "1,1,2" differs from Christoffel key "1,2,1"'),
    ({"0,1,1": X1_JSON}, 'Christoffel key "0,1,1" is out of range 1..2'),
    ({"1,1,3": X1_JSON}, 'Christoffel key "1,1,3" is out of range'),
    ({"1,1,2": [{"exponents": [1, 0]}]},
     "Christoffel key '1,1,2': a polynomial term is an object with exactly the keys "
     "exponents and coeff, got {'exponents': [1, 0]}"),
    ({"1,1,2": {"exponents": [1, 0], "coeff": "1"}},
     "Christoffel key '1,1,2': a polynomial is a list of terms"),
    ({"1,1,2": [{"exponents": [1, 0], "coeff": "1", "extra": 3}]},
     "Christoffel key '1,1,2': a polynomial term is an object with exactly the keys"),
    ({"1,1,2": [{"exponents": 1, "coeff": "1"}]},
     "Christoffel key '1,1,2': exponents must be a list of integers >= 0, got 1"),
], ids=["torsion", "index-zero", "index-past-dim", "no-coeff", "object-gamma", "extra-key",
        "exponents-int"])
def test_christoffel_errors_name_the_one_based_key(gamma, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        connection_from_json(1, gamma)


def test_mirror_key_is_another_triple():
    x1 = [{"exponents": [1, 0], "coeff": "1"}]
    both = connection_from_json(1, {"1,1,2": x1, "1,2,1": x1})
    assert both.entries == connection_from_json(1, {"1,1,2": x1}).entries
    with pytest.raises(InvariantError, match="torsion"):
        connection_from_json(1, {"1,1,2": x1, "1,2,1": []})


def test_curvature_sign_convention():
    p = chart_point([F(2), F(3)])
    r = curvature(CONN_N1, (F(1), F(0)), (F(0), F(1)), p)
    assert xm.mat_vec(r.endo_tm, (F(0), F(1))) == (F(-1), F(0))


def test_curvature_antisymmetry_random_connection():
    rng = random.Random(1)
    gamma = {}
    for _ in range(4):
        k, i, j = rng.randrange(2), rng.randrange(2), rng.randrange(2)
        gamma[(k, i, j)] = Poly.from_dict(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                              F(rng.randint(-3, 3))})
        gamma[(k, j, i)] = gamma[(k, i, j)]
    conn = connection(1, gamma)
    p = chart_point([F(1, 2), F(-1, 3)])
    x, y = (F(1), F(2)), (F(-1), F(1, 2))
    r_xy = curvature(conn, x, y, p)
    r_yx = curvature(conn, y, x, p)
    assert r_xy.endo_tm == xm.mat_neg(r_yx.endo_tm)


def test_flat_connections_have_zero_curvature():
    p = chart_point([F(1), F(1)])
    assert xm.is_zero(curvature(flat_connection(1), (F(1), F(0)), (F(0), F(1)), p).endo_tm)
    constant = connection(1, {(0, 0, 1): Poly.constant(2, 0)})
    assert xm.is_zero(curvature(constant, (F(1), F(0)), (F(0), F(1)), p).endo_tm)


def test_flat_curvature_table_is_zero_and_memoized():
    p = chart_point([F(1), F(2), F(-1), F(1, 2)])
    flat = flat_connection(2)
    table = flat.curvature_basis_at(p)
    # the same (a, b) keys as a curved table, every matrix zero
    assert table.keys() == CONN_N2.curvature_basis_at(p).keys()
    assert all(r == xm.zeros(4, 4) for r in table.values())


_X6 = [Poly.variable(6, i) for i in range(6)]
# flat, one-key and three-key connections for the sparse Christoffel sums
SPARSE_CHECK_CONNECTIONS = (
    CONN_N1, CONN_N2, flat_connection(2),
    connection(3, {(0, 1, 1): _X6[0], (1, 0, 2): _X6[1] * Poly.constant(6, F(2, 3)),
                   (2, 3, 4): _X6[2] * _X6[5] + Poly.constant(6, 1)}))


def _dense_curvature_table(conn, p):
    """R(d_a, d_b) for a < b from the full Christoffel arrays, every index summed."""
    dim = conn.dim
    g = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    dg = [[[[F(0)] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for (k, i, j), poly in conn.entries:
        g[k][i][j] = poly.evaluate(p.coords)
        for a in range(dim):
            dg[a][k][i][j] = poly.partial(a).evaluate(p.coords)
    return {(a, b): tuple(tuple(-(dg[a][k][b][l] - dg[b][k][a][l]
                                  + sum(g[k][a][m] * g[m][b][l] - g[k][b][m] * g[m][a][l]
                                        for m in range(dim)))
                                for l in range(dim)) for k in range(dim))
            for a in range(dim) for b in range(a + 1, dim)}


def test_sparse_curvature_table_matches_dense_sums():
    rng = random.Random(3)
    for conn in SPARSE_CHECK_CONNECTIONS:
        for _ in range(8):
            p = random_chart_point(conn.dim, rng)
            assert conn.curvature_basis_at(p) == _dense_curvature_table(conn, p)


def test_connection_matrix_matches_dense_christoffel_sums():
    rng = random.Random(4)
    for conn in SPARSE_CHECK_CONNECTIONS:
        dim = conn.dim
        for _ in range(8):
            p = random_chart_point(dim, rng)
            direction = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim))
            g = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
            for (k, i, j), poly in conn.entries:
                g[k][i][j] = poly.evaluate(p.coords)
            gx = tuple(tuple(sum(direction[a] * g[k][a][j] for a in range(dim))
                             for j in range(dim)) for k in range(dim))
            zero = xm.zeros(dim, dim)
            expected = Endo(2 * dim, tuple(gx[k] + zero[k] for k in range(dim))
                            + tuple(zero[k] + tuple(-gx[j][k] for j in range(dim))
                                    for k in range(dim)))
            assert twistor.connection_matrix(conn, direction, p) == expected


def test_extended_curvature_action():
    p = chart_point([F(2), F(3)])
    r = curvature(CONN_N1, (F(1), F(0)), (F(0), F(1)), p)
    ext = r.extended()
    # vectors transform by R, covectors by the negative dual
    assert ext.block("vv") == r.endo_tm
    assert ext.block("cc") == xm.mat_neg(xm.transpose(r.endo_tm))
    zero = xm.zeros(2, 2)
    assert ext.block("vc") == ext.block("cv") == zero


class _ScriptedRng:
    """randint returns the scripted numbers in turn and records each range."""

    def __init__(self, values):
        self.values = list(values)
        self.ranges = []

    def randint(self, a, b):
        self.ranges.append((a, b))
        return self.values.pop(0)


def test_fibre_chart_samples_skip_the_circle_and_alternate_sheets():
    # (0/2, 2/2) and (-2/2, 0/3) lie on u^2 + v^2 = 1 and are drawn again
    rng = _ScriptedRng([0, 2, 2, 2, 1, 2, 1, 3, -2, 2, 0, 3, 2, 4, -1, 4])
    assert list(fibre_chart_samples(rng, 2)) == [(F(1, 2), F(1, 3), 1), (F(1, 2), F(-1, 4), -1)]
    assert rng.values == [] and set(rng.ranges) == {(-2, 2), (2, 4)}
    samples = list(fibre_chart_samples(random.Random(7), 41))
    assert len(samples) == 41
    assert all(u * u + v * v != 1 for u, v, _ in samples)
    assert [sheet for _, _, sheet in samples] == [1, -1] * 20 + [1]
    assert list(fibre_chart_samples(random.Random(7), 0)) == []


def test_fibre_chart_samples_draw_lazily():
    # each sample draws only its own four numbers, so a caller's own draws
    # from the same rng may come between samples
    rng = _ScriptedRng([1, 2, 1, 3, -1, 3, 1, 4])
    samples = fibre_chart_samples(rng, 2)
    assert rng.ranges == []
    assert next(samples) == (F(1, 2), F(1, 3), 1) and len(rng.ranges) == 4
    assert next(samples) == (F(-1, 3), F(1, 4), -1) and len(rng.ranges) == 8
    rng = random.Random(3)
    interleaved = [(u, v, sheet, random_chart_point(2, rng))
                   for u, v, sheet in fibre_chart_samples(rng, 3)]
    replay = random.Random(3)
    for u, v, _, base in interleaved:
        assert next(fibre_chart_samples(replay, 1))[:2] == (u, v)
        assert base == random_chart_point(2, replay)


@pytest.mark.parametrize("dim, seed", [(2, 0), (4, 1), (6, 2), (8, 3)])
def test_random_invertible_matrix_is_the_product_of_its_shears(dim, seed):
    # the same draws, in the same order, multiplied out as Fraction shears
    got = twistor.random_invertible_matrix(dim, random.Random(seed))
    rng = random.Random(seed)
    expected = xm.identity(dim)
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        shear = [list(row) for row in xm.identity(dim)]
        shear[i][j] = F(rng.randint(-2, 2), rng.randint(1, 3))
        expected = xm.mat_mul(expected, xm.mat(shear))
    assert got == expected and xm.det(got) == 1
    assert all(type(x) is F for row in got for x in row)


# ---------------------------------------------------------------------------
# lifts


def test_flat_lift_has_zero_vertical_part():
    at = n1_point(F(1, 2), F(1, 3))
    lift = horizontal_lift(flat_connection(1), (F(1), F(0)), at)
    assert lift.vertical.is_zero()
    assert lift.horizontal == gelem([1, 0], [0, 0])


def test_curved_lift_vertical_is_vertical():
    at = n1_point(F(1, 2), F(1, 3))
    lift = horizontal_lift(CONN_N1, (F(0), F(1)), at)
    assert not lift.vertical.is_zero()
    assert is_vertical(lift.vertical, at.structure.j)


# ---------------------------------------------------------------------------
# the twistor structures


def sample_tangent(at, rng):
    basis = vertical_space_basis(at.structure)
    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2 * len(basis))]
    vertical = tangent_from_parts(at.n).vertical
    coform = vertical
    for c, u in zip(coeffs[:len(basis)], basis):
        vertical = vertical + u.scale(c)
    for c, u in zip(coeffs[len(basis):], basis):
        coform = coform + u.scale(c)
    dim_v = 2 * at.n
    horizontal = gelem([F(rng.randint(-3, 3), 2) for _ in range(dim_v)],
                       [F(rng.randint(-3, 3), 3) for _ in range(dim_v)])
    return tangent_from_parts(at.n, horizontal, vertical, coform)


def test_twistor_structures_square_to_minus_one():
    rng = random.Random(2)
    at = n1_point(F(1, 2), F(1, 5))
    for alpha in (1, 2):
        for _ in range(3):
            t = sample_tangent(at, rng)
            assert (twistor_J(alpha, twistor_J(alpha, t, at), at) + t).is_zero()


def test_alpha_difference_is_vertical_sign():
    rng = random.Random(3)
    at = n1_point(F(1, 3), F(1, 7), sheet=-1)
    t = sample_tangent(at, rng)
    t1 = twistor_J(1, t, at)
    t2 = twistor_J(2, t, at)
    assert t1.horizontal == t2.horizontal
    assert (t1.vertical + t2.vertical).is_zero()
    assert (t1.vertical_coform + t2.vertical_coform).is_zero()


def twistor_pairing(t1, t2):
    """The neutral pairing of the twistor space in the splitting frame."""
    vertical = F(1, 2) * (fib_pairing(t1.vertical_coform, t2.vertical)
                          + fib_pairing(t2.vertical_coform, t1.vertical))
    return neutral_pairing(t1.horizontal, t2.horizontal) + vertical


def test_twistor_pairing_preserved():
    rng = random.Random(4)
    at = n1_point(F(2), F(1, 2))
    for alpha in (1, 2):
        for _ in range(3):
            t = sample_tangent(at, rng)
            s = sample_tangent(at, rng)
            assert twistor_pairing(twistor_J(alpha, t, at), twistor_J(alpha, s, at)) \
                == twistor_pairing(t, s)


def test_twistor_J_rejects_non_vertical_parts():
    at = n1_point(F(1, 2), F(0))
    bad = tangent_from_parts(1, vertical=at.structure.j)
    with pytest.raises(NotVerticalError):
        twistor_J(1, bad, at)


def test_twistor_point_requires_canonical_orientation():
    from gctwistor.gclinalg import from_symplectic
    from gctwistor.gclinalg import standard_symplectic_matrix
    with pytest.raises(InvariantError):
        TwistorPoint(chart_point([F(0), F(0)]),
                     from_symplectic(standard_symplectic_matrix(1)))


# ---------------------------------------------------------------------------
# the closed-form cases


def test_horizontal_flat_alpha1_zero():
    at = n1_point(F(1, 4), F(1, 4))
    a = gelem([1, 2], [F(1, 2), 0])
    b = gelem([0, 1], [3, F(-1, 3)])
    out = nijenhuis_horizontal(1, flat_connection(1), at, a, b)
    assert out.is_zero()


def test_horizontal_flat_alpha2_pure_coform():
    at = n1_point(F(1, 4), F(-1, 4))
    a = gelem([1, 0], [0, 0])
    b = gelem([0, 0], [1, 0])
    out = nijenhuis_horizontal(2, flat_connection(1), at, a, b)
    assert out.vertical.is_zero() and out.horizontal.is_zero()
    assert not out.vertical_coform.is_zero()
    # the coform representer reproduces the defining pairing combination
    j = at.structure.j
    for w in vertical_space_basis(at.structure):
        ja, jb = j.apply(a), j.apply(b)
        wa, wb = w.apply(a), w.apply(b)
        omega_ab = (sum(x * y for x, y in zip(ja.cov, wb.vec))
                    + sum(x * y for x, y in zip(wb.cov, ja.vec))
                    - sum(x * y for x, y in zip(jb.cov, wa.vec))
                    - sum(x * y for x, y in zip(wa.cov, jb.vec)))
        assert fib_pairing(out.vertical_coform, w) == -omega_ab


def test_horizontal_n1_alpha1_any_connection_zero():
    rng = random.Random(5)
    for trial in range(10):
        u = F(rng.randint(-2, 2), 3)
        v = F(rng.randint(-2, 2), 5)
        at = n1_point(u, v, sheet=1 if trial % 2 else -1,
                      base=(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))))
        a = gelem([rng.randint(-2, 2) for _ in range(2)],
                  [rng.randint(-2, 2) for _ in range(2)])
        b = gelem([rng.randint(-2, 2) for _ in range(2)],
                  [rng.randint(-2, 2) for _ in range(2)])
        assert nijenhuis_horizontal(1, CONN_N1, at, a, b).is_zero()


def test_mixed_term_values():
    rng = random.Random(6)
    sample = sample_adapted_point(1, rng)
    v = sample.basis.generator(0, 2) - sample.basis.generator(1, 3)
    q1 = sample.basis.vectors[0]
    q4 = sample.basis.vectors[3]
    assert nijenhuis_mixed(1, sample.at, q1, v).is_zero()
    out = nijenhuis_mixed(2, sample.at, q1, v)
    assert out.horizontal == q4.scale(2)
    assert not out.horizontal.is_zero()
    assert nijenhuis_mixed(2, sample.at, q1, tangent_from_parts(1).vertical).is_zero()


def test_mixed_term_n2():
    rng = random.Random(7)
    sample = sample_adapted_point(2, rng)
    v = sample.basis.generator(0, 2) - sample.basis.generator(1, 3)
    q1 = sample.basis.vectors[0]
    q4 = sample.basis.vectors[3]
    assert nijenhuis_mixed(2, sample.at, q1, v).horizontal == q4.scale(2)


def test_mixed_rejects_non_vertical():
    at = n1_point(F(0), F(1, 2))
    with pytest.raises(NotVerticalError):
        nijenhuis_mixed(2, at, gelem([1, 0], [0, 0]), at.structure.j)


def test_coform_flat_zero_both_alphas():
    at = n1_point(F(1, 6), F(0))
    phi = vertical_space_basis(at.structure)[0]
    a = gelem([1, 1], [0, F(1, 2)])
    for alpha in (1, 2):
        assert nijenhuis_coform(alpha, flat_connection(1), at, a, phi).is_zero()


def test_coform_pairing_roundtrip():
    # the returned horizontal value pairs against every probe exactly as the
    # defining functional prescribes
    at = n1_point(F(1, 3), F(1, 4))
    basis = vertical_space_basis(at.structure)
    phi = basis[0] + basis[1].scale(F(1, 2))
    a = gelem([1, -1], [F(1, 2), 2])
    j = at.structure.j
    for alpha in (1, 2):
        out = nijenhuis_coform(alpha, CONN_N1, at, a, phi)
        assert out.vertical.is_zero() and out.vertical_coform.is_zero()
        for b in coordinate_elements(2):
            n1 = nijenhuis_horizontal(1, CONN_N1, at, a, b)
            expected = -F(1, 2) * fib_pairing(phi, n1.vertical)
            if alpha == 2:
                jb = j.apply(b)
                ja = j.apply(a)
                r2 = curvature(CONN_N1, a.vec, jb.vec, at.point)
                r3 = curvature(CONN_N1, ja.vec, b.vec, at.point)
                term = j.compose(r2.act_on(j)) + j.compose(r3.act_on(j))
                expected -= fib_pairing(phi, term)
            assert neutral_pairing(out.horizontal, b) == expected


def test_vertical_case_zero():
    # N_alpha of two purely vertical arguments, vector and coform parts alike,
    # is zero: on a fibre the structure is induced by a complex structure
    at = n1_point(F(1, 2), F(1, 2), sheet=-1)
    basis = vertical_space_basis(at.structure)
    v, w = basis[0], basis[1]
    probes = [tangent_from_parts(1, vertical=v, vertical_coform=w),
              tangent_from_parts(1, vertical=v, vertical_coform=v),
              tangent_from_parts(1, vertical_coform=w),
              tangent_from_parts(1, vertical=w)]
    for alpha in (1, 2):
        table = nijenhuis_closed_form_table(alpha, CONN_N1, at, probes)
        assert len(table) == 6 and all(value.is_zero() for value in table.values())
    with pytest.raises(NotVerticalError):
        nijenhuis_closed_form_table(1, CONN_N1, at,
                                    [probes[0], tangent_from_parts(1, vertical=at.structure.j)])


def two_probe(alpha, conn, at, e, f):
    """N_alpha(E, F): the closed-form table over the two probes E and F."""
    return nijenhuis_closed_form_table(alpha, conn, at, (e, f))[(0, 1)]


def test_closed_form_reduces_to_horizontal():
    at = n1_point(F(1, 5), F(2, 5))
    a = tangent_from_parts(1, horizontal=gelem([1, 0], [0, 1]))
    b = tangent_from_parts(1, horizontal=gelem([0, 1], [1, 0]))
    direct = nijenhuis_horizontal(2, CONN_N1, at, a.horizontal, b.horizontal)
    assembled = two_probe(2, CONN_N1, at, a, b)
    assert (assembled - direct).is_zero()


def test_closed_form_antisymmetry():
    rng = random.Random(8)
    at = n1_point(F(1, 2), F(1, 7))
    for alpha in (1, 2):
        e = sample_tangent(at, rng)
        f = sample_tangent(at, rng)
        lhs = two_probe(alpha, CONN_N1, at, e, f)
        rhs = two_probe(alpha, CONN_N1, at, f, e)
        assert (lhs + rhs).is_zero()


def test_closed_form_structure1_compatibility_identity():
    # N(J1 E, F) = N(E, J1 F) = -J1 N(E, F) for the integrable case
    rng = random.Random(9)
    at = n1_point(F(1, 3), F(-1, 3))
    e = sample_tangent(at, rng)
    f = sample_tangent(at, rng)
    lhs = two_probe(1, CONN_N1, at, twistor_J(1, e, at), f)
    mid = two_probe(1, CONN_N1, at, e, twistor_J(1, f, at))
    rhs = twistor_J(1, two_probe(1, CONN_N1, at, e, f), at).scale(-1)
    assert (lhs - mid).is_zero()
    assert (lhs - rhs).is_zero()


def test_closed_form_n2_flat_vanishes_curved_does_not():
    rng = random.Random(10)
    structure = sample_fibre_structure(2, rng)
    at = TwistorPoint(random_chart_point(4, rng), structure)
    probes = [tangent_from_parts(2, horizontal=h) for h in coordinate_elements(4)]
    flat = flat_connection(2)
    for i in range(0, len(probes), 3):
        for k in range(i + 1, len(probes), 3):
            assert two_probe(1, flat, at, probes[i], probes[k]).is_zero()
    found = False
    for i in range(len(probes)):
        for k in range(i + 1, len(probes)):
            if not two_probe(1, CONN_N2, at, probes[i], probes[k]).is_zero():
                found = True
    assert found


def reference_closed_form(alpha, conn, at, e, f, basis):
    """N(E, F) assembled pair by pair from the per-case evaluators; a case
    with a zero horizontal argument is zero by linearity and is skipped."""
    terms = []
    if not (e.horizontal.is_zero() or f.horizontal.is_zero()):
        terms.append(nijenhuis_horizontal(alpha, conn, at, e.horizontal, f.horizontal, basis))
    for a, other, s in ((e.horizontal, f, 1), (f.horizontal, e, -1)):
        if not a.is_zero():
            terms += [nijenhuis_mixed(alpha, at, a, other.vertical).scale(s),
                      nijenhuis_coform(alpha, conn, at, a, other.vertical_coform).scale(s)]
    out = tangent_from_parts(at.n)
    for term in terms:
        out = out + term
    return out


def n2_point(seed, n=2):
    rng = random.Random(seed)
    structure = sample_fibre_structure(n, rng)
    return TwistorPoint(random_chart_point(2 * n, rng), structure)


def multikey_connection(n):
    """Gamma^1_22 = x_1, Gamma^2_13 = (2/3) x_4 and Gamma^3_44 = (1/5) x_2: at
    the points below, four or five coordinate pairs carry curvature, and
    their actions on j have different denominators."""
    return connection(n, {(0, 1, 1): Poly.variable(2 * n, 0),
                          (1, 0, 2): Poly.variable(2 * n, 3) * Poly.constant(2 * n, F(2, 3)),
                          (2, 3, 3): Poly.variable(2 * n, 1) * Poly.constant(2 * n, F(1, 5))})


def table_probes(at, basis, spec, stride=1):
    """The scan probe sets ('full', 'horizontal'), thinned by a stride to keep
    the pair-by-pair reference affordable, or four random tangents."""
    if spec == "random":
        rng = random.Random(14)
        return [sample_tangent(at, rng) for _ in range(4)]
    probes = [tangent_from_parts(at.n, horizontal=h)
              for h in coordinate_elements(2 * at.n)[::stride]]
    if spec == "full":
        probes += [tangent_from_parts(at.n, vertical=u) for u in basis[::stride]]
        probes += [tangent_from_parts(at.n, vertical_coform=u) for u in basis[::stride]]
    return probes


TABLE_CASES = [
    *[("n1-curved", CONN_N1, lambda: n1_point(F(1, 3), F(-1, 4), sheet=-1), alpha, spec, 1)
      for alpha in (1, 2) for spec in ("full", "horizontal", "random")],
    ("n2-flat", flat_connection(2), lambda: n2_point(21), 1, "full", 4),
    ("n2-flat", flat_connection(2), lambda: n2_point(21), 2, "horizontal", 1),
    ("n2-curved", CONN_N2, lambda: n2_point(22), 1, "horizontal", 1),
    ("n2-curved", CONN_N2, lambda: n2_point(22), 2, "full", 4),
    # mixed probes at n = 2, where the coform case is nonzero: the pairs
    # whose second probe carries the horizontal part and the first the coform
    ("n2-curved", CONN_N2, lambda: n2_point(22), 2, "random", 1),
    # several curvature keys over different denominators
    *[("n2-multikey", multikey_connection(2), lambda: n2_point(23), alpha, spec, stride)
      for alpha in (1, 2) for spec, stride in (("full", 3), ("random", 1))],
    ("n3-multikey", multikey_connection(3), lambda: n2_point(31, n=3), 2, "full", 5),
    # all 66 horizontal pairs at n = 3
    ("n3-multikey", multikey_connection(3), lambda: n2_point(31, n=3), 2, "horizontal", 1),
]


@pytest.mark.parametrize("label, conn, point, alpha, spec, stride", TABLE_CASES,
                         ids=[f"{c[0]}-alpha{c[3]}-{c[4]}" for c in TABLE_CASES])
def test_closed_form_table_matches_pairwise_reference(label, conn, point, alpha, spec, stride):
    at = point()
    basis = vertical_space_basis(at.structure)
    probes = table_probes(at, basis, spec, stride)
    table = nijenhuis_closed_form_table(alpha, conn, at, probes)
    assert list(table) == [(i, k) for i in range(len(probes))
                           for k in range(i + 1, len(probes))]
    for (i, k), value in table.items():
        assert value == reference_closed_form(alpha, conn, at, probes[i], probes[k], basis)
    # every zero value is the one shared zero tangent
    zeros = [value for value in table.values() if value.is_zero()]
    assert len({id(value) for value in zeros}) <= 1


def test_closed_form_table_of_fewer_than_two_probes_is_empty():
    at = n1_point(F(1, 2), F(1, 3))
    probe = tangent_from_parts(1, horizontal=gelem([1, 0], [0, 1]))
    for alpha in (1, 2):
        assert nijenhuis_closed_form_table(alpha, CONN_N1, at, []) == {}
        assert nijenhuis_closed_form_table(alpha, CONN_N1, at, [probe]) == {}


def test_closed_form_table_rejects_non_vertical_probe():
    at = n1_point(F(1, 2), F(0))
    good = tangent_from_parts(1, horizontal=gelem([1, 0], [0, 1]))
    for bad in (tangent_from_parts(1, vertical=at.structure.j),
                tangent_from_parts(1, vertical_coform=at.structure.j)):
        for alpha in (1, 2):
            with pytest.raises(NotVerticalError):
                nijenhuis_closed_form_table(alpha, CONN_N1, at, [good, bad])
            with pytest.raises(NotVerticalError):
                two_probe(alpha, CONN_N1, at, bad, good)


def test_closed_form_table_checks_each_part_object_once(monkeypatch):
    at = n1_point(F(1, 3), F(1, 4))
    basis = vertical_space_basis(at.structure)
    probes = _probe_set(at.n, basis, "full")
    checked = []

    def counting_is_vertical(q, j):
        checked.append(q)
        return is_vertical(q, j)

    monkeypatch.setattr(twistor, "is_vertical", counting_is_vertical)
    nijenhuis_closed_form_table(2, CONN_N1, at, probes)
    # the vertical and the coform probe of a basis element share one check
    assert sorted(map(id, checked)) == sorted(map(id, basis))
    # an equal but distinct object is checked on its own
    checked.clear()
    copy = Endo(basis[0].dim, basis[0].rows)
    probes.append(tangent_from_parts(at.n, vertical_coform=copy))
    nijenhuis_closed_form_table(2, CONN_N1, at, probes)
    assert len(checked) == len(basis) + 1 and any(q is copy for q in checked)


def test_closed_form_table_rejects_bad_alpha():
    at = n1_point(F(1, 2), F(0))
    with pytest.raises(ValueError):
        nijenhuis_closed_form_table(3, CONN_N1, at, [])


def substitute_linear(poly, m):
    """poly(m y) as a polynomial in y, for a square rational matrix m."""
    nvars = poly.nvars
    xs = [sum((Poly.variable(nvars, c) * Poly.constant(nvars, m[r][c])
               for c in range(nvars) if m[r][c]),
              Poly.constant(nvars, 0)) for r in range(nvars)]
    out = Poly.constant(nvars, 0)
    for exps, coeff in poly.terms:
        term = Poly.constant(nvars, coeff)
        for x, e in zip(xs, exps):
            for _ in range(e):
                term = term * x
        out = out + term
    return out


def pushed_connection(conn, g, g_inv):
    """The connection in the coordinates y = g x: Gamma'(y)(u, v) =
    g Gamma(g^-1 y)(g^-1 u, g^-1 v), a tensor because g is linear."""
    dim = conn.dim
    moved = {key: substitute_linear(poly, g_inv) for key, poly in conn.entries}
    gamma = {}
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                total = Poly.constant(dim, 0)
                for (a, b, c), poly in moved.items():
                    coeff = g[k][a] * g_inv[b][i] * g_inv[c][j]
                    if coeff:
                        total = total + poly * Poly.constant(dim, coeff)
                gamma[k, i, j] = total
    return connection(conn.n, gamma)


def quadratic_connection(n):
    """Three quadratic Christoffel entries with cross terms."""
    x = [Poly.variable(2 * n, i) for i in range(2 * n)]
    return connection(n, {(0, 1, 1): x[0] * x[1] + x[2],
                          (1, 0, 2): x[3] * x[3] * Poly.constant(2 * n, F(2, 3)),
                          (2, 3, 3): x[0] - x[1] * x[2] * Poly.constant(2 * n, F(1, 5))})


NATURALITY_CASES = [(n, alpha, label, conn)
                    for n in (2, 3) for alpha in (1, 2)
                    for label, conn in (("x1", connection(n, {(0, 1, 1): Poly.variable(2 * n, 0)})),
                                        ("quadratic", quadratic_connection(n)))]


@pytest.mark.parametrize("n, alpha, label, conn", NATURALITY_CASES,
                         ids=[f"n{c[0]}-alpha{c[1]}-{c[2]}" for c in NATURALITY_CASES])
def test_closed_form_is_natural_under_linear_coordinate_changes(n, alpha, label, conn):
    """The closed form commutes with a linear change of base coordinates.

    Take y = g x with g invertible, G = gl_endo(g) and the pushed connection
    Gamma'.  The table at (g x, G j G^-1) on the mapped probes (horizontal
    parts mapped by G, vertical and coform parts conjugated by G) equals
    the table at (x, j) mapped the same way.  It catches an index slip in
    the curvature, such as R(d_a, d_b) transposed.  It does not catch
    ROADMAP's mutants M1, the alpha sign of the twisted coefficient, and
    M4, dropping the Gamma.Gamma terms of the curvature: both pass, because both formulas stay natural under linear maps.  Only a
    direct computation with all of the closed form's terms live catches
    them (ROADMAP item 2).
    """
    rng = random.Random(40 + 10 * n + alpha)
    at = n2_point(rng.randrange(1000), n)
    g = random_invertible_matrix(2 * n, rng)
    g_inv = xm.inverse(g)
    big_g, big_g_inv = gl_endo(g), gl_endo(g_inv)

    def conj(u):
        return big_g.compose(u).compose(big_g_inv)

    def mapped(t):
        return TwistorTangent(big_g.apply(t.horizontal), conj(t.vertical),
                              conj(t.vertical_coform))

    basis = vertical_space_basis(at.structure)
    probes = _probe_set(n, basis, "full")
    table = nijenhuis_closed_form_table(alpha, conn, at, probes)
    moved_at = TwistorPoint(chart_point(xm.mat_vec(g, at.point.coords)),
                            gl_action(g, at.structure))
    moved_table = nijenhuis_closed_form_table(alpha, pushed_connection(conn, g, g_inv), moved_at,
                                              [mapped(t) for t in probes])
    assert not all(value.is_zero() for value in table.values())
    for key, value in table.items():
        moved = moved_table[key]
        assert moved.is_zero() if value.is_zero() else moved == mapped(value), key


# ---------------------------------------------------------------------------
# the curvature-form argument


def test_curvature_from_mu_values():
    mu = MuForm(xm.zeros(2, 2))
    assert curvature_from_mu(mu, (F(1), F(0)), (F(0), F(1)), (F(1), F(0))) == (0, 0)
    mu = MuForm(xm.mat([[1, 0], [0, 0]]))  # eta1 (x) eta1
    got = curvature_from_mu(mu, (F(1), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert got == (F(0), F(1))


def test_curvature_from_mu_antisymmetry():
    mu = MuForm(xm.mat([[1, 2], [F(1, 2), -1]]))
    x, y, z = (F(1), F(2)), (F(-1), F(3)), (F(2), F(1))
    lhs = curvature_from_mu(mu, x, y, z)
    rhs = curvature_from_mu(mu, y, x, z)
    assert tuple(a + b for a, b in zip(lhs, rhs)) == (0, 0)


def test_interchanging_structures_are_valid():
    j = interchanging_structure(2)
    assert j.j.apply(basis_vector(4, 0)) == basis_covector(4, 1)
    assert j.j.apply(basis_vector(4, 1)) == basis_covector(4, 0).scale(-1)
    # for odd n the last pair is a complex pair
    odd = interchanging_structure(1)
    assert odd.j.apply(basis_vector(2, 0)) == basis_vector(2, 1)
    assert odd.j.apply(basis_covector(2, 0)) == basis_covector(2, 1)
    j3 = interchanging_structure(3)
    assert j3.j.apply(basis_vector(6, 0)) == basis_covector(6, 1)
    assert j3.j.apply(basis_vector(6, 4)) == basis_vector(6, 5)


@pytest.mark.parametrize("n", range(1, 7))
def test_interchanging_structure_orientation(n):
    assert interchanging_structure(n).orientation() == 1


def test_mu_system_kernel():
    # mu = 0 satisfies the system by linearity; the interesting content is
    # that nothing else does, already for the one interchanging structure
    for n in (2, 4, 5):
        report = mu_forced_zero_check(n)
        assert (report.unknowns, report.rank, report.kernel_dim) == ((2 * n) ** 2,) * 2 + (0,)


def test_mu_system_kernel_n3():
    report = mu_forced_zero_check(3)
    assert (report.unknowns, report.rank) == (36, 36)
    assert report.kernel_dim == 0


def test_mu_system_rejects_n1():
    from gctwistor.gclinalg import DimensionMismatchError
    with pytest.raises(DimensionMismatchError, match="n >= 2"):
        mu_forced_zero_check(1)


def test_mu_system_rejects_off_component_structure(monkeypatch):
    from gctwistor.gclinalg import from_symplectic, standard_symplectic_matrix

    def off_component(n):
        # induced by a symplectic form: orientation -1 at odd n
        return from_symplectic(standard_symplectic_matrix(n))

    assert off_component(3).orientation() == -1
    monkeypatch.setattr(twistor, "interchanging_structure", off_component)
    with pytest.raises(InvariantError):
        mu_forced_zero_check(3)


def _mu_rows_from_paper_formula(n, structure):
    """The rows of R_mu(e_a, e_b) j = 0 evaluated from `curvature_from_mu` on
    each unit form mu = eta_i (x) eta_j, one column per unknown."""
    dim_v = 2 * n
    unknowns = dim_v * dim_v
    basis = [tuple(F(int(t == s)) for t in range(dim_v)) for s in range(dim_v)]
    rows = []
    for a in range(dim_v):
        for b in range(a + 1, dim_v):
            columns = []
            for idx in range(unknowns):
                mu = MuForm(tuple(tuple(F(int(i * dim_v + j == idx)) for j in range(dim_v))
                                  for i in range(dim_v)))
                r_tm = [curvature_from_mu(mu, basis[a], basis[b], basis[l]) for l in range(dim_v)]
                value = CurvatureValue(n, xm.transpose(xm.mat(r_tm))).act_on(structure.j)
                columns.append([x for row in value.rows for x in row])
            rows.extend(tuple(col[t] for col in columns) for t in range(len(columns[0])))
    return rows


@pytest.mark.parametrize("n, structure", [
    (2, interchanging_structure(2)),
    (3, interchanging_structure(3)),
], ids=["n2-identity", "n3-odd"])
def test_mu_constraint_rows_match_paper_formula(n, structure):
    rows = _mu_constraint_rows(n, structure)
    assert len(rows) == (2 * n) * (2 * n - 1) // 2 * (4 * n) ** 2
    assert rows == _mu_rows_from_paper_formula(n, structure)


# ---------------------------------------------------------------------------
# hybrid structures


def test_hybrid_witness_value():
    rng = random.Random(11)
    for _ in range(2):
        sample = sample_adapted_point(1, rng)
        v = sample.basis.generator(0, 2) - sample.basis.generator(1, 3)
        q1 = sample.basis.vectors[0]
        q4 = sample.basis.vectors[3]
        got = hybrid_nijenhuis_horizontal(sample.at, q1, v)
        assert got == q4
        assert not got.is_zero()
    zero_v = tangent_from_parts(1).vertical
    assert hybrid_nijenhuis_horizontal(sample.at, q1, zero_v).is_zero()


def test_validate_tangent_catches_bad_parts():
    at = n1_point(F(1, 2), F(0))
    good = tangent_from_parts(1, vertical=vertical_space_basis(at.structure)[0])
    validate_tangent(good, at)
    with pytest.raises(NotVerticalError):
        validate_tangent(tangent_from_parts(1, vertical_coform=at.structure.j), at)


def test_constant_commuting_connection_is_flat():
    # constant Christoffel data whose direction matrices commute has zero
    # curvature: no derivative terms, vanishing bracket terms
    conn = connection(1, {(0, 0, 0): Poly.constant(2, 1)})
    p = chart_point([F(3), F(-2)])
    assert conn.entries and conn.is_flat
    assert xm.is_zero(curvature(conn, (F(1), F(0)), (F(0), F(1)), p).endo_tm)


def test_closed_form_is_bilinear():
    rng = random.Random(12)
    at = n1_point(F(1, 4), F(1, 6))
    e = sample_tangent(at, rng)
    e2 = sample_tangent(at, rng)
    f = sample_tangent(at, rng)
    for alpha in (1, 2):
        scaled = two_probe(alpha, CONN_N1, at, e.scale(F(3, 2)), f)
        plain = two_probe(alpha, CONN_N1, at, e, f)
        assert (scaled - plain.scale(F(3, 2))).is_zero()
        summed = two_probe(alpha, CONN_N1, at, e + e2, f)
        other = two_probe(alpha, CONN_N1, at, e2, f)
        assert (summed - plain - other).is_zero()
