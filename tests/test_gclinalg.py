import random
import re
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gctwistor import exactmat as xm
from gctwistor import gclinalg as gl
from gctwistor import structures
from gctwistor.gclinalg import (
    DegenerateInputError,
    Endo,
    GCStructure,
    InvariantError,
    OrthonormalBasis,
    basis_covector,
    basis_vector,
    coordinate_elements,
    fib_pairing,
    gelem,
    hyperboloid_chart,
    hyperboloid_point,
    is_pairing_skew,
    is_vertical,
    reference_basis,
    skew_frames,
    standard_complex_matrix,
    structure_orientation,
    vertical_space_basis,
    zero_element,
)
from gctwistor.integrability import fiber_kahler_structure
from gctwistor.linalg import (
    dim2_basis_orientation,
    exp_two_form,
    exp_two_vector,
    gl_endo,
    neutral_pairing,
    projection_nondegeneracy_check,
    skew_decompose,
)
from gctwistor.oracle import TwistorChart
from gctwistor.structures import (
    adapted_structure,
    b_transform,
    beta_transform,
    from_complex,
    from_symplectic,
    gl_action,
    is_pairing_orthogonal,
    random_invertible_matrix,
    random_orthonormal_basis,
    random_skew_matrix,
    sample_fibre_structure,
    standard_symplectic_matrix,
)
from gctwistor.twistor import flat_connection

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def identity_endo(dim: int) -> Endo:
    return Endo(dim, xm.identity(dim))


def rotation_2():
    return xm.mat([[0, -1], [1, 0]])


def orientation_sign(vectors) -> int:
    """Sign of the transition determinant from the reference basis to a
    basis of V + V*, given as GElements or as an OrthonormalBasis; the
    independent reference for `structure_orientation`.  A zero
    determinant raises DegenerateInputError."""
    if isinstance(vectors, OrthonormalBasis):
        vectors = vectors.vectors
    assert len(vectors) == 2 * vectors[0].dim_v
    d = xm.det(xm.transpose(xm.mat([v.coords for v in vectors])))
    if d == 0:
        raise DegenerateInputError("input does not span the space")
    return 1 if d > 0 else -1


# ---------------------------------------------------------------------------
# pairing


def test_pairing_basis_values():
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    a1 = basis_covector(2, 0)
    assert neutral_pairing(e1, a1) == F(1, 2)
    assert neutral_pairing(e1, e2) == 0
    assert neutral_pairing(e1 + a1, e1 + a1) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8),
       st.lists(rationals, min_size=8, max_size=8))
def test_pairing_symmetric_bilinear(a_coords, b_coords):
    a = gelem(a_coords[:4], a_coords[4:])
    b = gelem(b_coords[:4], b_coords[4:])
    assert neutral_pairing(a, b) == neutral_pairing(b, a)
    assert neutral_pairing(a + b, b) == neutral_pairing(a, b) + neutral_pairing(b, b)
    assert neutral_pairing(a.scale(F(3, 2)), b) == F(3, 2) * neutral_pairing(a, b)


# ---------------------------------------------------------------------------
# orientation


def test_reference_basis_is_positively_oriented():
    assert orientation_sign(coordinate_elements(2)) == 1
    assert orientation_sign(list(reference_basis(1).vectors)) == 1


def test_complex_type_adapted_basis_orientation():
    # {Q, JQ, ...} completed with a covector, since J preserves the V block
    j = from_complex(rotation_2())
    e1 = basis_vector(2, 0)
    a1 = basis_covector(2, 0)
    adapted = [e1, j.j.apply(e1), a1, j.j.apply(a1)]
    assert orientation_sign(adapted) == 1


def test_symplectic_basis_orientation_negative_n1():
    s = from_symplectic(standard_symplectic_matrix(1))
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    assert orientation_sign([e1, s.j.apply(e1), e2, s.j.apply(e2)]) == -1


def test_orientation_rejects_degenerate_input():
    e1 = basis_vector(2, 0)
    with pytest.raises(DegenerateInputError):
        orientation_sign([e1, e1, basis_vector(2, 1), basis_covector(2, 0)])


# ---------------------------------------------------------------------------
# orthonormal bases and the two basis reports


def test_reference_projection_is_identity():
    report = projection_nondegeneracy_check(reference_basis(1))
    assert report.det_p == 1 and report.ok


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 2])
def test_random_basis_projection_bound(seed, n):
    basis = random_orthonormal_basis(n, seed)
    report = projection_nondegeneracy_check(basis)
    assert report.det_p != 0
    assert report.det_p ** 2 >= 1
    assert report.ok


def test_non_orthonormal_input_rejected():
    e1 = basis_vector(2, 0)
    a1 = basis_covector(2, 0)
    vectors = (e1 + a1, e1 + a1, e1 - a1, basis_vector(2, 1) - basis_covector(2, 1))
    with pytest.raises(InvariantError):
        OrthonormalBasis(vectors)


def test_dim2_reference_transition():
    report = dim2_basis_orientation(reference_basis(1))
    assert report.a == xm.identity(2)
    assert report.orthogonal
    assert report.transition_det == 4
    assert report.orientation == 1


def test_dim2_reflected_basis():
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    a1 = basis_covector(2, 0)
    a2 = basis_covector(2, 1)
    vectors = (e1 + a1, e2 + a2, e1 - a1, (e2 - a2).scale(-1))
    basis = OrthonormalBasis(vectors)
    report = dim2_basis_orientation(basis)
    assert report.a == xm.mat([[1, 0], [0, -1]])
    assert report.transition_det == -4
    assert report.orientation == -1


def test_dim2_rational_rotation_point():
    # rotate the negative pair by the rational circle point (3/5, 4/5)
    c, s = F(3, 5), F(4, 5)
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    a1 = basis_covector(2, 0)
    a2 = basis_covector(2, 1)
    q3 = (e1 - a1).scale(c) - (e2 - a2).scale(s)
    q4 = (e1 - a1).scale(s) + (e2 - a2).scale(c)
    basis = OrthonormalBasis((e1 + a1, e2 + a2, q3, q4))
    report = dim2_basis_orientation(basis)
    assert report.orthogonal
    assert xm.det(report.a) == 1
    assert report.transition_det == 4


def test_dim2_sampled_bases():
    for seed in range(30):
        report = dim2_basis_orientation(random_orthonormal_basis(1, seed))
        assert report.orthogonal
        assert report.transition_det == 4 * xm.det(report.a)


def _gelement_moves_basis(n, seed):
    """The random basis built move by move on GElements: the reference
    basis and the same word of rotations, drawn in the same order."""
    rng = random.Random(seed)
    vectors = list(reference_basis(n).vectors)
    dim_v = 2 * n
    for _ in range(structures._BASIS_WORD_LENGTH):
        kind = rng.choice(("circular+", "circular-", "hyperbolic"))
        if kind == "circular+":
            i, k = rng.sample(range(dim_v), 2)
        elif kind == "circular-":
            i, k = (dim_v + x for x in rng.sample(range(dim_v), 2))
        else:
            i, k = rng.randrange(dim_v), dim_v + rng.randrange(dim_v)
        vi, vk = vectors[i], vectors[k]
        params = (structures._hyperbolic_params if kind == "hyperbolic"
                  else structures._rotation_params)
        a, b, e = params(rng)
        c, s = F(a, e), F(b, e)
        if kind == "hyperbolic":
            vectors[i] = vi.scale(c) + vk.scale(s)
        else:
            vectors[i] = vi.scale(c) - vk.scale(s)
        vectors[k] = vi.scale(s) + vk.scale(c)
    return tuple(vectors)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_basis_matches_gelement_moves(n, seed):
    # integer coordinates over per-element denominators give the same rationals
    basis = random_orthonormal_basis(n, seed)
    assert basis.vectors == _gelement_moves_basis(n, seed)
    assert basis.signs == (1,) * (2 * n) + (-1,) * (2 * n)
    assert all(type(x) is F for v in basis.vectors for x in v.coords)


@pytest.mark.parametrize("n, seed", [(1, 3), (2, 5), (3, 1)])
def test_perturbed_basis_entry_rejected(n, seed):
    basis = random_orthonormal_basis(n, seed)
    vectors = basis.vectors
    rng = random.Random(seed)
    for _ in range(6):
        i = rng.randrange(len(vectors))
        c = rng.randrange(4 * n)
        coords = list(vectors[i].coords)
        coords[c] += F(1, 7)
        perturbed = list(vectors)
        perturbed[i] = gl.from_coords(coords)
        # the pairing of element i with itself or with another element moves
        with pytest.raises(InvariantError, match=r"pairing of elements \d+ and \d+"):
            OrthonormalBasis(tuple(perturbed))


@pytest.mark.parametrize("n", [1, 2])
def test_rescaled_basis_element_rejected(n):
    # orthogonality survives a rescaling, the norm eps_i does not (a sign flip keeps it)
    basis = random_orthonormal_basis(n, 2)
    for i in range(4 * n):
        vectors = list(basis.vectors)
        vectors[i] = vectors[i].scale(-1)
        OrthonormalBasis(tuple(vectors))
        vectors[i] = vectors[i].scale(F(2, 3))
        with pytest.raises(InvariantError, match=f"elements {i} and {i} "):
            OrthonormalBasis(tuple(vectors))


def test_basis_elements_of_another_dimension_rejected():
    wide = reference_basis(2).vectors[:4]
    with pytest.raises(gl.DimensionMismatchError):
        OrthonormalBasis(wide)


# ---------------------------------------------------------------------------
# the integer basis layer against the Fraction formulas it replaced


def _fraction_rotation_params(rng):
    while True:
        p = rng.randint(-3, 3)
        q = rng.randint(-3, 3)
        if (p, q) != (0, 0) and q != 0:
            break
    den = p * p + q * q
    return F(p * p - q * q, den), F(2 * p * q, den)


def _fraction_hyperbolic_params(rng):
    while True:
        t = F(rng.randint(-2, 2), rng.randint(1, 3))
        if abs(t) != 1:
            break
    den = 1 - t * t
    return F(1 + t * t, den), F(2 * t, den)


@pytest.mark.parametrize("integer, fraction", [
    (structures._rotation_params, _fraction_rotation_params),
    (structures._hyperbolic_params, _fraction_hyperbolic_params),
], ids=["rotation", "hyperbolic"])
def test_move_params_are_integer_triples(integer, fraction):
    # the same draws give (c, s) = (a, b) / e, with e > 0 as `_combine` requires
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        a, b, e = integer(rng)
        assert all(type(x) is int for x in (a, b, e)) and e > 0
        assert (F(a, e), F(b, e)) == fraction(ref)
        assert rng.getstate() == ref.getstate()


def _fraction_projection_det(basis):
    h = basis.dim_v
    q = basis.vectors
    return xm.det(tuple(tuple(sum(q[l].cov[m] * q[k].vec[m] for m in range(h))
                              for k in range(h)) for l in range(h)))


def _fraction_dim2_report(basis):
    """(A, orthogonal, transition_det, orientation) by `xm.inverse` over Fraction."""
    e = [v.vec for v in basis.vectors]
    eta = [v.cov for v in basis.vectors]
    e12_inv = xm.inverse(xm.transpose(xm.mat(e[:2])))
    a = xm.mat([xm.mat_vec(e12_inv, e[2 + k]) for k in range(2)])
    cols = [xm.mat_vec(e12_inv, e[i]) + tuple(sum(eta[i][m] * e[k][m] for m in range(2))
                                             for k in range(2)) for i in range(4)]
    return (a, xm.mat_mul(a, xm.transpose(a)) == xm.identity(2),
            xm.det(xm.transpose(cols)), 1 if xm.det(a) > 0 else -1)


def _hand_built_dim2_bases():
    """Bases of neutral 4-space with den > 1 and both orientations: a
    rational rotation of the negative pair, a boost, and their reflections."""
    e1, e2, a1, a2 = coordinate_elements(2)
    c, s = F(3, 5), F(4, 5)
    q3 = (e1 - a1).scale(c) - (e2 - a2).scale(s)
    q4 = (e1 - a1).scale(s) + (e2 - a2).scale(c)
    ch, sh = F(5, 3), F(4, 3)  # ch^2 - sh^2 = 1
    q1 = (e1 + a1).scale(ch) + (e1 - a1).scale(sh)
    q3b = (e1 + a1).scale(sh) + (e1 - a1).scale(ch)
    bases = [(e1 + a1, e2 + a2, q3, q4), (q1, e2 + a2, q3b, e2 - a2)]
    bases += [(x, y, z, w.scale(-1)) for x, y, z, w in bases]
    return [OrthonormalBasis(v) for v in bases]


def test_basis_reports_match_fraction_formulas():
    bases = [random_orthonormal_basis(n, seed) for n in (1, 2, 3) for seed in range(60)]
    bases += _hand_built_dim2_bases()
    assert sum(b.den > 1 for b in bases) > 150
    for basis in bases:
        report = projection_nondegeneracy_check(basis)
        assert report.det_p == _fraction_projection_det(basis)
        assert report.ok == (report.det_p ** 2 >= 1)
        if basis.dim_v == 2:
            got = dim2_basis_orientation(basis)
            assert (got.a, got.orthogonal, got.transition_det, got.orientation) == \
                _fraction_dim2_report(basis)
    assert {dim2_basis_orientation(b).orientation for b in _hand_built_dim2_bases()} == {1, -1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_basis_equals_gelement_basis(n):
    built = [reference_basis(n)] + [random_orthonormal_basis(n, seed) for seed in range(10)]
    for basis in built:
        # lowest terms, so equal values have one representation
        assert basis.den > 0 and gcd(basis.den, *(x for row in basis.num for x in row)) == 1
        again = OrthonormalBasis(basis.vectors)
        assert again == basis and hash(again) == hash(basis)
        assert again.vectors == basis.vectors
    dim_v = 2 * n
    plus = [basis_vector(dim_v, i) + basis_covector(dim_v, i) for i in range(dim_v)]
    minus = [basis_vector(dim_v, i) - basis_covector(dim_v, i) for i in range(dim_v)]
    assert OrthonormalBasis(tuple(plus + minus)) == built[0]
    assert built[1] != built[2] and OrthonormalBasis(built[1].vectors) != built[2]


# ---------------------------------------------------------------------------
# constructors


def test_from_complex_covector_action():
    j = from_complex(rotation_2())
    a1 = basis_covector(2, 0)
    a2 = basis_covector(2, 1)
    # (K* a)(X) = a(KX) expanded by hand: K* a1 = -a2, so J a1 = a2
    assert j.j.apply(a1) == a2
    assert j.j.apply(a2) == -a1
    assert j.orientation() == 1


def test_from_complex_rejects_non_complex():
    with pytest.raises(InvariantError):
        from_complex(xm.identity(2))


def test_from_symplectic_standard_n1():
    s = from_symplectic(standard_symplectic_matrix(1))
    assert s.j.apply(basis_vector(2, 0)) == basis_covector(2, 1)
    assert s.j.apply(basis_covector(2, 1)) == -basis_vector(2, 0)
    assert s.orientation() == -1


def test_from_symplectic_orientation_parity():
    for n in range(1, 5):
        got = from_symplectic(standard_symplectic_matrix(n)).orientation()
        assert got == (1 if n % 2 == 0 else -1)
        assert from_complex(standard_complex_matrix(n)).orientation() == 1


def test_from_symplectic_rejects_degenerate():
    with pytest.raises(InvariantError):
        from_symplectic(xm.mat([[0, 1], [1, 0]]))  # not skew
    with pytest.raises(DegenerateInputError):
        from_symplectic(xm.zeros(2, 2))


def commute_check(a, b):
    if a.j.dim != b.j.dim:
        raise gl.DimensionMismatchError("structures live on different spaces")
    return a.j.compose(b.j) == b.j.compose(a.j)


def test_compatible_pair_commutes():
    # omega(X, Y) = g(KX, Y) for euclidean g and the rotation K
    k = rotation_2()
    omega = xm.transpose(k)
    assert commute_check(from_complex(k), from_symplectic(omega))


def test_unrelated_symplectic_does_not_commute():
    j = from_complex(standard_complex_matrix(2))
    omega = xm.mat([[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]])
    assert not commute_check(j, from_symplectic(omega))


def test_commute_with_self():
    j = from_complex(rotation_2())
    assert commute_check(j, j)


def direct_sum(a, b):
    """Block sum respecting the (V1 + V2) + (V1* + V2*) coordinate order."""
    da, db = a.dim_v, b.dim_v
    dim_v = da + db
    rows = [[F(0)] * (2 * dim_v) for _ in range(2 * dim_v)]
    for offset, source, dv in ((0, a.j, da), (da, b.j, db)):
        index = [offset + i for i in range(dv)] + [dim_v + offset + i for i in range(dv)]
        for i, row in zip(index, source.rows):
            for k, x in zip(index, row):
                rows[i][k] = x
    return GCStructure(Endo(2 * dim_v, xm.mat(rows)))


def interchanging(n):
    """J e_{2k-1} = eta_{2k}, J e_{2k} = -eta_{2k-1} (one-based) on each
    coordinate pair, the structure of the standard symplectic form, except
    that for odd n the last pair is the complex pair of
    `standard_complex_matrix(1)`; orientation +1 at every n."""
    if n % 2 == 0:
        return from_symplectic(standard_symplectic_matrix(n))
    last = from_complex(standard_complex_matrix(1))
    return direct_sum(from_symplectic(standard_symplectic_matrix(n - 1)), last) if n > 1 else last


def test_direct_sum_invariants_and_orientation():
    j1 = from_complex(rotation_2())
    s1 = from_symplectic(standard_symplectic_matrix(1))
    total = direct_sum(s1, s1)
    assert total.dim_v == 4
    # orientation multiplies: (-1) * (-1) = +1, checked by determinant
    assert total.orientation() == s1.orientation() * s1.orientation() == 1
    assert direct_sum(j1, s1).orientation() == -1


def test_direct_sum_zero_dimensional_factor():
    j1 = from_complex(rotation_2())
    empty = GCStructure(Endo(0, ()))
    assert direct_sum(j1, empty).j == j1.j
    assert direct_sum(empty, j1).j == j1.j


# ---------------------------------------------------------------------------
# transforms


def test_b_transform_zero_is_identity():
    j = from_complex(rotation_2())
    assert b_transform(j, xm.zeros(2, 2)).j == j.j


def test_exp_two_form_is_isometry():
    b = xm.mat([[0, F(5, 3)], [-F(5, 3), 0]])
    assert is_pairing_orthogonal(exp_two_form(b))
    e = exp_two_form(b)
    for x in coordinate_elements(2):
        for y in coordinate_elements(2):
            assert neutral_pairing(e.apply(x), e.apply(y)) == neutral_pairing(x, y)


@pytest.mark.parametrize("m, orthogonal", [
    (identity_endo(4), True),
    (identity_endo(4).scale(-1), True),
    # conformal: <2A, 2B> = 4 <A, B>
    (identity_endo(4).scale(2), False),
    # diag(1 + K, Id) scales the pairing differently on different vectors
    (Endo(4, xm.mat([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])), False),
], ids=["identity", "minus-identity", "conformal", "non-conformal"])
def test_pairing_orthogonality_examples(m, orthogonal):
    assert is_pairing_orthogonal(m) == orthogonal


def _orthogonal_by_definition(m):
    """m^T G m == G over Fractions, G the Gram matrix of the pairing."""
    h = m.half
    g = xm.mat([[F(1, 2) if abs(r - c) == h else 0 for c in range(2 * h)] for r in range(2 * h)])
    return xm.mat_mul(xm.mat_mul(xm.transpose(m.rows), g), m.rows) == g


def _orthogonality_cases():
    rng = random.Random(16)
    out = []
    for dim_v in (2, 4, 6):
        b = random_skew_matrix(dim_v, rng)
        g = random_invertible_matrix(dim_v, rng)
        out += [(exp_two_form(b), True), (exp_two_vector(b), True), (gl_endo(g), True),
                (exp_two_form(b).compose(gl_endo(g)).compose(exp_two_vector(b)), True),
                (identity_endo(2 * dim_v).scale(2), False),
                # a skew endomorphism that is not an isometry: X + xi -> i_X B
                (_blocks_reference(xm.zeros(dim_v, dim_v), xm.zeros(dim_v, dim_v), b,
                                   xm.zeros(dim_v, dim_v)), False)]
        rows = [list(row) for row in gl_endo(g).rows]
        rows[1][dim_v] += F(1, 3)  # one perturbed entry
        out.append((Endo(2 * dim_v, xm.mat(rows)), False))
    return out


def test_pairing_orthogonality_matches_fraction_definition():
    cases = _orthogonality_cases()
    assert any(m.den > 1 for m, orthogonal in cases if orthogonal)
    for m, orthogonal in cases:
        assert is_pairing_orthogonal(m) == _orthogonal_by_definition(m) == orthogonal


def test_b_transform_explicit_matrix():
    # triple product computed independently: with C = B^T the conjugated
    # symplectic structure is [[I, C], [2C, -I]]
    b = xm.mat([[0, 1], [-1, 0]])
    s = from_symplectic(standard_symplectic_matrix(1))
    c = xm.transpose(b)
    eb = xm.mat([list(row) + [0, 0] for row in xm.identity(2)]
                + [list(crow) + list(irow) for crow, irow in zip(c, xm.identity(2))])
    eb_inv = xm.mat([list(row) + [0, 0] for row in xm.identity(2)]
                    + [list(crow) + list(irow)
                       for crow, irow in zip(xm.mat_neg(c), xm.identity(2))])
    expected = xm.mat_mul(xm.mat_mul(eb, s.j.rows), eb_inv)
    got = b_transform(s, b)
    assert got.j.rows == expected
    # and the frozen closed form of that product
    frozen = xm.mat([[1, 0, 0, -1],
                     [0, 1, 1, 0],
                     [0, -2, -1, 0],
                     [2, 0, 0, -1]])
    assert got.j.rows == frozen


def test_beta_transform_mirror():
    j = from_complex(rotation_2())
    assert beta_transform(j, xm.zeros(2, 2)).j == j.j
    beta = xm.mat([[0, F(2, 5)], [-F(2, 5), 0]])
    e = exp_two_vector(beta)
    assert is_pairing_orthogonal(e)
    s = from_symplectic(standard_symplectic_matrix(1))
    u = e.rows
    u_inv = exp_two_vector(xm.mat_neg(beta)).rows
    assert beta_transform(s, beta).j.rows == xm.mat_mul(xm.mat_mul(u, s.j.rows), u_inv)


@settings(max_examples=20, deadline=None)
@given(rationals, st.lists(rationals, min_size=8, max_size=8),
       st.lists(rationals, min_size=8, max_size=8))
def test_transforms_preserve_pairing_property(b01, a_coords, b_coords):
    b = xm.mat([[0, b01], [-b01, 0]])
    e = exp_two_form(b)
    x = gelem(a_coords[:2], a_coords[2:4])
    y = gelem(b_coords[:2], b_coords[2:4])
    assert neutral_pairing(e.apply(x), e.apply(y)) == neutral_pairing(x, y)


def test_transforms_preserve_orientation():
    rng = random.Random(9)
    j = from_complex(standard_complex_matrix(2))
    for _ in range(5):
        b = random_skew_matrix(4, rng)
        beta = random_skew_matrix(4, rng)
        g = random_invertible_matrix(4, rng)
        assert b_transform(j, b).orientation() == 1
        assert beta_transform(j, beta).orientation() == 1
        assert gl_action(g, j).orientation() == 1


def test_gl_action_identity_and_scalar():
    j = from_complex(rotation_2())
    assert gl_action(xm.identity(2), j).j == j.j
    assert gl_action(xm.mat_scale(F(2), xm.identity(2)), j).j == j.j


def test_gl_endo_preserves_pairing():
    rng = random.Random(4)
    for _ in range(5):
        g = random_invertible_matrix(2, rng)
        assert is_pairing_orthogonal(gl_endo(g))


def test_gl_action_rejects_singular():
    with pytest.raises(DegenerateInputError):
        gl_action(xm.zeros(2, 2), from_complex(rotation_2()))


# ---------------------------------------------------------------------------
# the integer constructors against Fraction references


def _blocks_reference(vv, vc, cv, cc):
    """[[vv, vc], [cv, cc]] by the Fraction recipe: rows joined, re-wrapped
    as Fractions and put over one denominator by `Endo`."""
    h = len(vv)
    rows = [tuple(vv[i]) + tuple(vc[i]) for i in range(h)]
    rows += [tuple(cv[i]) + tuple(cc[i]) for i in range(h)]
    return Endo(2 * h, xm.mat(rows))


def _seeded_matrices(n, seed):
    """A seeded skew matrix and a seeded invertible matrix on V of dim 2n."""
    rng = random.Random(seed)
    return random_skew_matrix(2 * n, rng), random_invertible_matrix(2 * n, rng)


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_unipotent_and_gl_constructors_match_fraction_references(n, seed):
    b, g = _seeded_matrices(n, seed)
    dim_v = 2 * n
    ident, zero = xm.identity(dim_v), xm.zeros(dim_v, dim_v)
    assert exp_two_form(b) == _blocks_reference(ident, zero, xm.transpose(b), ident)
    assert exp_two_vector(b) == _blocks_reference(ident, xm.transpose(b), zero, ident)
    ginv = xm.inverse(g)
    u, u_inv = structures._gl_pair(g)
    assert gl_endo(g) == u == _blocks_reference(g, zero, zero, xm.transpose(ginv))
    assert u_inv == _blocks_reference(ginv, zero, zero, xm.transpose(g))
    assert u.compose(u_inv) == identity_endo(2 * dim_v) == u_inv.compose(u)
    assert u.den > 1 and exp_two_form(b).den > 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constructors_match_fraction_references(n):
    b, g = _seeded_matrices(n, 10 + n)
    ginv = xm.inverse(g)
    zero = xm.zeros(2 * n, 2 * n)
    # K = g K0 g^-1 squares to -Id; omega = g^T omega0 g is skew and nondegenerate
    k = xm.mat_mul(xm.mat_mul(g, standard_complex_matrix(n)), ginv)
    omega = xm.mat_mul(xm.mat_mul(xm.transpose(g), standard_symplectic_matrix(n)), g)
    assert from_complex(k).j == _blocks_reference(k, zero, zero, xm.mat_neg(xm.transpose(k)))
    iso = xm.transpose(omega)
    assert from_symplectic(omega).j == _blocks_reference(zero, xm.mat_neg(xm.inverse(iso)),
                                                         iso, zero)
    assert from_complex(k).j.den > 1
    for transform, endo in ((b_transform, exp_two_form), (beta_transform, exp_two_vector)):
        e, e_inv = endo(b).rows, endo(xm.mat_neg(b)).rows
        for j in (from_complex(k), from_symplectic(omega)):
            assert transform(j, b).j.rows == xm.mat_mul(xm.mat_mul(e, j.j.rows), e_inv)
    j = from_complex(k)
    u = _blocks_reference(g, zero, zero, xm.transpose(ginv)).rows
    u_inv = _blocks_reference(ginv, zero, zero, xm.transpose(g)).rows
    assert gl_action(g, j).j.rows == xm.mat_mul(xm.mat_mul(u, j.j.rows), u_inv)


@pytest.mark.parametrize("build, arg, error, message", [
    (from_complex, xm.identity(2), InvariantError, "K^2 is not -Id"),
    (from_complex, xm.mat([[0, -1, 0], [1, 0, 0]]), InvariantError, "K^2 is not -Id"),
    (exp_two_form, xm.identity(2), InvariantError, "B is not skew"),
    (exp_two_vector, xm.mat([[0, 1], [F(1, 2), 0]]), InvariantError, "beta is not skew"),
    (lambda m: b_transform(from_complex(rotation_2()), m), xm.identity(2),
     InvariantError, "B is not skew"),
    (lambda m: beta_transform(from_complex(rotation_2()), m), xm.mat([[0, 1], [1, 0]]),
     InvariantError, "beta is not skew"),
    (from_symplectic, xm.mat([[0, 1], [1, 0]]), InvariantError, "omega is not skew"),
    (from_symplectic, xm.mat([[1, 1], [-1, 0]]), InvariantError, "omega is not skew"),
    (from_symplectic, xm.zeros(2, 2), DegenerateInputError, "omega is degenerate"),
    (from_symplectic, xm.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
     DegenerateInputError, "omega is degenerate"),
    (gl_endo, xm.mat([[1, 2], [F(1, 2), 1]]), DegenerateInputError, "g is singular"),
    (lambda m: gl_action(m, from_complex(rotation_2())), xm.zeros(2, 2),
     DegenerateInputError, "g is singular"),
    (gl_endo, xm.mat([[1, 0, 0], [0, 1, 0]]), gl.DimensionMismatchError,
     "endomorphism matrix is not square of the stated size"),
    (lambda m: gl_action(m, from_complex(rotation_2())), xm.mat([[1, 0, 0], [0, 1, 0]]),
     gl.DimensionMismatchError, "endomorphism matrix is not square of the stated size"),
], ids=["k-squared", "k-not-square", "b", "beta", "b-transform", "beta-transform",
        "omega-symmetric", "omega-diagonal", "omega-zero", "omega-rank-2", "g", "gl-action",
        "g-not-square", "gl-action-not-square"])
def test_constructor_errors_keep_type_and_message(build, arg, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(arg)


@pytest.mark.parametrize("transform, what", [(b_transform, "e^B"), (beta_transform, "e^beta")])
def test_conjugation_runs_the_isometry_check_on_e(monkeypatch, transform, what):
    # every conjugation tests its e for the isometry property: with the test
    # answering False the transform must refuse, and the endomorphism tested
    # must be the transform's e
    tested = []

    def refuse(m):
        tested.append(m)
        return False

    monkeypatch.setattr(structures, "is_pairing_orthogonal", refuse)
    b = xm.mat([[0, F(2, 3)], [F(-2, 3), 0]])
    with pytest.raises(InvariantError, match=f"^{re.escape(what)} failed the isometry check$"):
        transform(from_complex(rotation_2()), b)
    endo = exp_two_form if transform is b_transform else exp_two_vector
    assert tested == [endo(b)]


# ---------------------------------------------------------------------------
# skew generators and frames


def test_generator_norms_and_antisymmetry():
    basis = reference_basis(1)
    s01 = basis.generator(0, 1)
    s03 = basis.generator(0, 3)
    assert fib_pairing(s01, s01) == 1      # both signs positive
    assert fib_pairing(s03, s03) == -1     # mixed signs
    assert basis.generator(1, 0) == -s01
    assert fib_pairing(s01, basis.generator(0, 2)) == 0


def test_generator_defining_action():
    basis = reference_basis(1)
    s12 = basis.generator(1, 2)
    signs = basis.signs
    # S_ij Q_k = eps_k (delta_ik Q_j - delta_kj Q_i)
    assert s12.apply(basis.vectors[1]) == basis.vectors[2].scale(signs[1])
    assert s12.apply(basis.vectors[2]) == basis.vectors[1].scale(-signs[2])
    assert s12.apply(basis.vectors[0]).is_zero()


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 5), (2, 1), (2, 7)])
def test_generators_match_conjugated_definition(n, seed):
    # textbook definition: S_ik = B m B^-1, where m sends basis element i to
    # eps_i times element k and element k to -eps_k times element i
    basis = random_orthonormal_basis(n, seed)
    n4 = 4 * n
    bmat = xm.transpose(xm.mat([v.coords for v in basis.vectors]))
    binv = xm.inverse(bmat)
    for i in range(n4):
        assert basis.generator(i, i) == Endo(n4, xm.zeros(n4, n4))
        for k in range(n4):
            if k == i:
                continue
            m = [[F(0)] * n4 for _ in range(n4)]
            m[k][i] = F(basis.signs[i])
            m[i][k] = -F(basis.signs[k])
            expected = xm.mat_mul(xm.mat_mul(bmat, xm.mat(m)), binv)
            assert basis.generator(i, k).rows == expected
            assert basis.generator(k, i) == -basis.generator(i, k)


@pytest.mark.parametrize("seed", range(10))
def test_skew_frame_relation_table(seed):
    frames = skew_frames(random_orthonormal_basis(1, seed))
    left, right = frames.left, frames.right
    minus_id = identity_endo(4).scale(-1)
    ident = identity_endo(4)
    assert left[0].compose(left[0]) == minus_id
    assert left[1].compose(left[1]) == ident
    assert left[2].compose(left[2]) == ident
    assert right[0].compose(right[0]) == minus_id
    assert right[1].compose(right[1]) == ident
    assert right[2].compose(right[2]) == ident
    for r in range(3):
        for s in range(r + 1, 3):
            assert (left[r].compose(left[s]) + left[s].compose(left[r])).is_zero()
            assert (right[r].compose(right[s]) + right[s].compose(right[r])).is_zero()
    for r in range(3):
        for s in range(3):
            assert left[r].compose(right[s]) == right[s].compose(left[r])


def test_printed_symmetric_relation_is_a_misprint():
    # the identity L_r R_s = L_s R_r printed alongside the table fails for
    # every off-diagonal pair, while commutation (used by the actual
    # argument) holds; see the relation-table test above
    frames = skew_frames(reference_basis(1))
    left, right = frames.left, frames.right
    assert left[0].compose(right[1]) != left[1].compose(right[0])
    assert left[0].compose(right[1]) == right[1].compose(left[0])


def test_frame_products_are_independent():
    frames = skew_frames(reference_basis(1))
    rows = []
    for l in frames.left:
        for r in frames.right:
            product = l.compose(r)
            rows.append([x for row in product.rows for x in row])
    rows.append([x for row in identity_endo(4).rows for x in row])
    assert xm.rank(xm.mat(rows)) == 10


def test_decompose_left_generator():
    basis = reference_basis(1)
    frames = skew_frames(basis)
    d = skew_decompose(frames.left[0], basis)
    assert d.left == (1, 0, 0)
    assert d.right == (0, 0, 0)
    assert d.compatible_complex and d.family == "left"


def test_decompose_non_complex_generator():
    basis = reference_basis(1)
    frames = skew_frames(basis)
    d = skew_decompose(frames.left[1], basis)
    assert not d.compatible_complex


def test_decompose_hyperbolic_combination():
    basis = reference_basis(1)
    frames = skew_frames(basis)
    k = frames.left[0].scale(F(5, 3)) + frames.left[1].scale(F(4, 3))
    d = skew_decompose(k, basis)
    assert d.compatible_complex and d.family == "left"
    assert k.compose(k) == identity_endo(4).scale(-1)


def test_decompose_roundtrip_random_coefficients():
    rng = random.Random(17)
    for seed in range(6):
        basis = random_orthonormal_basis(1, seed)
        frames = skew_frames(basis)
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        k = frames.all()[0].scale(coeffs[0])
        for c, m in zip(coeffs[1:], frames.all()[1:]):
            k = k + m.scale(c)
        d = skew_decompose(k, basis)
        assert list(d.left) + list(d.right) == coeffs


def test_decompose_rejects_non_skew():
    with pytest.raises(InvariantError):
        skew_decompose(identity_endo(4), reference_basis(1))


# ---------------------------------------------------------------------------
# hyperboloid chart


def test_chart_center_and_sample_point():
    basis = reference_basis(1)
    frames = skew_frames(basis)
    assert hyperboloid_point(0, 0, 1, basis).j == frames.left[0]
    assert hyperboloid_chart(F(1, 2), 0, 1) == (F(5, 3), F(4, 3), 0)


def test_chart_identity_and_square():
    for (u, v, sheet) in [(F(1, 2), F(1, 3), 1), (F(2), F(1, 5), -1), (F(3), F(2), 1)]:
        x1, x2, x3 = hyperboloid_chart(u, v, sheet)
        assert x1 * x1 - x2 * x2 - x3 * x3 == 1
        structure = hyperboloid_point(u, v, sheet, reference_basis(1))
        assert structure.j.compose(structure.j) == identity_endo(4).scale(-1)
        assert structure.orientation() == 1


def test_chart_singularity_rejected():
    with pytest.raises(DegenerateInputError):
        hyperboloid_chart(F(3, 5), F(4, 5), 1)


# ---------------------------------------------------------------------------
# the fibre geometry


def vertical_complex_action(j, q):
    """The fibre complex structure Q -> j o Q on tangents to the space of structures."""
    if not is_vertical(q, j.j):
        raise InvariantError("Q is not tangent to the fibre at j")
    return j.j.compose(q)


def test_vertical_action_squares_to_minus_one():
    basis = reference_basis(1)
    j = hyperboloid_point(F(1, 2), F(1, 5), 1, basis)
    for q in vertical_space_basis(j):
        kq = vertical_complex_action(j, q)
        assert is_vertical(kq, j.j)
        assert j.j.compose(kq) == q.scale(-1)


def test_vertical_action_explicit_value():
    # at the adapted structure, the fibre action sends S02 - S13 to S03 + S12
    basis = reference_basis(1)
    j = adapted_structure(basis)
    q = basis.generator(0, 2) - basis.generator(1, 3)
    expected = basis.generator(0, 3) + basis.generator(1, 2)
    assert vertical_complex_action(j, q) == expected


def test_vertical_action_rejects_non_tangent():
    j = adapted_structure(reference_basis(1))
    with pytest.raises(InvariantError):
        vertical_complex_action(j, j.j)  # commutes instead of anticommuting


def _anticommutes_by_definition(q, j):
    return is_pairing_skew(q) and (q.compose(j) + j.compose(q)).is_zero()


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 4), (2, 1), (2, 7), (3, 2)])
def test_is_vertical_matches_definition(n, seed):
    j = sample_fibre_structure(n, random.Random(seed)).j
    vertical = vertical_space_basis(GCStructure(j))
    basis = random_orthonormal_basis(n, seed)
    rng = random.Random(seed)
    # j and j + v are skew but do not anticommute with j; the generators
    # are skew and some anticommute; a vertical element plus a generator
    # and one with an entry moved (no longer skew)
    candidates = list(vertical) + [j, j + vertical[0]]
    pairs = list(combinations(range(len(basis.num)), 2))
    candidates += [basis.generator(*pair) for pair in rng.sample(pairs, 6)]
    candidates.append(vertical[-1] + basis.generator(0, 1))
    moved = [list(row) for row in vertical[1].rows]
    moved[0][1] += F(1, 3)
    candidates.append(Endo(j.dim, xm.mat(moved)))
    verdicts = [is_vertical(q, j) for q in candidates]
    assert verdicts == [_anticommutes_by_definition(q, j) for q in candidates]
    assert verdicts[:len(vertical)] == [True] * len(vertical)
    assert not any(verdicts[len(vertical):len(vertical) + 2])


def test_vertical_space_dimension():
    assert len(vertical_space_basis(from_complex(rotation_2()))) == 2
    assert len(vertical_space_basis(from_complex(standard_complex_matrix(2)))) == 12


def test_fiber_structure_squares_and_skewness():
    basis = reference_basis(1)
    for (u, v) in [(F(1, 3), F(1, 7)), (F(0), F(1, 2)), (F(2), F(3))]:
        j = hyperboloid_point(u, v, 1, basis)
        vertical = vertical_space_basis(j)
        fk = fiber_kahler_structure(j, vertical)
        assert xm.transpose(fk.omega) == xm.mat_neg(fk.omega)
        assert xm.det(fk.omega) != 0
        square = xm.mat_mul(fk.matrix, fk.matrix)
        assert square == xm.mat_scale(F(-1), xm.identity(len(fk.matrix)))


def test_structure_invariants_enforced():
    bad = xm.identity(4)
    with pytest.raises(InvariantError):
        GCStructure(Endo(4, bad))


def test_adapted_structure_is_adapted():
    for n in (1, 2, 3):
        n4 = 4 * n
        j0 = [[F(0)] * n4 for _ in range(n4)]
        for l in range(0, n4, 2):
            j0[l + 1][l] = F(1)
            j0[l][l + 1] = F(-1)
        for seed in range(4):
            basis = random_orthonormal_basis(n, seed)
            j = adapted_structure(basis)
            q = basis.vectors
            for l in range(0, n4, 2):
                assert j.j.apply(q[l]) == q[l + 1]
                assert j.j.apply(q[l + 1]) == -q[l]
            # the textbook form B j0 B^-1, B the matrix whose columns are the Q_i
            bmat = xm.transpose(xm.mat([v.coords for v in q]))
            assert j.j.rows == xm.mat_mul(xm.mat_mul(bmat, xm.mat(j0)), xm.inverse(bmat))
            assert j.orientation() == 1
            assert structure_orientation(j.j) == 1


def test_zero_element_identity():
    z = zero_element(2)
    assert z.is_zero()
    assert (z + basis_vector(2, 0)) == basis_vector(2, 0)


def test_structures_preserve_pairing_on_spanning_set():
    structures = [from_complex(standard_complex_matrix(1)),
                  from_symplectic(standard_symplectic_matrix(1)),
                  hyperboloid_point(F(1, 3), F(1, 4), 1, reference_basis(1))]
    for j in structures:
        for a in coordinate_elements(2):
            for b in coordinate_elements(2):
                assert neutral_pairing(j.j.apply(a), j.j.apply(b)) == neutral_pairing(a, b)


def test_orientation_sign_accepts_basis_object():
    basis = reference_basis(1)
    assert orientation_sign(basis) == orientation_sign(list(basis.vectors)) == 1


def test_decompose_recovers_chart_coordinates():
    basis = reference_basis(1)
    for (u, v, sheet) in [(F(1, 2), F(1, 3), 1), (F(1, 4), F(0), -1)]:
        structure = hyperboloid_point(u, v, sheet, basis)
        d = skew_decompose(structure.j, basis)
        assert d.family == "left" and d.compatible_complex
        assert d.left == hyperboloid_chart(u, v, sheet)
        assert d.right == (0, 0, 0)


# ---------------------------------------------------------------------------
# vertical bases against the projection over Fraction
#
# Test names keep "transport" so that their ids stay stable; each compares
# `vertical_space_basis` with the reference projection below.


def _entries(e: Endo) -> list:
    return [x for row in e.rows for x in row]


def _integer_row(v) -> list[int]:
    """v times the lcm of its denominators, for `RowReducer`'s integer rows."""
    d = lcm(*(x.denominator for x in v))
    return [int(x * d) for x in v]


def _reference_vertical_basis(structure: GCStructure) -> list[Endo]:
    """The projection s -> s + j s j over Fraction, dense, of every skew
    generator of the reference basis, with a maximal independent family kept."""
    j = structure.j
    ref = reference_basis(structure.dim_v // 2)
    basis, span = [], xm.RowReducer()
    for i, k in combinations(range(len(ref.num)), 2):
        s = ref.generator(i, k)
        candidate = s + j.compose(s).compose(j)
        if span.add(_integer_row(_entries(candidate))):
            basis.append(candidate)
    return basis


def _elementary_projections(structure: GCStructure) -> set[Endo]:
    """s + j s j for every skew s = E - E^+, E a matrix unit and E^+ its
    pairing adjoint: [[A, B], [C, D]]^+ = [[D^T, B^T], [C^T, A^T]]."""
    j = structure.j
    dim, h = j.dim, j.half
    out = set()
    for p in range(dim):
        for q in range(dim):
            s = [[0] * dim for _ in range(dim)]
            s[p][q] += 1
            s[(q + h) % dim][(p + h) % dim] -= 1
            e = Endo(dim, xm.mat(s))
            out.add(e + j.compose(e).compose(j))
    return out


def _assert_basis_spans_reference(structure: GCStructure) -> None:
    """The basis has 4n^2 - 2n vertical elements with Fraction entries, each
    the projection s + j s j of an elementary skew s, spans the space the
    reference projection finds, and a second call returns the same elements."""
    n = structure.dim_v // 2
    basis = vertical_space_basis(structure)
    reference = _reference_vertical_basis(structure)
    assert len(basis) == len(reference) == 4 * n * n - 2 * n
    assert all(is_vertical(q, structure.j) for q in basis)
    projections = _elementary_projections(structure)
    assert all(q in projections for q in basis)
    assert all(type(x) is F for q in basis for x in _entries(q))
    for source, target in ((basis, reference), (reference, basis)):
        span = xm.RowReducer()
        assert all(span.add(_integer_row(_entries(q))) for q in source)
        assert all(span.contains(_integer_row(_entries(q))) for q in target)
    assert vertical_space_basis(structure) == basis


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(min_value=0, max_value=10 ** 6))
def test_fibre_sample_transport_spans_projection(n, seed):
    _assert_basis_spans_reference(sample_fibre_structure(n, random.Random(seed)))


@pytest.mark.parametrize("seed", (0, 1))
def test_fibre_sample_transport_spans_projection_n3(seed):
    _assert_basis_spans_reference(sample_fibre_structure(3, random.Random(seed)))


@pytest.mark.parametrize("kind", ("complex", "symplectic"))
def test_fibre_sample_transport_from_each_seed(kind):
    # at even n the sampler's first draw picks the symplectic seed below 1/2
    seed = next(s for s in range(100)
                if (random.Random(s).random() < F(1, 2)) == (kind == "symplectic"))
    _assert_basis_spans_reference(sample_fibre_structure(2, random.Random(seed)))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(min_value=0, max_value=10 ** 6))
def test_adapted_transport_spans_projection(n, seed):
    _assert_basis_spans_reference(adapted_structure(random_orthonormal_basis(n, seed)))


@settings(max_examples=25, deadline=None)
@given(rationals, rationals, st.sampled_from((1, -1)),
       st.one_of(st.none(), st.integers(min_value=0, max_value=10 ** 6)))
def test_hyperboloid_transport_spans_projection(u, v, sheet, basis_seed):
    assume(u * u + v * v != 1)
    basis = reference_basis(1) if basis_seed is None else random_orthonormal_basis(1, basis_seed)
    _assert_basis_spans_reference(hyperboloid_point(u, v, sheet, basis))


@pytest.mark.parametrize("u, v", [(F(2), F(3)), (F(3, 2), F(0)), (F(-1), F(1, 2)), (F(0), F(0))])
@pytest.mark.parametrize("sheet", (1, -1))
def test_hyperboloid_transport_on_both_sides_of_the_circle(u, v, sheet):
    _assert_basis_spans_reference(hyperboloid_point(u, v, sheet, reference_basis(1)))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("kind", ("complex", "symplectic"))
def test_seed_basis_spans_projection(n, kind):
    if kind == "complex":
        structure = from_complex(standard_complex_matrix(n))
        assert adapted_structure(reference_basis(n)) == structure
    else:
        structure = from_symplectic(standard_symplectic_matrix(n))
    _assert_basis_spans_reference(structure)


def _chart_structure(u, v, sheet, base):
    """The fibre structure the oracle chart centred at (u, v, sheet) reports
    at a base point."""
    chart = TwistorChart(flat_connection(1), hyperboloid_point(u, v, sheet, reference_basis(1)))
    return chart.context(chart.point(base)).at.structure


@pytest.mark.parametrize("make", [
    lambda: interchanging(2),
    lambda: interchanging(3),
    lambda: direct_sum(from_complex(rotation_2()), from_symplectic(standard_symplectic_matrix(1))),
    lambda: _chart_structure(F(1, 4), F(1, 5), 1, (F(1, 2), F(1, 3))),
    lambda: _chart_structure(F(3, 2), F(-1, 3), -1, (F(0), F(2))),
], ids=["interchanging-2", "interchanging-odd-3", "complex-plus-symplectic", "chart-upper",
        "chart-lower"])
def test_hand_built_basis_spans_projection(make):
    _assert_basis_spans_reference(make())


# ---------------------------------------------------------------------------
# the integer-backed Endo against Fraction formulae


def _endo_rows(dim):
    # sparse and dense rational matrices, zeros drawn often
    entry = st.one_of(st.just(F(0)), rationals, st.integers(-5, 5).map(F))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def _endo_triples(draw):
    dim = draw(st.sampled_from((1, 2, 3, 4, 8)))
    return [xm.mat(draw(_endo_rows(dim))) for _ in range(3)]


def _assert_canonical(e, rows):
    """num / den in lowest terms, den > 0, and `rows` the given matrix."""
    from math import gcd
    assert e.den > 0 and gcd(e.den, *(x for row in e.num for x in row)) == 1
    assert all(type(x) is int for row in e.num for x in row)
    assert e.rows == rows and all(type(x) is F for row in e.rows for x in row)
    assert Endo(e.dim, e.rows) == e and hash(Endo(e.dim, e.rows)) == hash(e)


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _trace(a):
    return sum((a[i][i] for i in range(len(a))), F(0))


@settings(max_examples=80, deadline=None)
@given(_endo_triples(), st.one_of(st.just(0), st.integers(-4, 4), rationals),
       st.lists(rationals, min_size=8, max_size=8))
def test_endo_matches_fraction_formulae(mats, c, coords):
    ra, rb, rc = mats
    dim = len(ra)
    a, b, cc = (Endo(dim, m) for m in mats)
    for e, rows in ((a, ra), (b, rb),
                    (a.compose(b), xm.mat_mul(ra, rb)),
                    (a + b, _mat_add(ra, rb)),
                    (a - b, _mat_sub(ra, rb)),
                    (-a, xm.mat_neg(ra)),
                    (a.scale(c), xm.mat_scale(F(c), ra)),
                    (a.compose(b).compose(cc), xm.mat_mul(xm.mat_mul(ra, rb), rc)),
                    (a.scale(0), xm.zeros(dim, dim))):
        _assert_canonical(e, rows)
        assert e.is_zero() == xm.is_zero(rows)
    # equality and hashing by value across construction paths
    for got in ((a + b) - b, (a - b) + b, -(-a), a.scale(2).scale(F(1, 2)),
                a.compose(Endo(dim, xm.identity(dim)))):
        assert got == a and hash(got) == hash(a)
    assert (a == b) == (ra == rb)
    assert a.scale(0) == (a - a) == Endo(dim, xm.zeros(dim, dim))
    assert a.squares_to_minus_identity() == (xm.mat_mul(ra, ra)
                                             == xm.mat_scale(F(-1), xm.identity(dim)))
    assert fib_pairing(a, b) == -_trace(xm.mat_mul(ra, rb)) / 2
    half = dim // 2
    if dim % 4 == 0:  # dim V = half is even
        x = gelem(coords[:half], coords[half:dim])
        assert a.apply(x).coords == xm.mat_vec(ra, x.coords)
    if dim % 2 == 0:
        assert a.block("vc") == tuple(row[half:] for row in ra[:half])
        assert is_pairing_skew(a) == all(
            ra[i][half + k] == -ra[k][half + i] and ra[half + i][k] == -ra[half + k][i]
            and ra[half + i][half + k] == -ra[k][i] for i in range(half) for k in range(half))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 2, 4)).flatmap(lambda k: st.tuples(_endo_rows(k), _endo_rows(k))))
def test_fib_pairing_matches_dense_trace(operands):
    # the integer trace skips zero entries of the first factor; the value is still a Fraction
    a, b = (xm.mat(m) for m in operands)
    k = len(a)
    value = fib_pairing(Endo(k, a), Endo(k, b))
    assert value == -sum((a[i][j] * b[j][i] for i in range(k) for j in range(k)), F(0)) / 2
    assert value == -_trace(xm.mat_mul(a, b)) / 2
    assert type(value) is F


def test_endo_keeps_the_size_checks():
    with pytest.raises(gl.DimensionMismatchError):
        Endo(2, xm.identity(2)).compose(Endo(4, xm.identity(4)))
    with pytest.raises(gl.DimensionMismatchError):
        Endo(2, xm.identity(2)) + Endo(4, xm.identity(4))


# ---------------------------------------------------------------------------
# the integer structure_orientation against the GElement adapted basis


def _adapted_basis_orientation(j):
    """The adapted basis {b, j b, ...} of unit vectors b and their images
    as GElements, and `orientation_sign` of it."""
    chosen = []
    span = xm.RowReducer()
    for cand in coordinate_elements(j.half):
        if len(chosen) == j.dim:
            break
        if span.contains(_integer_row(cand.coords)):
            continue
        image = j.apply(cand)
        chosen.extend([cand, image])
        assert span.add(_integer_row(cand.coords)) and span.add(_integer_row(image.coords))
    return orientation_sign(chosen)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_integer_orientation_matches_adapted_basis(n):
    rng = random.Random(100 + n)
    seeds = [from_complex(standard_complex_matrix(n)),
             from_symplectic(standard_symplectic_matrix(n)),
             interchanging(n),
             adapted_structure(random_orthonormal_basis(n, rng)),
             sample_fibre_structure(n, rng)]
    family = list(seeds)
    for s in seeds:
        family.append(b_transform(s, random_skew_matrix(2 * n, rng)))
        family.append(gl_action(random_invertible_matrix(2 * n, rng), s))
        family.append(beta_transform(s, random_skew_matrix(2 * n, rng)))
    signs = set()
    for s in family:
        got = structure_orientation(s.j)
        assert got == _adapted_basis_orientation(s.j)
        signs.add(got)
    # odd n: the symplectic seed is negative, so both signs are exercised
    assert signs == ({1, -1} if n % 2 else {1})
