from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctwistor import exactmat as xm


def test_det_triangular_and_swap():
    m = xm.mat([[2, 1, 0], [0, 3, 5], [0, 0, F(1, 2)]])
    assert xm.det(m) == 3
    swapped = xm.mat([[0, 3, 5], [2, 1, 0], [0, 0, F(1, 2)]])
    assert xm.det(swapped) == -3


def test_det_singular():
    assert xm.det(xm.mat([[1, 2], [2, 4]])) == 0


def test_inverse():
    a = xm.mat([[2, 1], [1, 1]])
    inv = xm.inverse(a)
    assert xm.mat_mul(a, inv) == xm.identity(2)


def test_rank_and_nullspace():
    # rank 2 of 3 columns: the nullspace is the line through (1, 1, -1)
    m = xm.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert xm.rank(m) == 2
    assert xm.mat_vec(m, xm.vec([1, 1, -1])) == xm.vec([0, 0, 0])


def test_row_reducer_tracks_span():
    r = xm.RowReducer()
    assert r.add([1, 0, 1])
    assert r.add([0, 1, 0])
    assert not r.add([2, 3, 2])
    assert r.contains([1, 1, 1])
    assert not r.contains([0, 0, 1])
    assert len(r) == 2
    # integer vectors only: a Fraction fails loudly
    with pytest.raises(TypeError):
        r.add([F(1, 2), 0, 1])


def _integer_row(v):
    """v times the lcm of its denominators: the same span, in integers."""
    d = lcm(*(x.denominator for x in v))
    return [int(x * d) for x in v]


def _triple_sum(a, b):
    """(a b)[r][c] = sum_k a[r][k] b[k][c], the definition."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(tuple(sum((a[r][k] * b[k][c] for k in range(inner)), F(0)) for c in range(cols))
                 for r in range(len(a)))


_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


def _zero_pattern(draw):
    """Entries that are all zero, all nonzero or about half zeros."""
    kind = draw(st.sampled_from(["zero", "dense", "mixed"]))
    return {"zero": st.just(F(0)), "dense": _nonzero,
            "mixed": st.one_of(st.just(F(0)), _nonzero)}[kind]


@st.composite
def _product_operands(draw):
    """Rectangular or empty operands, each all zero, dense or about half zeros."""
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    a_entries, b_entries = _zero_pattern(draw), _zero_pattern(draw)
    a = tuple(tuple(draw(a_entries) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(b_entries) for _ in range(cols)) for _ in range(inner))
    return a, b


@settings(max_examples=120, deadline=None)
@given(_product_operands())
def test_mat_mul_matches_triple_sum(operands):
    # integer products over the row and factor scales give the exact sums
    a, b = operands
    product = xm.mat_mul(a, b)
    assert product == _triple_sum(a, b)
    assert all(type(x) is F for row in product for x in row)


@st.composite
def _mat_vec_operands(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries, v_entries = _zero_pattern(draw), _zero_pattern(draw)
    a = tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))
    return a, tuple(draw(v_entries) for _ in range(cols))


@settings(max_examples=80, deadline=None)
@given(_mat_vec_operands())
def test_mat_vec_matches_dense_sum(operands):
    # zero entries of the vector are skipped; every entry is still a Fraction
    a, v = operands
    image = xm.mat_vec(a, v)
    assert image == tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in a)
    assert all(type(x) is F for x in image)


def test_mat_mul_dense_and_sparse_examples():
    dense = xm.mat([[1, 2, 3], [4, 5, 6]])
    sparse = xm.mat([[0, 0], [F(1, 2), 0], [0, -3]])
    assert xm.mat_mul(dense, sparse) == xm.mat([[1, -9], [F(5, 2), -18]])
    assert xm.mat_mul(xm.zeros(2, 3), sparse) == xm.zeros(2, 2)
    assert xm.mat_mul(xm.identity(3), sparse) == sparse


@st.composite
def _reducer_inputs(draw):
    """Rows to add and vectors to test, of one length, all dense or about
    two thirds zeros; later rows and the tested vectors are combinations
    of the first rows, some with one entry moved off their span."""
    cols = draw(st.integers(1, 6))
    entries = st.one_of(st.just(F(0)), st.just(F(0)), _nonzero) if draw(st.booleans()) else _nonzero
    rows = [tuple(draw(entries) for _ in range(cols)) for _ in range(draw(st.integers(1, 5)))]

    def combination():
        coeffs = [draw(st.integers(-2, 2)) for _ in rows]
        v = [sum((c * row[i] for c, row in zip(coeffs, rows)), F(0)) for i in range(cols)]
        if draw(st.booleans()):
            v[draw(st.integers(0, cols - 1))] += draw(_nonzero)
        return tuple(v)

    rows += [combination() for _ in range(draw(st.integers(0, 3)))]
    return rows, [combination() for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=80, deadline=None)
@given(_reducer_inputs())
def test_row_reducer_matches_rank(inputs):
    # stored rows keep only their nonzero columns; the answers are those of rref
    rows, probes = inputs
    r = xm.RowReducer()
    for k, row in enumerate(rows):
        grew = _ref_rank(rows[:k + 1]) > _ref_rank(rows[:k])
        assert r.add(_integer_row(row)) == grew
        assert len(r) == _ref_rank(rows[:k + 1])
    for probe in probes:
        assert r.contains(_integer_row(probe)) == (_ref_rank(rows + [probe]) == len(r))


# ---------------------------------------------------------------------------
# reference implementations: Gaussian elimination over Fraction, the
# definitions the integer kernels must reproduce exactly


def _ref_det(m):
    rows = [list(row) for row in m]
    k, sign, result = len(rows), 1, F(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = rows[col][col]
        result *= p
        for r in range(col + 1, k):
            factor = rows[r][col] / p
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return result * sign


def _ref_rref(m):
    rows = [list(row) for row in m]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for col in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(F(x) for x in row) for row in rows), tuple(pivots)


def _ref_rank(m):
    return len(_ref_rref(m)[1])


def _ref_solve_columns(a, columns):
    """Solutions of a x = c for each column c; None if a is singular."""
    k = len(a)
    aug = [list(row) + [c[i] for c in columns] for i, row in enumerate(a)]
    reduced, pivots = _ref_rref(aug)
    if pivots != tuple(range(k)):
        return None
    return [tuple(reduced[i][k + j] for i in range(k)) for j in range(len(columns))]


class _RefRowReducer:
    """Echelon rows over Fraction, each normalised to pivot 1."""

    def __init__(self):
        self.rows = []

    def reduce(self, v):
        out = list(v)
        for pivot, row in self.rows:
            f = out[pivot]
            out = [x - f * y for x, y in zip(out, row)]
        return out

    def add(self, v):
        reduced = self.reduce(v)
        pivot = next((i for i, x in enumerate(reduced) if x != 0), None)
        if pivot is None:
            return False
        self.rows.append((pivot, [x / reduced[pivot] for x in reduced]))
        return True


@st.composite
def _matrix(draw, square=False):
    """A 0x0 to 5x6 matrix, all zero, dense or about half zeros, with
    mixed denominators and signs; about half the time one row is made a
    combination of the others, so square inputs are often singular."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 6))
    entries = _zero_pattern(draw)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(nrows - 1)]
        rows[draw(st.integers(0, nrows - 1))] = [
            sum((c * row[i] for c, row in zip(coeffs, rows[1:])), F(0)) for i in range(ncols)]
    return tuple(tuple(row) for row in rows)


def _all_fractions(m):
    return all(type(x) is F for row in m for x in row)


@settings(max_examples=150, deadline=None)
@given(_matrix(square=True))
def test_det_matches_fraction_elimination(m):
    # Bareiss on the scaled rows, divided by the row scales, is the exact determinant
    d = xm.det(m)
    assert d == _ref_det(m)
    assert type(d) is F


def test_det_small_cases():
    assert xm.det(()) == 1 and type(xm.det(())) is F
    assert xm.det(xm.mat([[F(-3, 7)]])) == F(-3, 7)
    assert xm.det(xm.mat([[0]])) == 0
    # a zero pivot that needs a swap, and a 3x3 with mixed denominators
    assert xm.det(xm.mat([[0, F(1, 2)], [F(2, 3), 5]])) == F(-1, 3)
    m = xm.mat([[F(1, 2), F(1, 3), 0], [F(1, 4), 0, F(-1, 5)], [1, F(1, 6), F(1, 7)]])
    # cofactor expansion along the first row: 1/60 - 11/140
    assert xm.det(m) == _ref_det(m) == F(-13, 210)


@settings(max_examples=150, deadline=None)
@given(_matrix())
def test_rref_and_rank_match_fraction_elimination(m):
    # the rank is the number of pivots of the Fraction reduced row echelon form
    assert xm.rank(m) == _ref_rank(m)


@settings(max_examples=150, deadline=None)
@given(_matrix(square=True))
def test_inverse_matches_fraction_elimination(a):
    k = len(a)
    expected = _ref_solve_columns(a, [tuple(F(int(i == j)) for i in range(k)) for j in range(k)])
    if expected is None:
        with pytest.raises(xm.SingularMatrixError):
            xm.inverse(a)
        return
    inv = xm.inverse(a)
    assert inv == tuple(zip(*expected))
    assert _all_fractions(inv)


@settings(max_examples=150, deadline=None)
@given(_matrix(square=True))
def test_integer_inverse_matches_fraction_elimination(a):
    # the inverse of an integer matrix as integers over one positive denominator,
    # in lowest terms
    ints = xm._integer_matrix(a)[0] if a else []
    k = len(ints)
    expected = _ref_solve_columns([[F(x) for x in row] for row in ints],
                                  [tuple(F(int(i == j)) for i in range(k)) for j in range(k)])
    if expected is None:
        with pytest.raises(xm.SingularMatrixError):
            xm._integer_inverse(ints)
        return
    num, d = xm._integer_inverse(ints)
    assert d > 0 and all(type(x) is int for row in num for x in row)
    assert gcd(d, *(x for row in num for x in row)) == 1
    assert tuple(tuple(F(x, d) for x in row) for row in num) == tuple(zip(*expected))


def test_one_by_one_inverse():
    assert xm.inverse(xm.mat([[F(-2, 3)]])) == ((F(-3, 2),),)
    with pytest.raises(xm.SingularMatrixError):
        xm.inverse(xm.mat([[0]]))
    assert xm.inverse(()) == ()


@settings(max_examples=120, deadline=None)
@given(_reducer_inputs())
def test_row_reducer_matches_fraction_reducer(inputs):
    # primitive integer rows answer add and contains as normalised Fraction rows do
    rows, probes = inputs
    r, ref = xm.RowReducer(), _RefRowReducer()
    for row in rows:
        assert r.add(_integer_row(row)) == ref.add(row)
        assert len(r) == len(ref.rows)
    for probe in probes:
        assert r.contains(_integer_row(probe)) == (not any(ref.reduce(probe)))
