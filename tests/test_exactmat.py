from fractions import Fraction as F

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


def test_solve_and_inverse():
    a = xm.mat([[2, 1], [1, 1]])
    x = xm.solve(a, xm.vec([3, 2]))
    assert xm.mat_vec(a, x) == xm.vec([3, 2])
    inv = xm.inverse(a)
    assert xm.mat_mul(a, inv) == xm.identity(2)


def test_solve_singular_raises():
    with pytest.raises(xm.SingularMatrixError):
        xm.solve(xm.mat([[1, 1], [1, 1]]), xm.vec([1, 0]))


def test_rank_and_nullspace():
    m = xm.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert xm.rank(m) == 2
    kernel = xm.nullspace(m)
    assert len(kernel) == 1
    for v in kernel:
        assert all(x == 0 for x in xm.mat_vec(m, v))


def test_trace_product_matches_mat_mul():
    a = xm.mat([[1, 2], [3, F(1, 2)]])
    b = xm.mat([[0, 5], [7, -1]])
    assert xm.trace_product(a, b) == xm.trace(xm.mat_mul(a, b))


def test_row_reducer_tracks_span():
    r = xm.RowReducer()
    assert r.add(xm.vec([1, 0, 1]))
    assert r.add(xm.vec([0, 1, 0]))
    assert not r.add(xm.vec([2, 3, 2]))
    assert r.contains(xm.vec([1, 1, 1]))
    assert not r.contains(xm.vec([0, 0, 1]))
    assert len(r) == 2


def _triple_sum(a, b):
    """(a b)[r][c] = sum_k a[r][k] b[k][c], the definition."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(tuple(sum((a[r][k] * b[k][c] for k in range(inner)), F(0)) for c in range(cols))
                 for r in range(len(a)))


_nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def _product_operands(draw):
    """Rectangular or empty operands, all dense or about half zeros."""
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.one_of(st.just(F(0)), _nonzero) if draw(st.booleans()) else _nonzero
    a = tuple(tuple(draw(entries) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(inner))
    return a, b


@settings(max_examples=80, deadline=None)
@given(_product_operands())
def test_mat_mul_matches_triple_sum(operands):
    # zero skipping changes which terms are added, never the exact result
    a, b = operands
    product = xm.mat_mul(a, b)
    assert product == _triple_sum(a, b)
    assert all(type(x) is F for row in product for x in row)


def _zero_pattern(draw):
    """Entries that are all zero, all nonzero or about half zeros."""
    kind = draw(st.sampled_from(["zero", "dense", "mixed"]))
    return {"zero": st.just(F(0)), "dense": _nonzero,
            "mixed": st.one_of(st.just(F(0)), _nonzero)}[kind]


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


@st.composite
def _square_pair(draw):
    k = draw(st.integers(0, 5))
    a_entries, b_entries = _zero_pattern(draw), _zero_pattern(draw)
    a = tuple(tuple(draw(a_entries) for _ in range(k)) for _ in range(k))
    b = tuple(tuple(draw(b_entries) for _ in range(k)) for _ in range(k))
    return a, b


@settings(max_examples=80, deadline=None)
@given(_square_pair())
def test_trace_product_matches_dense_sum(operands):
    # zero entries of the first factor are skipped; the trace is still a Fraction
    a, b = operands
    k = len(a)
    value = xm.trace_product(a, b)
    assert value == sum((a[i][j] * b[j][i] for i in range(k) for j in range(k)), F(0))
    assert type(value) is F


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
        grew = xm.rank(rows[:k + 1]) > xm.rank(rows[:k])
        assert r.add(row) == grew
        assert len(r) == xm.rank(rows[:k + 1])
    for probe in probes:
        assert r.contains(probe) == (xm.rank(rows + [probe]) == len(r))
