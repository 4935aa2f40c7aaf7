"""Dense linear algebra over exact rationals.

Matrices are immutable tuples of tuples of Fraction.  That is the
contract at every public function: entries go in as Fraction (or int)
and come out as Fraction, and every result is the exact rational, with
no pivoting heuristics and no tolerances.  `mat_mul` and `mat_vec` are
plain `Fraction` sums, the reference that tests hold the integer
arithmetic of `gclinalg.Endo` to.  The eliminations work over Python
ints, which skips the gcd that normalises every Fraction product and
sum: a row is multiplied by the lcm of its denominators, the arithmetic
is done in integers, and each entry of the result is built once as a
Fraction.

- `det` is Bareiss's fraction-free elimination (E. Bareiss, Math. Comp.
  22, 1968) on the rows scaled to integers; every division in it is exact.
- `inverse` is Bareiss-Jordan: `det`'s step on [N | Id], for an integer
  matrix N, leaves the inverse as integers over |det N|, which one gcd
  brings to lowest terms (`_integer_inverse`).
- `RowReducer` takes integer vectors only, the one exception to the
  Fraction contract, and stores primitive integer rows, as their nonzero
  entries, with their pivots.  `rank` is the length of one fed the rows
  scaled to integers.

`_scaled` and `_integer_matrix` are the scaling step on its own.
`gclinalg.Endo` keeps its matrix in that integer form and does its own
arithmetic on it, so a structure or skew endomorphism meets this
module's `Fraction` interface only where a caller reads `Endo.rows`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

F0 = Fraction(0)
F1 = Fraction(1)


class SingularMatrixError(ValueError):
    """Raised when an exact inverse meets a singular matrix."""


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(fr(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(row) for row in rows)


def zeros(r: int, c: int) -> Mat:
    return tuple((F0,) * c for _ in range(r))


def identity(k: int) -> Mat:
    return tuple(tuple(F1 if i == j else F0 for j in range(k)) for i in range(k))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c: Fraction, a: Mat) -> Mat:
    c = fr(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _scaled(entries: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integers N and the least d > 0 with entries = N / d."""
    pairs = [(x.numerator, x.denominator) for x in entries]
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (unchanged if all zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_matrix(m: Mat) -> tuple[list[list[int]], int]:
    """An integer matrix N and the least d > 0 with m = N / d; then
    gcd(d, *N) == 1.  This is how `gclinalg.Endo` and
    `gclinalg.OrthonormalBasis` store a matrix."""
    pairs = [[(x.numerator, x.denominator) for x in row] for row in m]
    d = lcm(*(q for row in pairs for _, q in row))
    return [[p * (d // q) for p, q in row] for row in pairs], d


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b, each entry one `Fraction` sum."""
    cols = transpose(b)
    return tuple(tuple(sum(map(mul, row, col), F0) for col in cols) for row in a)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    """a v, each entry one `Fraction` sum."""
    return tuple(sum(map(mul, row, v), F0) for row in a)


def is_zero(a: Mat) -> bool:
    return not any(map(any, a))


def det(m: Mat) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination with row swaps.

    Each row is scaled to integers by the lcm of its denominators.  After
    step k every remaining entry is a (k + 1)-minor of the scaled matrix,
    so each division by the previous pivot is exact, and the last pivot
    over the product of the row scales is the determinant.
    """
    k = len(m)
    rows = []
    scale = 1
    for row in m:
        ints, d = _scaled(row)
        rows.append(ints)
        scale *= d
    sign = 1
    prev = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot is None:
            return F0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col]
        p = prow[col]
        tail = prow[col + 1:]
        for r in range(col + 1, k):
            row = rows[r]
            f = row[col]
            row[col + 1:] = [(x * p - f * y) // prev for x, y in zip(row[col + 1:], tail)]
        prev = p
    return Fraction(sign * prev, scale)


class RowReducer:
    """Incremental echelon form for repeated span and independence queries.

    Vectors have int entries; a Fraction entry fails in `gcd` with a
    TypeError.  Each stored row is a primitive integer row, kept as its
    nonzero (column, value) pairs with its pivot column and pivot value.
    Reducing a vector by a stored row multiplies it by pivot / g and
    subtracts value / g times the row, g the gcd of the pivot and the
    vector's entry in the pivot column.
    """

    def __init__(self) -> None:
        # (pivot column, pivot value, nonzero (column, value) pairs of the primitive row)
        self._rows: list[tuple[int, int, list[tuple[int, int]]]] = []

    def _reduce(self, v: Sequence[int]) -> list[int]:
        out = list(v)
        for pivot, p, row in self._rows:
            f = out[pivot]
            if f:
                g = gcd(p, f)
                if p != g:
                    pg = p // g
                    out = [pg * x for x in out]
                f //= g
                for i, x in row:
                    out[i] -= f * x
        return out

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Sequence[int]) -> bool:
        """Add a vector to the span; False if it was already dependent."""
        reduced = _primitive(self._reduce(v))
        pivot = next((i for i, x in enumerate(reduced) if x), None)
        if pivot is None:
            return False
        self._rows.append((pivot, reduced[pivot], [(i, x) for i, x in enumerate(reduced) if x]))
        return True

    def __len__(self) -> int:
        return len(self._rows)


def rank(m: Mat) -> int:
    """The number of independent rows of m."""
    reducer = RowReducer()
    for row in m:
        reducer.add(_scaled(row)[0])
    return len(reducer)


def inverse(a: Mat) -> Mat:
    """a^-1 = s N^-1 for a = N / s with N an integer matrix."""
    ints, s = _integer_matrix(a)
    num, d = _integer_inverse(ints)
    return tuple(tuple(Fraction(s * x, d) if x else F0 for x in row) for row in num)


def _integer_inverse(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """An integer matrix N and d > 0 with a^-1 = N / d in lowest terms,
    gcd(d, *N) == 1, for a square invertible integer matrix a.

    `det`'s step on every row but the pivot row of [a | Id] is Bareiss's
    Gauss-Jordan elimination: each division by the previous pivot is exact,
    and it ends at [D Id | D a^-1], D = +-det a the last pivot, whose
    right half and |D| are then divided by their one gcd.  Columns
    left of the pivot are not updated, because no later step reads them,
    and a row is skipped where the step leaves it as it is: a zero in the
    pivot column and p = prev.
    """
    k = len(a)
    rows = [list(row) + [1 if c == r else 0 for c in range(k)] for r, row in enumerate(a)]
    prev = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = rows[col]
        p = prow[col]
        tail = prow[col + 1:]
        for r, row in enumerate(rows):
            f = row[col]
            if r != col and (f or p != prev):
                row[col + 1:] = [(x * p - f * y) // prev for x, y in zip(row[col + 1:], tail)]
        prev = p
    inv = [row[k:] for row in rows]
    g = gcd(prev, *(x for row in inv for x in row)) * (1 if prev > 0 else -1)
    return [[x // g for x in row] for row in inv], prev // g
