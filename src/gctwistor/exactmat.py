"""Dense linear algebra over exact rationals.

Matrices are immutable tuples of tuples of Fraction and every algorithm
is exact: no pivoting heuristics, no tolerances.  Sizes in this package
stay small (at most a few hundred rows), so plain Gaussian elimination
over Fraction is both simple and fast enough.  The kernels skip terms
that are exactly zero, so every result is the same rational: `mat_mul`
skips zero entries of both factors, `mat_vec` zero entries of the
vector, `trace_product` zero entries of the first factor, `det` and
`rref` skip rows whose elimination factor is zero, and `RowReducer`
keeps its rows as nonzero entries.  The skew generators, many
structures, the curvature-form system and the unit probes of the
Courant-bracket oracle are sparse.  Sums start at `F0`, so every entry
is a `Fraction` even when all its terms are skipped.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

F0 = Fraction(0)
F1 = Fraction(1)


class SingularMatrixError(ValueError):
    """Raised when an exact solve or inverse meets a singular matrix."""


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


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c: Fraction, a: Mat) -> Mat:
    c = fr(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b, accumulated row by row over the nonzero entries of a and b."""
    cols = len(b[0]) if b else 0
    sparse_b = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [F0] * cols
        for x, nonzero in zip(row, sparse_b):
            if x:
                for c, y in nonzero:
                    acc[c] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Mat, v: Sequence[Fraction]) -> Vec:
    """a v over the nonzero entries of v."""
    nonzero = [(c, y) for c, y in enumerate(v) if y]
    return tuple(sum((row[c] * y for c, y in nonzero), F0) for row in a)


def is_zero(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a: Mat) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), F0)


def trace_product(a: Mat, b: Mat) -> Fraction:
    """trace(a b) without forming the product, over the nonzero entries of a."""
    return sum((x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row) if x), F0)


def det(m: Mat) -> Fraction:
    """Determinant by exact Gaussian elimination with row swaps."""
    k = len(m)
    rows = [list(row) for row in m]
    sign = 1
    result = F1
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            return F0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = rows[col][col]
        result *= p
        for r in range(col + 1, k):
            factor = rows[r][col] / p
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return result * sign


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    rows = [list(row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return mat(rows), tuple(pivots)


def rank(m: Mat) -> int:
    if not m:
        return 0
    return len(rref(m)[1])


class RowReducer:
    """Incremental echelon form for repeated span and independence queries.

    Each stored row keeps only its nonzero (column, value) pairs, so a
    reduction skips the zero terms, which are exactly zero.
    """

    def __init__(self) -> None:
        # (pivot column, nonzero (column, value) pairs of the normalized row)
        self._rows: list[tuple[int, list[tuple[int, Fraction]]]] = []

    def _reduce(self, v: Sequence[Fraction]) -> list[Fraction]:
        out = list(v)
        for pivot, row in self._rows:
            f = out[pivot]
            if f:
                for i, x in row:
                    out[i] -= f * x
        return out

    def contains(self, v: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self._reduce(v))

    def add(self, v: Sequence[Fraction]) -> bool:
        """Add a vector to the span; False if it was already dependent."""
        reduced = self._reduce(v)
        pivot = next((i for i, x in enumerate(reduced) if x != 0), None)
        if pivot is None:
            return False
        p = reduced[pivot]
        self._rows.append((pivot, [(i, x / p) for i, x in enumerate(reduced) if x]))
        return True

    def __len__(self) -> int:
        return len(self._rows)


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right kernel, one vector per free column."""
    if not m:
        return []
    reduced, pivots = rref(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [F0] * ncols
        v[fcol] = F1
        for r, pcol in enumerate(pivots):
            v[pcol] = -reduced[r][fcol]
        basis.append(tuple(v))
    return basis


def solve(a: Mat, b: Sequence[Fraction]) -> Vec:
    """Solve a x = b for square invertible a."""
    k = len(a)
    aug = mat([list(row) + [fr(x)] for row, x in zip(a, b)])
    reduced, pivots = rref(aug)
    if pivots != tuple(range(k)):
        raise SingularMatrixError("matrix is singular")
    return tuple(reduced[i][k] for i in range(k))


def inverse(a: Mat) -> Mat:
    k = len(a)
    aug = mat([list(row) + list(idrow) for row, idrow in zip(a, identity(k))])
    reduced, pivots = rref(aug)
    if pivots != tuple(range(k)):
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(reduced[i][k:]) for i in range(k))
