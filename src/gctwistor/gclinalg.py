"""Exact algebra of V + V* with its split-signature pairing.

Everything here is finite dimensional and rational: each identity a
constructor or checker asserts holds exactly, never approximately.

Coordinate convention, fixed once for the whole package: for dim V = 2n
an element of V + V* is stored as 2n vector components in a basis
{e_1, ..., e_2n} of V followed by 2n covector components in the dual
basis {a_1, ..., a_2n}.  Endomorphisms act on these 4n coordinates with
the V block first, so the canonical orientation is the one of the
ordered reference basis {e_1, ..., e_2n, a_1, ..., a_2n}.

An endomorphism (`Endo`) is an integer matrix over one positive
denominator in lowest terms, and its arithmetic, the pairing-skew and
anticommutation tests, j^2 = -Id, the fibre pairing, the orientation and
the vertical basis all work on those integers.  `Endo.rows` builds the
matrix as `Fraction`s for the callers that want them.  An
`OrthonormalBasis` is stored the same way, and its orthonormality check
and skew generators work on its integers.  The named and seeded
structures, the transforms that move them, the isometry test and random
orthonormal bases are in `structures`; what only the `linalg/` suite
reads, the pairing of two elements, the basis reports, e^B, e^beta and
the GL(V) action as an endomorphism, is in `linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from . import exactmat as xm
from .exactmat import F0, F1, Mat, Vec, fr
from .value import Value

Scalar = Fraction


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


class DegenerateInputError(ValueError):
    """Input fails a nondegeneracy precondition (singular matrix, chart edge)."""


class InvariantError(ValueError):
    """A constructed object violates one of its defining identities."""


# ---------------------------------------------------------------------------
# elements and endomorphisms


class GElement(Value):
    """An element X + xi of V + V*, stored as (vector, covector) coordinates."""

    __slots__ = ("dim_v", "vec", "cov")

    def __init__(self, dim_v: int, vec: Vec, cov: Vec):
        if dim_v < 0 or dim_v % 2 != 0:
            raise InvariantError("dim V must be even and nonnegative")
        if len(vec) != dim_v or len(cov) != dim_v:
            raise DimensionMismatchError("coordinate length does not match dim V")
        self.dim_v = dim_v
        self.vec = vec
        self.cov = cov

    @property
    def coords(self) -> Vec:
        return self.vec + self.cov

    def __add__(self, other: "GElement") -> "GElement":
        _same_dim(self, other)
        return GElement(self.dim_v, tuple(a + b for a, b in zip(self.vec, other.vec)),
                        tuple(a + b for a, b in zip(self.cov, other.cov)))

    def __sub__(self, other: "GElement") -> "GElement":
        return self + (-other)

    def __neg__(self) -> "GElement":
        return self.scale(-1)

    def scale(self, c) -> "GElement":
        c = fr(c)
        return GElement(self.dim_v, tuple(c * a for a in self.vec),
                        tuple(c * a for a in self.cov))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


def gelem(vec: Iterable, cov: Iterable) -> GElement:
    v = xm.vec(vec)
    c = xm.vec(cov)
    return GElement(len(v), v, c)


def from_coords(coords: Sequence) -> GElement:
    half = len(coords) // 2
    return gelem(coords[:half], coords[half:])


def zero_element(dim_v: int) -> GElement:
    return GElement(dim_v, (F0,) * dim_v, (F0,) * dim_v)


def basis_vector(dim_v: int, i: int) -> GElement:
    """The element e_{i+1} (pure vector)."""
    return GElement(dim_v, tuple(F1 if k == i else F0 for k in range(dim_v)),
                    (F0,) * dim_v)


def basis_covector(dim_v: int, i: int) -> GElement:
    """The element a_{i+1} (pure covector)."""
    return GElement(dim_v, (F0,) * dim_v,
                    tuple(F1 if k == i else F0 for k in range(dim_v)))


def coordinate_elements(dim_v: int) -> list[GElement]:
    """The reference basis e_1, ..., e_2n, a_1, ..., a_2n."""
    return [basis_vector(dim_v, i) for i in range(dim_v)] + \
        [basis_covector(dim_v, i) for i in range(dim_v)]


def _same_dim(a: GElement, b: GElement) -> None:
    if a.dim_v != b.dim_v:
        raise DimensionMismatchError(f"dim V mismatch: {a.dim_v} vs {b.dim_v}")


class Endo(Value):
    """A square matrix acting on the 4n coordinates of V + V*.

    Stored as an integer matrix `num` (a tuple of int rows) over one
    positive denominator `den`, in lowest terms: gcd(den, *entries) == 1.
    That form is unique, so equality and hashing compare values, and the
    arithmetic below works in integers with one gcd per result.  `rows`
    builds the matrix as `Fraction`s on each read.
    """

    __slots__ = ("dim", "num", "den")

    def __init__(self, dim: int, rows: Mat):
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise DimensionMismatchError("endomorphism matrix is not square of the stated size")
        num, den = xm._integer_matrix(rows)
        self.dim = dim
        self.num = tuple(map(tuple, num))
        self.den = den

    @staticmethod
    def _lowest(dim: int, num: Sequence[Sequence[int]], den: int) -> "Endo":
        """The endomorphism num / den for den > 0, divided by one gcd."""
        out = object.__new__(Endo)
        out.dim = dim
        g = gcd(den, *chain.from_iterable(num)) if den != 1 else 1
        if g > 1:
            out.num = tuple(tuple(x // g for x in row) for row in num)
            out.den = den // g
        else:
            out.num = tuple(map(tuple, num))
            out.den = den
        return out

    @property
    def rows(self) -> Mat:
        d = self.den
        return tuple(tuple(Fraction(x, d) if x else F0 for x in row) for row in self.num)

    @property
    def half(self) -> int:
        return self.dim // 2

    def block(self, which: str) -> Mat:
        """One of the four blocks: 'vv' (V->V), 'vc' (V*->V), 'cv' (V->V*), 'cc'."""
        h = self.half
        r0, c0 = {"vv": (0, 0), "vc": (0, h), "cv": (h, 0), "cc": (h, h)}[which]
        return tuple(row[c0:c0 + h] for row in self.rows[r0:r0 + h])

    def apply(self, a: GElement) -> GElement:
        """The image of a, each coordinate one integer sum over den d_a."""
        if 2 * a.dim_v != self.dim:
            raise DimensionMismatchError("element does not match endomorphism size")
        ints, da = xm._scaled(a.coords)
        d = self.den * da
        out = tuple(Fraction(v, d) if (v := sum(map(mul, row, ints))) else F0
                    for row in self.num)
        return GElement(a.dim_v, out[:a.dim_v], out[a.dim_v:])

    def compose(self, other: "Endo") -> "Endo":
        """self o other: the product of the numerators over the nonzero
        entries of both, over den * other.den."""
        dim = self.dim
        if dim != other.dim:
            raise DimensionMismatchError("endomorphism sizes differ")
        nonzero = [[(c, y) for c, y in enumerate(row) if y] for row in other.num]
        out = []
        for row in self.num:
            acc = [0] * dim
            for x, pairs in zip(row, nonzero):
                if x:
                    for c, y in pairs:
                        acc[c] += x * y
            out.append(acc)
        return Endo._lowest(dim, out, self.den * other.den)

    def __add__(self, other: "Endo") -> "Endo":
        return self._combine(other, 1)

    def __sub__(self, other: "Endo") -> "Endo":
        return self._combine(other, -1)

    def _combine(self, other: "Endo", sign: int) -> "Endo":
        """self + sign * other over the lcm of the two denominators."""
        if self.dim != other.dim:
            raise DimensionMismatchError("endomorphism sizes differ")
        da, db = self.den, other.den
        if da == db:
            fa, fb = 1, sign
        else:
            den = lcm(da, db)
            fa, fb, da = den // da, sign * (den // db), den
        return Endo._lowest(self.dim, [[fa * x + fb * y for x, y in zip(ra, rb)]
                                       for ra, rb in zip(self.num, other.num)], da)

    def __neg__(self) -> "Endo":
        out = object.__new__(Endo)
        out.dim, out.den = self.dim, self.den
        out.num = tuple(tuple(-x for x in row) for row in self.num)
        return out

    def scale(self, c) -> "Endo":
        """c self for an int or Fraction c."""
        p = c.numerator
        return Endo._lowest(self.dim, [[p * x for x in row] for row in self.num],
                            self.den * c.denominator)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def squares_to_minus_identity(self) -> bool:
        """Whether self o self = -Id (see `_squares_to_minus_identity`)."""
        return _squares_to_minus_identity(self.num, self.den)


def _squares_to_minus_identity(num: Sequence[Sequence[int]], den: int) -> bool:
    """Whether (num / den)^2 = -Id for an integer matrix num and den > 0,
    tested as num num = -den^2 Id entry by entry up to the first mismatch;
    False for a matrix that is not square."""
    cols = list(zip(*num))
    if len(cols) != len(num):
        return False
    minus_d2 = -den * den
    for r, row in enumerate(num):
        for c, col in enumerate(cols):
            if sum(map(mul, row, col)) != (minus_d2 if r == c else 0):
                return False
    return True


def _int_blocks(vv: Sequence[Sequence[int]] | None, vc: Sequence[Sequence[int]] | None,
                cv: Sequence[Sequence[int]] | None, cc: Sequence[Sequence[int]] | None,
                h: int, den: int) -> Endo:
    """[[vv, vc], [cv, cc]] / den for h x h integer blocks, None a zero block."""
    zero = ((0,) * h,) * h
    vv, vc, cv, cc = (zero if b is None else b for b in (vv, vc, cv, cc))
    rows = [[*a, *b] for a, b in zip(vv, vc)] + [[*a, *b] for a, b in zip(cv, cc)]
    return Endo._lowest(2 * h, rows, den)


def _dual_diag(num: Sequence[Sequence[int]], d: int) -> Endo:
    """diag(A, -A^T), the action on V + V* of the endomorphism A = num / d
    of V: diag(num, -num^T) / d."""
    return _int_blocks(num, None, None, [[-x for x in col] for col in zip(*num)], len(num), d)


def zero_endo(dim: int) -> Endo:
    return Endo._lowest(dim, ((0,) * dim,) * dim, 1)


def commutator(a: Endo, b: Endo) -> Endo:
    return a.compose(b) - b.compose(a)


# ---------------------------------------------------------------------------
# the pairing and derived checks


def is_pairing_skew(m: Endo) -> bool:
    """True iff <mA, B> + <A, mB> = 0 for all A, B.

    In blocks [[A, B], [C, D]] this reads: B and C skew, D = -A^T, tested
    on the integer numerators over the one denominator.
    """
    h = m.half
    num = m.num
    for i in range(h):
        for j in range(h):
            if (num[i][h + j] != -num[j][h + i]                  # B skew
                    or num[h + i][j] != -num[h + j][i]           # C skew
                    or num[h + i][h + j] != -num[j][i]):         # D = -A^T
                return False
    return True


def fib_pairing(a: Endo, b: Endo) -> Scalar:
    """The pairing <a, b> = -Trace(a b) / 2 on skew endomorphisms: one
    integer trace over the nonzero entries of a, over 2 den_a den_b."""
    if a.dim != b.dim:
        raise DimensionMismatchError("endomorphism sizes differ")
    b_num = b.num
    total = sum(x * b_num[c][r] for r, row in enumerate(a.num) for c, x in enumerate(row) if x)
    return Fraction(-total, 2 * a.den * b.den)


# ---------------------------------------------------------------------------
# orientation


def structure_orientation(j: Endo) -> int:
    """Orientation induced by a complex structure j on V + V*.

    Computed from an adapted basis {b_1, j b_1, b_2, j b_2, ...} built
    greedily from the reference basis; for a complex structure the
    result does not depend on the choices made.  It is built in integers:
    b is a unit vector e_c and den j b is column c of `num`.  Scaling the
    images by den > 0 multiplies the determinant by a positive power of
    den, so the sign of the one integer determinant is the orientation.
    """
    dim = j.dim
    if dim == 0:
        return 1
    cols = list(zip(*j.num))
    chosen: list[Sequence[int]] = []
    span = xm.RowReducer()
    for c in range(dim):
        if len(chosen) == dim:
            break
        unit = [0] * dim
        unit[c] = 1
        if span.contains(unit):
            continue
        chosen.extend([unit, cols[c]])
        if not (span.add(unit) and span.add(cols[c])):
            raise InvariantError("adapted basis construction failed; j is not a complex structure")
    # the reducer has certified the basis, so its determinant (as rows or
    # as columns, the same) is nonzero
    return 1 if xm.det(chosen) > 0 else -1


# ---------------------------------------------------------------------------
# structures and orthonormal bases


class GCStructure(Value):
    """A complex structure on V + V* compatible with the pairing.

    Construction checks j^2 = -Id and pairing skewness exactly.  The
    orientation is not part of the invariant; `orientation` reads
    `structure_orientation` (it is +1 exactly when the structure belongs to
    the canonical component G(V)), computed on the first call and kept in
    `_orientation`.  The structure is its matrix alone: however it was
    made, `vertical_space_basis` computes from j.
    """

    __slots__ = ("j", "_orientation")

    def __init__(self, j: Endo):
        if not j.squares_to_minus_identity():
            raise InvariantError("j^2 is not -Id")
        if not is_pairing_skew(j):
            raise InvariantError("j is not skew for the neutral pairing")
        self.j = j
        self._orientation: int | None = None

    @property
    def dim_v(self) -> int:
        return self.j.half

    def orientation(self) -> int:
        if self._orientation is None:
            self._orientation = structure_orientation(self.j)
        return self._orientation


class OrthonormalBasis(Value):
    """4n elements Q_i with <Q_i, Q_j> = delta_ij eps_i, positive signs first.

    Stored as `Endo` is: an integer matrix `num` whose row i is d Q_i, over
    the one denominator `den` = d > 0 in lowest terms.  Equality and hashing
    compare those values; `vectors` builds the elements as `GElement`s on
    each read.  The signs are always 2n times +1, then 2n times -1.
    """

    __slots__ = ("num", "den")

    def __init__(self, vectors: tuple[GElement, ...]):
        if any(2 * v.dim_v != len(vectors) for v in vectors):
            raise DimensionMismatchError("basis elements do not live in V + V* of dim V = 2n")
        self._fill(*xm._integer_matrix([v.coords for v in vectors]))

    @staticmethod
    def _lowest(num: Sequence[Sequence[int]], den: int) -> "OrthonormalBasis":
        """The basis with rows num / den for den > 0, checked as `__init__` checks."""
        m = Endo._lowest(len(num), num, den)
        out = object.__new__(OrthonormalBasis)
        out._fill(m.num, m.den)
        return out

    def _fill(self, num: Sequence[Sequence[int]], den: int) -> None:
        n4 = len(num)
        if n4 == 0 or n4 % 4 != 0:
            raise DimensionMismatchError("an orthonormal basis of V + V* has 4n elements")
        half = n4 // 2
        # <Q_i, Q_k> = (cov_i . vec_k + cov_k . vec_i) / (2 d^2), and eps_i = +1 for i < 2n
        vecs = [row[:half] for row in num]
        covs = [row[half:] for row in num]
        norm = 2 * den * den
        for i in range(n4):
            for k in range(i, n4):
                total = sum(map(mul, covs[i], vecs[k])) + sum(map(mul, covs[k], vecs[i]))
                if total != ((norm if i < half else -norm) if i == k else 0):
                    raise InvariantError(f"pairing of elements {i} and {k} is not orthonormal")
        self.num = tuple(map(tuple, num))
        self.den = den

    @property
    def signs(self) -> tuple[int, ...]:
        half = len(self.num) // 2
        return (1,) * half + (-1,) * half

    @property
    def vectors(self) -> tuple[GElement, ...]:
        d = self.den
        return tuple(from_coords([Fraction(x, d) if x else F0 for x in row]) for row in self.num)

    @property
    def dim_v(self) -> int:
        return len(self.num) // 2

    def generator(self, i: int, k: int) -> Endo:
        """The skew generator S_ik for zero-based indices: S_ik Q_m =
        eps_m (delta_im Q_k - delta_mk Q_i), so S_ki = -S_ik and S_ii = 0.

        In the basis S_ik sends Q_i to eps_i Q_k and Q_k to -eps_k Q_i, so
        S_ik = eps_i B[:, k] (x) B^-1[i, :] - eps_k B[:, i] (x) B^-1[k, :]
        for the basis matrix B.  Both come from the rows N = d Q with no
        elimination: B = N^T / d, and since the coefficient of Q_i in x is
        eps_i <Q_i, x>, row i of 2 d B^-1 is eps_i swap(N_i), swap
        exchanging the V and V* halves.  The two eps cancel, so entry (r, c)
        is (N_k[r] swap(N_i)[c] - N_i[r] swap(N_k)[c]) / (2 d^2).
        """
        num = self.num
        h = len(num) // 2
        ni, nk = num[i], num[k]
        swap_i, swap_k = ni[h:] + ni[:h], nk[h:] + nk[:h]
        rows = [[x * p - y * q for p, q in zip(swap_i, swap_k)] for x, y in zip(nk, ni)]
        return Endo._lowest(len(num), rows, 2 * self.den * self.den)


def reference_basis(n: int) -> OrthonormalBasis:
    """The standard orthonormal basis {e_i + a_i ; e_i - a_i} of V + V*."""
    return OrthonormalBasis._lowest(_reference_rows(2 * n), 1)


def _reference_rows(dim_v: int) -> list[list[int]]:
    """e_i + a_i, then e_i - a_i, as integer rows."""
    return [[int(c == i) + sign * int(c == dim_v + i) for c in range(2 * dim_v)]
            for sign in (1, -1) for i in range(dim_v)]


def standard_complex_matrix(n: int) -> Mat:
    """K with K e_{2m-1} = e_{2m}, K e_{2m} = -e_{2m-1} (one-based)."""
    dim_v = 2 * n
    rows = [[F0] * dim_v for _ in range(dim_v)]
    for m in range(n):
        rows[2 * m + 1][2 * m] = F1
        rows[2 * m][2 * m + 1] = -F1
    return xm.mat(rows)



# ---------------------------------------------------------------------------
# skew frames of an orthonormal basis and the fibre geometry


class SkewFrames(Value):
    """Two anticommuting triples spanning the skew endomorphisms of neutral 4-space.

    The `left` triple (L1, L2, L3) satisfies L1^2 = -Id, L2^2 = L3^2 = Id
    and pairwise anticommutation, likewise `right`; members of different
    triples commute.  Compatible complex structures are exactly the
    combinations x . left with x1^2 - x2^2 - x3^2 = 1 (or the mirror
    statement for `right`).
    """

    __slots__ = ("left", "right")

    def all(self) -> list[Endo]:
        return list(self.left) + list(self.right)


def skew_frames(basis: OrthonormalBasis) -> SkewFrames:
    if len(basis.num) != 4:
        raise DimensionMismatchError("skew frames are specific to neutral 4-space")
    s01, s02, s03, s12, s13, s23 = (basis.generator(i, k) for i, k in combinations(range(4), 2))
    left = (s01 - s23, s02 - s13, s03 + s12)
    right = (s01 + s23, s02 + s13, s03 - s12)
    return SkewFrames(left, right)


_FRAME_NORMS = (Fraction(2), Fraction(-2), Fraction(-2))


def hyperboloid_chart(u: Scalar, v: Scalar, sheet: int) -> tuple[Scalar, Scalar, Scalar]:
    """Rational chart of the hyperboloid x1^2 - x2^2 - x3^2 = 1.

    x1 = sheet (1 + u^2 + v^2) / (1 - u^2 - v^2), x2 = 2u / (...),
    x3 = 2v / (...); the circle u^2 + v^2 = 1 is excluded.
    """
    u, v = fr(u), fr(v)
    if sheet not in (1, -1):
        raise ValueError("sheet must be +1 or -1")
    den = 1 - u * u - v * v
    if den == 0:
        raise DegenerateInputError("chart singularity u^2 + v^2 = 1")
    return (Fraction(sheet) * (1 + u * u + v * v) / den, 2 * u / den, 2 * v / den)


def hyperboloid_point(u: Scalar, v: Scalar, sheet: int, basis: OrthonormalBasis) -> GCStructure:
    """A compatible complex structure on neutral 4-space from the rational chart.

    The point x = (x1, x2, x3) satisfies x1^2 - x2^2 - x3^2 = 1 exactly,
    so x . left squares to -Id; for a positively oriented basis the
    result induces the canonical orientation.
    """
    x1, x2, x3 = hyperboloid_chart(u, v, sheet)
    frames = skew_frames(basis)
    k = frames.left[0].scale(x1) + frames.left[1].scale(x2) + frames.left[2].scale(x3)
    structure = GCStructure(k)
    if structure.orientation() != 1:
        raise InvariantError("hyperboloid point does not induce the canonical orientation; "
                             "was the supplied basis positively oriented?")
    return structure


def is_vertical(q: Endo, j: Endo) -> bool:
    """True iff q is pairing skew and anticommutes with j.

    q j + j q is tested entry by entry in integers, Q J + J Q for the
    numerators Q = d_q q and J = d_j j, up to the first nonzero entry.
    """
    if not is_pairing_skew(q):
        return False
    if q.dim != j.dim:
        raise DimensionMismatchError("endomorphism sizes differ")
    qi, ji = q.num, j.num
    q_cols = list(zip(*qi))
    j_cols = list(zip(*ji))
    for q_row, j_row in zip(qi, ji):
        for j_col, q_col in zip(j_cols, q_cols):
            if sum(map(mul, q_row, j_col)) + sum(map(mul, j_row, q_col)):
                return False
    return True


def vertical_space_basis(j: GCStructure) -> list[Endo]:
    """A basis of the 4n^2 - 2n skew endomorphisms anticommuting with j.

    The projection s -> s + j s j maps the pairing-skew endomorphisms onto
    the anticommuting ones (it doubles those already vertical).  It is
    applied in integers to each elementary skew S = E_pq - E_p'q' of
    [[A, B], [C, -A^T]]: B = E_rc - E_cr and C = E_rc - E_cr for r < c,
    then A = E_rc.  With J = d j for the least integer d > 0 the candidate
    is d^2 S + J S J, where J S J = J[:, p] (x) J[q, :] - J[:, p'] (x) J[q', :].
    The candidates are ranked in one `RowReducer` on the coordinates that
    fix a skew endomorphism: A and the strict upper triangles of B and C.
    The result is S + j S j = (d^2 S + J S J) / d^2, built from those
    integers, for the first 4n^2 - 2n independent candidates.  Every
    candidate is vertical and the vertical space has exactly that
    dimension, so stopping there is exact; InvariantError if the
    candidates run out first.  B and C come first because for a
    generic j their 4n^2 - 2n candidates are already independent.
    """
    h = j.dim_v
    expected = h * h - h
    ji, d = j.j.num, j.j.den
    d2 = d * d
    cols = list(zip(*ji))
    upper = [(r, c) for r in range(h) for c in range(r + 1, h)]
    units = [((r, h + c), (c, h + r)) for r, c in upper]
    units += [((h + r, c), (h + c, r)) for r, c in upper]
    units += [((r, c), (h + c, h + r)) for r in range(h) for c in range(h)]
    basis: list[Endo] = []
    span = xm.RowReducer()
    for (p, q), (p2, q2) in units:
        if len(basis) == expected:
            break
        row_q, row_q2 = ji[q], ji[q2]
        m = [[x * y - x2 * y2 for y, y2 in zip(row_q, row_q2)] for x, x2 in zip(cols[p], cols[p2])]
        m[p][q] += d2
        m[p2][q2] -= d2
        key = [x for row in m[:h] for x in row[:h]]
        key += [m[r][h + c] for r, c in upper]
        key += [m[h + r][c] for r, c in upper]
        if span.add(key):
            basis.append(Endo._lowest(2 * h, m, d2))
    if len(basis) != expected:
        raise InvariantError(f"vertical space has rank {len(basis)}, expected {expected}")
    return basis
