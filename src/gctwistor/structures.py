"""Named and seeded structures on V + V*, and the isometries that move them.

The structures induced by a complex structure K and by a symplectic form
omega on V, the B- and beta-transforms and the GL(V) action on a
structure, with the isometry test they run; seeded random orthonormal
bases and the structure adapted to a basis; and the seeded skew and
invertible matrices and fibre structures the suites sample.  Every
constructor reads its input's integer numerators over one denominator
once, checks and assembles in integers and ends in one `Endo._lowest`.

The algebra of V + V* these are built from is in `gclinalg`.  This module
holds what two or more suites build, and what no oracle run does, so a
run that builds none of them compiles none of it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Sequence

from . import exactmat as xm
from .exactmat import F0, Mat
from .gclinalg import (
    DegenerateInputError,
    DimensionMismatchError,
    Endo,
    GCStructure,
    InvariantError,
    OrthonormalBasis,
    _dual_diag,
    _int_blocks,
    _reference_rows,
    _squares_to_minus_identity,
    standard_complex_matrix,
)


def is_pairing_orthogonal(m: Endo) -> bool:
    """True iff <mA, mB> = <A, B> for all A, B.

    The Gram matrix of the pairing is S / 2, S the swap of the V and V*
    halves, so for m = N / d this is N^T S N = d^2 S: entry (r, c) is
    column r of N, halves swapped, dotted with column c.  It is tested in
    integers for r <= c up to the first mismatch.
    """
    h = m.half
    cols = list(zip(*m.num))
    d2 = m.den * m.den
    for r, col in enumerate(cols):
        swapped = col[h:] + col[:h]
        for c in range(r, len(cols)):
            if sum(map(mul, swapped, cols[c])) != (d2 if c == r + h else 0):
                return False
    return True


# ---------------------------------------------------------------------------
# random orthonormal bases


def _rotation_params(rng: random.Random) -> tuple[int, int, int]:
    # (c, s) = (a, b) / e on c^2 + s^2 = 1 via a Pythagorean parametrisation
    while True:
        p = rng.randint(-3, 3)
        q = rng.randint(-3, 3)
        if (p, q) != (0, 0) and q != 0:
            break
    return p * p - q * q, 2 * p * q, p * p + q * q


def _hyperbolic_params(rng: random.Random) -> tuple[int, int, int]:
    # (c, s) = (a, b) / e on c^2 - s^2 = 1 from t = r / q away from +-1, e > 0
    while True:
        r, q = rng.randint(-2, 2), rng.randint(1, 3)
        if abs(r) != q:
            break
    e = q * q - r * r
    sign = 1 if e > 0 else -1
    return sign * (q * q + r * r), sign * 2 * r * q, sign * e


_BASIS_WORD_LENGTH = 12


def _combine(a: int, b: int, e: int, u: tuple[list[int], int],
             w: tuple[list[int], int]) -> tuple[list[int], int]:
    """(a u + b w) / e for e > 0 and vectors kept as (integer coordinates,
    denominator > 0), in lowest terms."""
    (nu, du), (nw, dw) = u, w
    x, y = a * dw, b * du
    num = [x * p + y * q for p, q in zip(nu, nw)]
    den = e * du * dw
    g = gcd(den, *num)
    return [p // g for p in num], den // g


def random_orthonormal_basis(n: int, seed: int | random.Random) -> OrthonormalBasis:
    """A seeded random orthonormal basis, exact by construction.

    Starting from the reference basis, applies a word of
    `_BASIS_WORD_LENGTH` elementary special-orthogonal moves: rational
    circular rotations inside a sign class and rational hyperbolic
    rotations across the two classes.
    Every move has determinant one, so the result is positively
    oriented.  Each element is kept as integer coordinates over its own
    denominator through the moves; the basis is built from the rows put
    over their lcm.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    dim_v = 2 * n
    vectors = [(row, 1) for row in _reference_rows(dim_v)]
    for _ in range(_BASIS_WORD_LENGTH):
        kind = rng.choice(("circular+", "circular-", "hyperbolic"))
        if kind == "circular+":
            i, k = rng.sample(range(dim_v), 2)
        elif kind == "circular-":
            i, k = (dim_v + x for x in rng.sample(range(dim_v), 2))
        else:
            i = rng.randrange(dim_v)
            k = dim_v + rng.randrange(dim_v)
        vi, vk = vectors[i], vectors[k]
        if kind == "hyperbolic":
            a, b, e = _hyperbolic_params(rng)
            vectors[i] = _combine(a, b, e, vi, vk)
        else:
            a, b, e = _rotation_params(rng)
            vectors[i] = _combine(a, -b, e, vi, vk)
        vectors[k] = _combine(b, a, e, vi, vk)
    den = lcm(*(d for _, d in vectors))
    return OrthonormalBasis._lowest([[x * (den // d) for x in row] for row, d in vectors], den)


def adapted_structure(basis: OrthonormalBasis) -> GCStructure:
    """The structure with j Q_2l = Q_2l+1 and j Q_2l+1 = -Q_2l (zero-based)
    for an orthonormal basis: the sum over l of eps_2l S_2l,2l+1.  S_ik
    sends Q_i to eps_i Q_k, Q_k to -eps_k Q_i and the other elements to
    zero, and both elements of a pair share their sign.  At the reference
    basis this is `from_complex(standard_complex_matrix(n))`.
    """
    return GCStructure(reduce(Endo.__add__, (basis.generator(i, i + 1).scale(basis.signs[i])
                                             for i in range(0, len(basis.num), 2))))


# ---------------------------------------------------------------------------
# constructors


def from_complex(k: Mat) -> GCStructure:
    """Structure induced by a complex structure K on V: K on V, -K* on V*.

    For K = N / d in integers, K^2 = -Id is tested as N N = -d^2 Id and the
    structure is diag(N, -N^T) / d.
    """
    num, d = xm._integer_matrix(k)
    if not _squares_to_minus_identity(num, d):
        raise InvariantError("K^2 is not -Id")
    return GCStructure(_dual_diag(num, d))


def from_symplectic(omega: Mat) -> GCStructure:
    """Structure induced by a symplectic form: X -> i_X omega, alpha -> -omega^{-1} alpha.

    The result squares to -Id and is pairing skew for any nondegenerate
    skew omega; it induces the canonical orientation exactly when half
    the dimension of V is even.
    """
    return GCStructure(_symplectic_endo(omega, "omega"))


def _skew(m: Mat, what: str) -> tuple[list[list[int]], int]:
    """The integer matrix N and the least d > 0 with m = N / d, for a skew m;
    InvariantError unless N[i][j] == -N[j][i] for every entry."""
    num, d = xm._integer_matrix(m)
    k = len(num)
    if any(len(row) != k for row in num) or any(
            num[i][j] != -num[j][i] for i in range(k) for j in range(i, k)):
        raise InvariantError(f"{what} is not skew")
    return num, d


def _symplectic_endo(omega: Mat, what: str) -> Endo:
    """[[0, -omega^-T], [omega^T, 0]] for a nondegenerate skew omega.

    In integers: for omega = N / d and (N^T)^-1 = M / e, omega^-T = d M / e,
    so the result is [[0, -d^2 M], [e N^T, 0]] / (d e), from one integer
    inverse.
    """
    num, d = _skew(omega, what)
    iso = list(zip(*num))  # X -> omega(X, .) in coordinates, times d
    try:
        inv, e = xm._integer_inverse(iso)
    except xm.SingularMatrixError:
        raise DegenerateInputError(f"{what} is degenerate") from None
    d2 = d * d
    return _int_blocks(None, [[-d2 * x for x in row] for row in inv],
                       [[e * x for x in row] for row in iso], None, len(num), d * e)


def standard_symplectic_matrix(n: int) -> Mat:
    """omega = sum_m eta_{2m-1} ^ eta_{2m} (one-based): the matrix -K of
    `gclinalg.standard_complex_matrix`."""
    return xm.mat_neg(standard_complex_matrix(n))


def _unipotent(num: Sequence[Sequence[int]], d: int, sign: int, lower: bool) -> Endo:
    """[[Id, 0], [C, Id]] if lower, else [[Id, C], [0, Id]], for
    C = sign N^T / d: [[d Id, 0], [sign N^T, d Id]] / d and its mirror."""
    h = len(num)
    ident = [[d if r == k else 0 for k in range(h)] for r in range(h)]
    c = [[sign * x for x in col] for col in zip(*num)]
    if lower:
        return _int_blocks(ident, None, c, ident, h, d)
    return _int_blocks(ident, c, None, ident, h, d)


def b_transform(j: GCStructure, b: Mat) -> GCStructure:
    """Conjugate by e^B; an isometry of the pairing, so the result is again a structure."""
    return _conjugate(j, *_skew(b, "B"), True, "e^B")


def beta_transform(j: GCStructure, beta: Mat) -> GCStructure:
    """Conjugate by e^beta, the two-vector mirror of the B-transform."""
    return _conjugate(j, *_skew(beta, "beta"), False, "e^beta")


def _conjugate(j: GCStructure, num: Sequence[Sequence[int]], d: int, lower: bool,
               what: str) -> GCStructure:
    """e j e^-1 for the e^B (lower) or e^beta of m = num / d, with
    e^-1 = exp(-m): the same integer blocks with the sign of N^T flipped."""
    e, e_inv = _unipotent(num, d, 1, lower), _unipotent(num, d, -1, lower)
    if not is_pairing_orthogonal(e):
        raise InvariantError(f"{what} failed the isometry check")
    return GCStructure(e.compose(j.j).compose(e_inv))


def _gl_pair(g: Mat) -> tuple[Endo, Endo]:
    """diag(g, g^-T) and its inverse diag(g^-1, g^T), from one integer inverse.

    For g = N / d and N^-1 = M / e, g^-1 = d M / e, so the pair is
    diag(e N, d^2 M^T) / (d e) and diag(d^2 M, e N^T) / (d e).
    """
    num, d = xm._integer_matrix(g)
    h = len(num)
    if any(len(row) != h for row in num):
        raise DimensionMismatchError("endomorphism matrix is not square of the stated size")
    try:
        inv, e = xm._integer_inverse(num)
    except xm.SingularMatrixError:
        raise DegenerateInputError("g is singular") from None
    d2, den = d * d, d * e
    return (_int_blocks([[e * x for x in row] for row in num], None, None,
                        [[d2 * x for x in col] for col in zip(*inv)], h, den),
            _int_blocks([[d2 * x for x in row] for row in inv], None, None,
                        [[e * x for x in col] for col in zip(*num)], h, den))


def gl_action(g: Mat, j: GCStructure) -> GCStructure:
    u, u_inv = _gl_pair(g)
    return GCStructure(u.compose(j.j).compose(u_inv))


# ---------------------------------------------------------------------------
# seeded samples


def random_skew_matrix(dim: int, rng: random.Random) -> Mat:
    rows = [[F0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            rows[i][j] = c
            rows[j][i] = -c
    return tuple(map(tuple, rows))


def random_invertible_matrix(dim: int, rng: random.Random) -> Mat:
    """A product of six seeded rational shears: invertible, determinant one.

    Multiplying by the shear Id + c E_ij on the right adds c times column i
    to column j.  The product is kept as one integer matrix over one
    denominator: for c = p / q each shear multiplies the numerators and the
    denominator by q, then adds p times the old column i to column j.
    """
    m = [[int(r == k) for k in range(dim)] for r in range(dim)]
    den = 1
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        p, q = rng.randint(-2, 2), rng.randint(1, 3)
        for row in m:
            add = p * row[i]
            if q != 1:
                row[:] = [q * x for x in row]
            row[j] += add
        den *= q
    return tuple(tuple(Fraction(x, den) for x in row) for row in m)


def sample_fibre_structure(n: int, rng: random.Random) -> GCStructure:
    """A fibre point generated by a word of three transforms applied to a
    standard seed.

    Seeds are `from_complex(standard_complex_matrix(n))` (any n) or
    `from_symplectic(standard_symplectic_matrix(n))` (even n, to stay in
    the canonical component); every move is an exact isometry of the
    pairing, so invariants survive by construction.
    """
    if n % 2 == 0 and rng.random() < Fraction(1, 2):
        structure = from_symplectic(standard_symplectic_matrix(n))
    else:
        structure = from_complex(standard_complex_matrix(n))
    dim_v = 2 * n
    for _ in range(3):
        move = rng.choice(("b", "beta", "gl"))
        if move == "b":
            structure = b_transform(structure, random_skew_matrix(dim_v, rng))
        elif move == "beta":
            structure = beta_transform(structure, random_skew_matrix(dim_v, rng))
        else:
            structure = gl_action(random_invertible_matrix(dim_v, rng), structure)
    return structure
