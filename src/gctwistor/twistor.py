"""The twistor bundle of generalized complex structures over an affine chart.

A point of the bundle is a base chart point together with a pairing
compatible complex structure on T_pM + T*_pM inducing the canonical
orientation.  A linear connection splits the tangent space of the bundle
into horizontal and vertical parts; this module implements that
splitting, the closed-form Nijenhuis tensor of the two twistor structures
(alpha = 1, 2) as one table over a point's probe pairs, the
curvature-form machinery and the sampler of fibre-chart points.  The
per-case mixed and hybrid terms that only the witnesses evaluate are in
`integrability`.  The structures themselves, the horizontal lift and the
other cases of the closed form, in `Fraction` arithmetic, are the tests'
references in `reference`, which no run imports.

Convention notes, fixed here and relied on everywhere:
  * curvature sign: R(X, Y) = nabla_{[X,Y]} - [nabla_X, nabla_Y], i.e.
    the negative of the more common convention;
  * the extension of R(X, Y) to TM + T*M is diag(R, -R^T) and its action
    on an endomorphism a is the commutator [diag(R, -R^T), a].
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from . import exactmat as xm
from .exactmat import F0, Mat, Vec
from .gclinalg import (
    DimensionMismatchError,
    Endo,
    GCStructure,
    GElement,
    InvariantError,
    _dual_diag,
    commutator,
    is_vertical,
    standard_complex_matrix,
    zero_element,
    zero_endo,
)
from .poly import ChartPoint, Poly, poly_from_json
from .value import Value


class NotVerticalError(ValueError):
    """A tangent argument that must be vertical fails the anticommutation test."""


# ---------------------------------------------------------------------------
# connections and curvature


class Connection(Value):
    """Torsion-free Christoffel data with polynomial entries on a 2n-chart.

    The curvature R(d/dx_a, d/dx_b) for a < b is built once, as
    polynomials, when the connection is made; the connection is flat
    exactly when every one of them is the zero polynomial.
    """

    __slots__ = ("n", "entries", "_curvature")

    def __init__(self, n: int, entries: tuple[tuple[tuple[int, int, int], Poly], ...]):
        dim = 2 * n
        seen: dict[tuple[int, int, int], Poly] = {}
        for (k, i, j), p in entries:
            if not (0 <= k < dim and 0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError(f"{_key(k, i, j)} is out of range 1..{dim}")
            if p.nvars != dim:
                raise DimensionMismatchError("Christoffel entry arity does not match the chart")
            if (k, i, j) in seen:
                raise InvariantError(f"connection lists {_key(k, i, j)} twice")
            seen[(k, i, j)] = p
        for (k, i, j), p in seen.items():
            mirror = seen.get((k, j, i), Poly.constant(dim, 0))
            if not (p - mirror).is_zero():
                raise InvariantError(f"connection has torsion: {_key(k, i, j)} differs from "
                                     f"{_key(k, j, i)}")
        self.n = n
        # (k, i, j) -> Gamma^k_ij, nonzero only
        self.entries = tuple(e for e in entries if not e[1].is_zero())
        self._curvature = _curvature_polys(self.entries)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def is_flat(self) -> bool:
        """Whether the curvature vanishes identically."""
        return not self._curvature

    def curvature_basis_at(self, p: ChartPoint) -> dict[tuple[int, int], Mat]:
        """R(d/dx_a, d/dx_b) at the point for every a < b: the nonzero
        curvature polynomials evaluated there, zero everywhere else."""
        dim = self.dim
        curvature = self._curvature
        table = {}
        for a in range(dim):
            for b in range(a + 1, dim):
                rows = [[F0] * dim for _ in range(dim)]
                for k, l, poly in curvature.get((a, b), ()):
                    rows[k][l] = poly.evaluate(p.coords)
                table[(a, b)] = tuple(map(tuple, rows))
        return table


def _key(k: int, i: int, j: int) -> str:
    """Gamma^k_ij by its one-based "k,i,j" key, as a scenario names it."""
    return f'Christoffel key "{k + 1},{i + 1},{j + 1}"'


def _curvature_polys(entries) -> dict[tuple[int, int], tuple[tuple[int, int, Poly], ...]]:
    """R(d/dx_a, d/dx_b) for a < b as polynomials: entry (k, l) is
    d_b Gamma^k_al - d_a Gamma^k_bl plus the sum over m of
    Gamma^k_bm Gamma^m_al - Gamma^k_am Gamma^m_bl, that is T(a, b) - T(b, a)
    for T(x, y) = d_y Gamma^k_xl + Gamma^k_ym Gamma^m_xl.  T is read off the
    nonzero entries alone: each entry's partials in the variables it has,
    and each product of two entries chained through m, so the work follows
    the entries and a connection with none costs nothing.  Only the nonzero
    (k, l, polynomial) entries are kept, and only the pairs a < b that have
    one."""
    by_k: dict[int, list[tuple[int, int, Poly]]] = {}
    for (k, i, l), poly in entries:
        by_k.setdefault(k, []).append((i, l, poly))
    acc: dict[tuple[int, int], dict[tuple[int, int], Poly]] = {}

    def add(x: int, y: int, k: int, l: int, term: Poly) -> None:
        """Add T(x, y)'s term to R(d_x, d_y), kept at a < b as R(d_b, d_a) = -R(d_a, d_b)."""
        if x != y:
            key, term = ((x, y), term) if x < y else ((y, x), -term)
            cell = acc.setdefault(key, {})
            cell[k, l] = cell[k, l] + term if (k, l) in cell else term

    for (k, x, m), poly in entries:
        for y in {v for exps, _ in poly.terms for v, e in enumerate(exps) if e}:
            add(x, y, k, m, poly.partial(y))
        for y, l, other in by_k.get(m, ()):
            add(y, x, k, l, poly * other)
    out = {}
    for key, cell in acc.items():
        nonzero = tuple((k, l, poly) for (k, l), poly in cell.items() if not poly.is_zero())
        if nonzero:
            out[key] = nonzero
    return out


def connection(n: int, gamma: Mapping[tuple[int, int, int], Poly]) -> Connection:
    """Build a connection, filling in the symmetric mirror of each entry."""
    full: dict[tuple[int, int, int], Poly] = {}
    for (k, i, j), p in gamma.items():
        full[(k, i, j)] = p
        mirror = (k, j, i)
        if mirror not in gamma:
            full[mirror] = p
    return Connection(n, tuple(sorted(full.items())))


def flat_connection(n: int) -> Connection:
    return Connection(n, ())


def connection_from_json(n: int, data: Mapping) -> Connection:
    """Read one-based "k,i,j" keys; two keys that name one triple, such as
    "1,1,2" and "01,1,2", are rejected rather than one replacing the other.
    A key that is not three integers and a malformed polynomial are
    rejected with a ValueError naming the key."""
    gamma = {}
    keys: dict[tuple[int, int, int], str] = {}
    for key, terms in data.items():
        try:
            k, i, j = (int(s) - 1 for s in key.split(","))
        except ValueError:
            raise ValueError(f'Christoffel key {key!r} is not three comma-separated '
                             f'integers, the one-based "k,i,j"') from None
        if (k, i, j) in keys:
            raise ValueError(f"Christoffel keys {keys[k, i, j]!r} and {key!r} both name "
                             f"Gamma^{k + 1}_{i + 1}{j + 1}")
        keys[k, i, j] = key
        try:
            gamma[k, i, j] = poly_from_json(2 * n, terms)
        except ValueError as exc:
            raise ValueError(f"Christoffel key {key!r}: {exc}") from None
    return connection(n, gamma)


class CurvatureValue(Value):
    """R(X, Y) at a point, as an endomorphism of T_pM."""

    __slots__ = ("n", "endo_tm")

    def extended(self) -> Endo:
        """Action on T_pM + T*_pM: R on vectors, eta -> -eta o R on covectors."""
        return _dual_diag(*xm._integer_matrix(self.endo_tm))

    def act_on(self, a: Endo) -> Endo:
        """Curvature of the induced connection on endomorphisms: [R^, a]."""
        return commutator(self.extended(), a)


def curvature(conn: Connection, x: Vec, y: Vec, p: ChartPoint) -> CurvatureValue:
    """R(X, Y) = nabla_{[X,Y]} - [nabla_X, nabla_Y] for constant X, Y at p,
    contracted from the coordinate values of `curvature_basis_at`."""
    return _contract(conn.n, conn.curvature_basis_at(p), x, y)


def _contract(n: int, table: dict[tuple[int, int], Mat], x: Vec, y: Vec) -> CurvatureValue:
    """R(X, Y) = sum over a < b of (x_a y_b - x_b y_a) R(d_a, d_b)."""
    dim = 2 * n
    total = [[F0] * dim for _ in range(dim)]
    for (a, b), r_ab in table.items():
        coeff = x[a] * y[b] - x[b] * y[a]
        if coeff == 0:
            continue
        for k in range(dim):
            row = r_ab[k]
            trow = total[k]
            for l in range(dim):
                if row[l]:
                    trow[l] += coeff * row[l]
    return CurvatureValue(n, xm.mat(total))


# ---------------------------------------------------------------------------
# twistor points and tangents


class TwistorPoint(Value):
    """A base point together with a fibre structure of canonical orientation."""

    __slots__ = ("point", "structure")

    def __init__(self, point: ChartPoint, structure: GCStructure):
        if point.dim != structure.dim_v:
            raise DimensionMismatchError("base point and fibre structure disagree on dim M")
        if structure.orientation() != 1:
            raise InvariantError("fibre structure does not induce the canonical orientation")
        self.point = point
        self.structure = structure

    @property
    def n(self) -> int:
        return self.point.dim // 2


class TwistorTangent(Value):
    """An element of (H + H*) + (V + V*) at a twistor point.

    The horizontal summand H + H* is identified with T_pM + T*_pM and
    stored as a single GElement.  A vertical covector is stored through
    its trace-pairing representer: the unique vertical endomorphism Phi
    with phi(W) = <Phi, W>.
    """

    __slots__ = ("horizontal", "vertical", "vertical_coform", "_zero")

    def __init__(self, horizontal: GElement, vertical: Endo, vertical_coform: Endo):
        self.horizontal = horizontal
        self.vertical = vertical
        self.vertical_coform = vertical_coform
        self._zero: bool | None = None

    def __add__(self, other: "TwistorTangent") -> "TwistorTangent":
        return TwistorTangent(self.horizontal + other.horizontal,
                              self.vertical + other.vertical,
                              self.vertical_coform + other.vertical_coform)

    def __sub__(self, other: "TwistorTangent") -> "TwistorTangent":
        return self + other.scale(-1)

    def scale(self, c) -> "TwistorTangent":
        return TwistorTangent(self.horizontal.scale(c), self.vertical.scale(c),
                              self.vertical_coform.scale(c))

    def is_zero(self) -> bool:
        """Whether every coordinate is zero; scanned once per tangent, so the
        zero tangent a table shares among its zero pairs is scanned once."""
        zero = self._zero
        if zero is None:
            zero = self._zero = not (any(self.horizontal.vec) or any(self.horizontal.cov)
                                     or not self.vertical.is_zero()
                                     or not self.vertical_coform.is_zero())
        return zero


def tangent_from_parts(n: int, horizontal: GElement | None = None,
                       vertical: Endo | None = None,
                       vertical_coform: Endo | None = None) -> TwistorTangent:
    return TwistorTangent(horizontal if horizontal is not None else zero_element(2 * n),
                          vertical if vertical is not None else zero_endo(4 * n),
                          vertical_coform if vertical_coform is not None else zero_endo(4 * n))


# ---------------------------------------------------------------------------
# the closed-form Nijenhuis tensor


def curvature_action_on_structure(conn: Connection, at: TwistorPoint) -> dict:
    """For each coordinate pair a < b with nonzero curvature: the vertical
    endomorphisms [R^(d_a, d_b), j] and j o [R^(d_a, d_b), j].

    Every curvature term of the closed-form Nijenhuis tensor is a
    bilinear combination of these, so computing them once per point
    reduces each evaluation to scalar contractions.
    """
    j = at.structure.j
    out = {}
    for (a, b), r_ab in conn.curvature_basis_at(at.point).items():
        if xm.is_zero(r_ab):
            continue
        v = CurvatureValue(conn.n, r_ab).act_on(j)
        out[(a, b)] = (v, j.compose(v))
    return out


def nijenhuis_closed_form_table(alpha: int, conn: Connection, at: TwistorPoint,
                                probes: Sequence[TwistorTangent],
                                ) -> dict[tuple[int, int], TwistorTangent]:
    """N_alpha(probes[i], probes[k]) for every pair i < k, in (i, k) order.

    The value is assembled by bilinearity from the horizontal-horizontal,
    mixed and coform cases (the vertical-vertical case is zero):
    N(E, F) = H(e, f) + M(e, V_F) - M(f, V_E) + C(e, Phi_F) - C(f, Phi_E)
    for horizontal parts e, f, vertical parts V and coform representers
    Phi, with H, M and C the values of `reference.nijenhuis_horizontal`,
    `integrability.nijenhuis_mixed` and `reference.nijenhuis_coform`.

    Each vertical or coform part object is validated once, and every
    per-probe quantity is turned into integers once per point, so a pair
    costs integer dot products and one division per coordinate of its
    value.  With j = J / jd, a horizontal part h = H / D is kept as
    A = jd H and JA = J H over E = jd D, and the curvature action
    ([R^(d_a, d_b), j], j o [R^(d_a, d_b), j]) over one denominator:
    - H(e, f): the curvature coefficients of a pair are integers over
      E_e E_f, so its vertical part is one integer combination of the
      action; for alpha = 2 its coform part is -2 (j e ^ f - j f ^ e),
      which anticommutes with j: one rank-4 integer outer-product
      combination of e, j e, f and j f, with no vertical basis;
    - M(h, V) = 2 (j o V) h for alpha = 2, one integer mat-vec;
    - C(h, Phi): each horizontal part's coefficients against the 4n
      coordinate duals, contracted with the pairings of Phi with the
      action, all integers.
    A term is skipped only where it is exactly zero.  Pairs whose value
    is zero, because no term reached them or their terms cancel, share
    one zero tangent.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    n = at.n
    h = 2 * n
    dim = 2 * h
    j = at.structure.j
    jn, jd = j.num, j.den
    sign = (-1) ** alpha
    vs = [None if t.vertical.is_zero() else t.vertical for t in probes]
    phis = [None if t.vertical_coform.is_zero() else t.vertical_coform for t in probes]
    # keyed on identity: hashing an Endo hashes every entry, and an equal
    # but distinct part is merely checked again
    checked: set[int] = set()
    for parts, label in ((vs, "vertical part"), (phis, "vertical coform representer")):
        for part in parts:
            if part is not None and id(part) not in checked:
                if not is_vertical(part, j):
                    raise NotVerticalError(f"{label} does not anticommute with j")
                checked.add(id(part))
    # horizontal parts: (H, D, A, JA)
    hs = []
    for t in probes:
        ints, d = xm._scaled(t.horizontal.coords)
        hs.append((ints, d, [jd * x for x in ints], _mv(jn, ints)) if any(ints) else None)
    # the curvature action, v_1, j v_1, v_2, j v_2, ... over one denominator lv
    action = curvature_action_on_structure(conn, at)
    keys = list(action)
    ends = [e for pair in action.values() for e in pair]
    lv = lcm(*(e.den for e in ends))
    vflat = [[x * (lv // e.den) for row in e.num for x in row] for e in ends]
    vcols = list(zip(*vflat))

    def coeffs(x, jx, y, jy):
        """The coefficients of a horizontal pair's curvature terms: c_direct
        and, with its alpha sign, c_twisted for each key, interleaved."""
        out = []
        for ia, ib in keys:
            out.append(jx[ia] * jy[ib] - jx[ib] * jy[ia] - x[ia] * y[ib] + x[ib] * y[ia])
            out.append(sign * (x[ia] * jy[ib] - x[ib] * jy[ia] + jx[ia] * y[ib] - jx[ib] * y[ia]))
        return out

    # coform case: C(h, Phi) depends on Phi only through its pairings with
    # the action, trace(Phi X) over 2 den_Phi lv; it is zero where they vanish
    qs = []
    for phi in phis:
        flat = () if phi is None else tuple(chain.from_iterable(zip(*phi.num)))
        q = [sum(map(mul, flat, x)) for x in vflat]
        qs.append((q, 2 * phi.den * lv) if any(q) else None)
    if any(qs):
        # coordinate p of C(h, Phi) pairs with the coordinate dual b at index
        # (p + h) % dim: jd b is 0 on V or jd times a unit vector, J b a column of J
        duals = [(p + h) % dim for p in range(dim)]
        for k, part in enumerate(hs):
            if part is not None:
                hs[k] += ([coeffs(part[2], part[3], [jd if c == q else 0 for c in range(h)],
                                  [row[q] for row in jn[:h]]) for q in duals],)

    # mixed case, alpha = 2 only: M(h, V) = 2 (j o V) h
    jvs = [None if v is None or alpha == 1 else j.compose(v) for v in vs]
    # horizontal case, alpha = 2: the coform representer -2 (j a ^ b - j b ^ a)
    # of -2 (<j a, w b> - <j b, w a>), with x ^ y = x <y, .> - y <x, .>, from
    # A and J A with their V and V* halves swapped: 2 <x, y> = swap(x) . y
    swapped = [part and (part[2][h:] + part[2][:h], part[3][h:] + part[3][:h]) for part in hs]

    zero = tangent_from_parts(n)
    table: dict[tuple[int, int], TwistorTangent] = {}
    for i in range(len(probes)):
        for k in range(i + 1, len(probes)):
            horizontal = vertical = coform = None
            pe, pf = hs[i], hs[k]
            if pe is not None and pf is not None:
                den = pe[1] * pf[1] * jd * jd
                if keys:
                    c = coeffs(pe[2], pe[3], pf[2], pf[3])
                    if any(c):
                        vertical = _endo(dim, [sum(map(mul, col, c)) for col in vcols],
                                         lv * den)
                if alpha == 2:
                    # (r, c): JB_r sA_c - A_r sJB_c - JA_r sB_c + B_r sJA_c
                    (sa, sja), (sb, sjb) = swapped[i], swapped[k]
                    coform = _endo(dim, [x * p - y * q - z * s + w * t
                                         for x, y, z, w in zip(pf[3], pe[2], pe[3], pf[2])
                                         for p, q, s, t in zip(sa, sjb, sb, sja)], den)
            terms = []
            for part, jv, q, s in ((pe, jvs[k], qs[k], 1), (pf, jvs[i], qs[i], -1)):
                if part is None:
                    continue
                if jv is not None:
                    terms.append(([2 * s * x for x in _mv(jv.num, part[0])], jv.den * part[1]))
                if q is not None:
                    terms.append(([s * sum(map(mul, row, q[0])) for row in part[4]],
                                  q[1] * part[1] * jd * jd))
            if terms:
                horizontal = _element(h, terms)
            table[(i, k)] = (zero if horizontal is vertical is coform is None else
                             TwistorTangent(horizontal or zero.horizontal,
                                            vertical or zero.vertical,
                                            coform or zero.vertical_coform))
    return table


def _mv(m: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    """The integer product m x over the nonzero entries of x."""
    nonzero = [(c, y) for c, y in enumerate(x) if y]
    return [sum(row[c] * y for c, y in nonzero) for row in m]


def _endo(dim: int, flat: list[int], den: int) -> Endo | None:
    """The endomorphism with row-major integer entries over den; None if zero."""
    if not any(flat):
        return None
    return Endo._lowest(dim, [flat[r:r + dim] for r in range(0, dim * dim, dim)], den)


def _element(dim_v: int, terms: list[tuple[list[int], int]]) -> GElement | None:
    """The sum of integer coordinate vectors over their denominators; None if zero."""
    num, den = terms[0]
    for x, d in terms[1:]:
        num, den = [p * d + y * den for p, y in zip(num, x)], den * d
    if not any(num):
        return None
    coords = tuple(Fraction(x, den) if x else F0 for x in num)
    return GElement(dim_v, coords[:dim_v], coords[dim_v:])


# ---------------------------------------------------------------------------
# the curvature form argument


class MuSystemReport(Value):
    __slots__ = ("n", "unknowns", "rank", "kernel_dim")


def _mu_constraint_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The linear system R_mu(e_a, e_b) j = 0 on the unknowns mu_ij at
    j = from_complex(K) = diag(K, -K^T), K = `standard_complex_matrix(n)`.

    There [R^, j] = diag([R, K], -[R, K]^T), so the system reads
    [R(e_a, e_b), K] = 0.  Yielded lazily, pair by pair a < b of coordinate
    vectors, one row per entry (r, c) of [R, K] in row-major order; the
    row's column i * 2n + j is the coefficient of mu_ij, that is, of
    mu = eta_i (x) eta_j.  For that mu, `curvature_from_mu` gives
    R(e_a, e_b) e_l = (d_ia d_jb - d_ib d_ja) e_l + d_ia d_jl e_b - d_ib d_jl e_a,
    which vanishes unless i is a or b: it is d_jb Id + E_bj for i = a and
    -(d_ja Id + E_aj) for i = b, E_pj being the matrix unit.  The Id part
    commutes with K, and entry (r, c) of [E_pj, K] is
    d_rp K_jc - K_rp d_jc.  K has integer entries, so the rows are integers.
    """
    dim_v = 2 * n
    unknowns = dim_v * dim_v
    k = xm._integer_matrix(standard_complex_matrix(n))[0]
    k_rows = [[(c, x) for c, x in enumerate(row) if x] for row in k]
    k_cols = [[(r, x) for r, x in enumerate(col) if x] for col in zip(*k)]
    for a in range(dim_v):
        for b in range(a + 1, dim_v):
            block = [[0] * unknowns for _ in range(dim_v * dim_v)]
            for i, p, sign in ((a, b, 1), (b, a, -1)):
                for jj in range(dim_v):
                    idx = i * dim_v + jj
                    for c, x in k_rows[jj]:        # E_pj K
                        block[p * dim_v + c][idx] += sign * x
                    for r, x in k_cols[p]:         # - K E_pj
                        block[r * dim_v + jj][idx] -= sign * x
            yield from map(tuple, block)


def mu_forced_zero_check(n: int) -> MuSystemReport:
    """Rank of the linear system on mu forced by R_mu(X, Y) j = 0 for the
    one structure j = from_complex(`standard_complex_matrix(n)`), at any
    n >= 2.

    R_mu(X, Y) Z = mu(X, Y) Z - mu(Y, X) Z + mu(X, Z) Y - mu(Y, Z) X is
    the curvature a connection with integrable first twistor structure
    would have; the system forces mu = 0 when its kernel is 0.  j induces
    the canonical orientation at every n.  n < 2 raises
    DimensionMismatchError.

    The rows are written down in closed form (see `_mu_constraint_rows`)
    and the nonzero ones fed into one `RowReducer`.  Once the rank reaches
    the number of unknowns (2n)^2 the reduced rows span the whole space, so
    every later row is dependent: the rows are built lazily, and neither
    building nor reducing them goes on past that rank, which stays exact.
    n = 2 to 6, 8 and 10 give full rank, so kernel 0.
    """
    if n < 2:
        raise DimensionMismatchError("the curvature-form system needs n >= 2")
    unknowns = (2 * n) ** 2
    reducer = xm.RowReducer()
    for row in _mu_constraint_rows(n):
        if len(reducer) == unknowns:
            break
        if any(row):  # most rows are zero and add nothing to the span
            reducer.add(row)
    rank = len(reducer)
    return MuSystemReport(n, unknowns, rank, unknowns - rank)


# ---------------------------------------------------------------------------
# sampling helpers (exact, seeded)


def fibre_chart_samples(rng: random.Random, count: int):
    """Yield count seeded fibre-chart parameters (u, v, sheet): u and v each
    randint(-2, 2) / randint(2, 4), drawn again on the circle u^2 + v^2 = 1,
    the sheets alternating from +1.  Draws are made lazily, so a caller may
    draw from rng between samples."""
    for made in range(count):
        while True:
            u, v = (Fraction(rng.randint(-2, 2), rng.randint(2, 4)) for _ in range(2))
            if u * u + v * v != 1:
                break
        yield u, v, (-1) ** made
