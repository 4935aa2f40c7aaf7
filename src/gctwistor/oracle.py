"""Direct verification of the closed-form Nijenhuis tensor on a twistor chart.

The twistor bundle carries a chart centred at each sample's fibre point
j0: base coordinates x, and fibre coordinates c in R^k, k = 4n^2 - 2n,
which move j0 by the Cayley transform along the vertical basis
(`TwistorChart`).  On it the twistor structures become honest structure
fields, so their Nijenhuis tensor can be computed directly from Courant
brackets of coordinate sections -- no part of the closed-form machinery
enters.  Comparing the two values pairwise, in exact arithmetic, is the
strongest end-to-end check in the package; `oracle_compare_nijenhuis`
returns one result per sample and alpha.  The chart is built at any n;
the `oracle/` checks run at n = 1.

All field evaluation runs in forward-mode jet arithmetic (`poly.Jet`,
exact rationals kept as integers over one denominator), and only 1-jets
at the centre are read: the value and chart gradient that the bracket
formulas consume.  Jets are compared as values (`==`).  The chart builds
the jet of J, the fibre complex structure and the integer functionals
that read the chart coordinates of a jet of fibre-tangent fields once.
A chart keeps the `ChartContext` of the last base point it was asked
about: the splitting frame T = H + V there, as the frame change P from
the splitting frame to the coordinate frame and its inverse, in jets and
in values.  Both structure fields share one conjugation by P per point:
in the splitting frame J_alpha = S_h + s S_f with s = +1 for alpha 1 and
-1 for alpha 2, and the chart keeps P S_h P^-1 and P S_f P^-1 beside
the last context.  A lift reads P's columns, and `decompose` and
`compose` are one product by P^-1 or P and the fibre maps, which read
the fibre basis and its Gram inverse.

The connection form omega(X) enters in jets through one builder,
`_connection_form`, from the Christoffel polynomials alone, for the
chart's lifts (X = d/dx_a), for the covariant derivative of
`chart_vertical_bracket_check` and for the bundle-chart identity
`lift_bracket_curvature_check` (X a polynomial field).  That identity is
evaluated as 1-jets at the point in dim + (2 dim)^2 chart variables (18
at n = 1, 68 at n = 2).  The oracle's fibre points are `hyperboloid_point`s
of parameters drawn by `twistor.fibre_chart_samples`.

The checks of the `oracle/` suite, keyed by name in `CHECKS`, end this
module, which `harness` loads only for a scenario that schedules one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, sub
from typing import Callable, Mapping, Sequence

from . import exactmat as xm
from .exactmat import F0, Vec
from .bracket import (
    GACField,
    JetSection,
    SectionJet,
    coordinate_sections,
    jet_values,
    lie_bracket,
    nijenhuis_table,
)
from .gclinalg import (
    DegenerateInputError,
    DimensionMismatchError,
    Endo,
    GCStructure,
    GElement,
    InvariantError,
    commutator,
    fib_pairing,
    hyperboloid_point,
    is_pairing_skew,
    reference_basis,
    vertical_space_basis,
    zero_element,
    zero_endo,
)
from .poly import (
    ChartPoint,
    Jet,
    JetMat,
    Poly,
    chart_point,
    jmat_mul,
    random_chart_point,
    scalar_to_str,
)
from .twistor import (
    Connection,
    TwistorPoint,
    TwistorTangent,
    curvature,
    fibre_chart_samples,
    nijenhuis_closed_form_table,
)
from .value import CheckResult, Value, _fail, _ok


# ---------------------------------------------------------------------------
# the twistor chart centred at a fibre point


def jmat_commutator(a: JetMat, b: JetMat) -> JetMat:
    ab = jmat_mul(a, b)
    ba = jmat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


class ChartContext(Value):
    """What the chart computes once per base point: the twistor point `at`,
    built and validated once; `splitting` = (P, P^-1) in jets, the columns
    of P the splitting frame (lifts h_a, d/dc_w, dx_a, coforms th_w
    vanishing on the lifts) in coordinates; P and P^-1 as endomorphisms,
    `to_chart` and `to_split`."""

    __slots__ = ("at", "splitting", "to_chart", "to_split")


class TwistorChart:
    """The twistor chart (x, c) centred at a fibre point j0, at any n.

    With B_1..B_k = `vertical_space_basis(j0)`, k = 4n^2 - 2n, the fibre
    structure at c in R^k is j(c) = C(t)^2 j0 for t = sum c_w B_w / 4 and
    the Cayley transform C(t) = (1 - t)^-1 (1 + t) (H. Weyl, The Classical
    Groups, 1939, ch. II): t anticommutes with j0, so C(t)^2 j0 =
    C(t) j0 C(t)^-1, and C(t) is an isometry.  The chart has m = 2n base
    and k fibre variables, m^2 in all.  Only 1-jets at c = 0 are read, and
    a term of order 2 or more in c has a zero 1-jet there, so:
    - J = j0 + sum c_w B_w j0, the jet of j(c) = (1 + 4t + 8t^2) j0 + ...;
    - T_w = dj/dc_w = 2[(1 + t)(B_w/4)(1 - t), J] has the value
      b_w = B_w j0 and the partial (B_v b_w + B_w b_v) / 2 in c_v (the
      terms of t add (1/8)[[B_v, B_w], j0], which is zero: B_v B_w
      commutes with j0);
    - the chart coordinates of a jet W of fibre-tangent fields are the
      B-coordinates of -(1 - 2t) W (1 + 2t) j0 (`_coordinates`).
    The chart builds J, the T_w and the fibre complex structure kappa
    (J T_w = sum_v kappa[w][v] T_v) once, and a base point's splitting in
    its `ChartContext`, and the two conjugated parts of the structure
    fields there, kept for the last point only.  Points off the centre,
    c != 0, are rejected.
    """

    def __init__(self, conn: Connection, structure: GCStructure):
        if structure.dim_v != conn.dim:
            raise DimensionMismatchError("fibre structure and connection disagree on dim M")
        self.conn = conn
        self.structure = structure
        j0 = structure.j
        generators = vertical_space_basis(structure)
        m, k = conn.dim, len(generators)
        self.m, self.k, self.nvars = m, k, m + k
        # the fibre basis b_w = T_w(0) and the inverse of its Gram matrix,
        # which is the Gram matrix of B as well
        self.basis = [g.compose(j0) for g in generators]
        self.gram_inverse = xm.inverse([[fib_pairing(a, b) for b in self.basis]
                                        for a in self.basis])
        # the B-coordinates of -Y j0 are a(Y)_w = <b^w, Y> for the dual basis
        # b^w = sum_v G^-1[w][v] b_v, and a([Y, B_v])_w / 2 = <[B_v, b^w] / 2, Y>:
        # each functional as integer coefficients of Y's row-major entries,
        # <X, Y> = -trace(X Y) / 2, over one denominator
        duals = [self._combination(row) for row in self.gram_inverse]
        forms = [[e] + [commutator(g, e).scale(Fraction(1, 2)) for g in generators]
                 for e in duals]
        self._den = 2 * lcm(*(f.den for row in forms for f in row))
        self._functionals = [[[-x * (self._den // (2 * f.den)) for col in zip(*f.num) for x in col]
                              for f in row] for row in forms]
        base = [zero_endo(2 * m)] * m
        self.j = _jets(j0, base + self.basis)
        self.tangents = [_jets(b, base + [(g.compose(c) + h.compose(b)).scale(Fraction(1, 2))
                                          for h, c in zip(generators, self.basis)])
                         for g, b in zip(generators, self.basis)]
        self.kappa = [self._coordinates(jmat_mul(self.j, t)) for t in self.tangents]
        self._zero = zero_element(self.nvars)
        self._last: tuple[Vec, ChartContext] | None = None
        self._conjugates: tuple[ChartContext, tuple[JetMat, JetMat]] | None = None

    def point(self, base: Vec) -> ChartPoint:
        """The chart point over a base point at the centre, c = 0."""
        return chart_point(tuple(base) + (F0,) * self.k)

    # -- fibre coordinates ---------------------------------------------------

    def _coordinates(self, w: JetMat) -> list[Jet]:
        """The chart coordinates c_1..c_k of a jet W of fields tangent to the
        fibre along j(c), as jets at c = 0: the B-coordinates of
        -(1 - 2t) W (1 + 2t) j0, that is a(W) at the value, a(d_x W) in a
        base variable and a(d_v W) + a([W, B_v]) / 2 in c_v.  Computed in
        integers over the lcm of W's denominators; InvariantError unless
        the value lies in the span of the fibre basis."""
        d = lcm(*(e.den for row in w for e in row))
        value, *grads = zip(*(e.num if e.den == d else [x * (d // e.den) for x in e.num]
                              for row in w for e in row))
        self.fibre_coordinates(jet_values(w))
        m = self.m
        out = []
        for a, *twists in self._functionals:
            num = [sum(map(mul, a, value))] + [sum(map(mul, a, g)) for g in grads]
            for v, t in enumerate(twists):
                num[1 + m + v] += sum(map(mul, t, value))
            out.append(Jet._lowest(num, self._den * d))
        return out

    def fibre_coordinates(self, vertical: Endo) -> tuple[Fraction, ...]:
        """Chart coordinates of a vertical endomorphism at j0, read by the
        chart's functionals; InvariantError unless it lies in the span of
        the fibre basis, the tangent space of the fibre chart."""
        flat = [x for row in vertical.num for x in row]
        den = self._den * vertical.den
        coords = tuple(Fraction(sum(map(mul, a, flat)), den) for a, *_ in self._functionals)
        if self._combination(coords) != vertical:
            raise InvariantError("vector is not tangent to the fibre chart")
        return coords

    def _combination(self, coeffs: Sequence[Fraction]) -> Endo:
        """sum_w coeffs[w] b_w, summed in integers over one denominator."""
        terms = [(c, b) for c, b in zip(coeffs, self.basis) if c]
        d = lcm(*(c.denominator * b.den for c, b in terms))
        dim = self.basis[0].dim
        acc = [0] * (dim * dim)
        for c, b in terms:
            f = c.numerator * (d // (c.denominator * b.den))
            for i, x in enumerate(chain.from_iterable(b.num)):
                if x:
                    acc[i] += f * x
        return Endo._lowest(dim, [acc[r:r + dim] for r in range(0, dim * dim, dim)], d)

    # -- the per-point context ---------------------------------------------

    def context(self, q: ChartPoint) -> ChartContext:
        """The point's context, built unless q is the last point asked for."""
        if self._last is not None and self._last[0] == q.coords:
            return self._last[1]
        point = q.coords
        m, nv = self.m, self.nvars
        if any(point[m:]):
            raise DegenerateInputError("the chart is read at its centre: fibre coordinates 0")

        # the splitting frame P = Id + N: column a is the lift h_a of d/dx_a,
        # whose fibre components gamma_a are the coordinates of its vertical
        # part -[omega(d/dx_a), J], and column nv + m + w the coform th_w =
        # dc_w - sum_a gamma_a[w] dx_a; N^2 = 0, so P^-1 = Id - N
        christoffel = [(key, _padded_jet(p, point, nv)) for key, p in self.conn.entries]
        one, zero = Jet.constant(1, nv), Jet.constant(0, nv)
        p = [[one if i == c else zero for c in range(2 * nv)] for i in range(2 * nv)]
        p_inv = [row[:] for row in p]
        for a in range(m):
            omega = _connection_form(christoffel, [one if b == a else zero for b in range(m)])
            for w, gamma in enumerate(self._coordinates(jmat_commutator(self.j, omega))):
                p[m + w][a], p_inv[m + w][a] = gamma, -gamma
                p[nv + a][nv + m + w], p_inv[nv + a][nv + m + w] = -gamma, gamma
        ctx = ChartContext(TwistorPoint(chart_point(point[:m]), self.structure), (p, p_inv),
                           jet_values(p), jet_values(p_inv))
        self._last = (point, ctx)
        return ctx

    # -- the structure fields ----------------------------------------------

    def field(self, alpha: int) -> GACField:
        if alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")
        return GACField(self.nvars, lambda q: self._field_matrix(alpha, q))

    def _field_matrix(self, alpha: int, q: ChartPoint) -> JetMat:
        """The twistor structure at q in the coordinate frame, with gradients:
        P S_h P^-1 + s P S_f P^-1, s = (-1)^(alpha+1), from the point's
        conjugated parts (`_conjugated`)."""
        h, f = self._conjugated(q)
        combine = add if alpha == 1 else sub
        return [list(map(combine, rh, rf)) for rh, rf in zip(h, f)]

    def _conjugated(self, q: ChartPoint) -> tuple[JetMat, JetMat]:
        """P S_h P^-1 and P S_f P^-1 at q, built once for the last point.

        In the splitting frame (h_a, d/dc_w | dx_a, th_w) the structure is
        S_h + s S_f: S_h acts by J on the lifts and the dx_a as it does on
        d/dx_a and dx_a, and S_f holds the fibre block, column d/dc_w to
        sum_v kappa[w][v] d/dc_v, and the coform block, its transpose with
        the opposite sign.  Both are conjugated by the context's P in jet
        arithmetic."""
        ctx = self.context(q)
        if self._conjugates is not None and self._conjugates[0] is ctx:
            return self._conjugates[1]
        m, k, nv = self.m, self.k, self.nvars
        zero = Jet.constant(0, nv)
        s_h = [[zero] * (2 * nv) for _ in range(2 * nv)]
        s_f = [[zero] * (2 * nv) for _ in range(2 * nv)]
        slots = [*range(m), *range(nv, nv + m)]
        for i, si in enumerate(slots):
            for c, sc in enumerate(slots):
                s_h[si][sc] = self.j[i][c]
        for w in range(k):
            for v in range(k):
                s_f[m + v][m + w] = self.kappa[w][v]
                s_f[nv + m + v][nv + m + w] = -self.kappa[v][w]
        p, p_inv = ctx.splitting
        conjugates = (jmat_mul(jmat_mul(p, s_h), p_inv), jmat_mul(jmat_mul(p, s_f), p_inv))
        self._conjugates = (ctx, conjugates)
        return conjugates

    # -- sections on the chart ----------------------------------------------

    def lift_section(self, x_components: Sequence[Poly]) -> JetSection:
        """The horizontal lift of a polynomial base vector field."""
        m, nv = self.m, self.nvars
        if len(x_components) != m:
            raise DegenerateInputError(f"a base vector field has {m} components")

        def evaluate(q: ChartPoint) -> SectionJet:
            # sum x_a h_a: the lift h_a is column a of P, d/dx_a plus its
            # d/dc_w entries in rows m + w
            p = self.context(q).splitting[0]
            xs = [_padded_jet(c, q.coords, nv) for c in x_components]
            zero = Jet.constant(0, nv)
            fibre = [sum((x * p[m + w][a] for a, x in enumerate(xs)), zero)
                     for w in range(self.k)]
            return tuple(xs + fibre) + (zero,) * nv

        return JetSection(nv, evaluate)

    def tilde_section(self, entries: Sequence[Sequence[Poly]]) -> JetSection:
        """The vertical field J' -> a + J' a J' of a skew section a of the
        endomorphism bundle with polynomial base entries."""
        nv = self.nvars

        def evaluate(q: ChartPoint) -> SectionJet:
            self.context(q)
            a_mat = [[_padded_jet(p, q.coords, nv) for p in row] for row in entries]
            jaj = jmat_mul(jmat_mul(self.j, a_mat), self.j)
            tilde = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_mat, jaj)]
            zero = Jet.constant(0, nv)
            return (zero,) * self.m + tuple(self._coordinates(tilde)) + (zero,) * nv

        return JetSection(nv, evaluate)

    # -- conversions between chart values and splitting data -----------------

    def decompose(self, value: GElement, q: ChartPoint) -> TwistorTangent:
        """Split a chart tangent-plus-cotangent value at q into horizontal,
        vertical and vertical-coform data for the closed-form evaluator."""
        if value.dim_v != self.nvars:
            raise DegenerateInputError(f"chart values have {self.nvars} vector components")
        m = self.m
        split = self.context(q).to_split.apply(value)
        vertical = self._combination(split.vec[m:])
        # representer of sum_w theta_w th_w on the chart fibre basis
        coform = self._combination(xm.mat_vec(self.gram_inverse, split.cov[m:]))
        return TwistorTangent(GElement(m, split.vec[:m], split.cov[:m]), vertical, coform)

    def compose(self, t: TwistorTangent, q: ChartPoint) -> GElement:
        """Inverse of decompose: express splitting data in chart coordinates."""
        if t.is_zero():
            return self._zero
        ctx = self.context(q)
        c = (F0,) * self.k if t.vertical.is_zero() else self.fibre_coordinates(t.vertical)
        phi = tuple(fib_pairing(t.vertical_coform, b) for b in self.basis)
        h = t.horizontal
        return ctx.to_chart.apply(GElement(self.nvars, h.vec + c, h.cov + phi))


def _jets(value: Endo, partials: Sequence[Endo]) -> list[list[Jet]]:
    """The jet matrix with the given value and partials, each entry over
    the lcm of their denominators."""
    d = lcm(*(e.den for e in (value, *partials)))
    nums = [[[x * (d // e.den) for x in row] for row in e.num] for e in (value, *partials)]
    return [[Jet._lowest([n[r][c] for n in nums], d) for c in range(value.dim)]
            for r in range(value.dim)]


# ---------------------------------------------------------------------------
# checks on the chart


def _poly_lie_bracket(x_components: Sequence[Poly], y_components: Sequence[Poly]) -> list[Poly]:
    """Components of the Lie bracket [X, Y] of two polynomial base fields."""
    dim = len(x_components)
    xy = []
    for i in range(dim):
        acc = Poly.constant(dim, 0)
        for j in range(dim):
            acc = acc + x_components[j] * y_components[i].partial(j)
            acc = acc - y_components[j] * x_components[i].partial(j)
        xy.append(acc)
    return xy


def chart_bracket_curvature_check(chart: TwistorChart, x_components: Sequence[Poly],
                                  y_components: Sequence[Poly], q: ChartPoint) -> Vec:
    """Residual of [X^h, Y^h] = [X, Y]^h + R(X, Y) J on the twistor chart."""
    fx = chart.lift_section(x_components)
    fy = chart.lift_section(y_components)
    lhs = lie_bracket(fx, fy, q)
    xy = _poly_lie_bracket(x_components, y_components)
    m = chart.conn.dim
    rhs = [c.value for c in chart.lift_section(xy).at(q)[:chart.nvars]]
    at = chart.context(q).at
    xv = tuple(p.evaluate(at.point.coords) for p in x_components)
    yv = tuple(p.evaluate(at.point.coords) for p in y_components)
    r_vert = curvature(chart.conn, xv, yv, at.point).act_on(at.structure.j)
    rhs[m:] = (a + b for a, b in zip(rhs[m:], chart.fibre_coordinates(r_vert)))
    return tuple(a - b for a, b in zip(lhs, rhs))


def chart_vertical_bracket_check(chart: TwistorChart, x_components: Sequence[Poly],
                                 a_entries: Sequence[Sequence[Poly]], q: ChartPoint) -> Vec:
    """Residual of [X^h, a~] = (nabla_X a)~ at a chart point.

    Here a~ is the vertical field J -> a + J a J attached to a skew
    section a of the endomorphism bundle, and nabla is the induced
    connection, so nabla_X a = X(a) + [omega(X), a] in the constant frame.
    """
    lhs = lie_bracket(chart.lift_section(x_components), chart.tilde_section(a_entries), q)
    at = chart.context(q).at
    base = at.point.coords
    m = len(base)
    xv = tuple(p.evaluate(base) for p in x_components)
    a_val = Endo(2 * m, tuple(tuple(p.evaluate(base) for p in row) for row in a_entries))
    if not is_pairing_skew(a_val):
        raise InvariantError("the section a must be skew for the pairing")
    # directional derivative of the entries plus the connection commutator
    da = [[sum((xv[k] * p.partial(k).evaluate(base) for k in range(m)), F0)
           for p in row] for row in a_entries]
    christoffel = [(key, p.jet(base)) for key, p in chart.conn.entries]
    omega = jet_values(_connection_form(christoffel, [p.jet(base) for p in x_components]))
    nabla = Endo(2 * m, xm.mat(da)) + (omega.compose(a_val) - a_val.compose(omega))
    j = at.structure.j
    tilde = nabla + j.compose(nabla).compose(j)
    return tuple(a - b for a, b in zip(lhs, (F0,) * m + chart.fibre_coordinates(tilde)))


def lift_bracket_curvature_check(conn: Connection, x_components: Sequence[Poly],
                                 y_components: Sequence[Poly], at: TwistorPoint) -> Vec:
    """Residual of [X^h, Y^h]_a = [X, Y]^h_a + R(X, Y) a on the endomorphism
    bundle, whose fibre is a vector space and therefore carries a global
    chart: base coordinates followed by all matrix entries of a.

    The lift fields are evaluated as 1-jets at the chart point over that
    chart's dim + (2 dim)^2 variables: each base component is its base
    jet, each a_ij a coordinate jet, and the vertical part
    -omega(X) a + a omega(X) two jet-matrix products, with omega(X) from
    the Christoffel polynomials of `conn`.  The bracket reads nothing
    else, so the residual is exact, and zero for every torsion-free
    connection.  One check takes about 1-2 ms at n = 1 and 6 ms at n = 2.
    """
    if conn.n > 2:
        raise DegenerateInputError("the bundle-chart check is sized for n at most 2")
    dim = conn.dim
    size = 2 * dim
    nvars = dim + size * size
    base = at.point.coords
    point = chart_point(base + tuple(x for row in at.structure.j.rows for x in row))
    a_var = [[Jet.variable(dim + size * i + j, point.coords) for j in range(size)]
             for i in range(size)]
    christoffel = [(key, _padded_jet(p, base, nvars)) for key, p in conn.entries]
    zero = Jet.constant(0, nvars)

    def lift_field(comps: Sequence[Poly]) -> SectionJet:
        base_jets = [_padded_jet(p, base, nvars) for p in comps]
        omega = _connection_form(christoffel, base_jets)
        vertical = [e for row in jmat_commutator(a_var, omega) for e in row]
        return tuple(base_jets + vertical) + (zero,) * nvars

    fx, fy = (lift_field(c) for c in (x_components, y_components))
    lhs = lie_bracket(JetSection(nvars, lambda q: fx), JetSection(nvars, lambda q: fy), point)
    rhs = [c.value for c in lift_field(_poly_lie_bracket(x_components, y_components))[:nvars]]
    xv = tuple(p.evaluate(base) for p in x_components)
    yv = tuple(p.evaluate(base) for p in y_components)
    r_vert = curvature(conn, xv, yv, at.point).act_on(at.structure.j)
    flat_r = [x for row in r_vert.rows for x in row]
    for idx, val in enumerate(flat_r):
        rhs[dim + idx] += val
    return tuple(a - b for a, b in zip(lhs, rhs))


def _connection_form(christoffel: Sequence[tuple[tuple[int, int, int], Jet]],
                     x: Sequence[Jet]) -> JetMat:
    """The connection form omega(X) = diag(G(X), -G(X)^T) on TM + T*M as a
    jet matrix, G(X)[k][j] the sum over i of X_i Gamma^k_ij: `christoffel`
    pairs each nonzero Gamma^k_ij's key (k, i, j) with its jet, and x holds
    the jets of X's components.  A zero component adds nothing."""
    dim = len(x)
    zero = Jet.constant(0, len(x[0].num) - 1)
    omega = [[zero] * (2 * dim) for _ in range(2 * dim)]
    for (k, i, j), gamma in christoffel:
        if not x[i].is_zero():
            term = gamma * x[i]
            omega[k][j] = omega[k][j] + term
            omega[dim + j][dim + k] = omega[dim + j][dim + k] - term
    return omega


def _padded_jet(p: Poly, point: Vec, nvars: int) -> Jet:
    """The jet of p, a polynomial in the first p.nvars chart variables, at
    the chart point, as a jet in all nvars of them: the gradient padded
    with zeros."""
    jet = p.jet(point[:p.nvars])
    return Jet._lowest(jet.num + (0,) * (nvars - p.nvars), jet.den)


# ---------------------------------------------------------------------------
# the oracle comparison


class OracleSample(Value):
    """A base point and the hyperboloid-chart parameters (u, v) and sheet
    of the fibre point the oracle's chart is centred at."""

    __slots__ = ("base", "fibre", "sheet")

    def structure(self) -> GCStructure:
        u, v = self.fibre
        return hyperboloid_point(u, v, self.sheet, reference_basis(1))


class OracleSampleResult(Value):
    """One sample's comparison for one alpha; `index` is the sample's
    position in the list compared."""

    __slots__ = ("index", "sample", "alpha", "pairs", "direct_all_zero", "all_equal", "mismatch",
                 "lift_bracket_ok", "vertical_bracket_ok")


def seeded_oracle_samples(count: int, seed: int) -> list[OracleSample]:
    """Seeded chart samples: each fibre point from `fibre_chart_samples`,
    then its base point from `random_chart_point`."""
    rng = random.Random(seed)
    return [OracleSample(random_chart_point(2, rng).coords, (u, v), sheet)
            for u, v, sheet in fibre_chart_samples(rng, count)]


def oracle_compare_nijenhuis(conn: Connection, samples: Sequence[OracleSample],
                             perturb: Callable[[GElement], GElement] | None = None,
                             ) -> tuple[OracleSampleResult, ...]:
    """Compare the direct Courant-bracket Nijenhuis tensor of the twistor
    structure fields, alpha = 1 and 2, against the closed-form evaluator,
    sample by sample.

    The direct side works purely on the chart: coordinate-section probes,
    Courant brackets, the structure field applied pointwise.  The closed
    side never sees the chart except through the decomposition of the
    probe values at the point.  Exact equality is required pair by pair.
    The perturb hook, applied to the closed-form value, exists so tests
    can confirm that a deliberately wrong term is detected.  Each sample
    has its own chart, centred at its fibre point.
    """
    m = conn.dim
    probes = coordinate_sections(m * m)
    one, zero, x1 = Poly.constant(m, 1), Poly.constant(m, 0), Poly.variable(m, 0)
    rest = [zero] * (m - 2)
    # the skew section a = x1 (e_1 e_2^T - e_2 e_1^T) in the V* -> V block
    a_entries = [[zero] * (2 * m) for _ in range(2 * m)]
    a_entries[0][m + 1], a_entries[1][m] = x1, -x1
    results = []
    for index, sample in enumerate(samples):
        chart = TwistorChart(conn, sample.structure())
        q = chart.point(sample.base)
        ctx = chart.context(q)
        decomposed = [chart.decompose(p.value_at(q), q) for p in probes]
        # the two bracket identities do not depend on alpha
        lift_ok = all(r == 0 for r in chart_bracket_curvature_check(
            chart, [one, zero, *rest], [zero, x1 + one, *rest], q))
        vertical_ok = all(r == 0 for r in chart_vertical_bracket_check(
            chart, [one, x1, *rest], a_entries, q))
        for alpha in (1, 2):
            pairs = 0
            direct_zero = True
            equal = True
            mismatch = None
            closed_table = nijenhuis_closed_form_table(alpha, conn, ctx.at, decomposed)
            for (i, k), direct in nijenhuis_table(chart.field(alpha), probes, q).items():
                pairs += 1
                composed = chart.compose(closed_table[(i, k)], q)
                if perturb is not None:
                    composed = perturb(composed)
                if not direct.is_zero():
                    direct_zero = False
                if direct != composed:
                    equal = False
                    if mismatch is None:
                        mismatch = (i, k)
            results.append(OracleSampleResult(index, sample, alpha, pairs, direct_zero, equal,
                                              mismatch, lift_ok, vertical_ok))
    return tuple(results)


# ---------------------------------------------------------------------------
# the oracle/ suite


def _oracle_cached(scenario, hooks: dict):
    results = hooks.get("_oracle_cache")
    if results is None:
        samples = seeded_oracle_samples(scenario.count("fibre_params", 10),
                                        scenario.seed + 14)
        results = oracle_compare_nijenhuis(scenario.conn, samples,
                                           perturb=hooks.get("perturb_closed_form"))
        hooks["_oracle_cache"] = results
    return results


def _witness(r: OracleSampleResult, **extra) -> dict:
    """What replays a failing result: the sample's index, base point,
    (u, v) and sheet, then `extra`."""
    s = r.sample
    return {"sample": r.index, "base": [scalar_to_str(c) for c in s.base],
            "fibre": [scalar_to_str(c) for c in s.fibre], "sheet": s.sheet, **extra}


def _check_oracle_equality(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.all_equal:
            return _fail("mismatch", _witness(r, alpha=r.alpha, probe_pair=list(r.mismatch)))
    pairs = sum(r.pairs for r in results)
    return _ok({"samples": len(results) // 2, "pairs": pairs})


def _check_oracle_direct_zero(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if r.alpha == 1 and not r.direct_all_zero:
            return _fail("nonzero", _witness(r, alpha=1))
        if r.alpha == 2 and r.direct_all_zero:
            return _fail("alpha=2 unexpectedly zero", _witness(r, alpha=2))
    return _ok()


def _check_oracle_lift_bracket(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.lift_bracket_ok:
            return _fail("nonzero residual", _witness(r))
    # the same identity on the endomorphism-bundle chart, at one seeded point
    rng = random.Random(scenario.seed + 15)
    (u, v, sheet), = fibre_chart_samples(rng, 1)
    structure = hyperboloid_point(u, v, sheet, reference_basis(1))
    at = TwistorPoint(random_chart_point(2, rng), structure)
    one = Poly.constant(2, 1)
    x1 = Poly.variable(2, 0)
    residual = lift_bracket_curvature_check(scenario.conn, [one, x1],
                                            [x1, one + x1 * x1], at)
    if any(c != 0 for c in residual):
        return _fail("bundle chart residual")
    return _ok()


def _check_oracle_vertical_bracket(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.vertical_bracket_ok:
            return _fail("nonzero residual", _witness(r))
    return _ok()


# each check of the suite by its name after "oracle/", as harness._SUITES lists it
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "closed-form-equality": _check_oracle_equality,
    "structure1-direct-zero": _check_oracle_direct_zero,
    "lift-bracket-identity": _check_oracle_lift_bracket,
    "vertical-bracket-identity": _check_oracle_vertical_bracket,
}
