"""Direct verification of the closed-form Nijenhuis tensor on the dim-2 base.

For a two-dimensional base the twistor bundle carries a global rational
chart: base coordinates (x1, x2) and fibre coordinates (u, v) running
over the unit-hyperboloid parametrisation of the fibre.  On that
four-dimensional chart the twistor structures become honest structure
fields with rational entries, so their Nijenhuis tensor can be computed
directly from Courant brackets of coordinate sections -- no part of the
closed-form machinery enters.  Comparing the two values pairwise, in
exact arithmetic, is the strongest end-to-end check in the package;
`oracle_compare_nijenhuis` returns one result per sample and alpha.

All field evaluation here runs in forward-mode jet arithmetic
(`poly.Jet`, exact rationals kept as integers over one denominator):
every quantity carries its value and chart gradient, which is exactly
the first-order data the bracket formulas consume; jets are compared as
values (`==`), never component by component.  The structure fields
evaluate to the jet matrices that `_field_matrix` computes, and the
lift and tilde sections to tuples of the jets of their components, the
1-jets `bracket` reads; a polynomial base component enters as its base
jet with the gradient padded by zeros.  `poly.jmat_mul` skips the zero
jets of both factors, which are exactly zero terms.  A chart keeps the
`ChartContext` of the last point it was asked about: every caller works
through one sample point at a time.  The context builds the splitting
frame T = H + V of the point once, as the frame change P from the
splitting frame to the coordinate frame and its inverse, in jets and in
values.  The fields conjugate by P, a lift reads its columns, and
`decompose` and `compose` are one product by P^-1 or P and the fibre
maps, which read the fibre basis dJ/du, dJ/dv and its Gram inverse in
`Fraction`s.

The connection form omega(X) enters in jets through one builder,
`_connection_form`, from the Christoffel polynomials alone, for the
chart's lift coefficients (X = d/dx_1, d/dx_2), for the covariant
derivative of `chart_vertical_bracket_check` and for the bundle-chart
identity `lift_bracket_curvature_check` (X a polynomial field).  That
identity is evaluated the same way, as 1-jets at the point, in
dim + (2 dim)^2 chart variables (18 at n = 1, 68 at n = 2).  The oracle's
fibre points come from `twistor.fibre_chart_samples`.

The checks of the `oracle/` suite, keyed by name in `CHECKS`, end this
module, which `harness` loads only for a scenario that schedules one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from . import exactmat as xm
from .exactmat import F0, Mat, Vec
from .bracket import (
    GACField,
    JetSection,
    SectionJet,
    coordinate_sections,
    lie_bracket,
    nijenhuis_table,
)
from .gclinalg import (
    DegenerateInputError,
    Endo,
    GCStructure,
    GElement,
    InvariantError,
    _FRAME_NORMS,
    fib_pairing,
    hyperboloid_point,
    is_pairing_skew,
    reference_basis,
    skew_frames,
    zero_element,
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
# matrices of jets


def jmat_comb(mats: Sequence[Mat], coeffs: Sequence[Jet], nvars: int) -> JetMat:
    size = len(mats[0])
    out = [[Jet.constant(0, nvars) for _ in range(size)] for _ in range(size)]
    for m, c in zip(mats, coeffs):
        for i in range(size):
            for j in range(size):
                if m[i][j]:
                    out[i][j] = out[i][j] + c.scale(m[i][j])
    return out


def jmat_commutator(a: JetMat, b: JetMat) -> JetMat:
    ab = jmat_mul(a, b)
    ba = jmat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def jmat_trace_product_const(a: JetMat, m: Mat) -> Jet:
    """trace(a m) for a constant second factor."""
    size = len(m)
    acc = None
    for i in range(size):
        for j in range(size):
            if m[j][i]:
                term = a[i][j].scale(m[j][i])
                acc = term if acc is None else acc + term
    return acc if acc is not None else Jet.constant(0, len(a[0][0].num) - 1)


# ---------------------------------------------------------------------------
# the twistor chart over a dim-2 base


class ChartContext(Value):
    """What the chart computes once per point: the twistor point `at`, built
    and validated once; in jets, the (u, v) partials `dx` of the chart
    functions, the fibre structure `j_base`, the fibre complex structure
    `kappa` in (u, v) coordinates and `splitting` = (P, P^-1), the columns
    of P the splitting frame (lifts h_a, d/du, d/dv, dx_a, coforms thu, thv
    vanishing on the lifts) in coordinates; P and P^-1 as endomorphisms,
    `to_chart` and `to_split`; and what the fibre maps read, the basis
    dJ/du, dJ/dv and the inverse of its Gram matrix."""

    __slots__ = ("at", "dx", "j_base", "kappa", "splitting", "to_chart", "to_split", "basis",
                 "gram_inverse")


class TwistorChart:
    """The rational twistor chart (x1, x2, u, v) over a dim-2 base.

    The fibre structure at (u, v) is x1(u,v) L1 + x2(u,v) L2 + x3(u,v) L3
    in the anticommuting frame of the constant reference basis, with the
    unit-hyperboloid chart x1 = sheet (1+u^2+v^2)/(1-u^2-v^2),
    x2 = 2u/(1-u^2-v^2), x3 = 2v/(1-u^2-v^2); the circle u^2+v^2 = 1 is
    excluded.  All per-point data (structure, splitting, the two twistor
    structure fields) is computed in jet arithmetic from the point's
    `ChartContext`, which the chart keeps for the last point only.
    """

    NVARS = 4

    def __init__(self, conn: Connection, sheet: int):
        if conn.n != 1:
            raise DegenerateInputError("the twistor chart needs a dim-2 base")
        if sheet not in (1, -1):
            raise ValueError("sheet must be +1 or -1")
        self.conn = conn
        self.sheet = sheet
        # the left frame as Endos, and as the rows that jmat_comb reads
        self.left = skew_frames(reference_basis(1)).left
        self.frame = [f.rows for f in self.left]
        self._last: tuple[Vec, ChartContext] | None = None

    # -- chart functions in jet arithmetic --------------------------------

    def _chart_jets(self, point: Vec) -> tuple[list[Jet], list[list[Jet]]]:
        """x_r and their first partials d x_r / d(u, v), all as jets.

        The partials are entered through their own closed forms so that
        jet arithmetic yields their gradients exactly.
        """
        u = Jet.variable(2, point)
        v = Jet.variable(3, point)
        one = Jet.constant(1, self.NVARS)
        two = Jet.constant(2, self.NVARS)
        four = Jet.constant(4, self.NVARS)
        uu, vv, uv = u * u, v * v, u * v
        den = one - uu - vv
        if den.value == 0:
            raise DegenerateInputError("chart singularity u^2 + v^2 = 1")
        den2 = den * den
        s = Fraction(self.sheet)
        x = [((one + uu + vv) / den).scale(s), (two * u) / den, (two * v) / den]
        dx = [
            [((four * u) / den2).scale(s), ((four * v) / den2).scale(s)],
            [(two * (one + uu - vv)) / den2, (four * uv) / den2],
            [(four * uv) / den2, (two * (one + vv - uu)) / den2],
        ]
        return x, dx

    def _coords_of(self, m: JetMat) -> list[Jet]:
        """Coefficients of a skew jet matrix in the anticommuting frame."""
        return [jmat_trace_product_const(m, self.frame[r]).scale(-Fraction(1, 2) / _FRAME_NORMS[r])
                for r in range(3)]

    @staticmethod
    def _solve_uv(coords: Sequence, dx: Sequence[Sequence]) -> tuple:
        """Solve coords = c_u dx/du + c_v dx/dv, in jets, for a
        fibre-tangent vector.

        Rows 2 and 3 of the chart Jacobian are always independent (their
        determinant is 4(1+u^2+v^2)/(1-u^2-v^2)^3); the first row is an
        exact consistency check of tangency.
        """
        det = dx[1][0] * dx[2][1] - dx[1][1] * dx[2][0]
        c_u = (coords[1] * dx[2][1] - coords[2] * dx[1][1]) / det
        c_v = (dx[1][0] * coords[2] - dx[2][0] * coords[1]) / det
        probe = dx[0][0] * c_u + dx[0][1] * c_v
        if probe != coords[0]:
            raise InvariantError("vector is not tangent to the fibre chart")
        return c_u, c_v

    # -- the per-point context ---------------------------------------------

    def context(self, q: ChartPoint) -> ChartContext:
        """The point's context, built unless q is the last point asked for."""
        if self._last is not None and self._last[0] == q.coords:
            return self._last[1]
        point = q.coords
        nv = self.NVARS
        x, dx = self._chart_jets(point)
        j_base = jmat_comb(self.frame, x, nv)

        # the splitting frame P = Id + N: column a is the lift h_a of d/dx_a,
        # whose (u, v) components gamma_a solve the vertical part
        # -[omega(d/dx_a), J], and column 6 + w the coform thw = dw -
        # sum_a gamma_a[w] dx_a; N^2 = 0, so P^-1 = Id - N
        christoffel = [(key, _padded_jet(p, point, nv)) for key, p in self.conn.entries]
        one, zero = Jet.constant(1, nv), Jet.constant(0, nv)
        p = [[one if i == k else zero for k in range(8)] for i in range(8)]
        p_inv = [row[:] for row in p]
        for a, direction in enumerate(((one, zero), (zero, one))):
            w_a = jmat_commutator(j_base, _connection_form(christoffel, direction))
            for w, gamma in enumerate(self._solve_uv(self._coords_of(w_a), dx)):
                p[2 + w][a], p_inv[2 + w][a] = gamma, -gamma
                p[4 + a][6 + w], p_inv[4 + a][6 + w] = -gamma, gamma

        # the fibre complex structure in (u, v) coordinates
        kappa = []
        for w in range(2):
            column = [dx[r][w] for r in range(3)]
            jv = jmat_mul(j_base, jmat_comb(self.frame, column, nv))
            kappa.append(self._solve_uv(self._coords_of(jv), dx))

        # the values that decompose and compose read for every probe
        l1, l2, l3 = self.left
        b_u, b_v = (l1.scale(dx[0][w].value) + l2.scale(dx[1][w].value)
                    + l3.scale(dx[2][w].value) for w in range(2))
        gram = ((fib_pairing(b_u, b_u), fib_pairing(b_u, b_v)),
                (fib_pairing(b_v, b_u), fib_pairing(b_v, b_v)))
        structure = GCStructure(_values(j_base))
        ctx = ChartContext(TwistorPoint(chart_point(point[:2]), structure), dx, j_base,
                           kappa, (p, p_inv), _values(p), _values(p_inv), (b_u, b_v),
                           xm.inverse(gram))
        self._last = (point, ctx)
        return ctx

    def uv_coordinates(self, vertical: Endo, q: ChartPoint) -> tuple[Fraction, Fraction]:
        """Chart coordinates of a vertical endomorphism at the point, solved
        from its pairings with the fibre basis; InvariantError unless it lies
        in the span of that basis, the tangent plane of the fibre chart."""
        ctx = self.context(q)
        b_u, b_v = ctx.basis
        c_u, c_v = xm.mat_vec(ctx.gram_inverse,
                              (fib_pairing(vertical, b_u), fib_pairing(vertical, b_v)))
        if b_u.scale(c_u) + b_v.scale(c_v) != vertical:
            raise InvariantError("vector is not tangent to the fibre chart")
        return c_u, c_v

    # -- the structure fields ----------------------------------------------

    def field(self, alpha: int) -> GACField:
        if alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")
        return GACField(self.NVARS, lambda q: self._field_matrix(alpha, q))

    def _field_matrix(self, alpha: int, q: ChartPoint) -> JetMat:
        """The twistor structure at q in the coordinate frame, with gradients:
        assembled in the splitting frame and conjugated by the context's
        frame change P, all in jet arithmetic."""
        ctx = self.context(q)
        j_base, kappa = ctx.j_base, ctx.kappa
        sign = Fraction(1 if alpha == 1 else -1)   # (-1)^(alpha+1)
        split = [[Jet.constant(0, self.NVARS)] * 8 for _ in range(8)]
        # order: h1, h2, du, dv | dx1, dx2, thu, thv; j_base acts on the
        # lifts and the dx_a as it does on d/dx_a and dx_a
        for i, si in enumerate(_BASE_SLOTS):
            for k, sk in enumerate(_BASE_SLOTS):
                split[si][sk] = j_base[i][k]
        for w in range(2):
            for w2 in range(2):
                # fibre block: column d/dw goes to sum kappa[w][w2] d/dw2
                split[2 + w2][2 + w] = kappa[w][w2].scale(sign)
                # coform block: the transpose with the opposite sign
                split[6 + w2][6 + w] = kappa[w2][w].scale(-sign)
        p, p_inv = ctx.splitting
        return jmat_mul(jmat_mul(p, split), p_inv)

    # -- sections on the chart ----------------------------------------------

    def lift_section(self, x_components: Sequence[Poly]) -> JetSection:
        """The horizontal lift of a polynomial base vector field."""
        if len(x_components) != 2:
            raise DegenerateInputError("a base vector field has two components")

        def evaluate(q: ChartPoint) -> SectionJet:
            # x0 h_1 + x1 h_2: the lift h_a is column a of P, d/dx_a plus its
            # d/du, d/dv entries in rows 2 and 3
            p = self.context(q).splitting[0]
            x0, x1 = (_padded_jet(c, q.coords, self.NVARS) for c in x_components)
            zero = Jet.constant(0, self.NVARS)
            return (x0, x1, x0 * p[2][0] + x1 * p[2][1], x0 * p[3][0] + x1 * p[3][1]) + (zero,) * 4

        return JetSection(self.NVARS, evaluate)

    def tilde_section(self, entries: Sequence[Sequence[Poly]]) -> JetSection:
        """The vertical field J' -> a + J' a J' of a skew section a of the
        endomorphism bundle with polynomial base entries."""

        def evaluate(q: ChartPoint) -> SectionJet:
            ctx = self.context(q)
            a_mat = [[_padded_jet(p, q.coords, self.NVARS) for p in row] for row in entries]
            jaj = jmat_mul(jmat_mul(ctx.j_base, a_mat), ctx.j_base)
            tilde = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_mat, jaj)]
            c_u, c_v = self._solve_uv(self._coords_of(tilde), ctx.dx)
            zero = Jet.constant(0, self.NVARS)
            return (zero, zero, c_u, c_v) + (zero,) * 4

        return JetSection(self.NVARS, evaluate)

    # -- conversions between chart values and splitting data -----------------

    def decompose(self, value: GElement, q: ChartPoint) -> TwistorTangent:
        """Split a chart tangent-plus-cotangent value at q into horizontal,
        vertical and vertical-coform data for the closed-form evaluator."""
        if value.dim_v != 4:
            raise DegenerateInputError("chart values have four vector components")
        ctx = self.context(q)
        split = ctx.to_split.apply(value)
        b_u, b_v = ctx.basis
        vertical = b_u.scale(split.vec[2]) + b_v.scale(split.vec[3])
        # representer of theta_u thu + theta_v thv on the chart fibre basis
        lam = xm.mat_vec(ctx.gram_inverse, split.cov[2:])
        coform = b_u.scale(lam[0]) + b_v.scale(lam[1])
        return TwistorTangent(GElement(2, split.vec[:2], split.cov[:2]), vertical, coform)

    def compose(self, t: TwistorTangent, q: ChartPoint) -> GElement:
        """Inverse of decompose: express splitting data in chart coordinates."""
        if t.is_zero():
            return _ZERO_VALUE
        ctx = self.context(q)
        c_u, c_v = (F0, F0)
        if not t.vertical.is_zero():
            c_u, c_v = self.uv_coordinates(t.vertical, q)
        phi_u, phi_v = (fib_pairing(t.vertical_coform, b) for b in ctx.basis)
        h = t.horizontal
        return ctx.to_chart.apply(GElement(4, h.vec + (c_u, c_v), h.cov + (phi_u, phi_v)))


_ZERO_VALUE = zero_element(4)
# the slots of d/dx_1, d/dx_2, dx_1, dx_2 in the splitting frame
_BASE_SLOTS = (0, 1, 4, 5)


def _values(m: JetMat) -> Endo:
    """The values of a jet matrix as an endomorphism: the jets' value
    numerators over their common denominator."""
    den = lcm(*(e.den for row in m for e in row))
    return Endo._lowest(len(m), [[e.num[0] * (den // e.den) for e in row] for row in m], den)


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
    rhs = [c.value for c in chart.lift_section(xy).at(q)[:4]]
    at = chart.context(q).at
    xv = tuple(p.evaluate(at.point.coords) for p in x_components)
    yv = tuple(p.evaluate(at.point.coords) for p in y_components)
    r_vert = curvature(chart.conn, xv, yv, at.point).act_on(at.structure.j)
    rhs[2:] = (a + b for a, b in zip(rhs[2:], chart.uv_coordinates(r_vert, q)))
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
    xv = tuple(p.evaluate(base) for p in x_components)
    a_val = Endo(4, tuple(tuple(p.evaluate(base) for p in row) for row in a_entries))
    if not is_pairing_skew(a_val):
        raise InvariantError("the section a must be skew for the pairing")
    # directional derivative of the entries plus the connection commutator
    da = [[sum((xv[k] * p.partial(k).evaluate(base) for k in range(2)), F0)
           for p in row] for row in a_entries]
    christoffel = [(key, p.jet(base)) for key, p in chart.conn.entries]
    omega = _values(_connection_form(christoffel, [p.jet(base) for p in x_components]))
    nabla = Endo(4, xm.mat(da)) + (omega.compose(a_val) - a_val.compose(omega))
    j = at.structure.j
    tilde = nabla + j.compose(nabla).compose(j)
    return tuple(a - b for a, b in zip(lhs, (F0, F0) + chart.uv_coordinates(tilde, q)))


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
    __slots__ = ("base", "fibre", "sheet")

    def chart_point(self) -> ChartPoint:
        return chart_point(self.base + self.fibre)


class OracleSampleResult(Value):
    __slots__ = ("sample", "alpha", "pairs", "direct_all_zero", "all_equal", "mismatch",
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
    can confirm that a deliberately wrong term is detected.
    """
    charts = {sheet: TwistorChart(conn, sheet) for sheet in (1, -1)}
    probes = coordinate_sections(4)
    one = Poly.constant(2, 1)
    zero = Poly.constant(2, 0)
    x1p = Poly.variable(2, 0)
    a_entries = [[zero, zero, zero, x1p],
                 [zero, zero, -x1p, zero],
                 [zero, zero, zero, zero],
                 [zero, zero, zero, zero]]
    results = []
    for sample in samples:
        chart = charts[sample.sheet]
        q = sample.chart_point()
        ctx = chart.context(q)
        decomposed = [chart.decompose(p.value_at(q), q) for p in probes]
        # the two bracket identities do not depend on alpha
        lift_ok = all(r == 0 for r in chart_bracket_curvature_check(
            chart, [one, zero], [zero, x1p + one], q))
        vertical_ok = all(r == 0 for r in chart_vertical_bracket_check(
            chart, [one, x1p], a_entries, q))
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
            results.append(OracleSampleResult(sample, alpha, pairs, direct_zero, equal,
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


def _check_oracle_equality(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.all_equal:
            witness = {"fibre": [scalar_to_str(c) for c in r.sample.fibre],
                       "sheet": r.sample.sheet, "alpha": r.alpha,
                       "probe_pair": list(r.mismatch) if r.mismatch else None}
            return _fail("mismatch", witness)
    pairs = sum(r.pairs for r in results)
    return _ok({"samples": len(results) // 2, "pairs": pairs})


def _check_oracle_direct_zero(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if r.alpha == 1 and not r.direct_all_zero:
            return _fail("nonzero", {"sheet": r.sample.sheet})
        if r.alpha == 2 and r.direct_all_zero:
            return _fail("alpha=2 unexpectedly zero", {"sheet": r.sample.sheet})
    return _ok()


def _check_oracle_lift_bracket(scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.lift_bracket_ok:
            return _fail("nonzero residual", {"sheet": r.sample.sheet})
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
            return _fail("nonzero residual", {"sheet": r.sample.sheet})
    return _ok()


# each check of the suite by its name after "oracle/", as harness._SUITES lists it
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "closed-form-equality": _check_oracle_equality,
    "structure1-direct-zero": _check_oracle_direct_zero,
    "lift-bracket-identity": _check_oracle_lift_bracket,
    "vertical-bracket-identity": _check_oracle_vertical_bracket,
}
