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
1-jets `courant` reads; a polynomial base component enters as its base
jet with the gradient padded by zeros.  `poly.jmat_mul` skips the zero
jets of both factors, which are exactly zero terms.  A chart keeps the
`ChartContext` of the last point it was asked about (the twistor point,
chart jets, base structure, horizontal-lift and fibre-structure
coefficients, and the numeric views the probe-pair comparison reads):
every caller works through one sample point at a time.  Chart
coordinates of a vertical endomorphism are solved from those values in
`Fraction`s.

The connection form omega(X) enters in jets through one builder,
`_connection_form`, from the Christoffel polynomials alone, for the
chart's lift coefficients (X = d/dx_1, d/dx_2) and for the bundle-chart
identity `lift_bracket_curvature_check` (X a polynomial field).  That
identity is evaluated the same way, as 1-jets at the point, in
dim + (2 dim)^2 chart variables (18 at n = 1, 68 at n = 2).  The oracle's
fibre points come from `twistor.fibre_chart_samples`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from . import exactmat as xm
from .exactmat import F0, Mat, Vec
from .courant import (
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
    is_pairing_skew,
    reference_basis,
    skew_frames,
    zero_element,
)
from .poly import ChartPoint, Jet, JetMat, Poly, chart_point, jmat_mul
from .twistor import (
    Connection,
    TwistorPoint,
    TwistorTangent,
    connection_matrix,
    curvature,
    fibre_chart_samples,
    nijenhuis_closed_form_table,
    random_chart_point,
)
from .value import Value


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
    functions, the fibre structure `j_base`, the lift coefficients `gammas`
    (gammas[a][w], the (u, v) components of the lift of d/dx_a) and the
    fibre complex structure `kappa` in (u, v) coordinates; and the values
    that `decompose` and `compose` read for every probe pair, among them
    the basis dJ/du, dJ/dv and the inverse of its Gram matrix."""

    __slots__ = ("at", "dx", "j_base", "gammas", "kappa", "dx_values", "basis",
                 "gram_inverse", "gamma_values")


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
        """Solve coords = c_u dx/du + c_v dx/dv for a fibre-tangent vector,
        in jets or in `Fraction`s alike.

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

        # horizontal lift coefficients: the vertical part -[omega(d/dx_a), J]
        # of the lift of d/dx_a, in the two base directions
        christoffel = [(key, _padded_jet(p, point, nv)) for key, p in self.conn.entries]
        one, zero = Jet.constant(1, nv), Jet.constant(0, nv)
        gammas = []
        for direction in ((one, zero), (zero, one)):
            w_a = jmat_commutator(j_base, _connection_form(christoffel, direction))
            gammas.append(self._solve_uv(self._coords_of(w_a), dx))

        # the fibre complex structure in (u, v) coordinates
        kappa = []
        for w in range(2):
            column = [dx[r][w] for r in range(3)]
            jv = jmat_mul(j_base, jmat_comb(self.frame, column, nv))
            kappa.append(self._solve_uv(self._coords_of(jv), dx))

        # the numeric views that decompose and compose read for every probe
        dx_values = tuple(tuple(e.value for e in row) for row in dx)
        l1, l2, l3 = self.left
        b_u, b_v = (l1.scale(dx_values[0][w]) + l2.scale(dx_values[1][w])
                    + l3.scale(dx_values[2][w]) for w in range(2))
        gram = ((fib_pairing(b_u, b_u), fib_pairing(b_u, b_v)),
                (fib_pairing(b_v, b_u), fib_pairing(b_v, b_v)))
        structure = GCStructure(Endo(4, xm.mat([[e.value for e in row] for row in j_base])))
        ctx = ChartContext(TwistorPoint(chart_point(point[:2]), structure), dx, j_base,
                           gammas, kappa, dx_values, (b_u, b_v), xm.inverse(gram),
                           tuple(tuple(c.value for c in g) for g in gammas))
        self._last = (point, ctx)
        return ctx

    def uv_coordinates(self, vertical: Endo, q: ChartPoint) -> tuple[Fraction, Fraction]:
        """Chart coordinates of a vertical endomorphism at the point;
        InvariantError if it is not tangent to the fibre chart."""
        coords = [fib_pairing(vertical, f) / norm for f, norm in zip(self.left, _FRAME_NORMS)]
        return self._solve_uv(coords, self.context(q).dx_values)

    # -- the structure fields ----------------------------------------------

    def field(self, alpha: int) -> GACField:
        if alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")

        def evaluate(q: ChartPoint) -> JetMat:
            return self._field_matrix(alpha, q)

        return GACField(self.NVARS, evaluate)

    def _field_matrix(self, alpha: int, q: ChartPoint) -> JetMat:
        """The twistor structure at q in the coordinate frame, with gradients.

        Assembled in the splitting frame (lifts h_a, fibre directions,
        pulled-back dx_a, coforms vanishing on the horizontal space) and
        conjugated by the frame change, all in jet arithmetic.
        """
        ctx = self.context(q)
        nv = self.NVARS
        zero = Jet.constant(0, nv)
        one = Jet.constant(1, nv)
        j_base, gammas, kappa = ctx.j_base, ctx.gammas, ctx.kappa
        sign = 1 if alpha == 1 else -1   # (-1)^(alpha+1)

        split = [[zero for _ in range(8)] for _ in range(8)]
        # order: h1, h2, du, dv | dx1, dx2, thu, thv
        for a in range(2):
            for b in range(2):
                split[a][b] = j_base[a][b]              # V -> V block on lifts
                split[4 + a][b] = j_base[2 + a][b]      # V -> V* block
                split[a][4 + b] = j_base[a][2 + b]      # V* -> V block
                split[4 + a][4 + b] = j_base[2 + a][2 + b]
        for w in range(2):
            for w2 in range(2):
                # fibre block: column d/dw goes to sum kappa[w][w2] d/dw2
                split[2 + w2][2 + w] = kappa[w][w2].scale(Fraction(sign))
                # coform block: the transpose with the opposite sign
                split[6 + w2][6 + w] = kappa[w2][w].scale(Fraction(-sign))

        # frame change: columns of P are the splitting frame in coordinates
        p = [[zero for _ in range(8)] for _ in range(8)]
        p_inv = [[zero for _ in range(8)] for _ in range(8)]
        for i in range(8):
            p[i][i] = one
            p_inv[i][i] = one
        for a in range(2):
            for w in range(2):
                p[2 + w][a] = gammas[a][w]
                p_inv[2 + w][a] = -gammas[a][w]
                p[4 + a][6 + w] = -gammas[a][w]
                p_inv[4 + a][6 + w] = gammas[a][w]
        return jmat_mul(jmat_mul(p, split), p_inv)

    # -- sections on the chart ----------------------------------------------

    def lift_section(self, x_components: Sequence[Poly]) -> JetSection:
        """The horizontal lift of a polynomial base vector field."""
        if len(x_components) != 2:
            raise DegenerateInputError("a base vector field has two components")

        def evaluate(q: ChartPoint) -> SectionJet:
            g = self.context(q).gammas
            x0, x1 = (_padded_jet(p, q.coords, self.NVARS) for p in x_components)
            zero = Jet.constant(0, self.NVARS)
            return (x0, x1, x0 * g[0][0] + x1 * g[1][0], x0 * g[0][1] + x1 * g[1][1]) + (zero,) * 4

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
        g = ctx.gamma_values
        b_u, b_v = ctx.basis
        x = value.vec
        theta = value.cov
        horizontal = GElement(
            2, (x[0], x[1]),
            (theta[0] + theta[2] * g[0][0] + theta[3] * g[0][1],
             theta[1] + theta[2] * g[1][0] + theta[3] * g[1][1]))
        vert_u = x[2] - x[0] * g[0][0] - x[1] * g[1][0]
        vert_v = x[3] - x[0] * g[0][1] - x[1] * g[1][1]
        vertical = b_u.scale(vert_u) + b_v.scale(vert_v)
        # representer of theta_u thu + theta_v thv on the chart fibre basis
        lam = xm.mat_vec(ctx.gram_inverse, (theta[2], theta[3]))
        coform = b_u.scale(lam[0]) + b_v.scale(lam[1])
        return TwistorTangent(horizontal, vertical, coform)

    def compose(self, t: TwistorTangent, q: ChartPoint) -> GElement:
        """Inverse of decompose: express splitting data in chart coordinates."""
        if t.is_zero():
            return _ZERO_VALUE
        ctx = self.context(q)
        g = ctx.gamma_values
        b_u, b_v = ctx.basis
        c_u, c_v = (F0, F0)
        if not t.vertical.is_zero():
            c_u, c_v = self.uv_coordinates(t.vertical, q)
        phi_u = fib_pairing(t.vertical_coform, b_u)
        phi_v = fib_pairing(t.vertical_coform, b_v)
        h = t.horizontal
        vec = (h.vec[0], h.vec[1],
               h.vec[0] * g[0][0] + h.vec[1] * g[1][0] + c_u,
               h.vec[0] * g[0][1] + h.vec[1] * g[1][1] + c_v)
        cov = (h.cov[0] - phi_u * g[0][0] - phi_v * g[0][1],
               h.cov[1] - phi_u * g[1][0] - phi_v * g[1][1],
               phi_u, phi_v)
        return GElement(4, vec, cov)


_ZERO_VALUE = zero_element(4)


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
    omega = connection_matrix(chart.conn, xv, at.point)
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
