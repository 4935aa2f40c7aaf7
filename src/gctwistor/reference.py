"""Reference definitions of the twistor structures, held by the tests.

The tests compare the package's fast paths with these definitions, and
no module of the package imports this one, so no run compiles it:
  * `twistor_J`, the twistor structures J_1 and J_2 on a tangent, with
    `validate_tangent`, the verticality check of its parts;
  * `horizontal_lift`, the lift of a base vector, the reference for the
    oracle chart's lift, with `connection_matrix`, the connection form
    it reads;
  * `nijenhuis_horizontal` and `nijenhuis_coform`, the closed-form
    Nijenhuis tensor on a horizontal pair and on a horizontal lift
    against a vertical coform, case by case in `Fraction` arithmetic,
    the pair-by-pair reference for `twistor.nijenhuis_closed_form_table`.
    `nijenhuis_horizontal` finds its alpha = 2 coform by a Gram solve
    over a vertical basis, a derivation independent of the table's
    closed form;
  * `MuForm` and `curvature_from_mu`, the curvature R_mu of a bilinear
    form mu, the reference for the rows of [R_mu(e_a, e_b), K] = 0 that
    `twistor._mu_constraint_rows` writes at the complex-type structure
    from_complex(K).

The conventions are those of `twistor`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import exactmat as xm
from .exactmat import F0, Vec
from .gclinalg import (
    DegenerateInputError,
    Endo,
    GElement,
    _dual_diag,
    basis_covector,
    basis_vector,
    commutator,
    fib_pairing,
    is_vertical,
    vertical_space_basis,
    zero_endo,
)
from .poly import ChartPoint
from .twistor import (
    Connection,
    NotVerticalError,
    TwistorPoint,
    TwistorTangent,
    curvature_action_on_structure,
    tangent_from_parts,
)
from .value import Value


def validate_tangent(t: TwistorTangent, at: TwistorPoint) -> None:
    j = at.structure.j
    if not t.vertical.is_zero() and not is_vertical(t.vertical, j):
        raise NotVerticalError("vertical part does not anticommute with j")
    if not t.vertical_coform.is_zero() and not is_vertical(t.vertical_coform, j):
        raise NotVerticalError("vertical coform representer does not anticommute with j")


def twistor_J(alpha: int, t: TwistorTangent, at: TwistorPoint) -> TwistorTangent:
    """The twistor structure: the fibre complex structure with an alpha sign
    on vertical data, the lift of j on horizontal data."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    validate_tangent(t, at)
    j = at.structure.j
    sign = 1 if alpha == 1 else -1  # (-1)^(alpha+1)
    return TwistorTangent(j.apply(t.horizontal),
                          j.compose(t.vertical).scale(sign),
                          t.vertical_coform.compose(j).scale(-sign))


def connection_matrix(conn: Connection, x: Vec, p: ChartPoint) -> Endo:
    """The connection form on TM + T*M in direction x: diag(G(x), -G(x)^T),
    G(x)[k][j] the sum over a of x_a Gamma^k_aj, summed over the entries."""
    dim = conn.dim
    gx = [[F0] * dim for _ in range(dim)]
    for (k, a, j), poly in conn.entries:
        if x[a]:
            gx[k][j] += x[a] * poly.evaluate(p.coords)
    return _dual_diag(*xm._integer_matrix(gx))


def horizontal_lift(conn: Connection, x: Vec, at: TwistorPoint) -> TwistorTangent:
    """Lift of a base vector: base part x, vertical part -[omega(x), j].

    In the fibre coordinates attached to a frame that is parallel at the
    base point the vertical part vanishes; for the constant coordinate
    frames used here it is the commutator with the connection form.
    """
    omega = connection_matrix(conn, x, at.point)
    vertical = -commutator(omega, at.structure.j)
    n = at.n
    return tangent_from_parts(n, horizontal=GElement(2 * n, xm.vec(x), (F0,) * (2 * n)),
                              vertical=vertical)


def _gram_solve_representer(basis: Sequence[Endo], values: Sequence[Fraction]) -> Endo:
    d = len(basis)
    gram = tuple(tuple(fib_pairing(basis[a], basis[b]) for b in range(d)) for a in range(d))
    try:
        coeffs = xm.mat_vec(xm.inverse(gram), values)
    except xm.SingularMatrixError:
        raise DegenerateInputError("trace pairing is degenerate on the vertical space") from None
    out = zero_endo(basis[0].dim)
    for c, u in zip(coeffs, basis):
        out = out + u.scale(c)
    return out


def _pair_coeff(x: Vec, y: Vec, a: int, b: int) -> Fraction:
    return x[a] * y[b] - x[b] * y[a]


def _curvature_coeffs(a: GElement, ja: GElement, b: GElement, jb: GElement,
                      ia: int, ib: int) -> tuple[Fraction, Fraction]:
    """The coefficients of [R^(d_ia, d_ib), j] and of j o [R^(d_ia, d_ib), j]
    in the curvature terms of a horizontal pair, the second without its
    alpha sign."""
    c_direct = _pair_coeff(ja.vec, jb.vec, ia, ib) - _pair_coeff(a.vec, b.vec, ia, ib)
    c_twisted = _pair_coeff(a.vec, jb.vec, ia, ib) + _pair_coeff(ja.vec, b.vec, ia, ib)
    return c_direct, c_twisted


def nijenhuis_horizontal(alpha: int, conn: Connection, at: TwistorPoint,
                         a: GElement, b: GElement,
                         vertical_basis: Sequence[Endo] | None = None) -> TwistorTangent:
    """N_alpha on two horizontal lifts: four curvature terms acting on j,
    plus (alpha = 2 only) a vertical coform, found by a Gram solve over a
    vertical basis: the independent route that the table's basis-free
    closed form is tested against.  The horizontal part vanishes."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    j = at.structure.j
    ja = j.apply(a)
    jb = j.apply(b)
    sign = Fraction((-1) ** alpha)
    vertical = zero_endo(j.dim)
    for (ia, ib), (v, jv) in curvature_action_on_structure(conn, at).items():
        c_direct, c_twisted = _curvature_coeffs(a, ja, b, jb, ia, ib)
        if c_direct:
            vertical = vertical + v.scale(c_direct)
        if c_twisted:
            vertical = vertical + jv.scale(sign * c_twisted)
    coef = -Fraction(1, 2) * (1 + sign)
    n = at.n
    if coef == 0:
        return tangent_from_parts(n, vertical=vertical)

    def omega_ab(w: Endo) -> Fraction:
        wa = w.apply(a)
        wb = w.apply(b)
        return (sum(x * y for x, y in zip(ja.cov, wb.vec))
                + sum(x * y for x, y in zip(wb.cov, ja.vec))
                - sum(x * y for x, y in zip(jb.cov, wa.vec))
                - sum(x * y for x, y in zip(wa.cov, jb.vec)))

    if vertical_basis is None:
        vertical_basis = vertical_space_basis(at.structure)
    phi = _gram_solve_representer(vertical_basis, [coef * omega_ab(u) for u in vertical_basis])
    return tangent_from_parts(n, vertical=vertical, vertical_coform=phi)


def nijenhuis_coform(alpha: int, conn: Connection, at: TwistorPoint,
                     a: GElement, phi: Endo) -> TwistorTangent:
    """N_alpha of a horizontal lift against a vertical coform.

    The value lies in H + H* and is recovered from its pairings against
    every B: <N, B> = -phi(N_1(A^h, B^h))/2, with an extra curvature
    insertion term for alpha = 2.  The neutral pairing against the
    coordinate probes inverts trivially: pairing against a_k reads off
    vector components, pairing against e_k covector components.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    n = at.n
    if phi.is_zero():
        return tangent_from_parts(n)
    j = at.structure.j
    if not is_vertical(phi, j):
        raise NotVerticalError("coform representer is not vertical at j")
    ja = j.apply(a)
    action = curvature_action_on_structure(conn, at)
    scalars = {key: (fib_pairing(phi, v), fib_pairing(phi, jv))
               for key, (v, jv) in action.items()}
    if not scalars or all(s_v == 0 and s_jv == 0 for s_v, s_jv in scalars.values()):
        return tangent_from_parts(n)

    def rhs(b: GElement) -> Fraction:
        jb = j.apply(b)
        total = F0
        for (ia, ib), (s_v, s_jv) in scalars.items():
            c_direct, c_twisted = _curvature_coeffs(a, ja, b, jb, ia, ib)
            # phi of the alpha = 1 vertical part, with the twisted sign -1
            total -= Fraction(1, 2) * (c_direct * s_v - c_twisted * s_jv)
            if alpha == 2:
                total -= c_twisted * s_jv
        return total

    dim_v = 2 * n
    vec = tuple(2 * rhs(basis_covector(dim_v, k)) for k in range(dim_v))
    cov = tuple(2 * rhs(basis_vector(dim_v, k)) for k in range(dim_v))
    return tangent_from_parts(n, horizontal=GElement(dim_v, vec, cov))


class MuForm(Value):
    """A bilinear form on T_pM x T_pM."""

    __slots__ = ("matrix",)

    def __call__(self, x: Vec, y: Vec) -> Fraction:
        """sum_ij x_i m_ij y_j over the nonzero x_i and y_j; a skipped term
        is exactly zero."""
        nonzero_y = [(j, yj) for j, yj in enumerate(y) if yj]
        return sum((xi * row[j] * yj for xi, row in zip(x, self.matrix) if xi
                    for j, yj in nonzero_y), F0)


def curvature_from_mu(mu: MuForm, x: Vec, y: Vec, z: Vec) -> Vec:
    """R(X,Y)Z = mu(X,Y)Z - mu(Y,X)Z + mu(X,Z)Y - mu(Y,Z)X."""
    cxy = mu(x, y) - mu(y, x)
    cxz = mu(x, z)
    cyz = mu(y, z)
    return tuple(cxy * z[i] + cxz * y[i] - cyz * x[i] for i in range(len(x)))
