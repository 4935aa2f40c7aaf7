"""The `linalg/` suite: exact identities of V + V* and its pairing.

The suite's checks and the definitions that only they read: the
split-signature pairing of two elements, the projection and dim-2
orientation reports of an orthonormal basis, the isometries e^B, e^beta
and the GL(V) action, and the decomposition of a skew endomorphism of
neutral 4-space in its two skew frames.  `CHECKS` keys each check by
its name after `linalg/`, and `harness` imports this module only for a
scenario that schedules one, since each run compiles the sources it
imports.  A check takes the harness's scenario and hook state and
returns a `value.CheckResult`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Mapping

from . import exactmat as xm
from .exactmat import Mat
from .gclinalg import (
    DegenerateInputError,
    DimensionMismatchError,
    Endo,
    GElement,
    InvariantError,
    OrthonormalBasis,
    _FRAME_NORMS,
    _same_dim,
    basis_covector,
    basis_vector,
    fib_pairing,
    hyperboloid_chart,
    hyperboloid_point,
    is_pairing_skew,
    reference_basis,
    skew_frames,
    standard_complex_matrix,
    zero_endo,
)
from .poly import scalar_to_str
from .structures import (
    _gl_pair,
    _skew,
    _unipotent,
    b_transform,
    beta_transform,
    from_complex,
    from_symplectic,
    gl_action,
    is_pairing_orthogonal,
    random_invertible_matrix,
    random_orthonormal_basis,
    random_skew_matrix,
    standard_symplectic_matrix,
)
from .twistor import fibre_chart_samples
from .value import CheckResult, Value, _fail, _ok


def neutral_pairing(a: GElement, b: GElement) -> Fraction:
    """<X + xi, Y + eta> = (xi(Y) + eta(X)) / 2, the split-signature pairing."""
    _same_dim(a, b)
    return Fraction(1, 2) * (sum(x * y for x, y in zip(a.cov, b.vec))
                             + sum(x * y for x, y in zip(b.cov, a.vec)))


# ---------------------------------------------------------------------------
# basis reports


class ProjectionReport(Value):
    __slots__ = ("det_p", "ok")


def projection_nondegeneracy_check(basis: OrthonormalBasis) -> ProjectionReport:
    """Determinant of P = [eta_l(e_k)] over the positive half of the basis.

    Writing the positive-sign basis elements as Q_l = e_l + eta_l, the
    matrix P is invertible with (det P)^2 >= 1; the report carries the
    exact determinant and that inequality as a boolean.  For the rows
    N = d Q of the basis, det P = det(d^2 P) / d^(2 dim V) in integers.
    """
    h = basis.dim_v
    num = basis.num[:h]
    p = [[sum(map(mul, row_l[h:], row_k[:h])) for row_k in num] for row_l in num]
    d = xm.det(p) / basis.den ** (2 * h)
    return ProjectionReport(d, d * d >= 1)


class Dim2OrientationReport(Value):
    __slots__ = ("a", "orthogonal", "transition_det", "orientation")


def dim2_basis_orientation(basis: OrthonormalBasis) -> Dim2OrientationReport:
    """Orientation data of an orthonormal basis when dim V = 2.

    With Q_i = e_i + eta_i and signs (+, +, -, -), the vector parts
    satisfy e_3 = a_11 e_1 + a_12 e_2, e_4 = a_21 e_1 + a_22 e_2 for an
    orthogonal matrix A, and the transition determinant from the basis
    {e_1, e_2, alpha_1, alpha_2} (alpha dual to e) equals 4 det A.

    On the rows N = d Q, Cramer's rule gives A = M / D in integers, D the
    determinant of the vector parts of N_1 and N_2.  The transition matrix
    scaled to integers has rows D (vector coefficients) and d^2 (eta_i(e_k)).
    """
    if basis.dim_v != 2:
        raise DimensionMismatchError("this report is specific to dim V = 2")
    e = [row[:2] for row in basis.num]
    e1, e2 = e[0], e[1]
    dd = e1[0] * e2[1] - e1[1] * e2[0]
    if dd == 0:
        raise DegenerateInputError("inconsistent basis: vector parts e_1, e_2 are dependent")
    # row k of M solves D e_{2+k} = m_k1 e1 + m_k2 e2
    m = [(v[0] * e2[1] - v[1] * e2[0], e1[0] * v[1] - e1[1] * v[0]) for v in e[2:]]
    d2 = dd * dd
    orthogonal = all(sum(map(mul, m[r], m[c])) == (d2 if r == c else 0)
                     for r in range(2) for c in range(2))
    vcoef = [(dd, 0), (0, dd)] + m
    trans = list(zip(*vcoef)) + [[sum(map(mul, row[2:], e[k])) for row in basis.num]
                                  for k in range(2)]
    d = xm.det(trans) / (d2 * basis.den ** 4)
    a = tuple(tuple(Fraction(x, dd) for x in row) for row in m)
    det_m = m[0][0] * m[1][1] - m[0][1] * m[1][0]  # D^2 det A
    return Dim2OrientationReport(a, orthogonal, d, 1 if det_m > 0 else -1)


# ---------------------------------------------------------------------------
# isometries


def exp_two_form(b: Mat) -> Endo:
    """The orthogonal map e^B : X + xi -> X + xi + i_X B for a skew 2-form B."""
    return _unipotent(*_skew(b, "B"), 1, True)


def exp_two_vector(beta: Mat) -> Endo:
    """The orthogonal map e^beta : X + xi -> X + i_xi beta + xi for a skew 2-vector."""
    return _unipotent(*_skew(beta, "beta"), 1, False)


def gl_endo(g: Mat) -> Endo:
    """GL(V) acting on V + V* by g on V and (g alpha)(X) = alpha(g^{-1} X) on V*."""
    return _gl_pair(g)[0]


# ---------------------------------------------------------------------------
# the skew frames of neutral 4-space


class SkewDecomposition(Value):
    """Coefficients in the `left` and `right` skew frames; `family` is
    "left", "right" or None, the frame whose combination is a compatible
    complex structure when `compatible_complex` holds."""

    __slots__ = ("left", "right", "compatible_complex", "family")


def skew_decompose(k: Endo, basis: OrthonormalBasis) -> SkewDecomposition:
    """Coefficients of a skew endomorphism of neutral 4-space in the two frames.

    The frames are orthogonal for the trace pairing with known norms, so
    the coefficients come from exact pairings, no linear solve.  The
    classification records whether the coefficients describe a
    compatible complex structure (one family on its unit hyperboloid,
    the other zero).
    """
    if k.dim != 4:
        raise DimensionMismatchError("decomposition is specific to neutral 4-space")
    if not is_pairing_skew(k):
        raise InvariantError("input is not skew for the pairing")
    frames = skew_frames(basis)
    x = tuple(fib_pairing(k, frames.left[r]) / _FRAME_NORMS[r] for r in range(3))
    y = tuple(fib_pairing(k, frames.right[r]) / _FRAME_NORMS[r] for r in range(3))
    if reduce(Endo.__add__, (m.scale(c) for c, m in zip(x + y, frames.all()))) != k:
        raise InvariantError("skew frame decomposition failed to reconstruct the input")
    on_left = (x[0] ** 2 - x[1] ** 2 - x[2] ** 2 == 1) and all(c == 0 for c in y)
    on_right = (y[0] ** 2 - y[1] ** 2 - y[2] ** 2 == 1) and all(c == 0 for c in x)
    family = "left" if on_left else ("right" if on_right else None)
    return SkewDecomposition(x, y, on_left or on_right, family)


# ---------------------------------------------------------------------------
# the checks


def _check_pairing_examples(scenario, hooks: Mapping) -> CheckResult:
    e1 = basis_vector(2, 0)
    e2 = basis_vector(2, 1)
    a1 = basis_covector(2, 0)
    if neutral_pairing(e1, a1) != Fraction(1, 2):
        return _fail(neutral_pairing(e1, a1), {"case": "<e1, a1>"})
    if neutral_pairing(e1, e2) != 0:
        return _fail(neutral_pairing(e1, e2), {"case": "<e1, e2>"})
    if neutral_pairing(e1 + a1, e1 + a1) != 1:
        return _fail(neutral_pairing(e1 + a1, e1 + a1), {"case": "<e1+a1, e1+a1>"})
    return _ok()


def _check_projection(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed)
    for n in (1, 2):
        for trial in range(scenario.count("base_points", 25)):
            basis = random_orthonormal_basis(n, rng)
            report = projection_nondegeneracy_check(basis)
            if not report.ok or report.det_p == 0:
                return _fail(report.det_p, {"n": n, "trial": trial})
    return _ok()


def _check_dim2_orientation(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 1)
    for trial in range(scenario.count("base_points", 100)):
        basis = random_orthonormal_basis(1, rng)
        report = dim2_basis_orientation(basis)
        if not report.orthogonal:
            return _fail("A not orthogonal", {"trial": trial})
        if report.transition_det != 4 * xm.det(report.a):
            return _fail(report.transition_det, {"trial": trial})
    return _ok()


def _check_orientation_parity(scenario, hooks: Mapping) -> CheckResult:
    for n in range(1, 5):
        if from_complex(standard_complex_matrix(n)).orientation() != 1:
            return _fail("complex-type orientation", {"n": n})
        expected = 1 if n % 2 == 0 else -1
        if from_symplectic(standard_symplectic_matrix(n)).orientation() != expected:
            return _fail("symplectic-type orientation", {"n": n})
    return _ok()


_IDENTITY_4 = Endo(4, xm.identity(4))
_FRAME_SQUARES = (-_IDENTITY_4, _IDENTITY_4, _IDENTITY_4)


def _frame_relation_table(frames) -> list[tuple[str, Endo, Endo]]:
    left, right = frames.left, frames.right
    rel: list[tuple[str, Endo, Endo]] = []
    for label, triple in (("left", left), ("right", right)):
        for r in range(3):
            rel.append((f"{label}{r + 1}^2", triple[r].compose(triple[r]), _FRAME_SQUARES[r]))
        for r in range(3):
            for s in range(r + 1, 3):
                rel.append((f"{label}{r + 1}{label}{s + 1} anticommute",
                            triple[r].compose(triple[s]) + triple[s].compose(triple[r]),
                            zero_endo(4)))
    for r in range(3):
        for s in range(3):
            rel.append((f"left{r + 1} right{s + 1} commute",
                        left[r].compose(right[s]), right[s].compose(left[r])))
    return rel


def _check_skew_frame_relations(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 2)
    tamper = hooks.get("tamper_frames")
    for trial in range(10):
        basis = random_orthonormal_basis(1, rng)
        frames = skew_frames(basis)
        if tamper is not None:
            frames = tamper(frames)
        relations = _frame_relation_table(frames)
        if len(relations) != 21:
            return _fail(len(relations), {"reason": "relation count"})
        for label, got, expected in relations:
            if got != expected:
                return _fail("relation violated", {"trial": trial, "relation": label})
    return _ok()


def _check_frame_roundtrip(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 3)
    for trial in range(10):
        basis = random_orthonormal_basis(1, rng)
        frames = skew_frames(basis)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        k = reduce(Endo.__add__, (m.scale(c) for c, m in zip(coeffs, frames.all())))
        decomposition = skew_decompose(k, basis)
        if list(decomposition.left) + list(decomposition.right) != coeffs:
            return _fail("coefficients differ", {"trial": trial})
    return _ok()


def _check_transform_isometries(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 4)
    j = from_complex(standard_complex_matrix(1))
    orientation = j.orientation()
    for trial in range(10):
        b = random_skew_matrix(2, rng)
        beta = random_skew_matrix(2, rng)
        g = random_invertible_matrix(2, rng)
        for label, m in (("e^B", exp_two_form(b)), ("e^beta", exp_two_vector(beta)),
                         ("gl", gl_endo(g))):
            if not is_pairing_orthogonal(m):
                return _fail("pairing not preserved", {"map": label})
        for label, jt in (("b", b_transform(j, b)), ("beta", beta_transform(j, beta)),
                          ("gl", gl_action(g, j))):
            if jt.orientation() != orientation:
                return _fail("orientation flipped", {"map": label})
    return _ok()


def _check_hyperboloid_chart(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 5)
    basis = reference_basis(1)
    for u, v, sheet in fibre_chart_samples(rng, 10):
        x1, x2, x3 = hyperboloid_chart(u, v, sheet)
        if x1 * x1 - x2 * x2 - x3 * x3 != 1:
            return _fail("chart identity", {"u": scalar_to_str(u)})
        structure = hyperboloid_point(u, v, sheet, basis)
        if structure.j.compose(structure.j) != _FRAME_SQUARES[0]:  # -Id
            return _fail("square", {"u": scalar_to_str(u)})
    return _ok()


# each check of the suite by its name after "linalg/", as harness._SUITES lists it
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "pairing-examples": _check_pairing_examples,
    "projection-nondegeneracy": _check_projection,
    "dim2-orientation": _check_dim2_orientation,
    "orientation-parity": _check_orientation_parity,
    "skew-frame-relations": _check_skew_frame_relations,
    "frame-decomposition-roundtrip": _check_frame_roundtrip,
    "transform-isometries": _check_transform_isometries,
    "hyperboloid-chart": _check_hyperboloid_chart,
}
