"""The `integrability/` suite: the closed-form Nijenhuis tensor of the
twistor structures over a chart, checked on probe pairs at sampled
twistor points.

Each check reads `scenario.n`; the n-specific names that older presets
schedule (`n2-flat-structure1-vanishes`, `n3-flat-structure1-vanishes`,
`n2-curved-witness`) key the same bodies, and `harness._SUITES` holds
what each name asks of its scenario.  Every probe-pair scan goes through
one per-point `nijenhuis_closed_form_table`, and every check runs, and
reports its residual, in exact arithmetic.  The terms only the witnesses
evaluate, the mixed term `nijenhuis_mixed`, the hybrid term with the
fibre's symplectic-type structure and the adapted sampler, are here too.

The checks, keyed by name in `CHECKS`, end this module, which `harness`
loads only for a scenario that schedules one.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from .gclinalg import (
    Endo,
    GCStructure,
    GElement,
    InvariantError,
    coordinate_elements,
    fib_pairing,
    hyperboloid_point,
    is_vertical,
    reference_basis,
    vertical_space_basis,
    zero_element,
)
from .poly import random_chart_point, scalar_to_str
from .structures import (
    _symplectic_endo,
    adapted_structure,
    random_orthonormal_basis,
    sample_fibre_structure,
)
from .twistor import (
    Connection,
    NotVerticalError,
    TwistorPoint,
    TwistorTangent,
    fibre_chart_samples,
    mu_forced_zero_check,
    nijenhuis_closed_form_table,
    tangent_from_parts,
)
from .value import CheckResult, Value, _fail, _ok


# ---------------------------------------------------------------------------
# the witnesses' terms and adapted samples


def nijenhuis_mixed(alpha: int, at: TwistorPoint, a: GElement, v: Endo) -> TwistorTangent:
    """N_alpha of a horizontal lift against a vertical vector:
    [1 + (-1)^alpha] ((j o V) A)^h, so zero for alpha = 1."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    n = at.n
    if v.is_zero():
        return tangent_from_parts(n)
    if not is_vertical(v, at.structure.j):
        raise NotVerticalError("V is not a vertical vector at j")
    coef = 1 + (-1) ** alpha
    if coef == 0:
        return tangent_from_parts(n)
    value = at.structure.j.compose(v).apply(a).scale(coef)
    return tangent_from_parts(n, horizontal=value)


class FiberKahlerStructure(Value):
    """The symplectic-type structure of the vertical space at a point j.

    Built from the two-form Omega(U, W) = <j o U, W> (trace pairing) on a
    supplied basis of the vertical space, via the same recipe as
    `structures.from_symplectic`; the matrix acts on vertical coordinates
    followed by dual coordinates and squares to -Id.
    """

    __slots__ = ("basis", "omega", "matrix")


def fiber_kahler_structure(j: GCStructure, basis: Sequence[Endo]) -> FiberKahlerStructure:
    d = len(basis)
    for u in basis:
        if not is_vertical(u, j.j):
            raise InvariantError("supplied basis element is not vertical at j")
    omega = tuple(tuple(fib_pairing(j.j.compose(basis[a]), basis[b]) for b in range(d))
                  for a in range(d))
    s = _symplectic_endo(omega, "fibre two-form")
    if not s.squares_to_minus_identity():
        raise InvariantError("fibre structure does not square to -Id")
    return FiberKahlerStructure(tuple(basis), omega, s.rows)


def hybrid_nijenhuis_horizontal(at: TwistorPoint, a: GElement, v: Endo) -> GElement:
    """H + H* part of the mixed Nijenhuis term for the hybrid structures that
    use the fibre symplectic-type structure on vertical data.

    Computed through the horizontal-vertical bracket mechanism, whose
    only surviving term is (j o V) A with coefficient one: unlike the pure
    twistor structures, where the second bracket doubles or cancels it, it
    depends on neither alpha nor the connection, so one value serves both
    hybrid structures.  Requires the fibre two-form to be nondegenerate at
    the point, since the hybrid structure is only defined there.
    """
    fiber_kahler_structure(at.structure, vertical_space_basis(at.structure))  # raises if degenerate
    if v.is_zero():
        return zero_element(2 * at.n)
    if not is_vertical(v, at.structure.j):
        raise NotVerticalError("V is not a vertical vector at j")
    return at.structure.j.compose(v).apply(a)


class AdaptedSample(Value):
    """A twistor point whose structure is adapted to a sampled orthonormal basis."""

    __slots__ = ("at", "basis")


def sample_adapted_point(n: int, rng: random.Random) -> AdaptedSample:
    basis = random_orthonormal_basis(n, rng)
    structure = adapted_structure(basis)
    at = TwistorPoint(random_chart_point(2 * n, rng), structure)
    return AdaptedSample(at, basis)


# ---------------------------------------------------------------------------
# the integrability/ suite


def _probe_set(n: int, basis: Sequence[Endo] | None):
    """The coordinate elements (they already span H + H*) and, unless the
    vertical basis is None, its vertical and coform probes."""
    probes = [tangent_from_parts(n, horizontal=h) for h in coordinate_elements(2 * n)]
    if basis is not None:
        probes += [tangent_from_parts(n, vertical=u) for u in basis]
        probes += [tangent_from_parts(n, vertical_coform=u) for u in basis]
    return probes


def _scan_closed_form(alpha: int, conn: Connection, at: TwistorPoint,
                      basis: Sequence[Endo] | None):
    """Yield (probe pair, value) over `_probe_set(at.n, basis)` at one
    twistor point."""
    yield from nijenhuis_closed_form_table(alpha, conn, at, _probe_set(at.n, basis)).items()


def _check_n1_vanishing(scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 9)
    count = scenario.count("base_points", 50)
    basis = reference_basis(1)
    for u, v, sheet in fibre_chart_samples(rng, count):
        structure = hyperboloid_point(u, v, sheet, basis)
        at = TwistorPoint(random_chart_point(2, rng), structure)
        for (i, k), value in _scan_closed_form(1, scenario.conn, at,
                                               vertical_space_basis(structure)):
            if not value.is_zero():
                witness = {"fibre": [scalar_to_str(u), scalar_to_str(v)], "sheet": sheet,
                           "probe_pair": [i, k]}
                return _fail("nonzero", witness)
    return _ok({"points": count, "sheets": "both"})


def _fibre_points(scenario, offset: int):
    """Yield (trial, twistor point) over `fibre_params` seeded fibre samples
    at random points of the chart of dimension 2n."""
    rng = random.Random(scenario.seed + offset)
    for trial in range(scenario.count("fibre_params", 20)):
        structure = sample_fibre_structure(scenario.n, rng)
        yield trial, TwistorPoint(random_chart_point(2 * scenario.n, rng), structure)


def _pair_witness(trial: int, pair: tuple[int, int], at: TwistorPoint) -> dict:
    """Enough to replay one probe pair: the trial, the pair and the chart point."""
    return {"trial": trial, "probe_pair": list(pair),
            "point": [scalar_to_str(c) for c in at.point.coords]}


def _check_flat_vanishing(scenario, hooks: Mapping) -> CheckResult:
    """Structure 1 has zero closed-form Nijenhuis value on every probe pair
    at sampled fibre points over a flat chart of dimension 2n >= 4."""
    for trial, at in _fibre_points(scenario, 10):
        for pair, value in _scan_closed_form(1, scenario.conn, at,
                                             vertical_space_basis(at.structure)):
            if not value.is_zero():
                return _fail("nonzero", _pair_witness(trial, pair, at))
    return _ok({"fibre_samples": scenario.count("fibre_params", 20)})


def _check_curved_witness(scenario, hooks: Mapping) -> CheckResult:
    """Structure 1 has a nonzero vertical closed-form Nijenhuis value on a
    horizontal probe pair over a curved chart of dimension 2n >= 4."""
    for trial, at in _fibre_points(scenario, 11):
        for pair, value in _scan_closed_form(1, scenario.conn, at, None):
            if not value.vertical.is_zero():
                return _ok(_pair_witness(trial, pair, at), finding=True)
    return _fail("no witness", {"trials": scenario.count("fibre_params", 20)})


def _check_mu_kernel(scenario, hooks: Mapping) -> CheckResult:
    report = mu_forced_zero_check(scenario.n)
    if report.kernel_dim != 0:
        return _fail(report.kernel_dim, {"rank": report.rank})
    # the system has one structure, so its kernel is the single-structure one
    return _ok({"rank": report.rank, "unknowns": report.unknowns,
                "single_structure_kernel": report.kernel_dim})


def _adapted_cases(scenario, offset: int):
    """The adapted-point count and, drawn lazily from the seed plus `offset`,
    each trial's (trial, twistor point, Q1, Q4, V = S_02 - S_13) of an
    adapted sample."""
    rng = random.Random(scenario.seed + offset)
    count = scenario.count("adapted_points", 10)

    def cases():
        for trial in range(count):
            sample = sample_adapted_point(scenario.n, rng)
            s, q = sample.basis.generator, sample.basis.vectors
            yield trial, sample.at, q[0], q[3], s(0, 2) - s(1, 3)

    return count, cases()


def _check_mixed_witness(scenario, hooks: Mapping) -> CheckResult:
    count, cases = _adapted_cases(scenario, 12)
    for trial, at, q1, q4, v in cases:
        got = nijenhuis_mixed(2, at, q1, v)
        if got.horizontal != q4.scale(2) or got.horizontal.is_zero():
            return _fail("value differs from 2 Q4", {"trial": trial})
        if not nijenhuis_mixed(1, at, q1, v).is_zero():
            return _fail("alpha=1 value nonzero", {"trial": trial})
    return _ok({"adapted_points": count}, finding=True)


def _check_hybrid_witness(scenario, hooks: Mapping) -> CheckResult:
    count, cases = _adapted_cases(scenario, 13)
    for trial, at, q1, q4, v in cases:
        got = hybrid_nijenhuis_horizontal(at, q1, v)
        if got != q4 or got.is_zero():
            return _fail("value differs from Q4", {"trial": trial})
    return _ok({"adapted_points": count}, finding=True)


# each check of the suite by its name after "integrability/", as harness._SUITES
# lists it; the n-specific names of the older presets key the same bodies
CHECKS: dict[str, Callable[..., CheckResult]] = {
    "n1-structure1-vanishes": _check_n1_vanishing,
    "flat-structure1-vanishes": _check_flat_vanishing,
    "curved-witness": _check_curved_witness,
    "n2-flat-structure1-vanishes": _check_flat_vanishing,
    "n3-flat-structure1-vanishes": _check_flat_vanishing,
    "n2-curved-witness": _check_curved_witness,
    "curvature-form-kernel": _check_mu_kernel,
    "mixed-witness": _check_mixed_witness,
    "hybrid-witness": _check_hybrid_witness,
}
