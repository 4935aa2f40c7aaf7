"""Scenario-driven verification suites with machine-readable reports.

A scenario bundles a chart dimension, a torsion-free connection, a seed,
sample counts and a list of named checks.  A check is named once, in a
registry that pairs it with what it asks of its scenario (an n, a flat
or a curved connection) and with the sample count it reads; the
`Scenario` constructor, and so both `load_scenario` and a scenario built
directly, rejects a scenario that schedules a check it cannot run or
twice, or sets a sample count that no scheduled check reads.  `CHECKS`
maps each name to a plain (scenario, hooks) -> CheckResult function,
and `run_scenario` stamps every result with the key it ran under.  Each
integrability claim has one check that reads `scenario.n`; the
n-specific names that older presets schedule are the same checks,
registered for their n only.  Every check runs, and reports its
residual, in exact arithmetic, and every probe-pair scan, the curved
witness among them, goes through one per-point Nijenhuis table.  A
report is a deterministic function of (scenario, seed): two runs emit
byte-identical JSON.  Wall-clock timings appear in the text rendering
only, precisely so the JSON stays reproducible.

Each run compiles the sources it imports, so the `courant` and `oracle`
suites import their layers in their checks' bodies, and a `Scenario` loads
the layer of each such suite it schedules.
"""

from __future__ import annotations

import importlib
import json
import random
import time
from fractions import Fraction
from functools import reduce
from typing import Callable, Mapping, Sequence

from . import exactmat as xm
from .gclinalg import (
    Endo,
    GElement,
    b_transform,
    basis_covector,
    basis_vector,
    beta_transform,
    coordinate_elements,
    dim2_basis_orientation,
    exp_two_form,
    exp_two_vector,
    from_complex,
    from_symplectic,
    gelem,
    gl_action,
    gl_endo,
    hyperboloid_chart,
    hyperboloid_point,
    is_pairing_orthogonal,
    neutral_pairing,
    projection_nondegeneracy_check,
    random_orthonormal_basis,
    reference_basis,
    skew_decompose,
    skew_frames,
    standard_complex_matrix,
    standard_symplectic_matrix,
    vertical_space_basis,
    zero_endo,
)
from .poly import Poly, chart_point, scalar_to_str
from .twistor import (
    Connection,
    TwistorPoint,
    connection_from_json,
    fibre_chart_samples,
    flat_connection,
    hybrid_nijenhuis_horizontal,
    mu_forced_zero_check,
    nijenhuis_closed_form_table,
    nijenhuis_mixed,
    random_chart_point,
    random_invertible_matrix,
    random_skew_matrix,
    sample_adapted_point,
    sample_fibre_structure,
    tangent_from_parts,
)
from .value import Value


class ScenarioError(ValueError):
    """The scenario is malformed (unknown check, bad connection, a mode other
    than "exact") or schedules a check it cannot run."""


class Scenario(Value):
    """What `run_scenario` runs.  The constructor rejects, with ScenarioError,
    a scenario whose checks cannot run: a bad name, n, seed or samples, a
    connection for another n, an empty check list, an unknown check, a
    check scheduled twice, a check whose registry requirements (an n, a
    flat or a curved connection) it does not meet, or a sample count that
    no scheduled check reads.  It imports the `courant` and `oracle` layers
    of the suites it schedules, so their checks' timings hold no import."""

    __slots__ = ("name", "n", "conn", "seed", "samples", "checks")

    def __init__(self, name: str, n: int, conn: Connection, seed: int,
                 samples: Mapping[str, object], checks: tuple[str, ...]):
        if type(name) is not str:
            raise ScenarioError(f"malformed scenario: the name must be a string, got {name!r}")
        if type(n) is not int or n < 1:
            raise ScenarioError(f"malformed scenario: n must be an integer >= 1, got {n!r}")
        if conn.n != n:
            raise ScenarioError(f"the connection is for n = {conn.n}, not {n}")
        if type(seed) is not int:
            raise ScenarioError(f"malformed scenario: the seed must be an integer, got {seed!r}")
        if any(type(c) is not str for c in checks):
            raise ScenarioError(f"checks must be a list of check names, got {checks!r}")
        if not checks:
            raise ScenarioError("malformed scenario: the check list is empty")
        unknown = [c for c in checks if c not in _REGISTRY]
        if unknown:
            raise ScenarioError(f"unknown checks: {unknown}")
        twice = sorted({c for c in checks if checks.count(c) > 1})
        if twice:
            raise ScenarioError(f"checks scheduled more than once: {twice}")
        for check in checks:
            needs = _REGISTRY[check][1]
            lacking = needs and needs(n, conn)
            if lacking:
                raise ScenarioError(f"check {check} needs {lacking}")
        _validate_samples(samples, {_REGISTRY[check][2] for check in checks} - {None})
        for layer in ("courant", "oracle"):
            if any(check.startswith(layer + "/") for check in checks):
                importlib.import_module(f"{__package__}.{layer}")
        self.name = name
        self.n = n
        self.conn = conn
        self.seed = seed
        self.samples = dict(samples)
        self.checks = checks

    def count(self, key: str, default: int) -> int:
        return int(self.samples.get(key, default))


class CheckResult(Value):
    """One check's outcome.  `name` is the CHECKS key, stamped by
    `run_scenario`; `status` is "pass", "fail" or "finding"."""

    __slots__ = ("name", "status", "residual", "witness")

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "finding")


class Report(Value):
    __slots__ = ("scenario", "seed", "results", "timings")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": "exact",
            "ok": self.ok,
            "results": [
                {"name": r.name, "status": r.status, "residual": r.residual,
                 "witness": r.witness}
                for r in self.results
            ],
        }


def _ok(witness: dict | None = None, finding: bool = False) -> CheckResult:
    return CheckResult("", "finding" if finding else "pass", "0", witness)


def _fail(residual, witness: dict | None = None) -> CheckResult:
    text = scalar_to_str(residual) if isinstance(residual, Fraction) else str(residual)
    return CheckResult("", "fail", text, witness)


def _element_witness(g: GElement) -> dict:
    return {"vec": [scalar_to_str(c) for c in g.vec],
            "cov": [scalar_to_str(c) for c in g.cov]}


def _first_nonzero(g: GElement) -> Fraction:
    return next((c for c in g.coords if c != 0), Fraction(0))


# ---------------------------------------------------------------------------
# linear-algebra suite


def _check_pairing_examples(scenario: Scenario, hooks: Mapping) -> CheckResult:
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


def _check_projection(scenario: Scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed)
    for n in (1, 2):
        for trial in range(scenario.count("base_points", 25)):
            basis = random_orthonormal_basis(n, rng)
            report = projection_nondegeneracy_check(basis)
            if not report.ok or report.det_p == 0:
                return _fail(report.det_p, {"n": n, "trial": trial})
    return _ok()


def _check_dim2_orientation(scenario: Scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 1)
    for trial in range(scenario.count("base_points", 100)):
        basis = random_orthonormal_basis(1, rng)
        report = dim2_basis_orientation(basis)
        if not report.orthogonal:
            return _fail("A not orthogonal", {"trial": trial})
        if report.transition_det != 4 * xm.det(report.a):
            return _fail(report.transition_det, {"trial": trial})
    return _ok()


def _check_orientation_parity(scenario: Scenario, hooks: Mapping) -> CheckResult:
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


def _check_skew_frame_relations(scenario: Scenario, hooks: Mapping) -> CheckResult:
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


def _check_frame_roundtrip(scenario: Scenario, hooks: Mapping) -> CheckResult:
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


def _check_transform_isometries(scenario: Scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 4)
    probes = coordinate_elements(2)
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


def _check_hyperboloid_chart(scenario: Scenario, hooks: Mapping) -> CheckResult:
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


# ---------------------------------------------------------------------------
# courant suite


def _check_bracket_examples(scenario: Scenario, hooks: Mapping) -> CheckResult:
    from .courant import courant_bracket, lie_bracket, section_from_coefficients
    m = 2
    x1 = Poly.variable(m, 0)
    x2 = Poly.variable(m, 1)
    one = Poly.constant(m, 1)
    zero = Poly.constant(m, 0)
    p = chart_point([Fraction(1, 3), Fraction(2, 7)])
    xs = section_from_coefficients(m, [x2, zero, zero, zero])
    ys = section_from_coefficients(m, [zero, one, zero, zero])
    if lie_bracket(xs, ys, p) != (Fraction(-1), Fraction(0)):
        return _fail("lie", {"case": "[x2 d1, d2]"})
    a = section_from_coefficients(m, [zero, zero, zero, x1])
    b = section_from_coefficients(m, [one, zero, zero, zero])
    got = courant_bracket(a, b, p)
    if got != gelem([0, 0], [0, -1]):
        return _fail("courant", {"case": "(0, x1 dx2) with (d1, 0)"})
    if not courant_bracket(a, a, p).is_zero():
        return _fail("courant", {"case": "[A, A]"})
    return _ok()


def _check_nijenhuis_antisymmetry(scenario: Scenario, hooks: Mapping) -> CheckResult:
    from .courant import constant_field, nijenhuis, section_from_coefficients
    rng = random.Random(scenario.seed + 6)
    m = 2
    field = constant_field(from_complex(standard_complex_matrix(1)).j)

    def rand_poly():
        return Poly.from_dict(m, {(rng.randint(0, 2), rng.randint(0, 2)):
                                  Fraction(rng.randint(-3, 3)) for _ in range(2)})

    for trial in range(5):
        a = section_from_coefficients(m, [rand_poly() for _ in range(4)])
        b = section_from_coefficients(m, [rand_poly() for _ in range(4)])
        p = chart_point([Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3)])
        if not (nijenhuis(field, a, b, p) + nijenhuis(field, b, a, p)).is_zero():
            return _fail("antisymmetry", {"trial": trial})
    return _ok()


def _check_constant_structure(scenario: Scenario, hooks: Mapping) -> CheckResult:
    from .courant import constant_field, default_probes, integrability_scan
    rng = random.Random(scenario.seed + 7)
    field = constant_field(from_complex(standard_complex_matrix(1)).j)
    points = [random_chart_point(2, rng) for _ in range(5)]
    witness = integrability_scan(field, points, default_probes(2))
    if witness is not None:
        return _fail("nonzero residual",
                     {"point": [scalar_to_str(c) for c in witness[0].coords]})
    return _ok()


def _check_b_automorphism(scenario: Scenario, hooks: Mapping) -> CheckResult:
    from .courant import b_automorphism_defect, section_from_coefficients, two_form_field
    rng = random.Random(scenario.seed + 8)
    m = 4
    zero = Poly.constant(m, 0)
    one = Poly.constant(m, 1)
    x1 = Poly.variable(m, 0)
    x2 = Poly.variable(m, 1)

    def skew_entries(fill):
        entries = [[zero] * m for _ in range(m)]
        for (i, j), val in fill.items():
            entries[i][j] = val
            entries[j][i] = -val
        return entries

    def rand_section():
        comps = []
        for _ in range(2 * m):
            comps.append(Poly.from_dict(m, {tuple(rng.randint(0, 1) for _ in range(m)):
                                            Fraction(rng.randint(-3, 3)) for _ in range(2)}))
        return section_from_coefficients(m, comps)

    points = [chart_point([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)])
              for _ in range(10)]
    closed_fields = [two_form_field(m, skew_entries({(0, 1): one})),
                     two_form_field(m, skew_entries({(0, 1): x1}))]
    a, c = rand_section(), rand_section()
    for idx, bf in enumerate(closed_fields):
        for p in points:
            defect = b_automorphism_defect(bf, a, c, p)
            if not defect.is_zero():
                return _fail(_first_nonzero(defect),
                             {"field": idx, "point": [scalar_to_str(x) for x in p.coords]})
    open_field = two_form_field(m, skew_entries({(0, 2): x2}))
    for p in points:
        for _ in range(4):
            a2, c2 = rand_section(), rand_section()
            defect = b_automorphism_defect(open_field, a2, c2, p)
            if not defect.is_zero():
                witness = {"point": [scalar_to_str(x) for x in p.coords],
                           "defect": _element_witness(defect)}
                return _ok(witness, finding=True)
    return _fail("no witness", {"reason": "non-closed form gave zero defect"})


# ---------------------------------------------------------------------------
# integrability suite


def _probe_set(n: int, basis: Sequence[Endo] | None, spec: str):
    """'full': horizontal, vertical and coform probes; 'horizontal': the
    coordinate elements only (they already span H + H*)."""
    probes = [tangent_from_parts(n, horizontal=h) for h in coordinate_elements(2 * n)]
    if spec == "full":
        probes += [tangent_from_parts(n, vertical=u) for u in basis]
        probes += [tangent_from_parts(n, vertical_coform=u) for u in basis]
    return probes


def _scan_closed_form(alpha: int, conn: Connection, at: TwistorPoint,
                      spec: str = "full"):
    """Yield (probe pair, value) over the probe set at one twistor point.
    The vertical basis is built only for the 'full' probe set, the one
    that contains it."""
    basis = vertical_space_basis(at.structure) if spec == "full" else None
    probes = _probe_set(at.n, basis, spec)
    yield from nijenhuis_closed_form_table(alpha, conn, at, probes).items()


def _check_n1_vanishing(scenario: Scenario, hooks: Mapping) -> CheckResult:
    rng = random.Random(scenario.seed + 9)
    count = scenario.count("base_points", 50)
    basis = reference_basis(1)
    for u, v, sheet in fibre_chart_samples(rng, count):
        structure = hyperboloid_point(u, v, sheet, basis)
        at = TwistorPoint(random_chart_point(2, rng), structure)
        for (i, k), value in _scan_closed_form(1, scenario.conn, at):
            if not value.is_zero():
                witness = {"fibre": [scalar_to_str(u), scalar_to_str(v)], "sheet": sheet,
                           "probe_pair": [i, k]}
                return _fail("nonzero", witness)
    return _ok({"points": count, "sheets": "both"})


def _fibre_points(scenario: Scenario, offset: int):
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


def _check_flat_vanishing(scenario: Scenario, hooks: Mapping) -> CheckResult:
    """Structure 1 has zero closed-form Nijenhuis value on every probe pair
    at sampled fibre points over a flat chart of dimension 2n >= 4."""
    for trial, at in _fibre_points(scenario, 10):
        for pair, value in _scan_closed_form(1, scenario.conn, at):
            if not value.is_zero():
                return _fail("nonzero", _pair_witness(trial, pair, at))
    return _ok({"fibre_samples": scenario.count("fibre_params", 20)})


def _check_curved_witness(scenario: Scenario, hooks: Mapping) -> CheckResult:
    """Structure 1 has a nonzero vertical closed-form Nijenhuis value on a
    horizontal probe pair over a curved chart of dimension 2n >= 4."""
    for trial, at in _fibre_points(scenario, 11):
        for pair, value in _scan_closed_form(1, scenario.conn, at, "horizontal"):
            if not value.vertical.is_zero():
                return _ok(_pair_witness(trial, pair, at), finding=True)
    return _fail("no witness", {"trials": scenario.count("fibre_params", 20)})


def _check_mu_kernel(scenario: Scenario, hooks: Mapping) -> CheckResult:
    report = mu_forced_zero_check(scenario.n)
    if report.kernel_dim != 0:
        return _fail(report.kernel_dim, {"rank": report.rank})
    # the system has one structure, so its kernel is the single-structure one
    return _ok({"rank": report.rank, "unknowns": report.unknowns,
                "single_structure_kernel": report.kernel_dim})


def _adapted_cases(scenario: Scenario, offset: int):
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


def _check_mixed_witness(scenario: Scenario, hooks: Mapping) -> CheckResult:
    count, cases = _adapted_cases(scenario, 12)
    for trial, at, q1, q4, v in cases:
        got = nijenhuis_mixed(2, at, q1, v)
        if got.horizontal != q4.scale(2) or got.horizontal.is_zero():
            return _fail("value differs from 2 Q4", {"trial": trial})
        if not nijenhuis_mixed(1, at, q1, v).is_zero():
            return _fail("alpha=1 value nonzero", {"trial": trial})
    return _ok({"adapted_points": count}, finding=True)


def _check_hybrid_witness(scenario: Scenario, hooks: Mapping) -> CheckResult:
    count, cases = _adapted_cases(scenario, 13)
    for trial, at, q1, q4, v in cases:
        got = hybrid_nijenhuis_horizontal(at, q1, v)
        if got != q4 or got.is_zero():
            return _fail("value differs from Q4", {"trial": trial})
    return _ok({"adapted_points": count}, finding=True)


# ---------------------------------------------------------------------------
# oracle suite


def _oracle_cached(scenario: Scenario, hooks: dict):
    results = hooks.get("_oracle_cache")
    if results is None:
        from .oracle import oracle_compare_nijenhuis, seeded_oracle_samples
        samples = seeded_oracle_samples(scenario.count("fibre_params", 10),
                                        scenario.seed + 14)
        results = oracle_compare_nijenhuis(scenario.conn, samples,
                                           perturb=hooks.get("perturb_closed_form"))
        hooks["_oracle_cache"] = results
    return results


def _check_oracle_equality(scenario: Scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.all_equal:
            witness = {"fibre": [scalar_to_str(c) for c in r.sample.fibre],
                       "sheet": r.sample.sheet, "alpha": r.alpha,
                       "probe_pair": list(r.mismatch) if r.mismatch else None}
            return _fail("mismatch", witness)
    pairs = sum(r.pairs for r in results)
    return _ok({"samples": len(results) // 2, "pairs": pairs})


def _check_oracle_direct_zero(scenario: Scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if r.alpha == 1 and not r.direct_all_zero:
            return _fail("nonzero", {"sheet": r.sample.sheet})
        if r.alpha == 2 and r.direct_all_zero:
            return _fail("alpha=2 unexpectedly zero", {"sheet": r.sample.sheet})
    return _ok()


def _check_oracle_lift_bracket(scenario: Scenario, hooks: Mapping) -> CheckResult:
    from .oracle import lift_bracket_curvature_check
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


def _check_oracle_vertical_bracket(scenario: Scenario, hooks: Mapping) -> CheckResult:
    results = _oracle_cached(scenario, hooks)
    for r in results:
        if not r.vertical_bracket_ok:
            return _fail("nonzero residual", {"sheet": r.sample.sheet})
    return _ok()


def _needs(n: int | None = None, at_least: int = 1, connection: str | None = None):
    """What a check asks of its scenario: n equal to `n`, or at least
    `at_least`, and a "flat" or "curved" connection when `connection` says
    which.  Returns a function of (n, connection) that names what the
    scenario lacks, or returns None."""
    def lacks(scenario_n: int, conn: Connection) -> str | None:
        if n is not None and scenario_n != n:
            return f"n = {n}, not {scenario_n}"
        if scenario_n < at_least:
            return f"n >= {at_least}, not {scenario_n}"
        if connection is not None and (connection == "flat") != conn.is_flat:
            return f"a {connection} connection"
        return None
    return lacks


# name -> (check, what it asks of the scenario or None, the sample count it
# reads or None); the `Scenario` constructor rejects a scenario that
# schedules a check it cannot run, or sets a sample count no check reads
_REGISTRY: dict[str, tuple[Callable, Callable | None, str | None]] = {
    "linalg/pairing-examples": (_check_pairing_examples, _needs(n=1), None),
    "linalg/projection-nondegeneracy": (_check_projection, _needs(n=1), "base_points"),
    "linalg/dim2-orientation": (_check_dim2_orientation, _needs(n=1), "base_points"),
    "linalg/orientation-parity": (_check_orientation_parity, _needs(n=1), None),
    "linalg/skew-frame-relations": (_check_skew_frame_relations, _needs(n=1), None),
    "linalg/frame-decomposition-roundtrip": (_check_frame_roundtrip, _needs(n=1), None),
    "linalg/transform-isometries": (_check_transform_isometries, _needs(n=1), None),
    "linalg/hyperboloid-chart": (_check_hyperboloid_chart, _needs(n=1), None),
    "courant/bracket-examples": (_check_bracket_examples, _needs(n=1), None),
    "courant/nijenhuis-antisymmetry": (_check_nijenhuis_antisymmetry, _needs(n=1), None),
    "courant/constant-structure-integrable": (_check_constant_structure, _needs(n=1), None),
    "courant/b-transform-automorphism": (_check_b_automorphism, _needs(n=1), None),
    "integrability/n1-structure1-vanishes": (_check_n1_vanishing, _needs(n=1), "base_points"),
    "integrability/flat-structure1-vanishes":
        (_check_flat_vanishing, _needs(at_least=2, connection="flat"), "fibre_params"),
    "integrability/curved-witness":
        (_check_curved_witness, _needs(at_least=2, connection="curved"), "fibre_params"),
    # names the n = 2 and n = 3 presets schedule, kept so their reports stay the same
    "integrability/n2-flat-structure1-vanishes":
        (_check_flat_vanishing, _needs(n=2, connection="flat"), "fibre_params"),
    "integrability/n3-flat-structure1-vanishes":
        (_check_flat_vanishing, _needs(n=3, connection="flat"), "fibre_params"),
    "integrability/n2-curved-witness":
        (_check_curved_witness, _needs(n=2, connection="curved"), "fibre_params"),
    "integrability/curvature-form-kernel": (_check_mu_kernel, _needs(at_least=2), None),
    "integrability/mixed-witness": (_check_mixed_witness, None, "adapted_points"),
    "integrability/hybrid-witness": (_check_hybrid_witness, None, "adapted_points"),
    "oracle/closed-form-equality": (_check_oracle_equality, _needs(n=1), "fibre_params"),
    "oracle/structure1-direct-zero": (_check_oracle_direct_zero, _needs(n=1), "fibre_params"),
    "oracle/lift-bracket-identity": (_check_oracle_lift_bracket, _needs(n=1), "fibre_params"),
    "oracle/vertical-bracket-identity":
        (_check_oracle_vertical_bracket, _needs(n=1), "fibre_params"),
}

CHECKS: dict[str, Callable[[Scenario, dict], CheckResult]] = {
    name: check for name, (check, _, _) in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# scenarios, presets, runners


def _gamma_x1_json(n: int) -> dict:
    exps = [0] * (2 * n)
    exps[0] = 1
    return {"1,2,2": [{"exponents": exps, "coeff": "1"}]}


PRESETS: dict[str, dict] = {
    "linalg-all": {
        "n": 1, "connection": {"gamma": {}}, "seed": 1201,
        "samples": {"base_points": 100},
        "checks": ["linalg/pairing-examples", "linalg/projection-nondegeneracy",
                   "linalg/dim2-orientation", "linalg/orientation-parity",
                   "linalg/skew-frame-relations", "linalg/frame-decomposition-roundtrip",
                   "linalg/transform-isometries", "linalg/hyperboloid-chart"],
    },
    "examples-courant": {
        "n": 1, "connection": {"gamma": {}}, "seed": 1202,
        "samples": {},
        "checks": ["courant/bracket-examples", "courant/nijenhuis-antisymmetry",
                   "courant/constant-structure-integrable",
                   "courant/b-transform-automorphism"],
    },
    "thm1-n1": {
        "n": 1, "connection": {"gamma": _gamma_x1_json(1)}, "seed": 1203,
        "samples": {"base_points": 50, "adapted_points": 10},
        "checks": ["integrability/n1-structure1-vanishes", "integrability/mixed-witness",
                   "integrability/hybrid-witness"],
    },
    "thm1-n2-flat": {
        "n": 2, "connection": {"gamma": {}}, "seed": 1204,
        "samples": {"fibre_params": 20, "adapted_points": 5},
        "checks": ["integrability/n2-flat-structure1-vanishes", "integrability/mixed-witness"],
    },
    "thm1-n3-flat": {
        "n": 3, "connection": {"gamma": {}}, "seed": 1207,
        "samples": {"fibre_params": 6, "adapted_points": 4},
        "checks": ["integrability/n3-flat-structure1-vanishes",
                   "integrability/curvature-form-kernel", "integrability/mixed-witness"],
    },
    "thm1-n2-curved": {
        "n": 2, "connection": {"gamma": _gamma_x1_json(2)}, "seed": 1205,
        "samples": {"fibre_params": 20, "adapted_points": 5},
        "checks": ["integrability/n2-curved-witness", "integrability/curvature-form-kernel",
                   "integrability/mixed-witness"],
    },
    "thm1-n4-flat": {
        "n": 4, "connection": {"gamma": {}}, "seed": 1208,
        "samples": {"fibre_params": 4, "adapted_points": 2},
        "checks": ["integrability/flat-structure1-vanishes",
                   "integrability/curvature-form-kernel", "integrability/mixed-witness"],
    },
    "thm1-n4-curved": {
        "n": 4, "connection": {"gamma": _gamma_x1_json(4)}, "seed": 1209,
        "samples": {"fibre_params": 4, "adapted_points": 2},
        "checks": ["integrability/curved-witness", "integrability/curvature-form-kernel",
                   "integrability/mixed-witness"],
    },
    "oracle-n1": {
        "n": 1, "connection": {"gamma": _gamma_x1_json(1)}, "seed": 1206,
        "samples": {"fibre_params": 10},
        "checks": ["oracle/closed-form-equality", "oracle/structure1-direct-zero",
                   "oracle/lift-bracket-identity", "oracle/vertical-bracket-identity"],
    },
}


SCENARIO_KEYS = ("name", "n", "connection", "mode", "seed", "samples", "checks")


def _validate_samples(samples: Mapping[str, object], read: set[str]) -> None:
    """The samples map sample counts that a scheduled check reads to ints
    >= 1, so no check runs over zero samples or a mistyped value, and no
    count is ignored."""
    if not isinstance(samples, Mapping):
        raise ScenarioError(f"malformed scenario: samples must be an object, got {samples!r}")
    for key, value in samples.items():
        if not (key in read and type(value) is int and value >= 1):
            raise ScenarioError(f"bad sample {key}={value!r}: the scheduled checks read "
                                f"{', '.join(sorted(read)) or 'no sample count'}, "
                                f"each an integer >= 1")


def _reject_unknown_keys(data: Mapping, keys: Sequence[str], what: str) -> None:
    """A misspelt key would otherwise leave its field at the default."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; a {what} has only {', '.join(keys)}")


def load_scenario(source: str | Mapping, name: str | None = None,
                  seed: int | None = None) -> Scenario:
    """Build a scenario from a preset name, a JSON file path, or a mapping.
    A "mode" key, if present, must be "exact", the only mode there is."""
    if isinstance(source, str):
        if source in PRESETS:
            data = PRESETS[source]
            name = name or source
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"cannot load scenario {source!r}: {exc}") from exc
            if not isinstance(data, dict):
                raise ScenarioError(f"malformed scenario: a scenario file holds a JSON object, "
                                    f"got {data!r}")
            name = name or data.get("name", source)
    else:
        data = dict(source)
        name = name or data.get("name", "scenario")
    try:
        _reject_unknown_keys(data, SCENARIO_KEYS, "scenario")
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        conn_data = data.get("connection", {})
        gamma = conn_data.get("gamma", {}) if isinstance(conn_data, Mapping) else None
        if not isinstance(gamma, Mapping):
            raise ValueError(f"the connection must be an object whose gamma is an object, "
                             f"got {conn_data!r}")
        _reject_unknown_keys(conn_data, ("gamma",), "connection")
        conn = connection_from_json(n, gamma) if gamma else flat_connection(n)
        mode = data.get("mode", "exact")
        if mode != "exact":
            raise ValueError(f"unknown mode {mode!r}; every check runs and reports "
                             "in exact arithmetic, so the only mode is 'exact'")
        effective_seed = seed if seed is not None else data.get("seed", 0)
        samples = data.get("samples", {})
        checks = data.get("checks", ())
        if not isinstance(checks, (list, tuple)):
            raise ValueError(f"checks must be a list of check names, got {checks!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    return Scenario(name, n, conn, effective_seed, samples, tuple(checks))


def run_scenario(scenario: Scenario, hooks: Mapping | None = None) -> Report:
    """Run every scheduled check once, in order, returning the report."""
    hook_state = dict(hooks or {})
    results = []
    timings = []
    for check_name in scenario.checks:
        started = time.perf_counter()
        result = CHECKS[check_name](scenario, hook_state)
        results.append(CheckResult(check_name, result.status, result.residual, result.witness))
        timings.append((check_name, time.perf_counter() - started))
    return Report(scenario.name, scenario.seed, tuple(results), tuple(timings))


def emit_report(report: Report, fmt: str = "json", path: str | None = None) -> str:
    """Render a report; JSON is canonical (sorted keys) and timing-free."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "text":
        lines = [f"scenario {report.scenario}  seed {report.seed}  mode exact"]
        timing = dict(report.timings)
        for r in report.results:
            mark = {"pass": "PASS", "finding": "FIND", "fail": "FAIL"}[r.status]
            extra = "" if r.status == "finding" else f"  residual {r.residual}"
            lines.append(f"[{mark}] {r.name}{extra}  ({timing.get(r.name, 0.0):.2f}s)")
            if r.witness:
                lines.append(f"       witness: {json.dumps(r.witness, sort_keys=True)}")
        good = sum(1 for r in report.results if r.ok)
        lines.append(f"{good}/{len(report.results)} checks satisfied; "
                     + ("OK" if report.ok else "FAILED"))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
