"""Acceptance suite: every criterion runs at its stated tolerance.

All tolerances are literally zero -- the claims are algebraic identities
in exact rational arithmetic -- except the runtime bounds, which are
wall-clock.  Each criterion prints one pass/fail line; a criterion that
cannot print PASS fails its test.
"""

import json
import random
import time
from fractions import Fraction as F

from gctwistor import exactmat as xm
from gctwistor.courant import b_automorphism_defect, section_from_coefficients, two_form_field
from gctwistor.gclinalg import (
    Endo,
    coordinate_elements,
    dim2_basis_orientation,
    from_complex,
    from_symplectic,
    hyperboloid_point,
    random_orthonormal_basis,
    reference_basis,
    skew_frames,
    standard_complex_matrix,
    standard_symplectic_matrix,
    vertical_space_basis,
)
from gctwistor.harness import (
    _probe_set,
    emit_report,
    load_scenario,
    run_scenario,
)
from gctwistor.oracle import oracle_compare_nijenhuis, seeded_oracle_samples
from gctwistor.poly import Poly, chart_point
from gctwistor.twistor import (
    TwistorPoint,
    connection,
    fibre_chart_samples,
    flat_connection,
    hybrid_nijenhuis_horizontal,
    mu_forced_zero_check,
    nijenhuis_closed_form_table,
    nijenhuis_horizontal,
    nijenhuis_mixed,
    random_chart_point,
    sample_adapted_point,
    sample_fibre_structure,
    validate_tangent,
)


def identity_endo(dim: int) -> Endo:
    return Endo(dim, xm.identity(dim))


def _report(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_dim2_orientation_suite():
    started = time.perf_counter()
    ok = True
    for seed in range(100):
        report = dim2_basis_orientation(random_orthonormal_basis(1, seed))
        ok = ok and report.orthogonal
        ok = ok and report.transition_det == 4 * xm.det(report.a)
    elapsed = time.perf_counter() - started
    _report("dim2 orientation over 100 seeded bases, transition = 4 det A",
            ok and elapsed < 1.0)


def test_orientation_parity():
    ok = True
    for n in range(1, 5):
        ok = ok and from_complex(standard_complex_matrix(n)).orientation() == 1
        expected = 1 if n % 2 == 0 else -1
        ok = ok and from_symplectic(standard_symplectic_matrix(n)).orientation() == expected
    _report("complex-type orientation +1 and symplectic-type parity, n = 1..4", ok)


def test_skew_frame_relation_table():
    ok = True
    minus_id = identity_endo(4).scale(-1)
    ident = identity_endo(4)
    for seed in range(10):
        frames = skew_frames(random_orthonormal_basis(1, seed))
        left, right = frames.left, frames.right
        checked = 0
        for triple in (left, right):
            squares = (minus_id, ident, ident)
            for r in range(3):
                ok = ok and triple[r].compose(triple[r]) == squares[r]
                checked += 1
            for r in range(3):
                for s in range(r + 1, 3):
                    ok = ok and (triple[r].compose(triple[s])
                                 + triple[s].compose(triple[r])).is_zero()
                    checked += 1
        for r in range(3):
            for s in range(3):
                ok = ok and left[r].compose(right[s]) == right[s].compose(left[r])
                checked += 1
        ok = ok and checked == 21
    _report("all 21 frame relations exact for 10 seeded bases", ok)


def test_bracket_automorphism_iff_closed():
    m = 4
    zero = Poly.constant(m, 0)
    one = Poly.constant(m, 1)
    x1 = Poly.variable(m, 0)
    x2 = Poly.variable(m, 1)

    def skew(fill):
        entries = [[zero] * m for _ in range(m)]
        for (i, j), val in fill.items():
            entries[i][j] = val
            entries[j][i] = -val
        return two_form_field(m, entries)

    rng = random.Random(2201)

    def rand_section():
        comps = [Poly.from_dict(m, {tuple(rng.randint(0, 1) for _ in range(m)):
                                    F(rng.randint(-3, 3)) for _ in range(2)})
                 for _ in range(2 * m)]
        return section_from_coefficients(m, comps)

    points = [chart_point([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)])
              for _ in range(10)]
    a, c = rand_section(), rand_section()
    ok = True
    for bf in (skew({(0, 1): one}), skew({(0, 1): x1})):
        for p in points:
            ok = ok and b_automorphism_defect(bf, a, c, p).is_zero()
    witness = False
    open_form = skew({(0, 2): x2})
    for p in points:
        if not b_automorphism_defect(open_form, rand_section(), rand_section(), p).is_zero():
            witness = True
            break
    _report("transform defect zero for two closed forms at 10 points, "
            "nonzero witness for a non-closed form", ok and witness)


def _full_probes(at):
    probes = _probe_set(at.n, vertical_space_basis(at.structure), "full")
    for t in probes:
        validate_tangent(t, at)
    return probes


def test_n1_structure1_integrable():
    started = time.perf_counter()
    conn = connection(1, {(0, 1, 1): Poly.variable(2, 0)})
    rng = random.Random(2301)
    basis_ref = reference_basis(1)
    ok = True
    sheets = set()
    for u, v, sheet in fibre_chart_samples(rng, 50):
        sheets.add(sheet)
        at = TwistorPoint(random_chart_point(2, rng),
                          hyperboloid_point(u, v, sheet, basis_ref))
        probes = _full_probes(at)
        table = nijenhuis_closed_form_table(1, conn, at, probes)
        ok = ok and all(value.is_zero() for value in table.values())
    elapsed = time.perf_counter() - started
    _report("first structure, dim-2 base, curved connection: 50 points on "
            f"both sheets, all residuals zero in {elapsed:.1f}s (< 10s)",
            ok and sheets == {1, -1} and elapsed < 10.0)


def test_n2_flat_vanishes_curved_witnessed():
    rng = random.Random(2401)
    flat = flat_connection(2)
    ok = True
    for trial in range(20):
        structure = sample_fibre_structure(2, rng)
        at = TwistorPoint(random_chart_point(4, rng), structure)
        probes = _full_probes(at)
        table = nijenhuis_closed_form_table(1, flat, at, probes)
        ok = ok and all(value.is_zero() for value in table.values())
    curved = connection(2, {(0, 1, 1): Poly.variable(4, 0)})
    witness = False
    horizontals = coordinate_elements(4)
    for trial in range(20):
        structure = sample_fibre_structure(2, rng)
        at = TwistorPoint(random_chart_point(4, rng), structure)
        for i in range(len(horizontals)):
            for k in range(i + 1, len(horizontals)):
                if not nijenhuis_horizontal(1, curved, at, horizontals[i],
                                            horizontals[k]).is_zero():
                    witness = True
                    break
            if witness:
                break
        if witness:
            break
    kernel = mu_forced_zero_check(2).kernel_dim
    _report("first structure, dim-4 base: flat zero on 20 transform-word "
            "samples, curved witness found, curvature-form kernel 0",
            ok and witness and kernel == 0)


def test_n3_flat_preset():
    started = time.perf_counter()
    report = run_scenario(load_scenario("thm1-n3-flat"))
    elapsed = time.perf_counter() - started
    _report("first structure, dim-6 base, flat: preset thm1-n3-flat passes, "
            f"curvature-form kernel 0, in {elapsed:.1f}s (< 10s)",
            report.ok and elapsed < 10.0)


def test_n4_flat_preset():
    started = time.perf_counter()
    report = run_scenario(load_scenario("thm1-n4-flat"))
    elapsed = time.perf_counter() - started
    _report("first structure, dim-8 base, flat: preset thm1-n4-flat passes, "
            f"curvature-form kernel 0, in {elapsed:.1f}s (< 10s)",
            report.ok and elapsed < 10.0)


def test_n4_curved_preset():
    started = time.perf_counter()
    report = run_scenario(load_scenario("thm1-n4-curved"))
    elapsed = time.perf_counter() - started
    witness = report.results[0]
    _report("first structure, dim-8 base, curved: preset thm1-n4-curved finds a "
            f"nonzero witness, curvature-form kernel 0, in {elapsed:.1f}s (< 10s)",
            report.ok and witness.status == "finding" and elapsed < 10.0)


def test_second_structure_mixed_witness():
    rng = random.Random(2501)
    ok = True
    for trial in range(10):
        sample = sample_adapted_point(1 if trial % 2 == 0 else 2, rng)
        v = sample.basis.generator(0, 2) - sample.basis.generator(1, 3)
        got = nijenhuis_mixed(2, sample.at, sample.basis.vectors[0], v)
        expected = sample.basis.vectors[3].scale(2)
        ok = ok and got.horizontal == expected and not got.horizontal.is_zero()
    _report("second structure mixed value equals 2 Q4 and is nonzero at every "
            "sampled point", ok)


def test_hybrid_structure_witness():
    rng = random.Random(2601)
    ok = True
    for trial in range(10):
        sample = sample_adapted_point(1, rng)
        v = sample.basis.generator(0, 2) - sample.basis.generator(1, 3)
        q1 = sample.basis.vectors[0]
        q4 = sample.basis.vectors[3]
        got = hybrid_nijenhuis_horizontal(sample.at, q1, v)
        ok = ok and got == q4 and not got.is_zero()
    _report("hybrid structures: horizontal mixed value equals Q4 at 10 points", ok)


def test_oracle_equivalence():
    started = time.perf_counter()
    conn = connection(1, {(0, 1, 1): Poly.variable(2, 0)})
    samples = seeded_oracle_samples(10, 2701)
    results = oracle_compare_nijenhuis(conn, samples)
    ok = all(r.all_equal for r in results)
    for r in results:
        ok = ok and r.lift_bracket_ok and r.vertical_bracket_ok
        if r.alpha == 1:
            ok = ok and r.direct_all_zero
    elapsed = time.perf_counter() - started
    _report("oracle: direct Courant computation equals the closed form on 10 "
            f"samples, both structures, bracket identities zero, {elapsed:.1f}s (< 60s)",
            ok and elapsed < 60.0)


def test_deterministic_reports():
    scenario = load_scenario("examples-courant")
    first = emit_report(run_scenario(scenario), "json")
    second = emit_report(run_scenario(scenario), "json")
    ok = first.encode() == second.encode()
    parsed = json.loads(first)
    ok = ok and parsed["seed"] == scenario.seed
    _report("byte-identical reports for identical scenario and seed", ok)
