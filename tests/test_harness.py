import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import gctwistor
from gctwistor.gclinalg import GElement, SkewFrames
from gctwistor.poly import scalar_to_str
from gctwistor.twistor import flat_connection, random_chart_point, sample_fibre_structure
from gctwistor.harness import (
    PRESETS,
    CheckResult,
    Report,
    Scenario,
    ScenarioError,
    emit_report,
    load_scenario,
    run_scenario,
)


def run_preset(name, seed=None, hooks=None):
    return run_scenario(load_scenario(name, seed=seed), hooks)


def test_presets_exist():
    assert set(PRESETS) == {"linalg-all", "examples-courant", "thm1-n1",
                            "thm1-n2-flat", "thm1-n3-flat", "thm1-n2-curved",
                            "thm1-n4-flat", "thm1-n4-curved", "oracle-n1"}


def test_linalg_suite_passes():
    report = run_preset("linalg-all", seed=7)
    assert report.ok
    assert len(report.results) == 8
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))  # every scheduled check appears once


def test_linalg_suite_detects_tampered_relation():
    # swapping the two generators with different squares falsifies the table
    # (note that merely negating a generator is a symmetry of the relations)
    def tamper(frames):
        left = (frames.left[1], frames.left[0], frames.left[2])
        return SkewFrames(left, frames.right)

    report = run_preset("linalg-all", seed=7, hooks={"tamper_frames": tamper})
    assert not report.ok
    bad = [r for r in report.results if r.status == "fail"]
    assert bad and bad[0].name == "linalg/skew-frame-relations"
    assert bad[0].witness is not None and "relation" in bad[0].witness


def test_courant_examples_pass_with_witness():
    report = run_preset("examples-courant", seed=3)
    assert report.ok
    by_name = {r.name: r for r in report.results}
    finding = by_name["courant/b-transform-automorphism"]
    assert finding.status == "finding"
    assert finding.witness is not None and "defect" in finding.witness


def test_oracle_suite_and_perturbation_hook():
    scenario = load_scenario("oracle-n1")
    scenario = load_scenario({**PRESETS["oracle-n1"], "samples": {"fibre_params": 2}},
                             name="oracle-small")
    report = run_scenario(scenario)
    assert report.ok

    def tamper(g):
        return GElement(g.dim_v, g.vec, tuple(c + 1 for c in g.cov))

    bad = run_scenario(scenario, {"perturb_closed_form": tamper})
    assert not bad.ok
    failed = {r.name for r in bad.results if r.status == "fail"}
    assert "oracle/closed-form-equality" in failed


def test_empty_check_list_rejected():
    # a report over no checks would pass vacuously
    for data in ({"n": 1, "mode": "exact", "seed": 5, "checks": []},
                 {"n": 1, "mode": "exact", "seed": 5}):
        with pytest.raises(ScenarioError, match="the check list is empty"):
            load_scenario(data)


def test_unknown_check_rejected():
    with pytest.raises(ScenarioError, match="unknown checks"):
        load_scenario({"n": 1, "seed": 0, "checks": ["no/such-check"]})


def test_bad_mode_rejected():
    # every check runs and reports in exact arithmetic; "exact" is the only mode
    for mode in ("approximate", "float"):
        with pytest.raises(ScenarioError, match=f"malformed scenario: unknown mode '{mode}'"):
            load_scenario({"n": 1, "seed": 0, "mode": mode,
                           "checks": ["linalg/pairing-examples"]})


@pytest.mark.parametrize("data, message", [
    ({"n": 1, "chekcs": ["linalg/pairing-examples"]}, r"unknown scenario keys \['chekcs'\]"),
    ({"n": 1, "checks": ["linalg/pairing-examples"], "connection": {}, "description": "x"},
     r"unknown scenario keys \['description'\]"),
    ({"n": 2, "connection": {"gama": {"1,2,2": [{"exponents": [1, 0, 0, 0], "coeff": "1"}]}},
      "checks": ["integrability/flat-structure1-vanishes"]},
     r"unknown connection keys \['gama'\]; a connection has only gamma"),
    ({"n": 2, "connection": {"gamma": {}, "torsion": {}},
      "checks": ["integrability/flat-structure1-vanishes"]},
     r"unknown connection keys \['torsion'\]"),
])
def test_unknown_keys_rejected(data, message):
    # a misspelt key must not fall back silently to a default
    with pytest.raises(ScenarioError, match=message):
        load_scenario(data)


def test_scenario_overrides():
    scenario = load_scenario("linalg-all", seed=99)
    assert scenario.seed == 99


def test_report_json_roundtrip(tmp_path):
    report = run_preset("linalg-all", seed=1)
    text = emit_report(report, "json", str(tmp_path / "r.json"))
    parsed = json.loads(text)
    assert parsed == report.to_json_dict()
    assert parsed == json.loads((tmp_path / "r.json").read_text())
    assert parsed["ok"] is True


def test_reports_byte_identical_for_same_seed():
    a = emit_report(run_preset("linalg-all", seed=11), "json")
    b = emit_report(run_preset("linalg-all", seed=11), "json")
    assert a.encode() == b.encode()


def test_text_report_counts():
    report = run_preset("examples-courant", seed=3)
    text = emit_report(report, "text")
    assert "4/4 checks satisfied; OK" in text
    # a finding is a nonzero witness: its line prints no residual
    finds = [line for line in text.splitlines() if line.startswith("[FIND]")]
    assert finds and not any("residual" in line for line in finds)
    assert "[PASS] courant/bracket-examples  residual 0  (" in text


def test_residuals_are_exact():
    from gctwistor.harness import _fail, _ok
    assert _fail(F(-3, 4)).residual == "-3/4"
    assert _fail("no witness").residual == "no witness"
    assert _ok().residual == "0"


def test_exact_mode_scenario_file_runs(tmp_path, capsys):
    # "mode": "exact" is still accepted, and every report carries it
    from gctwistor import cli
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n": 1, "mode": "exact", "checks": ["linalg/pairing-examples"]}))
    assert cli.main(["verify", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "exact"


def test_cli_rejects_mode_option():
    result = run_cli("linalg-all", "--mode", "float")
    assert result.returncode == 2 and result.stdout == ""
    assert "unrecognized arguments: --mode float" in result.stderr


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "scenario.json"
    data = dict(PRESETS["examples-courant"])
    path.write_text(json.dumps(data))
    scenario = load_scenario(str(path))
    report = run_scenario(scenario)
    assert report.ok


def run_child(*args, check=False):
    """A child interpreter with these arguments that imports the same
    gctwistor as the tests, also when only pytest's pythonpath has it."""
    package_root = os.path.dirname(os.path.dirname(gctwistor.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=check)


def run_cli(*args):
    """`python -m gctwistor verify ...` in a child interpreter."""
    return run_child("-m", "gctwistor", "verify", *args)


def test_cli_pass_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("examples-courant", "--format", "json", "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["scenario"] == "examples-courant"


def test_cli_invalid_input_exit_code():
    result = run_cli("missing-preset")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    # a check that fails on a scenario the CLI accepts gives exit code 1
    from gctwistor import cli, harness

    def failing(scenario, hooks):
        return CheckResult("", "fail", "1", None)

    monkeypatch.setitem(harness.CHECKS, "linalg/pairing-examples", failing)
    assert cli.main(["verify", "linalg-all", "--format", "text"]) == 1
    assert "[FAIL] linalg/pairing-examples" in capsys.readouterr().out


def test_cli_rejects_check_outside_its_setting(tmp_path):
    result = run_cli_on(tmp_path, {"n": 1, "mode": "exact", "seed": 0,
                                   "checks": ["integrability/n2-flat-structure1-vanishes"]})
    assert result.returncode == 2 and result.stdout == ""
    assert "needs n = 2, not 1" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("n, gamma, lacking", [
    (2, {}, "n = 3, not 2"),
    (3, {"1,2,2": [{"exponents": [1, 0, 0, 0, 0, 0], "coeff": "1"}]}, "a flat connection"),
])
def test_n3_flat_check_rejected_outside_its_setting(n, gamma, lacking):
    with pytest.raises(ScenarioError,
                       match=f"check integrability/n3-flat-structure1-vanishes needs {lacking}"):
        load_scenario({"n": n, "connection": {"gamma": gamma}, "samples": {"fibre_params": 1},
                       "checks": ["integrability/n3-flat-structure1-vanishes"]})


def run_cli_on(tmp_path, data, *args):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return run_cli(str(path), *args)


ZERO_GAMMAS = [{"1,1,1": [{"exponents": [0, 0, 0, 0], "coeff": "0"}]}, {"1,1,1": []}]
# Gamma^1_11 = 1 is not zero, but every term of its curvature needs a
# symbol with a lower index 2, so R = 0 everywhere: it is flat too
CONSTANT_GAMMA = {"1,1,1": [{"exponents": [0, 0, 0, 0], "coeff": "1"}]}


def with_samples(preset, **samples):
    return {**PRESETS[preset], "samples": {**PRESETS[preset]["samples"], **samples}}


@pytest.mark.parametrize("data", [
    {"n": 1, "connection": 5, "checks": ["linalg/pairing-examples"]},
    {"n": 1, "connection": {"gamma": [1]}, "checks": ["linalg/pairing-examples"]},
    {"n": 1, "checks": [["a"]]},
    {"n": 1, "checks": "linalg/pairing-examples"},
    {"n": 1, "checks": ["linalg/pairing-examples"],
     "connection": {"gamma": {"1,1,2": [{"exponents": [-1, 0], "coeff": "1"}]}}},
    {"n": 1, "checks": ["linalg/pairing-examples"],
     "connection": {"gamma": {"1,1,2": [{"exponents": [0.5, 0], "coeff": "1"}]}}},
    {"n": 1, "checks": ["linalg/pairing-examples"],
     "connection": {"gamma": {"1,1,2": [{"exponents": [1, 0], "coeff": 0.1}]}}},
    {"n": 1, "seed": 1.9, "checks": ["linalg/pairing-examples"]},
    {"n": 1, "seed": "12", "checks": ["linalg/pairing-examples"]},
    {"n": 1, "seed": True, "checks": ["linalg/pairing-examples"]},
    {"n": 1, "samples": [["base_points", 5]], "checks": ["linalg/pairing-examples"]},
    {"n": 1, "checks": ["linalg/pairing-examples"],
     "connection": {"gamma": {"1,1,2": [{"exponents": [1, 0], "coeff": "1/0"}]}}},
    # each of the next three would otherwise pass vacuously with exit 0
    {"n": 2, "connection": {"gama": {"1,2,2": [{"exponents": [1, 0, 0, 0], "coeff": "1"}]}},
     "samples": {"fibre_params": 1}, "checks": ["integrability/flat-structure1-vanishes"]},
    {"n": 1, "chekcs": ["linalg/pairing-examples"]},
    {"n": 1, "checks": []},
    {"name": 5, "n": 1, "checks": ["linalg/pairing-examples"]},
    {"name": None, "n": 1, "checks": ["linalg/pairing-examples"]},
    ["linalg/pairing-examples"],
    {"n": 1, "mode": "float", "checks": ["linalg/pairing-examples"]},
    # a gamma with zero curvature is flat, and two spellings of one key are
    # not both kept
    *[{"n": 2, "connection": {"gamma": gamma}, "samples": {"fibre_params": 1},
       "checks": ["integrability/curved-witness"]} for gamma in [*ZERO_GAMMAS, CONSTANT_GAMMA]],
    {"n": 2, "connection": {"gamma": {"1,1,1": [{"exponents": [1, 0, 0, 0], "coeff": "1"}],
                                      " 1,1,1": []}},
     "samples": {"fibre_params": 1}, "checks": ["integrability/flat-structure1-vanishes"]},
    # Christoffel input: torsion, an index out of range, a term without a
    # coefficient, a gamma that is an object, a term with an unknown key
    *[{"n": 1, "connection": {"gamma": gamma}, "checks": ["linalg/pairing-examples"]}
      for gamma in [{"1,1,2": [{"exponents": [1, 0], "coeff": "1"}],
                     "1,2,1": [{"exponents": [0, 1], "coeff": "1"}]},
                    {"0,1,1": [{"exponents": [1, 0], "coeff": "1"}]},
                    {"1,1,2": [{"exponents": [1, 0]}]},
                    {"1,1,2": {"exponents": [1, 0], "coeff": "1"}},
                    {"1,1,2": [{"exponents": [1, 0], "coeff": "1", "extra": 3}]}]],
    # a sample count no scheduled check reads, and a check scheduled twice
    {"n": 1, "samples": {"base_points": 2}, "checks": ["oracle/closed-form-equality"]},
    {"n": 1, "checks": ["linalg/pairing-examples", "linalg/pairing-examples"]},
    # two terms with the same exponents, which would load as the last one
    {"n": 1, "connection": {"gamma": {"1,2,2": [{"exponents": [1, 0], "coeff": "1"},
                                                {"exponents": [1, 0], "coeff": "2"}]}},
     "checks": ["linalg/pairing-examples"]},
])
def test_cli_rejects_malformed_scenario(tmp_path, capsys, data):
    from gctwistor import cli
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("gamma, key", [
    ({"1,1,2": [{"exponents": [1, 0], "coeff": "1"}],
      "1,2,1": [{"exponents": [0, 1], "coeff": "1"}]}, '"1,1,2" differs from Christoffel key "1,2,1"'),
    ({"0,1,1": [{"exponents": [1, 0], "coeff": "1"}]}, '"0,1,1"'),
    ({"1,1,2": [{"exponents": [1, 0]}]}, "'1,1,2'"),
    ({"1,1,2": {"exponents": [1, 0], "coeff": "1"}}, "'1,1,2'"),
    ({"1,1,2": [{"exponents": [1, 0], "coeff": "1", "extra": 3}]}, "'1,1,2'"),
    ({"1,2,2": [{"exponents": [1, 0], "coeff": "1"}, {"exponents": [1, 0], "coeff": "2"}]},
     "'1,2,2': two terms have the exponents [1, 0]"),
    ({"1,2": [{"exponents": [1, 0], "coeff": "1"}]}, "'1,2' is not three"),
    ({"1,a,2": [{"exponents": [1, 0], "coeff": "1"}]}, "'1,a,2' is not three"),
    ({"1,2,2,3": [{"exponents": [1, 0], "coeff": "1"}]}, "'1,2,2,3' is not three"),
], ids=["torsion", "index-zero", "no-coeff", "object-gamma", "extra-key", "repeated-term",
        "two-indices", "non-integer-index", "four-indices"])
def test_cli_christoffel_error_names_the_key(tmp_path, capsys, gamma, key):
    from gctwistor import cli
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"n": 1, "connection": {"gamma": gamma},
                                "checks": ["linalg/pairing-examples"]}))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario: ") and "Christoffel key" in err
    assert key in err and err.count("\n") == 1


@pytest.mark.parametrize("gamma", ZERO_GAMMAS, ids=["zero-coeff", "no-terms"])
def test_all_zero_gamma_is_flat(gamma):
    data = {"n": 2, "connection": {"gamma": gamma}, "samples": {"fibre_params": 1}}
    report = run_scenario(load_scenario(
        {**data, "checks": ["integrability/flat-structure1-vanishes"]}))
    assert report.ok and report.results[0].status == "pass"


def test_zero_curvature_gamma_is_flat():
    data = {"n": 2, "connection": {"gamma": CONSTANT_GAMMA}, "samples": {"fibre_params": 1},
            "checks": ["integrability/flat-structure1-vanishes"]}
    report = run_scenario(load_scenario(data))
    assert report.ok and report.results[0].status == "pass"


def test_presets_are_curved_exactly_when_they_give_a_gamma():
    for name, preset in PRESETS.items():
        assert load_scenario(name).conn.is_flat == (not preset["connection"]["gamma"]), name


def test_cli_reports_the_name_a_scenario_file_gives(tmp_path, capsys):
    from gctwistor import cli
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "my-run", "n": 1, "checks": ["linalg/pairing-examples"]}))
    assert cli.main(["verify", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("scenario my-run  seed 0  mode exact\n")
    # without a name the report is named after the path
    path.write_text(json.dumps({"n": 1, "checks": ["linalg/pairing-examples"]}))
    assert cli.main(["verify", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith(f"scenario {path}  seed 0")


def test_cli_rejects_zero_oracle_samples(tmp_path):
    result = run_cli_on(tmp_path, with_samples("oracle-n1", fibre_params=0))
    assert result.returncode == 2
    assert "fibre_params" in result.stderr and "Traceback" not in result.stderr


def test_cli_rejects_negative_base_points(tmp_path):
    result = run_cli_on(tmp_path, with_samples("thm1-n1", base_points=-5))
    assert result.returncode == 2
    assert "base_points" in result.stderr and "Traceback" not in result.stderr


def test_cli_rejects_non_integer_base_points(tmp_path):
    result = run_cli_on(tmp_path, with_samples("thm1-n1", base_points="abc"))
    assert result.returncode == 2
    assert "base_points" in result.stderr and "Traceback" not in result.stderr


def test_cli_rejects_unknown_probe_spec(tmp_path):
    # probe_spec is not a sample key: a scenario that sets it exits 2
    result = run_cli_on(tmp_path, with_samples("thm1-n1", probe_spec="horizontal"))
    assert result.returncode == 2
    assert "probe_spec" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("samples", [
    {"base_points": True}, {"adapted_points": 2.0}, {"fibre_params": "3"},
    {"base_point": 3}, {"probe_spec": None}, {"probe_spec": "full"},
])
def test_bad_samples_rejected(samples):
    with pytest.raises(ScenarioError, match="bad sample"):
        load_scenario({"n": 1, "seed": 0, "samples": samples,
                       "checks": ["linalg/pairing-examples"]})


def test_valid_samples_accepted():
    # each sample count is read by one of the scheduled checks
    scenario = load_scenario({"n": 1, "seed": 0,
                              "checks": ["linalg/dim2-orientation", "oracle/closed-form-equality",
                                         "integrability/mixed-witness"],
                              "samples": {"base_points": 1, "fibre_params": 2,
                                          "adapted_points": 3}})
    assert scenario.count("base_points", 50) == 1


@pytest.mark.parametrize("data, message", [
    ({"n": 1, "samples": {"base_points": 2}, "checks": ["oracle/closed-form-equality"]},
     "bad sample base_points=2: the scheduled checks read fibre_params, each an integer >= 1"),
    ({"n": 1, "samples": {"fibre_params": 2},
      "checks": ["linalg/pairing-examples", "linalg/projection-nondegeneracy"]},
     "bad sample fibre_params=2: the scheduled checks read base_points,"),
    ({"n": 1, "samples": {"adapted_points": 2}, "checks": ["linalg/pairing-examples"]},
     "bad sample adapted_points=2: the scheduled checks read no sample count,"),
    ({"n": 1, "checks": ["linalg/pairing-examples", "linalg/pairing-examples"]},
     r"checks scheduled more than once: \['linalg/pairing-examples'\]"),
    ({"n": 1, "samples": {"base_points": 2},
      "checks": ["linalg/dim2-orientation", "linalg/pairing-examples",
                 "linalg/dim2-orientation"]},
     r"checks scheduled more than once: \['linalg/dim2-orientation'\]"),
], ids=["oracle-base-points", "linalg-fibre", "no-reader", "pairing-twice",
        "orientation-twice"])
def test_unread_samples_and_repeated_checks_rejected(data, message):
    # an unread count would be ignored silently, and a repeated check would
    # run twice under one timing in the text report
    with pytest.raises(ScenarioError, match=message):
        load_scenario(data)


@pytest.mark.parametrize("n", [1, 4], ids=["1", "4"])
def test_curvature_form_kernel_needs_n2(n):
    data = {"n": n, "seed": 0, "checks": ["integrability/curvature-form-kernel"]}
    if n < 2:
        with pytest.raises(ScenarioError, match="needs n >= 2, not 1"):
            load_scenario(data)
        return
    result = run_scenario(load_scenario(data)).results[0]
    assert (result.status, result.residual, result.witness) == (
        "pass", "0", {"rank": 64, "unknowns": 64, "single_structure_kernel": 0})


def test_curvature_form_kernel_n3_passes():
    scenario = load_scenario({"n": 3, "seed": 0,
                              "checks": ["integrability/curvature-form-kernel"]})
    report = run_scenario(scenario)
    assert report.ok
    assert report.results[0].witness == {"rank": 36, "unknowns": 36,
                                         "single_structure_kernel": 0}


def test_cli_curvature_form_kernel_n4_passes(tmp_path):
    result = run_cli_on(tmp_path, {"n": 4, "seed": 0,
                                   "checks": ["integrability/curvature-form-kernel"]},
                        "--format", "text")
    assert result.returncode == 0
    assert "[PASS]" in result.stdout and '"rank": 64' in result.stdout


@pytest.mark.parametrize("preset, legacy, generic", [
    ("thm1-n2-flat", "integrability/n2-flat-structure1-vanishes",
     "integrability/flat-structure1-vanishes"),
    ("thm1-n2-curved", "integrability/n2-curved-witness", "integrability/curved-witness"),
])
def test_generic_name_matches_legacy_name_at_n2(preset, legacy, generic):
    data = {**PRESETS[preset], "samples": {"fibre_params": 2}}
    old = run_scenario(load_scenario({**data, "checks": [legacy]})).results[0]
    new = run_scenario(load_scenario({**data, "checks": [generic]})).results[0]
    assert (old.name, new.name) == (legacy, generic)
    assert (new.status, new.residual, new.witness) == (old.status, old.residual, old.witness)


@pytest.mark.parametrize("check, gamma, lacking", [
    ("integrability/flat-structure1-vanishes", {}, "n >= 2, not 1"),
    ("integrability/curved-witness", {"1,2,2": [{"exponents": [1, 0], "coeff": "1"}]},
     "n >= 2, not 1"),
])
def test_generic_integrability_checks_fail_at_n1(check, gamma, lacking):
    with pytest.raises(ScenarioError, match=f"check {check} needs {lacking}"):
        load_scenario({"n": 1, "connection": {"gamma": gamma},
                       "samples": {"fibre_params": 1}, "checks": [check]})


@pytest.mark.parametrize("check, preset", [
    ("integrability/flat-structure1-vanishes", "thm1-n2-curved"),
    ("integrability/curved-witness", "thm1-n2-flat"),
])
def test_generic_integrability_checks_need_their_connection(check, preset):
    want = "flat" if "flat" in check else "curved"
    with pytest.raises(ScenarioError, match=f"check {check} needs a {want} connection"):
        load_scenario({**PRESETS[preset], "checks": [check]})


def test_legacy_curved_witness_is_pinned_to_n2():
    with pytest.raises(ScenarioError, match="n2-curved-witness needs n = 2, not 4"):
        load_scenario({**PRESETS["thm1-n4-curved"], "samples": {"fibre_params": 1},
                       "checks": ["integrability/n2-curved-witness"]})


@pytest.mark.parametrize("preset", ["thm1-n2-flat", "thm1-n4-flat"])
def test_flat_scan_failure_names_its_chart_point(monkeypatch, preset):
    from gctwistor import harness
    from gctwistor.gclinalg import basis_vector
    from gctwistor.twistor import tangent_from_parts

    def one_nonzero(alpha, conn, at, probes, basis=None):
        return {(0, 1): tangent_from_parts(at.n, horizontal=basis_vector(2 * at.n, 0))}

    monkeypatch.setattr(harness, "nijenhuis_closed_form_table", one_nonzero)
    scenario = load_scenario({**PRESETS[preset], "samples": {"fibre_params": 1},
                              "checks": ["integrability/flat-structure1-vanishes"]})
    result = run_scenario(scenario).results[0]
    assert result.status == "fail" and result.residual == "nonzero"
    assert result.witness["trial"] == 0 and result.witness["probe_pair"] == [0, 1]
    # the point is the one the unpatched scan visits first, in the curved witness's format
    rng = random.Random(scenario.seed + 10)
    sample_fibre_structure(scenario.n, rng)
    point = random_chart_point(2 * scenario.n, rng)
    assert result.witness["point"] == [scalar_to_str(c) for c in point.coords]


def test_hybrid_witness_evaluates_each_adapted_point_once(monkeypatch):
    # the hybrid term depends on neither alpha nor the connection, so one
    # call per point checks both hybrid structures
    from gctwistor import harness
    calls = []
    hybrid = harness.hybrid_nijenhuis_horizontal

    def spy(*args):
        calls.append(args)
        return hybrid(*args)

    monkeypatch.setattr(harness, "hybrid_nijenhuis_horizontal", spy)
    scenario = load_scenario({**PRESETS["thm1-n1"], "samples": {"adapted_points": 3},
                              "checks": ["integrability/hybrid-witness"]})
    assert run_scenario(scenario).results[0].status == "finding"
    assert len(calls) == 3


# In a fresh interpreter: `run` loads and runs a preset at sample counts of 1,
# then the steps run, and the courant and oracle layers imported are printed.
_LAYERS_AFTER = """
import json, sys
from gctwistor import harness

def run(name):
    preset = harness.PRESETS[name]
    data = dict(preset, samples=dict.fromkeys(preset["samples"], 1))
    harness.emit_report(harness.run_scenario(harness.load_scenario(data, name=name)), "text")

{steps}
print(json.dumps([m for m in ("courant", "oracle") if "gctwistor." + m in sys.modules]))
"""


@pytest.mark.parametrize("steps, layers", [
    ("run('thm1-n2-flat'); run('thm1-n1'); run('linalg-all')", []),
    ("harness.load_scenario('examples-courant')", ["courant"]),
    ("harness.load_scenario('oracle-n1')", ["courant", "oracle"]),
])
def test_scenarios_load_only_the_layers_they_schedule(steps, layers):
    # each run compiles what it imports, so the scan and linalg presets never
    # load courant or oracle; the suites that run on them load them with the
    # scenario, before run_scenario times any check
    result = run_child("-c", _LAYERS_AFTER.format(steps=steps), check=True)
    assert json.loads(result.stdout) == layers


@pytest.mark.parametrize("n", [-1, 0, 2.7, "2", True])
def test_bad_n_rejected(n):
    with pytest.raises(ScenarioError, match="n must be an integer >= 1"):
        load_scenario({"n": n, "seed": 0, "checks": ["linalg/pairing-examples"]})


@pytest.mark.parametrize("n", [-1, 0, 2.7, "2", True])
def test_cli_rejects_bad_n(tmp_path, n):
    result = run_cli_on(tmp_path, {"n": n, "seed": 0, "samples": {"adapted_points": 1},
                                   "checks": ["integrability/mixed-witness"]})
    assert result.returncode == 2
    assert "n must be an integer" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("check", ["oracle/closed-form-equality",
                                   "oracle/structure1-direct-zero",
                                   "oracle/lift-bracket-identity",
                                   "oracle/vertical-bracket-identity",
                                   "integrability/n1-structure1-vanishes",
                                   "linalg/pairing-examples",
                                   "linalg/projection-nondegeneracy",
                                   "linalg/dim2-orientation",
                                   "linalg/orientation-parity",
                                   "linalg/skew-frame-relations",
                                   "linalg/frame-decomposition-roundtrip",
                                   "linalg/transform-isometries",
                                   "linalg/hyperboloid-chart",
                                   "courant/bracket-examples",
                                   "courant/nijenhuis-antisymmetry",
                                   "courant/constant-structure-integrable",
                                   "courant/b-transform-automorphism"])
def test_oracle_checks_need_n1(check):
    # every check that runs at n = 1 only, the oracle's and the fixed-size
    # linalg and courant examples alike, rejects any other n
    with pytest.raises(ScenarioError, match=f"check {check} needs n = 1, not 2"):
        load_scenario({"n": 2, "seed": 0, "samples": {"fibre_params": 1}, "checks": [check]})


def _direct_scenario(**changes):
    fields = {"name": "direct", "n": 2, "conn": flat_connection(2),
              "seed": 0, "samples": {"fibre_params": 1},
              "checks": ("integrability/mixed-witness",)}
    fields.update(changes)
    return Scenario(**fields)


@pytest.mark.parametrize("changes, message", [
    ({"checks": ("oracle/structure1-direct-zero",)},
     "check oracle/structure1-direct-zero needs n = 1, not 2"),
    ({"checks": ("integrability/curved-witness",)},
     "check integrability/curved-witness needs a curved connection"),
    ({"n": 1}, "the connection is for n = 2, not 1"),
    ({"n": 0}, "n must be an integer >= 1"),
    ({"checks": ("linalg/no-such-check",)}, "unknown checks"),
    ({"checks": ()}, "the check list is empty"),
    ({"samples": {"fibre_params": 0}}, "bad sample fibre_params=0"),
    ({"samples": [("fibre_params", 1)]}, "samples must be an object"),
    ({"seed": 1.5}, "the seed must be an integer"),
    ({"seed": True}, "the seed must be an integer"),
], ids=["oracle-at-n2", "curved-check-flat-connection", "connection-n", "n-zero",
        "unknown-check", "empty-checks", "zero-samples", "samples-list", "seed-float",
        "seed-bool"])
def test_directly_built_scenario_is_checked(changes, message):
    # the constructor checks what load_scenario checks, so run_scenario
    # never meets a scenario it cannot run
    with pytest.raises(ScenarioError, match=message):
        _direct_scenario(**changes)


def test_directly_built_scenario_runs():
    report = run_scenario(_direct_scenario(samples={"adapted_points": 1}))
    assert report.ok and [r.name for r in report.results] == ["integrability/mixed-witness"]


def test_cli_oracle_check_n2_fails_cleanly(tmp_path):
    result = run_cli_on(tmp_path, {"n": 2, "seed": 0, "samples": {"fibre_params": 1},
                                   "checks": ["oracle/structure1-direct-zero"]},
                        "--format", "text")
    assert result.returncode == 2 and result.stdout == ""
    assert "needs n = 1, not 2" in result.stderr and "Traceback" not in result.stderr


def test_integrability_suite_wrapper():
    scenario = load_scenario({**PRESETS["thm1-n1"], "samples": {"base_points": 3}},
                             name="thm1-n1-small")
    report = run_scenario(scenario)
    assert report.ok
    assert [r.name for r in report.results] == list(scenario.checks)


def test_report_ok_reflects_statuses():
    good = Report("x", 0, (CheckResult("a", "pass", "0", None),
                           CheckResult("b", "finding", "0", None)), ())
    assert good.ok
    bad = Report("x", 0, (CheckResult("a", "fail", "1", None),), ())
    assert not bad.ok
