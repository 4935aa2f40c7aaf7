"""Golden reports: every preset, run at its default seed, must emit the same
canonical JSON report byte for byte.

The digests are SHA-256 of `emit_report(report, "json")`, recorded on
Python 3.11.7 before the forward-mode jet arithmetic was merged into
`poly.Jet`; `thm1-n3-flat` was added later, with the transported
vertical bases, and `thm1-n4-flat` and `thm1-n4-curved` later still, with
the n-generic integrability checks, each recorded from two runs that
agreed.  A refactor that
changes any verdict, witness or residual string of any preset changes a
digest.
"""

import hashlib

import pytest

from gctwistor.harness import PRESETS, emit_report, load_scenario, run_scenario

GOLDEN = {
    "linalg-all": "49dc8f58b40becd4ed3fde79c6a9537d3f52f4cad22d8a34c46448447b6d2434",
    "examples-courant": "0656c56a7659b3264787397c025f16a89c19a889c2de859bf0fb7f3896536a76",
    "thm1-n1": "3dbd05898e84dd84ce0c90c01729e48355f9c1b1aa2ed59bc6da1b85b5bd9f0b",
    "thm1-n2-flat": "2e7e474c5b9c96c8544e17184ecf9ddbdd2d73f96a7ed8aa0354e9cedfc7ed39",
    "thm1-n3-flat": "6130da28590b69a0e1d9332be9ab2b114f4d2c60751f112857cf40d55b07ecb7",
    "thm1-n2-curved": "3dd9bd1c7ce355b051615a70713c5316be5db093b16341f1cf6ea025adbbfffa",
    "thm1-n4-flat": "2c267c6b0cb2efb0858a16e20da37aa2440fa20d4186da72a947a88a7f529186",
    "thm1-n4-curved": "a5b9d2861c6c01f3c4bfe497088cdec57c79a21c86eb692f81bad96cedb08d5b",
    "oracle-n1": "38416f371f256a60b038a29346d2531ce432fe65ad82ec1d02d96dc036deade3",
}


def test_golden_covers_every_preset():
    assert set(GOLDEN) == set(PRESETS)


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_preset_report_is_golden(preset):
    text = emit_report(run_scenario(load_scenario(preset)), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[preset]
