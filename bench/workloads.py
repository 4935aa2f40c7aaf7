"""The benchmark's workloads: which presets each one runs, at what size,
and at which scenario seeds.

A workload is a list of (preset name, sample-count overrides).  The
scenario mapping is the preset from `gctwistor.harness.PRESETS` with those
overrides applied and its seed shifted by an offset.  Offset 0 keeps every
preset's default seed: these are the timed inputs, and each report must
match the digest recorded in `expected.json`.  The offset drawn from the
workload seed gives fresh inputs, where every check must keep the status
recorded at the default seed.
"""

from __future__ import annotations

import random

WORKLOADS: dict[str, tuple[tuple[str, dict], ...]] = {
    # closed-form probe-pair scan: 1 point x 496 pairs at n = 2, 4 points x 28 pairs
    # at n = 1; the adapted-point witnesses are cut to a few points so the scan dominates
    "scan-closed-form": (
        ("thm1-n2-flat", {"fibre_params": 1, "adapted_points": 1}),
        ("thm1-n1", {"base_points": 4, "adapted_points": 2}),
    ),
    # direct Courant-bracket oracle against the closed form: 2 chart samples x 2 structures
    "oracle-direct": (
        ("oracle-n1", {"fibre_params": 2}),
    ),
    # small eliminations, the curvature-form kernel and adapted sampling
    "structures-and-kernel": (
        ("linalg-all", {"base_points": 20}),
        ("examples-courant", {}),
        ("thm1-n2-curved", {"fibre_params": 4, "adapted_points": 1}),
    ),
}


def fresh_offset(workload: str, seed: int) -> int:
    """Scenario-seed offset of a run's fresh-input iteration, drawn from the workload seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 1_000_000)
