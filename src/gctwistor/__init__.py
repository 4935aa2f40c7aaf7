"""Exact verification kernel for generalized complex structures and twistor spaces.

The package is organized in four layers:

* :mod:`gctwistor.gclinalg` -- the finite-dimensional algebra of V + V*
  with its split-signature pairing: structures, transforms, orthonormal
  bases, orientations and the fibre geometry of the space of compatible
  complex structures;
* :mod:`gctwistor.courant` -- sections of TM + T*M over a chart, the
  Courant bracket and the Nijenhuis tensor of structure fields;
* :mod:`gctwistor.twistor` -- connections, curvature, horizontal lifts,
  the two twistor structures and the closed-form Nijenhuis evaluator,
  plus :mod:`gctwistor.oracle`, the direct chart computation it is
  checked against;
* :mod:`gctwistor.harness` -- scenario-driven suites behind the
  ``gctwistor verify`` command line.
"""

from .gclinalg import (
    Endo,
    GCStructure,
    GElement,
    OrthonormalBasis,
    Scalar,
    b_transform,
    beta_transform,
    dim2_basis_orientation,
    fiber_kahler_structure,
    from_complex,
    from_symplectic,
    gl_action,
    hyperboloid_point,
    neutral_pairing,
    projection_nondegeneracy_check,
    random_orthonormal_basis,
    reference_basis,
    skew_decompose,
    skew_frames,
    structure_orientation,
    vertical_space_basis,
)
from .courant import (
    ChartPoint,
    GACField,
    JetSection,
    TwoFormField,
    b_automorphism_defect,
    chart_point,
    constant_field,
    courant_bracket,
    integrability_scan,
    lie_bracket,
    nijenhuis,
    nijenhuis_table,
    section_from_coefficients,
    two_form_field,
)
from .twistor import (
    Connection,
    CurvatureValue,
    MuForm,
    TwistorPoint,
    TwistorTangent,
    connection,
    curvature,
    curvature_from_mu,
    flat_connection,
    horizontal_lift,
    hybrid_nijenhuis_horizontal,
    mu_forced_zero_check,
    nijenhuis_closed_form,
    nijenhuis_closed_form_table,
    nijenhuis_coform,
    nijenhuis_horizontal,
    nijenhuis_mixed,
    twistor_J,
)
from .oracle import (
    OracleSample,
    TwistorChart,
    lift_bracket_curvature_check,
    oracle_compare_nijenhuis,
    seeded_oracle_samples,
)
from .harness import (
    PRESETS,
    Report,
    Scenario,
    emit_report,
    load_scenario,
    run_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
