"""Exact verification kernel for generalized complex structures and twistor spaces.

The package is organized in four layers:

* :mod:`gctwistor.gclinalg` -- the finite-dimensional algebra of V + V*
  with its split-signature pairing: structures, transforms, orthonormal
  bases, orientations and the fibre geometry of the space of compatible
  complex structures;
* :mod:`gctwistor.bracket` -- sections of TM + T*M over a chart, the
  Courant bracket and the Nijenhuis tensor of structure fields;
* :mod:`gctwistor.twistor` -- connections, curvature, the twistor
  bundle's tangents and the closed-form Nijenhuis evaluator, plus
  :mod:`gctwistor.oracle`, the direct chart computation it is checked
  against, and :mod:`gctwistor.reference`, the definitions the tests
  hold it to;
* :mod:`gctwistor.harness` -- scenario-driven suites behind the
  ``gctwistor verify`` command line; the checks of the ``linalg/``,
  ``courant/``, ``integrability/`` and ``oracle/`` suites are in
  :mod:`gctwistor.linalg`, :mod:`gctwistor.courant`,
  :mod:`gctwistor.integrability` and :mod:`gctwistor.oracle`.
"""
