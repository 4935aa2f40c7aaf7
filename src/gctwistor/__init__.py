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
