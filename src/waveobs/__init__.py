"""waveobs: a numerical laboratory for boundary observability of 1-D
waves with rough coefficients.

Modules
-------
coeff
    Coefficient constructions: baseline densities with prescribed
    regularity, slowly-modulated oscillator pairs, trapping sequence
    geometry, normal-form reduction.
modulus
    Empirical moduli of continuity: dyadic difference seminorms,
    Littlewood-Paley-style block norms, a modulus classifier.
quasimodes
    Quasi-eigenfunction ODE solutions on long intervals,
    boundary-smallness sweeps.
wavesim
    One forward solve (leapfrog, free or driven by Dirichlet rows) with
    discrete energy tracking and boundary traces.
observability
    Boundary observability quotients, observability-constant
    estimation, counterexample sweeps, HUM control synthesis.

The checks of the paper's two arguments are not part of the package:
the sidewise solver and the operator D_omega (oracles of the quotient
and its time derivatives) and the Gronwall energy comparison that
certifies solved quasimodes live with the tests, in
``tests/oracles.py``, which imports only constants and types from here.

Imports
-------
Importing the package, or any of its modules, loads nothing beyond what
``import numpy`` loads, not even numpy.polynomial (``coeff`` writes its
Gauss-Legendre rule out): a fresh process pays only for what it calls.
scipy.linalg (whose import also loads numpy.f2py and numpy.testing) and
mpmath are imported by the functions that use them, on their first call:

- ``wavesim._scheme_eigenpairs``: one ``eigh_tridiagonal`` call for the
  whole spectrum, the lowest modes or a frequency window, reached through
  ``hum_control``, both observability constants and
  ``run_counterexample_sweep``;
- ``observability._hminus1_norm_sq`` (``solveh_banded``), reached through
  ``hum_control``;
- ``coeff.make_sequences`` and its helpers ``_psi_functions``,
  ``_lambda_functions`` and ``_log10_ratio`` (mpmath).
"""

__version__ = "0.1.0"

__all__ = [
    "coeff",
    "modulus",
    "quasimodes",
    "wavesim",
    "observability",
]
