"""waveobs: a numerical laboratory for boundary observability of 1-D
waves with rough coefficients.

Subpackages
-----------
coeff
    Coefficient constructions: baseline densities with prescribed
    regularity, slowly-modulated oscillator pairs, trapping sequence
    geometry, normal-form reduction.
modulus
    Empirical moduli of continuity: dyadic difference seminorms,
    Littlewood-Paley-style block norms, a modulus classifier.
quasimodes
    Quasi-eigenfunction ODE solutions on long intervals, energy
    comparison certificates, boundary-smallness sweeps.
wavesim
    Forward and sidewise finite-difference evolution with discrete
    energy tracking and boundary trace extraction.
observability
    Boundary observability quotients, observability-constant
    estimation, counterexample sweeps, HUM control synthesis.
"""

__version__ = "0.1.0"

__all__ = [
    "coeff",
    "modulus",
    "quasimodes",
    "wavesim",
    "observability",
]
