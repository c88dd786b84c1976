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
    Quasi-eigenfunction ODE solutions on long intervals, energy
    comparison certificates, boundary-smallness sweeps.
wavesim
    One forward solve (leapfrog, free or driven by Dirichlet rows) with
    discrete energy tracking and boundary traces; the sidewise solver
    and the operator D_omega, which the tests use as oracles for the
    quotient and its time derivatives.
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
