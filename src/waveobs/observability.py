"""Boundary observability quotients, constants, and HUM control.

The quotient under study compares the energy of initial data against the
boundary flux it radiates through an endpoint of ]0, L[:

    Q_m(u0, u1; T)  =  (|u0|_{H^1_0}^2 + |u1|_{L^2}^2)
                       / int_0^T |d^m/dt^m  u_x(t, 0)|^2 dt .

For densities bounded between positive constants and T larger than twice
the crossing time the quotient is bounded over all data exactly when the
density is regular enough; trapping densities make it blow up along a
family of concentrating modes.  This module measures both sides:

* :func:`observability_quotient` evaluates Q_m (or an H^beta variant) for
  one datum from its own march, flagging quotients that exceed what the
  discrete trace can certify ("unbounded at this resolution").
* :func:`estimate_observability_constant` takes a max over an ensemble of
  random mode mixtures and deterministic weak-spot data, per frequency
  cutoff, with an optional cross-check against the small dense Gramian
  of :func:`gramian_observability_constant`.
* :func:`run_counterexample_sweep` drives the concentrating quasimode
  family through the wave solver and tabulates the divergence of Q_m along
  the family, with closed-form numerators where the construction makes
  them exact, at the default horizon.
* :func:`hum_control` computes the boundary control of minimal H^{-m}
  norm by conjugate gradients on the duality operator and verifies the
  terminal state it reaches.

Wave solves run on the leapfrog kernel of :mod:`wavesim` without energy
tracking, each on one grid built once: each ensemble or Gramian basis is
one block march, and the divergence sweep's boundary corrector is one
single-column march per row of a unit impulse weighted by the row's edge
values, convolved with both phases of e^{iht} by FFT.  HUM's conjugate
gradients march nothing: they run on the scheme's closed-form modal
solution (one Chebyshev table), and only its verification marches, once,
from the data's Taylor start levels with the control as the x = 0
boundary row.

Every entry point takes the derivative order m as a nonnegative integer
and rejects anything else (:func:`_check_order`), and a trace exponent
beta as finite and nonnegative; both are checked before any march.  The
default horizon is :func:`_default_horizon`, its test :func:`_admissible`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .coeff import (
    Coefficient,
    FOUR_PI_SQ,
    TWO_PI,
    _jsonable,
    make_sequences,
    travel_time,
)
from .modulus import difference_seminorms
from .quasimodes import (
    ScaleOutOfReach,
    _family_members,
    _family_rows,
    _interval_integral,
    solve_quasimode,
)
from .wavesim import (
    _as_samples,
    _check_beta,
    _check_resolution,
    _forcing_flags,
    _leapfrog,
    _leapfrog_modes,
    _taylor_start,
    _tapered_sobolev_norm,
    _tapered_spectrum,
    _wave_grid,
    trace_sobolev_norm,
)

__all__ = [
    "QuotientResult",
    "ObservabilityReport",
    "DivergenceTable",
    "ControlResult",
    "observability_quotient",
    "estimate_observability_constant",
    "gramian_observability_constant",
    "run_counterexample_sweep",
    "hum_control",
]

_EPS = np.finfo(float).eps

# run_counterexample_sweep: no wave grid finer than this many cells
_MAX_WAVE_RESOLUTION = 1 << 17
# hum_control: CG iteration cap
_CG_MAX_ITER = 200
# hum_control: the largest relative terminal energy of a controlled state
_HUM_TOLERANCE = 1e-6


def _default_horizon(T_omega: float) -> float:
    """T = 2 T_omega + 0.5, the horizon of a call not given one."""
    return 2.0 * T_omega + 0.5


def _admissible(T: float, T_omega: float) -> bool:
    """T > 2 T_omega: the horizon outlasts two crossings."""
    return bool(T > 2.0 * T_omega)


def _check_order(m) -> int:
    """The derivative order m as an int; negative or fractional m (and
    nan or inf) is rejected rather than rounded."""
    if not (float(m).is_integer() and m >= 0):
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    return int(m)


def _check_increasing(name: str, values: tuple) -> None:
    """Growth is read from the first entry to the last."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} {values} must be strictly increasing")


# --------------------------------------------------------------------------
# discrete norms
# --------------------------------------------------------------------------


def _h10_norm_sq(u: np.ndarray, dx: float) -> float:
    """Dirichlet energy sum (u_{i+1}-u_i)^2 / dx (exact for hat data)."""
    d = np.diff(u)
    return float(np.dot(d, d) / dx)


def _l2_norm_sq(u: np.ndarray, dx: float) -> float:
    return float(np.trapezoid(u * u, dx=dx))


def _data_energy(u0n: np.ndarray, u1n: np.ndarray, dx: float) -> float:
    """The quotient's numerator |u0|_{H^1_0}^2 + |u1|_{L^2}^2; zero data
    is rejected (the quotient is 0/0)."""
    energy = _h10_norm_sq(u0n, dx) + _l2_norm_sq(u1n, dx)
    if energy == 0.0:
        raise ValueError("zero data: the quotient is 0/0")
    return energy


def _hminus1_norm_sq(g: np.ndarray, dx: float) -> float:
    """<g, (-Lap)^{-1} g> with the discrete Dirichlet Laplacian.

    phi solves -phi'' = g on the interior nodes; the value equals
    int g phi = int |phi'|^2, the H^{-1} norm squared of g.
    """
    g_int = np.asarray(g, dtype=float)[1:-1]
    if not g_int.size or not np.any(g_int):
        return 0.0
    from scipy.linalg import solveh_banded

    n_int = len(g_int)
    ab = np.zeros((2, n_int))
    ab[0, 1:] = -1.0 / dx ** 2
    ab[1, :] = 2.0 / dx ** 2
    phi = solveh_banded(ab, g_int)
    return float(np.dot(g_int, phi) * dx)


def _smoothing_operator(n: int, dt: float, m: int) -> Callable:
    """W: g -> taper * irfft((1+xi^2)^{-m} rfft(taper * g)), ends masked.

    Same taper, padding and weight as the H^{-m} control norm, so
    minimizing that norm is what this operator implements.  Masking the
    end samples before and after keeps W symmetric PSD on the interior
    time indices the duality pairing runs over; at m=0 it is the mask.
    """
    if m:
        w, padded, weight = _tapered_spectrum(n, dt, -m)

    def apply(g: np.ndarray) -> np.ndarray:
        g = np.array(g, dtype=float)
        g[0] = g[-1] = 0.0
        if m:
            spec = np.fft.rfft(w * g, n=padded)
            g = w * np.fft.irfft(weight * spec, n=padded)[:n]
            g[0] = g[-1] = 0.0
        return g

    return apply


def _trace_derivative_energy(trace: np.ndarray, dt: float, m: int) -> float:
    """int |d^m trace / dt^m|^2 dt by m-fold differencing + trapezoid."""
    d = np.diff(trace, n=m) / dt ** m if m else np.asarray(trace, float)
    if len(d) < 2:
        raise ValueError("trace too short for this derivative order")
    return float(np.trapezoid(d * d, dx=dt))


def _trace_noise_floor(data_scale: float, dx: float, dt: float,
                       T: float, m: float) -> float:
    # third-order one-sided stencil: |coeffs|_1/6 = 40/6 rounding units,
    # each m-fold difference contributes at worst a factor 2/dt
    base = (40.0 / 6.0) * _EPS * data_scale / dx
    return T * (10.0 * base * (2.0 / dt) ** m) ** 2


# --------------------------------------------------------------------------
# single-datum quotient
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientResult:
    """One observability quotient with its ingredients.

    ``unbounded`` is set when the trace denominator does not rise above
    the round-off floor of the discrete normal derivative: the quotient
    exceeds everything the grid can certify and ``value`` is +inf.
    ``denominator_parts`` lists the k-th derivative energies actually
    summed (one entry unless ``cumulative``).
    """

    value: float
    numerator: float
    denominator: float
    m: int
    beta: Optional[float]
    T: float
    T_omega: float
    admissible: bool
    unbounded: bool
    side: str
    resolution: int
    denominator_parts: tuple = ()
    flags: tuple = ()

    def to_summary(self) -> dict:
        return _jsonable(self)


def _march_data(grid, u0: np.ndarray, u1: np.ndarray):
    """Homogeneous solves of nodal data, one per column, as one march.

    ``u0``/``u1`` are node arrays or (nodes x K) blocks on ``grid``; the
    Taylor start and the recurrence are the public solver's, without its
    energy tracking.  Returns the kernel run.
    """
    _, om, dx, dt, steps = grid
    return _leapfrog(om, dx, dt, steps, *_taylor_start(u0, u1, om, dt, dx))


def _quotient(u0n: np.ndarray, u1n: np.ndarray, trace: np.ndarray,
              dt: float, dx: float, T: float, T_omega: float, m: int = 0,
              beta: Optional[float] = None, cumulative: bool = False, *,
              side: str = "left") -> QuotientResult:
    """The quotient of one nodal datum given its boundary trace.

    A denominator at or below the round-off floor of the discrete normal
    derivative makes the quotient unbounded (+inf).
    """
    numerator = _data_energy(u0n, u1n, dx)
    if beta is not None:
        denominator = trace_sobolev_norm(trace, beta, dt) ** 2
        parts = (denominator,)
        floor_m = beta
    else:
        orders = range(m + 1) if cumulative else (m,)
        parts = tuple(_trace_derivative_energy(trace, dt, k)
                      for k in orders)
        denominator = float(sum(parts))
        floor_m = m
    data_scale = max(float(np.max(np.abs(u0n))), float(np.max(np.abs(u1n))))
    floor = _trace_noise_floor(data_scale, dx, dt, T, floor_m)
    flags = []
    unbounded = denominator <= floor
    if unbounded:
        flags.append(
            f"quotient unbounded at this resolution: trace energy "
            f"{denominator:.3e} at or below the round-off floor {floor:.3e}")
        value = math.inf
    else:
        value = numerator / denominator
    return QuotientResult(
        value=value, numerator=numerator, denominator=denominator,
        m=m, beta=beta, T=T, T_omega=T_omega,
        admissible=_admissible(T, T_omega), unbounded=unbounded,
        side=side, resolution=len(u0n) - 1,
        denominator_parts=parts, flags=tuple(flags))


def observability_quotient(omega: Coefficient, u0, u1, T: float, m: int = 0,
                           *, beta: Optional[float] = None,
                           resolution: int = 2048, side: str = "left",
                           cumulative: bool = False) -> QuotientResult:
    """Q = (|u0|_{H^1_0}^2 + |u1|_{L^2}^2) / int |d^m u_x(t,0)|^2 dt.

    ``u0``/``u1`` are callables or nodal arrays vanishing at the
    endpoints.  With ``beta`` the denominator is the squared H^beta trace
    norm instead of the m-fold derivative energy; with ``cumulative`` the
    derivative energies of all orders k <= m are summed, which makes
    Q non-increasing in m by construction.  Zero data is rejected (the
    quotient is 0/0) before any march.  The data are marched once,
    without energy tracking, on the grid of ``resolution`` cells that
    :func:`wavesim.solver_time_grid` describes.
    """
    m = _check_order(m)
    if beta is not None:
        _check_beta(beta)
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    grid = _wave_grid(omega, T, resolution)
    u0n = _as_samples(u0, grid.x)
    u1n = _as_samples(u1, grid.x)
    _data_energy(u0n, u1n, float(grid.dx))
    run = _march_data(grid, u0n, u1n)
    trace = run.trace_left if side == "left" else run.trace_right
    return _quotient(u0n, u1n, trace, grid.dt, float(grid.dx), T,
                     travel_time(omega), m, beta, cumulative, side=side)


# --------------------------------------------------------------------------
# ensemble and Gramian constants
# --------------------------------------------------------------------------


def _sine_mixture(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k-1] sin(k pi x) on the uniform grid, exactly.

    At the interior nodes x_i = i / N of a uniform N-panel grid the sum
    is -Im of bin i of the length-2N DFT of (0, coeffs[0], coeffs[1], ...).
    """
    n = len(x) - 1
    out = np.zeros(len(x))
    out[1:-1] = -np.fft.rfft(np.append(0.0, coeffs), 2 * n)[1:n].imag
    return out


def _bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """C^infty bump exp(1 - 1/(1-s^2)), s=(x-center)/width, support inside."""
    s = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _ensemble_data(x: np.ndarray, omega_nodes: np.ndarray, cutoff: int,
                   rng: np.random.Generator, n_random: int) -> list:
    """(label, u0, u1) candidates for one frequency cutoff.

    Random mixtures draw iid normal coefficients on modes 1..cutoff with
    the position part weighted 1/(k pi) so both energy terms have
    comparable size.  The deterministic candidates aim at the known weak
    spots: the top of the frequency window, data supported far from the
    recorded end, a rightward-traveling packet, and data centered on the
    dyadic point 3/8 (the midpoint of the first marked interval of the
    trapping construction; for regular densities it is just another
    bump, which keeps the protocol density-blind).
    """
    kk = np.arange(1, cutoff + 1)
    out = []
    for i in range(n_random):
        a = rng.standard_normal(cutoff) / (kk * math.pi)
        b = rng.standard_normal(cutoff)
        out.append((f"random-mixture-{i}", _sine_mixture(x, a),
                    _sine_mixture(x, b)))
    top = _sine_mixture(x, np.eye(cutoff)[-1] / (cutoff * math.pi))
    out.append(("mode-top-position", top, np.zeros_like(x)))
    out.append(("mode-top-velocity", np.zeros_like(x),
                _sine_mixture(x, np.eye(cutoff)[-1])))
    near = max(1, int(round(0.75 * cutoff)))
    out.append((f"mode-{near}-position",
                _sine_mixture(x, np.eye(cutoff)[near - 1] / (near * math.pi)),
                np.zeros_like(x)))
    far = _bump(x, 0.85, 0.12)
    out.append(("bump-far-position", far, np.zeros_like(x)))
    dx = x[1] - x[0]
    far_prime = np.gradient(far, dx)
    traveling = -far_prime / np.sqrt(omega_nodes)
    traveling[0] = traveling[-1] = 0.0
    out.append(("bump-far-traveling", far, traveling))
    center = _bump(x, 0.375, 0.15)
    out.append(("bump-center-position", center, np.zeros_like(x)))
    out.append(("bump-center-velocity", np.zeros_like(x), center))
    return out


def _growth_factor(a: float, b: float) -> float:
    """Growth from a quotient or constant ``a`` to the next one, ``b``.

    b / a when both are finite and a > 0; inf when a is finite and
    positive and b is floored (inf); nan otherwise: a floored or
    non-positive earlier row says nothing about growth.
    """
    if not (math.isfinite(a) and a > 0):
        return math.nan
    if b == math.inf:
        return math.inf
    return b / a if math.isfinite(b) else math.nan


@dataclass(frozen=True)
class ObservabilityReport:
    """Ensemble estimate of the observability constant per cutoff.

    ``constants`` maps each frequency cutoff to the max quotient over its
    ensemble; ``rows`` keeps every candidate.  ``growth_factors`` are the
    successive ratios of the constants (a bounded-observability density
    shows flat factors; a trapping one grows without saturating), and
    ``overall_growth`` the last over the first, both by
    :func:`_growth_factor` (nan out of a floored constant).
    ``flags``: :func:`_resolution_flags`.
    """

    omega_kind: str
    omega_descriptor: dict
    T: float
    T_omega: float
    admissible: bool
    m: int
    beta: Optional[float]
    cutoffs: tuple
    constants: dict
    argmax_labels: dict
    rows: tuple
    growth_factors: tuple
    resolution: int
    seed: int
    n_random: int
    cross_check: Optional[dict] = None
    flags: tuple = ()

    @property
    def overall_growth(self) -> float:
        return _growth_factor(self.constants[self.cutoffs[0]],
                              self.constants[self.cutoffs[-1]])

    def to_summary(self) -> dict:
        return {**_jsonable(self),
                "overall_growth": _jsonable(self.overall_growth)}


def _check_cutoff(cutoff: int, resolution: int) -> None:
    """A cutoff counts modes, so it is at least 1; past half the grid's
    modes the constant measures the uniform-grid group-velocity defect
    (Infante & Zuazua, M2AN 33, 1999), not omega."""
    if cutoff < 1:
        raise ValueError(f"cutoff {cutoff} must be at least 1")
    if cutoff > resolution // 2:
        raise ValueError(
            f"cutoff {cutoff} exceeds resolution {resolution} // 2, where "
            f"uniform-grid modes lose their group velocity")


def _resolution_flags(density: Coefficient, resolution: int) -> tuple:
    """One flag per interval of a trapping density that the resolution + 1
    nodes sample fewer than 8 times per local period, (resolution + 1) r_j
    < 8 n_j: a constant taken there measures the grid, not the density."""
    entries = () if density.trapping is None else density.trapping.entries
    return tuple(
        f"resolution {resolution} does not resolve the j={e.j} interval "
        f"({(resolution + 1) * e.r / e.n:.2f} samples per local period, "
        f"8 needed)" for e in entries if (resolution + 1) * e.r < 8.0 * e.n)


def estimate_observability_constant(
        omega: Coefficient, T: Optional[float] = None,
        cutoffs: Sequence[int] = (8, 16, 32, 64), *,
        n_random: int = 12, seed: int = 0, resolution: int = 2048,
        m: int = 0, beta: Optional[float] = None,
        cross_check: bool = False, cross_check_cutoff: int = 8,
        cross_check_resolution: int = 256) -> ObservabilityReport:
    """Max observability quotient over an ensemble, per frequency cutoff.

    ``T`` defaults to twice the crossing time plus 0.5.  Each cutoff's
    candidates are ``n_random`` random mixtures plus seven deterministic
    weak-spot data (:func:`_ensemble_data`).  The candidates of every
    cutoff are drawn first (deterministic for a given seed) and then
    evolved together, one column each, in a single march of the
    leapfrog kernel without energy tracking, and each candidate's
    quotient is read from its trace at order ``m`` (or trace exponent
    ``beta``).  ``cross_check`` runs the dense Gramian constant at a
    coarse cutoff/resolution and stores the comparison: the ensemble max
    is a lower bound for the Gramian constant, so the ratio belongs in
    [0, 1] up to discretization.  The Gramian constant is the Q_m
    constant and has no H^beta route, so ``cross_check`` with a ``beta``
    is rejected before any march.  Every cutoff must be at most half its
    resolution, and the cutoffs strictly increasing.  An unresolved
    trapping density is flagged, not rejected.
    """
    m = _check_order(m)
    if beta is not None:
        _check_beta(beta)
    cuts = tuple(cutoffs)
    if not cuts:
        raise ValueError("cutoffs must hold at least one cutoff")
    for cutoff in cuts:
        _check_cutoff(cutoff, resolution)
    _check_increasing("cutoffs", cuts)
    if n_random < 0:
        raise ValueError(f"n_random {n_random} must be nonnegative")
    if cross_check:
        if beta is not None:
            raise ValueError(
                "cross_check compares with the Gramian's Q_m constant, "
                "which has no beta; leave beta None")
        _check_resolution(cross_check_resolution)
        _check_cutoff(cross_check_cutoff, cross_check_resolution)
    T_omega = travel_time(omega)
    if T is None:
        T = _default_horizon(T_omega)
    grid = _wave_grid(omega, T, resolution)
    x, dt, dx = grid.x, grid.dt, grid.dx
    rng = np.random.default_rng(seed)
    cands = []
    for cutoff in cuts:
        cands += [(cutoff,) + c for c in _ensemble_data(
            x, grid.om, cutoff, rng, n_random)]
    run = _march_data(grid, np.stack([c[2] for c in cands], axis=1),
                      np.stack([c[3] for c in cands], axis=1))
    traces = np.ascontiguousarray(run.trace_left.T)

    constants: dict = {}
    argmax: dict = {}
    rows = []
    for (cutoff, lab, u0, u1), trace in zip(cands, traces):
        q = _quotient(u0, u1, trace, dt, dx, T, T_omega, m, beta)
        if cutoff not in constants or q.value > constants[cutoff]:
            constants[cutoff] = q.value
            argmax[cutoff] = lab
        rows.append({
            "cutoff": cutoff, "label": lab, "quotient": q.value,
            "numerator": q.numerator, "denominator": q.denominator,
            "unbounded": q.unbounded,
        })
    factors = [_growth_factor(constants[lo], constants[hi])
               for lo, hi in zip(cuts, cuts[1:])]
    check = None
    if cross_check:
        gram = gramian_observability_constant(
            omega, T, cross_check_cutoff,
            resolution=cross_check_resolution, m=m)
        sub = estimate_observability_constant(
            omega, T, (cross_check_cutoff,), n_random=n_random, seed=seed,
            resolution=cross_check_resolution, m=m)
        ens = sub.constants[cross_check_cutoff]
        check = {
            "gramian": gram["value"], "ensemble": ens,
            "cutoff": cross_check_cutoff,
            "resolution": cross_check_resolution,
            "ensemble_over_gramian": (
                ens / gram["value"] if gram["value"] > 0 else math.inf),
        }
    return ObservabilityReport(
        omega_kind=omega.kind, omega_descriptor=omega.to_descriptor(),
        T=T, T_omega=T_omega,
        admissible=_admissible(T, T_omega), m=m, beta=beta,
        cutoffs=cuts, constants=constants, argmax_labels=argmax,
        rows=tuple(rows), growth_factors=tuple(factors),
        resolution=resolution, seed=seed, n_random=n_random,
        cross_check=check,
        flags=_resolution_flags(omega, resolution))


def gramian_observability_constant(omega: Coefficient, T: float,
                                   cutoff: int, *, resolution: int = 256,
                                   m: int = 0) -> dict:
    """Exact-over-the-span constant from the dense boundary Gramian.

    Solves all 2*cutoff basis data (position mode sin(k pi x), velocity
    mode sin(k pi x)) in one march, forms D[i,j] = int d^m tr_i d^m tr_j
    dt and the diagonal energy matrix N, and returns 1/lambda_min of the
    pencil (D, N): the worst quotient over the whole span, not just the
    sampled candidates.  N is diagonal, so the pencil is solved as the
    symmetric matrix N^{-1/2} D N^{-1/2}.  Meant for small cutoffs (dense
    eigenproblem), at most half the resolution; ``"flags"`` as in the
    ensemble report.
    """
    m = _check_order(m)
    if cutoff > 64:
        raise ValueError("gramian route is for small cutoffs (<= 64)")
    _check_cutoff(cutoff, resolution)
    grid = _wave_grid(omega, T, resolution)
    dt, dx = grid.dt, grid.dx
    modes = [np.sin(k * math.pi * grid.x) for k in range(1, cutoff + 1)]
    energies = ([_h10_norm_sq(u, dx) for u in modes]
                + [_l2_norm_sq(u, dx) for u in modes])
    block = np.stack(modes, axis=1)
    rest = np.zeros_like(block)
    run = _march_data(grid, np.hstack([block, rest]),
                      np.hstack([rest, block]))
    tr = np.ascontiguousarray(run.trace_left.T)
    if m:
        tr = np.diff(tr, n=m, axis=1) / dt ** m
    w = np.full(tr.shape[1], dt)
    w[0] = w[-1] = 0.5 * dt
    D = (tr * w) @ tr.T
    scale = 1.0 / np.sqrt(energies)
    # lambda = trace energy / datum energy over the span; the constant
    # is the reciprocal of the smallest one
    vals = np.linalg.eigvalsh(scale[:, None] * D * scale[None, :])
    lam_min = float(vals[0])
    lam_max = float(vals[-1])
    degenerate = not (lam_min > 1e-12 * max(lam_max, 1e-300))
    return {
        "value": math.inf if degenerate else 1.0 / lam_min,
        "lambda_min": lam_min, "lambda_max": lam_max,
        "unbounded": degenerate, "cutoff": cutoff,
        "basis_size": 2 * cutoff, "resolution": resolution, "m": m, "T": T,
        "flags": list(_resolution_flags(omega, resolution)),
    }


# --------------------------------------------------------------------------
# divergence sweep along the concentrating family
# --------------------------------------------------------------------------


def _lambda_numerator(pair, h: float, n: int, m: float, r: float,
                      interior_mass: float) -> dict:
    """Closed-form H^1_0 and L^2 energies of (phi/h, phi) data.

    Inside the marked interval phi(x) = w(h(x-m)) and
    (phi/h)'(x) = w'(h(x-m)), so both energies are one-period integrals
    times a geometric sum (:func:`quasimodes._interval_integral`; the
    L^2 one is the solve's ``interior_mass``).  On the flat tails phi is
    the exact rotation launched from the edge state (+e^{-eps n/2}, 0),
    whose phase reduces exactly because h is an integer and the edge
    distances are dyadic.
    """
    h1_interior = _interval_integral(pair, h, n,
                                     lambda s: pair.w_prime(s) ** 2)
    a_sq = math.exp(-pair.eps * n)     # squared edge amplitude
    d_left = m - r / 2.0
    d_right = 1.0 - (m + r / 2.0)
    tails_l2 = 0.0
    tails_h1 = 0.0
    for d in (d_left, d_right):
        if d <= 0.0:
            continue
        # sin(2 kappa d) = sin(2 pi (2 h d mod 1)); 2 h d is exact
        wiggle = math.sin(TWO_PI * math.remainder(2.0 * h * d, 1.0))
        wiggle /= 4.0 * TWO_PI * h
        tails_l2 += a_sq * (0.5 * d + wiggle)
        tails_h1 += a_sq * FOUR_PI_SQ * (0.5 * d - wiggle)
    return {
        "h1": h1_interior + tails_h1,
        "l2": interior_mass + tails_l2,
        "route": "closed-form",
    }


def _quadrature_numerator(mode_result) -> dict:
    """Trapezoid energies from the solved samples (needs finite samples)."""
    phi = mode_result.phi
    dphi = mode_result.phi_prime / mode_result.h
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(dphi))):
        raise ScaleOutOfReach(
            "numerator quadrature needs dense samples everywhere; a "
            "foreign span was advanced by powered transfer (use the "
            "lambda family)")
    dx = mode_result.x[1] - mode_result.x[0]
    return {
        "h1": float(np.trapezoid(dphi * dphi, dx=dx)),
        "l2": float(np.trapezoid(phi * phi, dx=dx)),
        "route": "quadrature",
    }


def _log_lipschitz_seminorm(omega: Coefficient, h: float) -> float:
    """sup |omega(x+d)-omega(x)| / (d (1+|log d|)) on a frequency-matched
    grid (dyadic offsets from ~1/(8h) up to 1/4)."""
    k = min(21, int(math.ceil(math.log2(max(h, 2.0)))) + 3)
    n = 1 << k
    samples = omega(np.linspace(0.0, omega.length, n + 1))
    entries = difference_seminorms(samples, order="first", norm="pointwise")
    return float(entries["LL"].value)


@dataclass(frozen=True)
class DivergenceTable:
    """Q_m along the concentrating family, with growth bookkeeping.

    One row per family index j; ``growth_factors[m]`` lists the ratios of
    consecutive quotients (see :func:`_growth_factor`: ``nan`` where the
    earlier row is floored, so such a pair never counts as growth).
    ``truncated_at`` marks the first j the sweep could not reach
    (unbuildable density, scale guard or unresolvable wave grid) with
    the reason recorded.
    """

    family: str
    mode: str
    T: float
    m_list: tuple
    rows: tuple
    growth_factors: Mapping[int, tuple]
    truncated_at: Optional[int] = None
    truncation_reason: Optional[str] = None
    params: Optional[dict] = None

    def diverging(self, m: int, factor: float = 10.0,
                  runs: int = 3) -> bool:
        """True when ``runs`` consecutive rows each grow by ``factor``:
        ``runs - 1`` consecutive growth factors all reach ``factor``.
        Growth needs two rows, so ``runs`` below 2 is rejected."""
        if runs < 2:
            raise ValueError(f"runs {runs} must be at least 2")
        fs = self.growth_factors.get(m, ())
        if len(fs) < runs - 1:
            return False
        window = runs - 1
        for i in range(len(fs) - window + 1):
            if all(f >= factor for f in fs[i:i + window]):
                return True
        return False

    def to_summary(self) -> dict:
        return _jsonable(self)


def _impulse_convolution(impulse_trace: np.ndarray,
                         signals: np.ndarray) -> np.ndarray:
    """Traces of zero-data solves forced by ``signals`` (rows) at the
    edges of one unit-impulse march whose trace is ``impulse_trace``.

    The scheme is linear and shift-invariant in its edge data, and the
    first two levels are data, so level 0's edge value enters no stencil
    and reaches only its own trace (discrete Duhamel principle):
    tr[n] = sum_{k=1..n} H[n-k+1] g[k] for n >= 1 and
    tr[0] = H[1] g[0], with H the trace of the march forced by
    delta_{n,1}.  H[1] is the stencil's feed-through of the edge value.
    The sums are FFT products zero-padded to a power of two >= 2 (steps+1),
    so no term wraps around.
    """
    levels = len(impulse_trace)
    size = 1 << (2 * levels - 1).bit_length()
    later = np.array(signals, dtype=float)
    later[:, 0] = 0.0
    out = np.fft.irfft(np.fft.rfft(impulse_trace[1:], size)
                       * np.fft.rfft(later, size), size)[:, :levels]
    out[:, 0] = impulse_trace[1] * signals[:, 0]
    return out


def _corrector_traces(density: Coefficient, h: float, T: float,
                      resolution: int, edges: tuple):
    """Boundary-corrector traces for the edge data ``edges`` e^{iht}.

    Returns (times, traces, flags): ``traces`` maps 'cos' and 'sin' to
    the left-end normal-derivative trace of the zero-data solve whose
    Dirichlet data are edges[0] (x = 0) and edges[1] (x = 1) times
    cos(ht) or sin(ht); ``flags`` are the cosine forcing's.

    No forcing is marched.  The solve is linear in its edge data, so one
    single-column march of a unit impulse at level 1, weighted by
    ``edges`` and without energy tracking, serves both phases: each
    phase's trace is its causal convolution with that march's trace
    (:func:`_impulse_convolution`).  Every row makes one march, whatever
    its edge values.
    """
    grid = _wave_grid(density, T, resolution)
    times = np.arange(grid.steps + 1) * grid.dt
    signals = np.stack([np.cos(h * times), np.sin(h * times)])
    impulse = np.zeros_like(times)
    impulse[1] = 1.0
    rest = np.zeros(len(grid.x))
    left, right = edges
    run = _leapfrog(grid.om, grid.dx, grid.dt, grid.steps, rest, rest,
                    boundary=(left * impulse, right * impulse))
    traces = dict(zip(("cos", "sin"),
                      _impulse_convolution(run.trace_left, signals)))
    flags = _forcing_flags(left * signals[0], right * signals[0], grid.dt)
    return times, traces, flags


def run_counterexample_sweep(
        *, family: str = "lambda",
        j_list: Sequence[int] = (2, 3, 4), m_list: Sequence[int] = (0, 1, 2),
        points_per_wavelength: float = 12.0,
        sequence_kwargs: Optional[dict] = None) -> DivergenceTable:
    """Divergence of Q_m along the trapping quasimode family.

    For each j the mode phi_j(x) e^{i h_j t} solves the wave equation
    exactly but violates the Dirichlet condition by the (exponentially
    small) edge values; a zero-data corrector z with boundary forcing
    -phi(edge) e^{i h t} restores them, so u = v + z is an exact-datum
    solution whose boundary flux is tiny while its energy stays of size
    ~ 1/h.  The cosine and sine phases are run as two real solutions and
    quotients aggregate by max over the two.  The corrector is linear in
    its edge data, so its traces come from one march per row of a unit
    impulse weighted by (phi(0)/h, phi(1)/h) and an FFT convolution per
    phase (:func:`_corrector_traces`), not from marching each forcing.

    The sequences are ``make_sequences(**sequence_kwargs)``, by default
    ``concentrating`` on min(j_list)..max(j_list); the table's ``mode`` is
    theirs.  Modes are solved at :func:`solve_quasimode`'s rtol (1e-12).

    ``family`` 'lambda' activates one marked interval per j (closed-form
    numerators, machine-exact edge states); 'psi' uses the full density
    (numerators by quadrature over the solved samples, so the grid must
    resolve every tabulated interval at once by the rule of
    :func:`_resolution_flags` — at the default resolution cap that
    reaches j in {2, 3}).  The family's densities come from
    :func:`quasimodes._family_members`, and rows are solved in order
    until the first j whose density cannot be built or which the scale
    guard or the wave grid cannot reach; that j truncates the table with
    the reason recorded.  Every row runs at one horizon, the largest
    :func:`_default_horizon` (2 T_omega + 0.5) over the members that were
    built (nan when none was).  ``j_list`` must be strictly increasing.

    ``growth_factors`` follow :func:`_growth_factor`: a row whose
    denominator sits under the trace noise floor has Q = inf, and the
    factor out of it is nan, so it never counts toward ``diverging``.
    """
    j_list = tuple(j_list)
    if not j_list:
        raise ValueError("j_list must hold at least one family index")
    _check_increasing("j_list", j_list)
    if not (math.isfinite(points_per_wavelength)
            and points_per_wavelength > 0):
        raise ValueError(
            f"points_per_wavelength {points_per_wavelength} must be "
            f"positive and finite")
    m_list = tuple(_check_order(m) for m in m_list)
    kw = dict(sequence_kwargs or {})
    kw.setdefault("mode", "concentrating")
    kw.setdefault("j_range", range(min(j_list), max(j_list) + 1))
    params = make_sequences(**kw)

    members, bad_j, bad_reason = _family_members(params, family, j_list)
    T = max((_default_horizon(travel_time(om)) for om in members.values()),
            default=math.nan)

    def solve_row(j: int, density: Coefficient) -> dict:
        entry = params.entry(j)
        res_wave = 1 << max(3, int(math.ceil(math.log2(
            points_per_wavelength * entry.h))))
        if family == "psi":
            # every interval of the shared density feeds the ODE solve
            # (an under-resolved far interval corrupts phi and the edge
            # values beyond it) and the quadrature numerator, so the grid
            # must resolve the finest one even when this row concentrates
            # on a coarser interval
            while (res_wave < _MAX_WAVE_RESOLUTION
                   and _resolution_flags(density, res_wave)):
                res_wave *= 2
        res_wave = min(res_wave, _MAX_WAVE_RESOLUTION)
        if res_wave / entry.h < 4.0:
            raise ScaleOutOfReach(
                f"wave grid cannot resolve h={entry.h:.4g} "
                f"({res_wave / entry.h:.2f} points per wavelength at "
                f"the {res_wave} cap)")
        missed = family == "psi" and _resolution_flags(density, res_wave)
        if missed:
            raise ScaleOutOfReach(
                f"numerator quadrature at the {res_wave} cap: {missed[0]}")

        qm = solve_quasimode(density, j, n_samples=res_wave + 1,
                             checks=False)
        h = qm.h
        n = int(round(qm.stats["n"]))
        if family == "lambda":
            numer = _lambda_numerator(density.trapping.pairs[j], h, n, qm.m,
                                      qm.r, qm.interior_mass)
        else:
            numer = _quadrature_numerator(qm)

        phi0 = float(qm.phi[0])
        phi1 = float(qm.phi[-1])
        dphi0 = float(qm.phi_prime[0])
        dphi1 = float(qm.phi_prime[-1])
        times, corrector, flags = _corrector_traces(
            density, h, T, res_wave, (phi0 / h, phi1 / h))
        dt = times[1] - times[0]

        # total left trace of u = v + z per phase; v contributes the
        # analytic (phi'(0)/h) e^{iht} (identically zero for the
        # lambda family: the edge derivative vanishes bit-exactly)
        total = {name: (dphi0 / h) * trig(h * times) - corrector[name]
                 for name, trig in (("cos", np.cos), ("sin", np.sin))}

        smallness = qm.boundary_energy_0 + qm.boundary_energy_1
        smallness_log = float(np.logaddexp(qm.boundary_energy_0_log,
                                           qm.boundary_energy_1_log))
        numerator = {"cos": numer["h1"], "sin": numer["l2"]}
        dens = {}
        quots = {}
        bound_ratio = {}
        floor_scale = (abs(phi0) + abs(phi1)) / h + abs(dphi0) / h
        dx_wave = density.length / res_wave
        for m in m_list:
            floor = _trace_noise_floor(floor_scale, dx_wave, dt, T, m)
            d_cos = _trace_derivative_energy(total["cos"], dt, m)
            d_sin = _trace_derivative_energy(total["sin"], dt, m)
            dens[m] = {"cos": d_cos, "sin": d_sin}
            q_cos = (math.inf if d_cos <= floor
                     else numerator["cos"] / d_cos)
            q_sin = (math.inf if d_sin <= floor
                     else numerator["sin"] / d_sin)
            quots[m] = max(q_cos, q_sin)
            # transparency column for the proof's denominator bound
            # den <= C(T, omega^*) h^{2(m+3)} (boundary smallness):
            # the tabulated ratio is den / (h^{2(m+3)} smallness), whose
            # boundedness in j is the measured form of the bound
            cap = h ** (2 * (m + 3)) * smallness
            bound_ratio[m] = (max(d_cos, d_sin) / cap if cap > 0
                              else math.inf)

        return {
            "j": j, "h": h, "eps": qm.eps, "n": n,
            "resolution": res_wave, "T": T,
            "numerator_h1": numer["h1"], "numerator_l2": numer["l2"],
            "numerator_times_h": (numer["h1"] + numer["l2"]) * h,
            "numerator_route": numer["route"],
            "boundary_smallness": smallness,
            "smallness_log": smallness_log,
            "seminorm_LL": _log_lipschitz_seminorm(density, h),
            "edge_values": (phi0, phi1),
            "edge_derivatives": (dphi0, dphi1),
            "Q": quots,
            "den": {m: max(dens[m]["cos"], dens[m]["sin"])
                    for m in m_list},
            "den_by_phase": dens,
            "den_bound_ratio": bound_ratio,
            "corrector_flags": flags,
        }

    rows, truncated_at, reason = _family_rows(solve_row, members, bad_j,
                                              bad_reason)

    growth = {}
    for m in m_list:
        qs = [r["Q"][m] for r in rows]
        growth[m] = tuple(_growth_factor(a, b) for a, b in zip(qs, qs[1:]))
    return DivergenceTable(
        family=family, mode=params.mode, T=float(T), m_list=m_list,
        rows=tuple(rows), growth_factors=growth,
        truncated_at=truncated_at, truncation_reason=reason,
        params=params.to_descriptor())


# --------------------------------------------------------------------------
# HUM control
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlResult:
    """Boundary control from the duality CG iteration, plus verification.

    ``control`` acts at x = 0 on the solver time grid ``times``.  The
    terminal state of the controlled evolution is measured in L^2 (for
    the position) and discrete H^{-1} (for the velocity); ``controlled``
    requires their energy, relative to the target's, to be at most the
    tolerance.  ``cost_ratio`` compares the control's squared L^2 norm
    against the target energy |y0|_{L^2}^2 + |y1|_{H^{-1}}^2 -- duality
    bounds it by (a discretization-stable multiple of) the observability
    constant.
    """

    control: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    target_y0: Optional[np.ndarray] = field(default=None, repr=False)
    target_y1: Optional[np.ndarray] = field(default=None, repr=False)
    T: float = 0.0
    m: int = 0
    resolution: int = 0
    iterations: int = 0
    converged: bool = False
    controlled: bool = False
    residuals: tuple = ()
    terminal_u_l2: float = 0.0
    terminal_ut_hm1: float = 0.0
    target_norm_sq: float = 0.0
    terminal_relative: float = 0.0
    control_l2: float = 0.0
    control_norm: float = 0.0
    cost_ratio: float = 0.0
    flags: tuple = ()

    def to_summary(self) -> dict:
        return _jsonable(self)


def _duality_operator(modes, smooth: Callable, dx: float, dt: float):
    """(control, apply) of HUM's duality operator in modal coordinates.

    The unknown stacks the modal coordinates (z_p, z_v) of an adjoint's
    position and velocity, whose first two levels are (p, p + dt v).
    ``control`` is W gamma with gamma^n = e^n_1 / dx the adjoint's node-1
    trace; ``apply`` is the pairing sum_n f^n gamma'^n at f = W gamma,
    as a functional of (z_p', z_v'): two table products and one W.
    """
    n = len(modes.mu)

    def control(z: np.ndarray) -> np.ndarray:
        zp = z[:n]
        return smooth(modes.node1(zp, zp + dt * z[n:]) / dx)

    def apply(z: np.ndarray) -> np.ndarray:
        a0, a1 = modes.node1_adjoint(control(z))
        return np.concatenate([a0 + a1, dt * a1]) / dx

    return control, apply


def hum_control(omega: Coefficient, y0, y1, T: float, m: int = 0, *,
                resolution: int = 512) -> ControlResult:
    """Steer (y0, y1) to rest by a Dirichlet control at x = 0.

    The control is sought as f = W gamma with gamma the boundary trace
    of a homogeneous adjoint solution and W the H^{-m} smoothing weight
    (m a nonnegative integer).  Summing the leapfrog recurrence against a
    second solution telescopes into the exact discrete identity

        sum_n f^n gamma'^n
            = -sum_i omega_i dx/dt^2 [(y^1_i e'^0_i - y^0_i e'^1_i)]

    for any control f steering the first two levels (y^0, y^1) to rest
    and any adjoint e' (gamma'^n = e'^n_1 / dx is the scheme's own
    summation-by-parts trace: the kernel's node-1 series, not the wide
    stencil of the public traces).  Parametrizing adjoints by their two
    starting levels makes the left side, at f = W gamma, a symmetric
    nonnegative form S^T W S, solved by preconditioned conjugate
    gradients on the scheme's closed-form modal solution: there the
    trace map S is one Chebyshev table of (steps+1) x (resolution-1)
    floats (1.7 MB at resolution 256, T = 3, Lipschitz baseline), the
    energy preconditioner is diagonal, and no wave is marched per
    iteration (the tests check the form against the two marches it
    replaces).  The control is verified by one march of the leapfrog
    recurrence on the same grid, from the Taylor start levels of the
    data (those of the right-hand side) with the control as the x = 0
    boundary row; the state is controlled when its terminal energy
    relative to the target's is at most 1e-6.
    """
    m = _check_order(m)
    x, om_nodes, dx, dt, steps = _wave_grid(omega, T, resolution)
    y0n = _as_samples(y0, x)
    y1n = _as_samples(y1, x)
    times = np.arange(steps + 1) * dt

    target_sq = _l2_norm_sq(y0n, dx) + _hminus1_norm_sq(y1n, dx)
    if target_sq == 0.0:
        return ControlResult(
            control=np.zeros(steps + 1), times=times,
            target_y0=y0n, target_y1=y1n, T=T, m=m,
            resolution=resolution, iterations=0, converged=True,
            controlled=True, residuals=(),
            flags=("zero target: the zero control suffices",))

    modes = _leapfrog_modes(om_nodes, dx, dt, steps)
    control_of, apply_A = _duality_operator(
        modes, _smoothing_operator(steps + 1, dt, m), dx, dt)
    # the energy metric (dx L) (+) (dx omega), diagonal in modal
    # coordinates, collapses the O(N^2) Euclidean eigenvalue spread of
    # the level pairing down to the ratio of the observability constants
    inv_metric = 1.0 / (dx * np.concatenate([modes.mu,
                                             np.ones_like(modes.mu)]))

    # the identity's right side at the Taylor start levels (the state
    # the verification evolves), in modal coordinates
    start = _taylor_start(y0n, y1n, om_nodes, dt, dx)
    z0, z1 = (modes.to_modal(level) for level in start)
    b = (dx / dt ** 2) * np.concatenate([z0 - z1, dt * z0])

    w_sol = np.zeros_like(b)
    r = b.copy()
    s = inv_metric * r
    rho = float(np.dot(r, s))
    res_ref = math.sqrt(max(rho, 1e-300))
    d = s.copy()
    residuals = [1.0]
    iterations = 0
    converged = False
    flags = []
    # the terminal energy defect is quadratic in the residual, so the
    # iteration may stop once the squared relative residual clears the
    # controlled-state tolerance with a factor-10 margin
    stop_at = math.sqrt(_HUM_TOLERANCE / 10.0)
    for iterations in range(1, _CG_MAX_ITER + 1):
        Ad = apply_A(d)
        curv = float(np.dot(d, Ad))
        if curv <= 0.0:
            flags.append(
                f"CG stopped on nonpositive curvature at step {iterations} "
                f"(discrete form lost definiteness)")
            break
        alpha = rho / curv
        w_sol = w_sol + alpha * d
        r = r - alpha * Ad
        s = inv_metric * r
        rho_new = float(np.dot(r, s))
        residuals.append(math.sqrt(max(rho_new, 0.0)) / res_ref)
        if residuals[-1] <= stop_at:
            converged = True
            rho = rho_new
            break
        beta = rho_new / rho
        rho = rho_new
        d = s + beta * d

    control = control_of(w_sol)

    # independent verification: one march of the recurrence from the
    # same start levels, the control as its x = 0 boundary row
    u_prev, u_T = _leapfrog(om_nodes, dx, dt, steps, *start,
                            boundary=(control, np.zeros_like(times))).levels
    ut_T = (u_T - u_prev) / dt
    u_T[0] = u_T[-1] = 0.0
    terminal_u = _l2_norm_sq(u_T, dx)
    terminal_ut = _hminus1_norm_sq(ut_T, dx)
    rel = (terminal_u + terminal_ut) / target_sq
    controlled = bool(rel <= _HUM_TOLERANCE)
    if not controlled:
        flags.append(
            f"not controlled: terminal relative energy {rel:.3e} above "
            f"tolerance {_HUM_TOLERANCE:.1e}")
    control_l2 = float(math.sqrt(np.trapezoid(control ** 2, dx=dt)))
    control_norm = (control_l2 if m == 0
                    else _tapered_sobolev_norm(control, -m, dt))
    return ControlResult(
        control=control, times=times, target_y0=y0n, target_y1=y1n,
        T=T, m=m, resolution=resolution, iterations=iterations,
        converged=converged, controlled=controlled,
        residuals=tuple(residuals),
        terminal_u_l2=float(math.sqrt(terminal_u)),
        terminal_ut_hm1=float(math.sqrt(terminal_ut)),
        target_norm_sq=target_sq, terminal_relative=float(rel),
        control_l2=control_l2, control_norm=float(control_norm),
        cost_ratio=float(control_l2 ** 2 / target_sq),
        flags=tuple(flags))
