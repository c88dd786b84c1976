"""Boundary observability quotients, constants, and HUM control.

The quotient under study compares the energy of initial data against the
boundary flux it radiates through an endpoint of ]0, L[:

    Q_m(u0, u1; T)  =  (|u0|_{H^1_0}^2 + int omega |u1|^2)
                       / int_0^T |d^m/dt^m  u_x(t, 0)|^2 dt ,

twice the paper's energy over the flux.  Every quotient, constant and
divergence row reads the energy the scheme conserves and its
summation-by-parts trace u_1/dx, the trace HUM's duality reads.

For densities bounded between positive constants and T larger than twice
the crossing time the quotient is bounded over all data exactly when the
density is regular enough; trapping densities make it blow up along a
family of concentrating modes.  This module measures both sides:

* :func:`observability_quotient` evaluates Q_m (or an H^beta variant) for
  one datum from its own march, flagging quotients that exceed what the
  discrete trace can certify ("unbounded at this resolution").
* :func:`estimate_observability_constant` gives, per frequency cutoff c,
  the exact constant over the scheme's c lowest eigenmodes as position
  and as velocity data: 1/lambda_min of a 2c x 2c matrix whose traces
  are closed-form (the eigenmodes behind both the Castro-Zuazua trapping
  and the uniform-grid defect of Infante & Zuazua, M2AN 33, 1999), with
  an optional cross-check against the same span's constant from marched
  traces, :func:`gramian_observability_constant`.
* :func:`run_counterexample_sweep` tabulates Q_m along the concentrating
  quasimode family: the continuous quasimode gives each row's h,
  numerators and boundary smallness, and Q_m is read from the scheme's
  trapped eigenmode (the mode Castro & Zuazua, ARMA 164, 2002, build the
  counterexample from).
* :func:`hum_control` computes the boundary control of minimal H^{-m}
  norm by conjugate residuals on the duality operator, which minimize the
  residual its stopping rule reads, and verifies the terminal state.

Wave solves run on the leapfrog kernel of :mod:`wavesim` without energy
tracking, each on one grid built once: the Gramian's basis is one block
march.  The closed-form constants and the divergence rows march nothing:
one subset eigensolve (:func:`wavesim._scheme_eigenpairs`: coarse
bisection, inverse iteration and one Rayleigh-Ritz step) of the scheme's
lowest modes serves every cutoff, with the modes' closed-form traces
(:func:`_mode_traces`), and one of a frequency window serves a row, with
the traces' closed-form energies (:func:`_mode_trace_energies`).  Nor do
HUM's conjugate residuals: they run on the scheme's closed-form modal
solution (one Chebyshev table over the whole spectrum, still one
``eigh_tridiagonal``), and only its verification marches, once, from the
data's Taylor start levels with the control as the x = 0 boundary row.

Every entry point takes the derivative order m as a nonnegative integer
and rejects anything else (:func:`_check_order`), a frequency cutoff as
an integer by the same rule (:func:`_check_cutoff`), and a trace
exponent beta as finite and nonnegative, and only with m = 0; all
are checked before any march or eigensolve.  The default horizon is
:func:`_default_horizon`, its test :func:`_admissible`.
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
    _leapfrog,
    _leapfrog_modes,
    _scheme_eigenpairs,
    _taylor_start,
    _tapered_gram,
    _tapered_spectrum,
    _wave_grid,
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
# run_counterexample_sweep: the sqrt(mu) window of the trapped eigenmode,
# in units of the leapfrog-dispersed h (:func:`_window_quotients`)
_WINDOW_LO = 0.99
_WINDOW_HI = 1.015
# hum_control: conjugate-residual iteration cap
_HUM_MAX_ITER = 200
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


def _l2_norm_sq(u: np.ndarray, dx: float) -> float:
    return float(np.trapezoid(u * u, dx=dx))


def _data_energy(u0n: np.ndarray, u1n: np.ndarray, om: np.ndarray,
                 dx: float) -> float:
    """The quotient's numerator |u0|_{H^1_0}^2 + int omega |u1|^2, twice
    the energy the leapfrog conserves: sums of (u_{i+1}-u_i)^2 / dx and
    of dx omega_i u1_i^2; zero data is rejected (the quotient is 0/0)."""
    d = np.diff(u0n)
    energy = float(np.dot(d, d) / dx + np.trapezoid(om * u1n * u1n, dx=dx))
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


def _trace_gram(traces: np.ndarray, dt: float, m: int,
                beta: Optional[float] = None):
    """The trace energy of one trace, or its Gram matrix D[i, j] over the
    columns of a (levels x K) block: int d^m tr_i d^m tr_j dt by m-fold
    differencing and the trapezoid rule, or with ``beta`` the tapered
    H^beta inner product (:func:`wavesim._tapered_gram`)."""
    if beta is not None:
        return _tapered_gram(traces, beta, dt)
    d = np.diff(traces, n=m, axis=0) / dt ** m if m else np.asarray(traces)
    if len(d) < 2:
        raise ValueError("trace too short for this derivative order")
    w = np.full(len(d), dt)
    w[0] = w[-1] = 0.5 * dt
    return (d.T * w) @ d


def _trace_noise_floor(data_scale: float, dx: float, dt: float,
                       T: float, m: float) -> float:
    # the two-point trace (u_1 - u_0)/dx: |coeffs|_1 = 2 rounding units,
    # each m-fold difference contributes at worst a factor 2/dt
    base = 2.0 * _EPS * data_scale / dx
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


def observability_quotient(omega: Coefficient, u0, u1, T: float, m: int = 0,
                           *, beta: Optional[float] = None,
                           resolution: int = 2048, side: str = "left",
                           cumulative: bool = False) -> QuotientResult:
    """Q = (|u0|_{H^1_0}^2 + int omega |u1|^2) / int |d^m u_x(t,0)|^2 dt.

    ``u0``/``u1`` are callables or nodal arrays vanishing at the
    endpoints.  The numerator is :func:`_data_energy`; u_x(t, 0) is the
    trace (u_1 - u_0)/dx, or (u_n - u_{n-1})/dx with ``side="right"``.
    With ``beta`` the denominator is the squared H^beta trace
    norm instead of the m-fold derivative energy (so ``beta`` with m != 0
    or ``cumulative`` is rejected); with ``cumulative`` the
    derivative energies of all orders k <= m are summed, which makes
    Q non-increasing in m by construction.  Zero data is rejected (the
    quotient is 0/0) before any march.  The data are marched once,
    without energy tracking, on the grid of ``resolution`` cells that
    :func:`wavesim.solver_time_grid` describes.  A denominator at or
    below the round-off floor of the discrete trace makes the quotient
    unbounded (+inf).
    """
    m = _check_order(m)
    if beta is not None:
        _check_beta(beta)
        if m != 0 or cumulative:
            raise ValueError(
                f"beta = {beta!r} replaces the order-m trace energy; leave "
                f"m = 0 and cumulative False (got m = {m}, cumulative = "
                f"{cumulative})")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    grid = _wave_grid(omega, T, resolution)
    u0n = _as_samples(u0, grid.x)
    u1n = _as_samples(u1, grid.x)
    numerator = _data_energy(u0n, u1n, grid.om, grid.dx)
    run = _march_data(grid, u0n, u1n)
    trace = run.sbp_left if side == "left" else run.sbp_right
    orders = range(m + 1) if cumulative else (m,)
    parts = tuple(float(_trace_gram(trace, grid.dt, k, beta))
                  for k in orders)
    denominator = float(sum(parts))
    data_scale = max(float(np.max(np.abs(u0n))), float(np.max(np.abs(u1n))))
    floor = _trace_noise_floor(data_scale, grid.dx, grid.dt, T,
                               m if beta is None else beta)
    flags = []
    unbounded = denominator <= floor
    if unbounded:
        flags.append(
            f"quotient unbounded at this resolution: trace energy "
            f"{denominator:.3e} at or below the round-off floor {floor:.3e}")
    T_omega = travel_time(omega)
    return QuotientResult(
        value=math.inf if unbounded else numerator / denominator,
        numerator=numerator, denominator=denominator,
        m=m, beta=beta, T=T, T_omega=T_omega,
        admissible=_admissible(T, T_omega), unbounded=unbounded,
        side=side, resolution=resolution,
        denominator_parts=parts, flags=tuple(flags))


# --------------------------------------------------------------------------
# constants over the scheme's lowest modes
# --------------------------------------------------------------------------


def _mode_traces(grid, mu: np.ndarray, V: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """Left traces, (steps+1) x 2c, of the position data (V_k, 0) and
    then the velocity data (0, V_k) of the modes V_k, in closed form:
    a_k cos(n theta_k) and b_k sin(n theta_k), (a, b) from
    :func:`_trace_amplitudes`."""
    a, b = _trace_amplitudes(grid, mu, V, theta)
    phase = np.multiply.outer(np.arange(grid.steps + 1), theta)
    return np.hstack([a * np.cos(phase), b * np.sin(phase)])


def _trace_amplitudes(grid, mu: np.ndarray, V: np.ndarray,
                      theta: np.ndarray) -> tuple:
    """(a, b): the trace amplitudes of the modes V_k as position and as
    velocity data.

    The Taylor start (:func:`wavesim._taylor_start`) gives mode k the
    levels V_k cos(n theta_k) as position data and
    V_k dt (1 - dt^2 mu_k / 6) sin(n theta_k) / sin(theta_k) as velocity
    data; each trace is that times V_k's trace g_k = V_{0k} / dx.
    """
    g = V[0] / grid.dx
    return g, g * (grid.dt * (1.0 - grid.dt ** 2 * mu / 6.0) / np.sin(theta))


def _mode_trace_energies(grid, mu: np.ndarray, V: np.ndarray,
                         theta: np.ndarray, m: int) -> np.ndarray:
    """The diagonal of :func:`_trace_gram` of :func:`_mode_traces` at
    order m: the 2c trace energies D_m of the modes as position, then as
    velocity data, in closed form, with no (steps+1)-long array.

    Each trace is a cos(n theta + phi) (phi = 0 for position data, -pi/2
    for velocity data).  Its m-th difference is
    a (2 sin(theta/2))^m cos(n theta + psi), psi = phi + m (theta + pi)/2,
    and over n = 0..L, L = steps - m, the sum of cos^2(n theta + psi) is
    (L+1)/2 + sin((L+1) theta) cos(L theta + 2 psi) / (2 sin theta); the
    trapezoid rule takes off half of its two end terms.
    """
    L = grid.steps - m
    if L < 1:
        raise ValueError("trace too short for this derivative order")
    amp = np.concatenate(_trace_amplitudes(grid, mu, V, theta))
    th = np.tile(theta, 2)
    phi = np.repeat([0.0, -0.5 * np.pi], len(theta))
    psi = phi + 0.5 * m * (th + np.pi)
    squares = (0.5 * (L + 1)
               + np.sin((L + 1) * th) * np.cos(L * th + 2.0 * psi)
               / (2.0 * np.sin(th))
               - 0.5 * (np.cos(psi) ** 2 + np.cos(L * th + psi) ** 2))
    step = 2.0 * np.sin(0.5 * th) / grid.dt
    return grid.dt * (amp * step ** m) ** 2 * squares


def _mode_energies(dx: float, mu: np.ndarray) -> np.ndarray:
    """Data energies N: dx mu_k of the modes V_k as position data, then dx
    as velocity data (V^T K V = diag(mu), V^T M V = I)."""
    return dx * np.concatenate([mu, np.ones_like(mu)])


def _mode_records(grid, cutoffs: tuple, m: int,
                  beta: Optional[float] = None, marched: bool = False):
    """(records, flags): per cutoff c, the constant of the span of the
    scheme's c lowest modes V = M^{-1/2} Q as position and velocity data.

    D is the Gram of their traces (:func:`_trace_gram`), closed-form
    (:func:`_mode_traces`) or ``marched`` in one block; their data energy
    N (:func:`_mode_energies`) is diagonal.  The constant is 1/lambda_min
    of N^{-1/2} D N^{-1/2} restricted to the cutoff's 2c data, by
    ``eigvalsh``.  One rule below round-off:
    at lambda_min <= 1e-12 lambda_max, negative values included, the
    constant is inf and a flag names c.
    """
    mu, vectors, root_om, theta = _scheme_eigenpairs(grid.om, grid.dx,
                                                     grid.dt, cutoffs[-1])
    V = vectors / root_om[:, None]
    if marched:
        block = np.zeros((len(grid.x), len(mu)))
        block[1:-1] = V
        rest = np.zeros_like(block)
        traces = _march_data(grid, np.hstack([block, rest]),
                             np.hstack([rest, block])).sbp_left
    else:
        traces = _mode_traces(grid, mu, V, theta)
    scale = 1.0 / np.sqrt(_mode_energies(grid.dx, mu))
    D = _trace_gram(traces, grid.dt, m, beta) * np.outer(scale, scale)
    top = len(mu)
    records, flags = [], []
    for c in cutoffs:
        index = np.r_[:c, top:top + c]
        vals = np.linalg.eigvalsh(D[np.ix_(index, index)])
        lam_min, lam_max = float(vals[0]), float(vals[-1])
        unbounded = not lam_min > 1e-12 * lam_max
        records.append({
            "cutoff": c, "value": math.inf if unbounded else 1.0 / lam_min,
            "lambda_min": lam_min, "lambda_max": lam_max,
            "unbounded": unbounded, "basis_size": 2 * c,
        })
        if unbounded:
            flags.append(f"cutoff {c}: pencil below round-off (lambda_min "
                         f"{lam_min:.2e}, lambda_max {lam_max:.2e}), "
                         f"constant taken as inf")
    return records, tuple(flags)


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
    """The observability constant over the scheme's lowest modes.

    ``constants`` maps each frequency cutoff c to the exact constant of
    the span of the c lowest modes (nested, so never decreasing in c);
    ``rows`` holds each cutoff's pencil record (:func:`_mode_records`).
    ``growth_factors`` are the successive ratios of the constants (a
    bounded-observability density shows flat factors; a trapping one
    grows without saturating), and ``overall_growth`` the last over the
    first, both by :func:`_growth_factor` (nan out of an inf constant).
    ``flags``: :func:`_resolution_flags`, then the pencils' round-off
    flags.  No constant depends on the recorded ``seed`` or ``n_random``.
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


def _check_cutoff(cutoff, resolution: int) -> int:
    """The cutoff as an int.  A cutoff counts modes, so it is an integer
    (a fractional, nan or inf cutoff is rejected, not rounded) of at
    least 1; past half the grid's modes the constant measures the
    uniform-grid group-velocity defect (Infante & Zuazua, M2AN 33,
    1999), not omega."""
    if not float(cutoff).is_integer():
        raise ValueError(f"cutoff {cutoff!r} must be an integer")
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff {cutoff} must be at least 1")
    if cutoff > resolution // 2:
        raise ValueError(
            f"cutoff {cutoff} exceeds resolution {resolution} // 2, where "
            f"uniform-grid modes lose their group velocity")
    return cutoff


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
    """The observability constant per frequency cutoff, in closed form.

    ``T`` defaults to twice the crossing time plus 0.5.  For each cutoff c
    the constant is the largest quotient Q_m (with ``beta`` and m = 0,
    the H^beta one) over the span of the scheme's c lowest eigenmodes as
    position and as velocity data, on the grid of ``resolution`` cells:
    1/lambda_min of a 2c x 2c matrix (:func:`_mode_records`), inf and
    flagged below round-off.  One subset eigensolve of the lowest modes
    (:func:`wavesim._scheme_eigenpairs`) serves every cutoff, and the
    modes' traces are closed-form: nothing is marched.
    ``cross_check`` holds the closed-form and the marched
    (:func:`gramian_observability_constant`) constant of one coarse
    cutoff and resolution, and in ``"ensemble_over_gramian"`` the first
    over the second (1 up to round-off); the marched route has no
    H^beta, so ``cross_check`` with a ``beta`` is rejected before any
    eigensolve.  ``n_random`` (nonnegative) and ``seed`` (a nonnegative
    integer) are checked and recorded; no constant depends on them.
    Every cutoff must be an integer of at most half its resolution, and
    the cutoffs strictly increasing.  An unresolved trapping density is
    flagged, not rejected.
    """
    m = _check_order(m)
    if beta is not None:
        _check_beta(beta)
        if m != 0:
            raise ValueError(
                f"beta = {beta!r} replaces the order-m trace energy; leave "
                f"m = 0 (got m = {m})")
    cuts = tuple(_check_cutoff(cutoff, resolution) for cutoff in cutoffs)
    if not cuts:
        raise ValueError("cutoffs must hold at least one cutoff")
    _check_increasing("cutoffs", cuts)
    if n_random < 0:
        raise ValueError(f"n_random {n_random} must be nonnegative")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed {seed!r} must be a nonnegative integer")
    if cross_check:
        if beta is not None:
            raise ValueError(
                "cross_check compares with the Gramian's Q_m constant, "
                "which has no beta; leave beta None")
        _check_resolution(cross_check_resolution)
        cross_check_cutoff = _check_cutoff(cross_check_cutoff,
                                           cross_check_resolution)
    T_omega = travel_time(omega)
    if T is None:
        T = _default_horizon(T_omega)
    records, round_off = _mode_records(_wave_grid(omega, T, resolution),
                                       cuts, m, beta)
    constants = {r["cutoff"]: r["value"] for r in records}
    factors = [_growth_factor(constants[lo], constants[hi])
               for lo, hi in zip(cuts, cuts[1:])]
    check = None
    if cross_check:
        gram = gramian_observability_constant(
            omega, T, cross_check_cutoff,
            resolution=cross_check_resolution, m=m)["value"]
        closed = _mode_records(_wave_grid(omega, T, cross_check_resolution),
                               (cross_check_cutoff,), m)[0][0]["value"]
        check = {
            "gramian": gram, "closed_form": closed,
            "cutoff": cross_check_cutoff,
            "resolution": cross_check_resolution,
            "ensemble_over_gramian": closed / gram,
        }
    return ObservabilityReport(
        omega_kind=omega.kind, omega_descriptor=omega.to_descriptor(),
        T=T, T_omega=T_omega,
        admissible=_admissible(T, T_omega), m=m, beta=beta,
        cutoffs=cuts, constants=constants, rows=tuple(records),
        growth_factors=tuple(factors),
        resolution=resolution, seed=int(seed), n_random=n_random,
        cross_check=check,
        flags=_resolution_flags(omega, resolution) + round_off)


def gramian_observability_constant(omega: Coefficient, T: float,
                                   cutoff: int, *, resolution: int = 256,
                                   m: int = 0) -> dict:
    """The constant of the span of the scheme's ``cutoff`` lowest modes,
    from marched traces: the reference for the closed form.

    The 2*cutoff basis data (each mode as position data, then as
    velocity data) are marched in one block, and D is the trapezoid Gram
    of their traces' m-th time differences.  Returns the pencil record
    of :func:`_mode_records`: ``"value"`` is 1/lambda_min, the worst
    quotient over the whole span, inf when the pencil is below
    round-off.  The cutoff is at most half the resolution; ``"flags"``
    as in the closed-form report.
    """
    m = _check_order(m)
    cutoff = _check_cutoff(cutoff, resolution)
    (record,), round_off = _mode_records(_wave_grid(omega, T, resolution),
                                         (cutoff,), m, marched=True)
    return {**record, "resolution": resolution, "m": m, "T": T,
            "flags": list(_resolution_flags(omega, resolution) + round_off)}


# --------------------------------------------------------------------------
# divergence sweep along the concentrating family
# --------------------------------------------------------------------------


def _lambda_numerator(pair, h: float, n: int, m: float, r: float) -> dict:
    """Closed-form energies |phi/h|_{H^1_0}^2 and int omega phi^2.

    Inside the marked interval phi(x) = w(h(x-m)), (phi/h)'(x) =
    w'(h(x-m)) and omega(x) = alpha(h(x-m)), so both energies are
    one-period integrals times a geometric sum
    (:func:`quasimodes._interval_integral`).  On the flat tails (omega
    = 4 pi^2) phi is the exact rotation launched from the edge state
    (+e^{-eps n/2}, 0), whose phase reduces exactly because h is an
    integer and the edge distances are dyadic.
    """
    h1_interior = _interval_integral(pair, h, n,
                                     lambda s: pair.w_prime(s) ** 2)
    l2_interior = _interval_integral(
        pair, h, n, lambda s: pair.alpha(s) * pair.w(s) ** 2)
    a_sq = FOUR_PI_SQ * math.exp(-pair.eps * n)
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
        tails_h1 += a_sq * (0.5 * d - wiggle)
    return {
        "h1": h1_interior + tails_h1,
        "l2": l2_interior + tails_l2,
        "route": "closed-form",
    }


def _quadrature_numerator(mode_result, density: Coefficient) -> dict:
    """The same energies by the trapezoid rule (needs finite samples)."""
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
        "l2": float(np.trapezoid(density(mode_result.x) * phi ** 2, dx=dx)),
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
    (unbuildable density, scale guard, unresolvable wave grid or empty
    eigenmode window) with the reason recorded.  Every row runs at the
    table's one horizon ``T``, that of the largest member built, so a row
    compares across tables only where their ``T`` agree.
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
        Growth needs two rows, so ``runs`` below 2 is rejected, and so
        is an order ``m`` the sweep did not measure."""
        if runs < 2:
            raise ValueError(f"runs {runs} must be at least 2")
        if m not in self.m_list:
            raise ValueError(
                f"order m = {m} was not measured (m_list = {self.m_list})")
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


def _window_quotients(grid, h: float, m_list: tuple) -> dict:
    """A divergence row's Q_m from the scheme's eigenmodes near h.

    The window holds sqrt(mu) in ]_WINDOW_LO c, _WINDOW_HI c], with
    c = h sin(pi h dx) / (pi h dx) the leapfrog-dispersed h at the
    families' flat density 4 pi^2.  Each mode is a position and a velocity
    datum: Q_m = max N / D_m, N from :func:`_mode_energies` and D_m the
    diagonal of :func:`_trace_gram` of :func:`_mode_traces`, in closed
    form (:func:`_mode_trace_energies`, so no trace array is built); a
    D_m at or below its data's noise floor reads inf (as in
    :func:`observability_quotient`).  ``den`` is the D_m behind Q_m,
    ``trapped_frequency`` sqrt(mu) of the Q_0 maximizer and
    ``trapped_datum`` its kind, flagged at the window's lowest or highest
    mode.  An empty window raises :class:`quasimodes.ScaleOutOfReach`.
    """
    c = h * float(np.sinc(h * grid.dx))
    lo, hi = _WINDOW_LO * c, _WINDOW_HI * c
    mu, vectors, root_om, theta = _scheme_eigenpairs(
        grid.om, grid.dx, grid.dt, window=(lo, hi))
    count = len(mu)
    if not count:
        raise ScaleOutOfReach(
            f"no eigenmode of the scheme with sqrt(mu) in ]{lo:.6g}, "
            f"{hi:.6g}] around h = {h:.6g}")
    # in place: with np.abs(V) below, two n x k arrays at most
    V = vectors
    V /= root_om[:, None]
    N = _mode_energies(grid.dx, mu)
    data_scale = np.tile(np.max(np.abs(V), axis=0), 2)
    Q, den = {}, {}
    for m in sorted({0, *m_list}):
        D = _mode_trace_energies(grid, mu, V, theta, m)
        floor = _trace_noise_floor(data_scale, grid.dx, grid.dt,
                                   grid.dt * grid.steps, m)
        q = np.divide(N, D, out=np.full_like(N, math.inf), where=D > floor)
        k = int(np.argmax(q))
        if m == 0:
            best = k
        if m in m_list:
            Q[m], den[m] = float(q[k]), float(D[k])
    edge = best % count in (0, count - 1)
    return {
        "Q": Q, "den": den,
        "trapped_frequency": float(np.sqrt(mu[best % count])),
        "trapped_datum": "position" if best < count else "velocity",
        "window": {"lo": lo, "hi": hi, "modes": count},
        "flags": ("trapped mode may lie outside the window",) if edge else (),
    }


def run_counterexample_sweep(
        *, family: str = "lambda",
        j_list: Sequence[int] = (2, 3, 4), m_list: Sequence[int] = (0, 1, 2),
        points_per_wavelength: float = 12.0,
        sequence_kwargs: Optional[dict] = None) -> DivergenceTable:
    """Divergence of Q_m along the trapping quasimode family.

    For each j the continuous mode phi_j(x) e^{i h_j t} solves the wave
    equation exactly but misses the Dirichlet condition by its
    (exponentially small) edge values: the paper's construction, which
    gives the row's h, numerators, boundary smallness and edge values.
    Q_m is read from the scheme's own trapped eigenmode, whose Dirichlet
    values are exact, by one eigensolve per row on its wave grid and no
    march (:func:`_window_quotients`).

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
    until the first j whose density cannot be built, which the scale
    guard or the wave grid cannot reach, or whose window holds no
    eigenmode; that j truncates the table with the reason recorded.
    Every row runs at one horizon, the largest :func:`_default_horizon`
    (2 T_omega + 0.5) over the members built (nan when none was), so a
    row depends on the ``j_list`` it was swept with: the lambda n0 = 30
    j=2 row at ppw 6 reads Q_0 0.48673 beside j=3 and 0.48689 alone.
    ``j_list`` must be strictly increasing.

    ``growth_factors`` follow :func:`_growth_factor`: a row whose
    maximizing datum sits under the trace noise floor has Q = inf, and the
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
    if not m_list:
        raise ValueError("m_list must hold at least one order")
    kw = dict(sequence_kwargs or {})
    kw.setdefault("mode", "concentrating")
    kw.setdefault("j_range", range(min(j_list), max(j_list) + 1))
    params = make_sequences(**kw)

    members, bad_j, bad_reason = _family_members(params, family, j_list)
    T = max((_default_horizon(travel_time(om)) for om in members.values()),
            default=math.nan)

    def solve_row(j: int, density: Coefficient) -> dict:
        h = params.entry(j).h
        res_wave = 1 << max(3, int(math.ceil(math.log2(
            points_per_wavelength * h))))
        if family == "psi":
            # every interval of the shared density is sampled by the eigen
            # window's wave grid and by the quadrature numerator (the
            # quasimode's res_wave + 1 samples; the ODE solve itself does
            # not depend on res_wave), so the grid must resolve the finest
            # one even when this row concentrates on a coarser interval
            while (res_wave < _MAX_WAVE_RESOLUTION
                   and _resolution_flags(density, res_wave)):
                res_wave *= 2
        res_wave = min(res_wave, _MAX_WAVE_RESOLUTION)
        if res_wave / h < 4.0:
            raise ScaleOutOfReach(
                f"wave grid cannot resolve h={h:.4g} ({res_wave / h:.2f} "
                f"points per wavelength at the {res_wave} cap)")
        missed = family == "psi" and _resolution_flags(density, res_wave)
        if missed:
            raise ScaleOutOfReach(
                f"numerator quadrature at the {res_wave} cap: {missed[0]}")

        qm = solve_quasimode(density, j, n_samples=res_wave + 1,
                             checks=False)
        n = int(round(qm.stats["n"]))
        if family == "lambda":
            numer = _lambda_numerator(density.trapping.pairs[j], h, n, qm.m,
                                      qm.r)
        else:
            numer = _quadrature_numerator(qm, density)
        return {
            "j": j, "h": h, "eps": qm.eps, "n": n,
            "resolution": res_wave, "T": T,
            "numerator_h1": numer["h1"], "numerator_l2": numer["l2"],
            "numerator_times_h": (numer["h1"] + numer["l2"]) * h,
            "numerator_route": numer["route"],
            "boundary_smallness": qm.boundary_energy_0 + qm.boundary_energy_1,
            "smallness_log": float(np.logaddexp(qm.boundary_energy_0_log,
                                                qm.boundary_energy_1_log)),
            "seminorm_LL": _log_lipschitz_seminorm(density, h),
            "edge_values": (float(qm.phi[0]), float(qm.phi[-1])),
            "edge_derivatives": (float(qm.phi_prime[0]),
                                 float(qm.phi_prime[-1])),
            **_window_quotients(_wave_grid(density, T, res_wave), h, m_list),
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
    """Boundary control from the duality iteration, plus verification.

    ``control`` acts at x = 0 on the solver time grid ``times``.  The
    terminal state of the controlled evolution is measured in L^2 (for
    the position) and discrete H^{-1} (for the velocity); ``controlled``
    requires their energy, relative to the target's, to be at most the
    tolerance.  ``residuals``, the relative residual in the energy metric
    at each step, never increases: conjugate residuals minimize it.
    ``cost_ratio`` compares the control's squared L^2 norm against the
    target energy |y0|_{L^2}^2 + |y1|_{H^{-1}}^2 -- duality bounds it by
    (a discretization-stable multiple of) the observability constant.
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

    for any control f steering the first two levels (y^0, y^1) to rest and
    any adjoint e' (gamma'^n = e'^n_1 / dx is the scheme's own
    summation-by-parts trace, which every quotient also reads).
    Parametrizing adjoints by their two starting levels makes the left
    side, at f = W gamma, a symmetric nonnegative form S^T W S, solved by
    preconditioned conjugate residuals, which minimize the energy-metric
    residual the stopping rule reads (its square bounds the terminal energy;
    conjugate gradients let it wander above the stopping level), on the
    scheme's closed-form modal solution: there the trace map S is one
    Chebyshev table of (steps+1) x (resolution-1) floats (1.7 MB at
    resolution 256, T = 3, Lipschitz baseline), the energy preconditioner is
    diagonal, and no wave is marched per iteration (the tests check the form
    against the two marches it replaces).  The control is verified by one
    march of the leapfrog recurrence on the same grid, from the Taylor start
    levels of the data (those of the right-hand side) with the control as
    the x = 0 boundary row; the state is controlled when its terminal energy
    relative to the target's is at most 1e-6.
    """
    m = _check_order(m)
    x, om_nodes, dx, dt, steps = _wave_grid(omega, T, resolution)
    y0n = _as_samples(y0, x)
    y1n = _as_samples(y1, x)
    # the Taylor start levels reject a y0 or y1 that does not vanish at
    # the ends before any norm or modal solve
    start = _taylor_start(y0n, y1n, om_nodes, dt, dx, names=("y0", "y1"))
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
    inv_metric = 1.0 / _mode_energies(dx, modes.mu)

    # the identity's right side at the Taylor start levels (the state
    # the verification evolves), in modal coordinates
    z0, z1 = (modes.to_modal(level) for level in start)
    b = (dx / dt ** 2) * np.concatenate([z0 - z1, dt * z0])

    w_sol = np.zeros_like(b)
    r = b.copy()
    s = inv_metric * r
    res_ref = math.sqrt(max(float(np.dot(r, s)), 1e-300))
    d, Ad = s, apply_A(s)
    rho = float(np.dot(s, Ad))
    residuals = [1.0]
    iterations = 0
    converged = False
    flags = []
    # the terminal energy defect is quadratic in the residual, so the
    # iteration may stop once the squared relative residual clears the
    # controlled-state tolerance with a factor-10 margin
    stop_at = math.sqrt(_HUM_TOLERANCE / 10.0)
    for iterations in range(1, _HUM_MAX_ITER + 1):
        curv = float(np.dot(Ad, inv_metric * Ad))
        if rho <= 0.0 or curv <= 0.0:
            flags.append(
                f"stopped on nonpositive curvature at step {iterations} "
                f"(discrete form lost definiteness)")
            break
        alpha = rho / curv
        w_sol = w_sol + alpha * d
        r = r - alpha * Ad
        s = inv_metric * r
        residuals.append(math.sqrt(max(float(np.dot(r, s)), 0.0)) / res_ref)
        if residuals[-1] <= stop_at:
            converged = True
            break
        As = apply_A(s)
        rho_new = float(np.dot(s, As))
        beta = rho_new / rho
        rho = rho_new
        d = s + beta * d
        Ad = As + beta * Ad

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
    control_norm = (control_l2 if m == 0 else
                    math.sqrt(float(_tapered_gram(control, -m, dt))))
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
