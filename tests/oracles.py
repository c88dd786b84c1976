"""Independent checks of the wave solver and of solved quasimodes.

The package holds the chain (coefficients, quasimodes, the leapfrog,
quotients and controls); the tests check it against the paper's own two
arguments, which live here, outside it, and import from it only
constants and types:

* the sidewise solver, the flux-to-energy oracle of the paper's
  argument: it re-reads the same equation as an evolution in x
  (u_xx = omega u_tt) and, started at x = 0 from the boundary Cauchy
  data (u = 0, u_x = a forward run's ``trace_left``), rebuilds the field
  and its energies F_0, F_1 (``_SIDEWISE_K_MAX``) across the interval
  from the flux alone, sharing nothing with the leapfrog but that trace.
  It shrinks the transverse window one grid point per step - a superset
  of the true domain-of-dependence shrink rate sqrt(omega^*) dx per unit
  x at the CFL number 0.9, so a full crossing needs
  T > 2 sqrt(omega^*) / 0.9;
* :func:`apply_D_omega`, the discrete operator whose powers the time
  differences of a trace must reproduce;
* :func:`energy_gronwall_check`, the Gronwall energy comparison that
  certifies a solved quasimode pair by pair;
* :func:`collocation_stage_steps`, the generic reverse check's
  Gauss-Legendre step matrices from the full 6x6 stage system, against
  which the check's eliminated 3x3 form is tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from waveobs.coeff import FOUR_PI_SQ, Coefficient, PeriodicPair
from waveobs.quasimodes import _GL_A, _GL_B, QuasimodeResult
from waveobs.wavesim import _CFL

# apply_D_omega rejects a result below this many times its noise estimate
_SNR_FLOOR = 100.0
# sidewise_evolve: the highest order k of the sidewise energies F_k
_SIDEWISE_K_MAX = 1
# energy_gronwall_check: the relative slack of both energy bounds
_GRONWALL_TOL = 1e-6


# --------------------------------------------------------------------------
# sidewise evolution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SidewiseSlice:
    """(u, u_x) along a vertical line x = x0, on a uniform time grid."""

    x0: float
    times: np.ndarray
    u: np.ndarray
    u_x: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.u) == len(self.u_x)):
            raise ValueError("slice arrays must share one time grid")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SidewiseResult:
    """Fields of the x-marched evolution on a shrinking time window.

    ``levels[l]`` holds u(x_values[l], t) on times[trim[l] : N-trim[l]]
    (one grid point is trimmed per side per step, a conservative cover
    of the sqrt(omega^*)-speed domain of dependence).  ``F[k]`` are the
    sidewise energies, integrated over each level's own window.
    """

    x_values: np.ndarray
    dt: float
    dxs: float
    times: np.ndarray
    trim: np.ndarray
    levels: tuple
    F: Mapping[int, np.ndarray]
    omega_values: np.ndarray

    def field_at(self, x: float):
        """(x_used, t_window, u) at the level nearest to x."""
        idx = int(np.argmin(np.abs(self.x_values - x)))
        tr = int(self.trim[idx])
        sl = slice(tr, len(self.times) - tr)
        return float(self.x_values[idx]), self.times[sl], self.levels[idx]


def sidewise_evolve(omega: Coefficient, slc: SidewiseSlice, span: float,
                    direction: str = "right") -> SidewiseResult:
    """March u_xx = omega(x) u_tt in x from the slice at x0.

    From the boundary slice (x0 = 0, u = 0, u_x = a forward run's
    ``trace_left``) and ``span=1`` this rebuilds the whole field from
    the flux alone: the paper's sidewise energy argument, and the tests'
    oracle for the observability quotient.  ``direction`` 'right'
    advances toward larger x, 'left' toward smaller.  The time window
    shrinks by one point per side per x-step; the span is rejected when
    the remaining window would drop below eight points (the slice no
    longer determines the solution there).  The x-step is the largest
    dividing the span with dx <= _CFL dt / sqrt(omega^*).  ``F`` holds the
    sidewise energies F_0, F_1 (``_SIDEWISE_K_MAX``).
    """
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left'")
    if span <= 0:
        raise ValueError("span must be positive")
    sign = 1.0 if direction == "right" else -1.0
    x1 = slc.x0 + sign * span
    if not (-1e-12 <= x1 <= omega.length + 1e-12):
        raise ValueError("span leaves the domain")
    dt = slc.dt
    om_sup = omega.omega_upper
    dxs_max = _CFL * dt / math.sqrt(om_sup)
    steps = max(1, int(math.ceil(span / dxs_max - 1e-12)))
    dxs = span / steps
    N = len(slc.times)
    if N - 2 * steps < 8:
        raise ValueError(
            "span exceeds the domain of dependence of the slice "
            f"(need {2 * steps + 8} time points, have {N})")

    xs = slc.x0 + sign * dxs * np.arange(steps + 1)
    om = omega(np.clip(xs, 0.0, omega.length))

    u0 = np.asarray(slc.u, dtype=float).copy()
    ux = sign * np.asarray(slc.u_x, dtype=float)
    # Taylor start in x: u_xx = omega u_tt, u_xxx = omega (u_x)_tt
    u0_tt = np.zeros_like(u0)
    u0_tt[1:-1] = (u0[2:] - 2 * u0[1:-1] + u0[:-2]) / dt ** 2
    ux_tt = np.zeros_like(ux)
    ux_tt[1:-1] = (ux[2:] - 2 * ux[1:-1] + ux[:-2]) / dt ** 2
    u1 = (u0 + dxs * ux + 0.5 * dxs ** 2 * om[0] * u0_tt
          + dxs ** 3 / 6.0 * om[0] * ux_tt)

    # level l lives on t-indices [l, N-1-l]: length N - 2l
    levels = [u0, u1[1:-1]]
    mu = dxs ** 2 / dt ** 2
    for l in range(1, steps):
        prev, cur = levels[l - 1], levels[l]
        nxt = (2 * cur[1:-1] - prev[2:-2]
               + mu * om[l] * (cur[2:] - 2 * cur[1:-1] + cur[:-2]))
        levels.append(nxt)

    trim = np.arange(steps + 1)
    F = {k: np.empty(steps + 1) for k in range(_SIDEWISE_K_MAX + 1)}
    for l in range(steps + 1):
        arr = levels[l]
        if l == 0:
            uxl = np.asarray(slc.u_x, dtype=float)
        elif l < steps:
            # centered in x: neighbors trimmed to this level's window
            uxl = sign * (np.pad(levels[l + 1], 1, mode="edge")
                          - levels[l - 1][1:-1]) / (2 * dxs)
        else:
            uxl = sign * (arr - levels[l - 1][1:-1]) / dxs
        m = min(len(arr), len(uxl))
        arr_m, ux_m = arr[:m], uxl[:m]
        for k in range(_SIDEWISE_K_MAX + 1):
            du = np.diff(arr_m, n=k + 1) / dt ** (k + 1)
            dux = np.diff(ux_m, n=k) / dt ** k
            mlen = min(len(du), len(dux))
            if mlen < 2:
                F[k][l] = math.nan
                continue
            F[k][l] = 0.5 * float(np.trapezoid(
                dux[:mlen] ** 2 + om[l] * du[:mlen] ** 2, dx=dt))
    return SidewiseResult(
        x_values=xs, dt=dt, dxs=sign * dxs, times=np.asarray(slc.times),
        trim=trim, levels=tuple(levels), F=F, omega_values=om)


# --------------------------------------------------------------------------
# the operator D_omega
# --------------------------------------------------------------------------

def apply_D_omega(f: np.ndarray, omega: Coefficient, m: int) -> np.ndarray:
    """m-fold application of (1/omega) d^2/dx^2 (discrete), m >= 0.

    This is the leapfrog's own spatial operator: the second time
    difference of a homogeneous run is dt^2 D_omega of its level, so the
    2k-th time difference of a boundary trace is the trace of the run
    started from D_omega^k of the first two levels (the tests' oracle
    for the ``np.diff`` route of Q_m).  Endpoint values are treated as
    Dirichlet zeros.  Each application multiplies round-off noise by
    about 4/(dx^2 omega_*); the result is rejected when its magnitude
    falls below ``_SNR_FLOOR`` times the accumulated noise estimate
    (resolution too low for this power).
    """
    if m < 0:
        raise ValueError("power m must be nonnegative")
    g = np.asarray(f, dtype=float).copy()
    if m == 0:
        return g
    n = len(g) - 1
    dx = omega.length / n
    x = np.linspace(0.0, omega.length, n + 1)
    om = omega(x)
    noise = np.finfo(float).eps * float(np.max(np.abs(g)))
    amp = 4.0 / (dx ** 2 * float(om.min()))
    for _ in range(m):
        out = np.zeros_like(g)
        out[1:-1] = (g[2:] - 2 * g[1:-1] + g[:-2]) / dx ** 2 / om[1:-1]
        noise = noise * amp + np.finfo(float).eps * float(
            np.max(np.abs(out)) if np.max(np.abs(out)) > 0 else 1.0)
        g = out
    scale = float(np.max(np.abs(g)))
    if scale < _SNR_FLOOR * noise:
        raise ValueError(
            f"D_omega^{m} at this resolution is dominated by round-off "
            f"(signal {scale:.3e} vs noise floor {noise:.3e})")
    return g


# --------------------------------------------------------------------------
# Gronwall energy check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GronwallReport:
    """Per-pair Gronwall ratios for a solved quasimode.

    ``records`` holds one dict per tested pair with the measured energies,
    the quadrature exponents and both ratios (the weighted-energy ratio
    ``ratio_E`` always, the tilde ratio only where the density is
    differentiable).  A ratio above ``1 + tol`` anywhere makes ``ok``
    False.
    """

    records: tuple
    ratio_sup_E: float
    ratio_sup_Et: Optional[float]
    tilde_declined: bool
    decline_reason: Optional[str]
    tol: float

    @property
    def ok(self) -> bool:
        if self.ratio_sup_E > 1.0 + self.tol:
            return False
        if self.ratio_sup_Et is not None \
                and self.ratio_sup_Et > 1.0 + self.tol:
            return False
        return True


@lru_cache(maxsize=64)
def _abs_gap_tables(pair: PeriodicPair):
    """Cumulative one-period integrals of |4pi^2-alpha| and |alpha'|/alpha.

    alpha is smooth and 1-periodic, so a fine trapezoid cumulative is
    spectrally accurate; alpha' comes from a central difference (the
    closed form's derivative chain is long and the Gronwall exponents
    tolerate ~1e-7 relative quadrature error).
    """
    g = 1 << 13
    s = np.arange(g + 1) / g
    a_vals = pair.alpha(s)
    gap = np.abs(FOUR_PI_SQ - a_vals)
    delta = 1e-6
    ap = (pair.alpha(s + delta) - pair.alpha(s - delta)) / (2.0 * delta)
    logd = np.abs(ap) / a_vals
    cum_gap = np.concatenate([[0.0], np.cumsum(
        0.5 * (gap[1:] + gap[:-1]) / g)])
    cum_logd = np.concatenate([[0.0], np.cumsum(
        0.5 * (logd[1:] + logd[:-1]) / g)])
    return s, cum_gap, cum_logd


def _periodic_cumulative(sigma: float, grid, cum) -> float:
    """F(sigma) = int_0^sigma f for f >= 0 even and 1-periodic (F odd)."""
    s = abs(sigma)
    whole = math.floor(s)
    frac = s - whole
    val = whole * cum[-1] + float(np.interp(frac, grid, cum))
    return -val if sigma < 0 else val


def _exponents_structured(omega, x1, x2):
    """(h-free) quadrature pieces of both Gronwall exponents on [x1, x2].

    Returns (gap_integral, logderiv_integral) where the first must still
    be multiplied by h.  Free stretches contribute zero to both.
    """
    trap = omega.trapping
    lo_x, hi_x = min(x1, x2), max(x1, x2)
    gap_total = 0.0
    logd_total = 0.0
    for e in trap.entries:
        il, ih = e.interval
        a = max(lo_x, il)
        b = min(hi_x, ih)
        if b <= a:
            continue
        grid, cum_gap, cum_logd = _abs_gap_tables(trap.pairs[e.j])
        s_a = e.h * (a - e.m)
        s_b = e.h * (b - e.m)
        gap_total += (_periodic_cumulative(s_b, grid, cum_gap)
                      - _periodic_cumulative(s_a, grid, cum_gap)) / e.h
        # omega' = h_k alpha', so the h_k of dx = dsigma/h_k cancels and
        # the log-derivative integral is h-free
        logd_total += (_periodic_cumulative(s_b, grid, cum_logd)
                       - _periodic_cumulative(s_a, grid, cum_logd))
    return gap_total, logd_total


def _exponents_generic(omega, x1, x2, differentiable):
    lo_x, hi_x = min(x1, x2), max(x1, x2)
    g = 1 << 15
    gx = np.linspace(lo_x, hi_x, g + 1)
    vals = omega(gx)
    gap = float(np.trapezoid(np.abs(FOUR_PI_SQ - vals), gx))
    logd = None
    if differentiable:
        dp = np.gradient(vals, gx)
        logd = float(np.trapezoid(np.abs(dp) / vals, gx))
    return gap, logd


def energy_gronwall_check(
    result: QuasimodeResult,
    omega: Coefficient,
    x_pairs: Optional[Sequence] = None,
    n_random: int = 100,
    seed: int = 0,
    assume_differentiable: bool = False,
) -> GronwallReport:
    """Check the two Gronwall energy bounds of the quasimode ODE.

    With E(x) = 4 pi^2 h^2 phi^2 + phi'^2 and
    Et(x) = h^2 omega phi^2 + phi'^2, verifies for each tested pair
    (x_from, x_to):

        E(to)  <= E(from)  * exp(h * int |4 pi^2 - omega|) * (1 + tol)
        Et(to) <= Et(from) * exp(int |omega'| / omega)     * (1 + tol)

    with tol = 1e-6 (``_GRONWALL_TOL``).
    The second bound needs omega differentiable along the path; it is
    declined (ratio None) for density kinds without that guarantee
    unless ``assume_differentiable`` forces a finite-difference omega'.
    Pairs default to ``n_random`` seeded draws from the sample grid;
    explicit pairs are snapped to the grid.  Both bounds hold in either
    direction, so pairs need not be ordered.
    """
    xs = result.x
    phi = result.phi
    phip = result.phi_prime
    h = result.h
    finite = np.isfinite(phi) & np.isfinite(phip)

    structured = omega.trapping is not None
    differentiable = (omega.kind == "constant" or structured
                      or assume_differentiable)
    decline_reason = None
    if not differentiable:
        decline_reason = (f"density kind {omega.kind!r} carries no "
                          "differentiability guarantee; the tilde bound "
                          "needs omega' along the path")

    E = FOUR_PI_SQ * h * h * phi ** 2 + phip ** 2
    om_vals = omega(xs)
    Et = h * h * om_vals * phi ** 2 + phip ** 2

    idx_ok = np.nonzero(finite & (E > 0.0))[0]
    if idx_ok.size < 2:
        raise ValueError("not enough finite samples to test energy bounds")

    rng = np.random.default_rng(seed)
    pairs_idx = []
    if x_pairs is not None:
        for x1, x2 in x_pairs:
            i1 = idx_ok[int(np.argmin(np.abs(xs[idx_ok] - x1)))]
            i2 = idx_ok[int(np.argmin(np.abs(xs[idx_ok] - x2)))]
            if i1 != i2:
                pairs_idx.append((i1, i2))
    else:
        for _ in range(n_random):
            i1, i2 = rng.choice(idx_ok, size=2, replace=False)
            pairs_idx.append((int(i1), int(i2)))

    records = []
    sup_E = -math.inf
    sup_Et = -math.inf
    any_tilde = False
    for i1, i2 in pairs_idx:
        x1, x2 = float(xs[i1]), float(xs[i2])
        if structured:
            gap, logd = _exponents_structured(omega, x1, x2)
        else:
            gap, logd = _exponents_generic(omega, x1, x2, differentiable)
        exp_E = h * gap
        ratio_E = float(E[i2] / (E[i1] * math.exp(min(exp_E, 700.0))))
        rec = {"x_from": x1, "x_to": x2,
               "E_from": float(E[i1]), "E_to": float(E[i2]),
               "exponent_E": exp_E, "ratio_E": ratio_E,
               "exponent_Et": None, "ratio_Et": None}
        sup_E = max(sup_E, ratio_E)
        if differentiable and logd is not None and Et[i1] > 0.0:
            ratio_Et = float(Et[i2] / (Et[i1] * math.exp(min(logd, 700.0))))
            rec["exponent_Et"] = logd
            rec["ratio_Et"] = ratio_Et
            sup_Et = max(sup_Et, ratio_Et)
            any_tilde = True
        records.append(rec)

    return GronwallReport(
        records=tuple(records),
        ratio_sup_E=sup_E,
        ratio_sup_Et=(sup_Et if any_tilde else None),
        tilde_declined=not differentiable,
        decline_reason=decline_reason,
        tol=_GRONWALL_TOL)


# --------------------------------------------------------------------------
# Gauss-Legendre collocation steps from the full stage system
# --------------------------------------------------------------------------

def collocation_stage_steps(qv: np.ndarray, dx: np.ndarray,
                            kappa: float) -> np.ndarray:
    """Step matrices (n, 2, 2) of 3-stage Gauss-Legendre collocation.

    For y' = [[0, kappa], [-q/kappa, 0]] y on y = (phi, phi'/kappa) over
    cells of signed widths ``dx``, with ``qv[i, k]`` q at node i of cell
    k, the stage values solve Y_i = y + dx sum_j a_ij A_j Y_j, i.e.
    (I - dx (a (x) I) diag(A_1, A_2, A_3)) Y = (1 (x) I) y: one 6x6
    system per cell, whose two right-hand sides (the columns of I) give
    the step y + dx sum_i b_i A_i Y_i.  Only the Butcher tables come from
    the package.
    """
    n = dx.size
    qv = qv.T
    a_dx = dx[:, None, None] * _GL_A
    system = np.zeros((n, 6, 6))
    system[:, np.arange(6), np.arange(6)] = 1.0
    system[:, 0::2, 1::2] = -kappa * a_dx
    system[:, 1::2, 0::2] = a_dx * (qv[:, None, :] / kappa)
    rhs = np.broadcast_to(np.tile(np.eye(2), (3, 1)), (n, 6, 2))
    stages = np.linalg.solve(system, rhs)
    b_dx = (dx[:, None] * _GL_B)[:, None, :]
    step = np.empty((n, 2, 2))
    step[:, 0] = kappa * (b_dx @ stages[:, 1::2])[:, 0]
    step[:, 1] = -((b_dx * (qv / kappa)[:, None, :]) @ stages[:, 0::2])[:, 0]
    step[:, 0, 0] += 1.0
    step[:, 1, 1] += 1.0
    return step
