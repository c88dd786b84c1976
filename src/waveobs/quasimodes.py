"""Quasi-eigenfunction solutions of phi'' + h^2 omega(x) phi = 0 on [0,1].

A quasimode is the Cauchy solution with phi(m) = 1, phi'(m) = 0 launched
from the center m of a marked interval.  For trapping densities the
solution is assembled structurally:

* inside the mode's own interval the closed form
  ``phi(x) = w_eps(h (x - m))`` is used directly (the oscillator pair was
  built so that this is an exact solution);
* on the flat background (omega = 4 pi^2) the propagation is an exact
  rotation of the state (phi, phi'/kappa) at rate kappa = 2 pi h, applied
  in closed form;
* across foreign oscillating intervals the state is advanced by the
  Magnus transfer-matrix engine: the equation is linear, so a span's
  propagator is a product of 2x2 fourth-order Magnus cell matrices,
  built from omega at the Gauss points of all cells in one vectorized
  call, refined by step doubling to the requested tolerance, folded
  back into one matrix per initial cell and multiplied by a log-depth
  prefix scan that reads the state at every sample point (an initial
  cell edge).  When even the initial cells would exceed 30 000, the
  engine builds one unit-period matrix and the crossing applies its
  n_k/2-th powers, formed by repeated squaring (samples inside such
  spans are left NaN).

Any other density is solved by the same engine from the center outward.
A trapping mode's check also runs on the engine (its subject is the
closed form): one march from the exact edge state inward to the center,
the direction in which the decaying closed form dominates.  The generic
path's reverse check, whose subject is the engine, marches both
boundary states back to the center with a separate propagator: 3-stage
Gauss-Legendre collocation, vectorized over cells like the engine but
sharing none of its code.  A skipped check leaves a flag.

States are carried as ``(log-magnitude, a, b)`` with the linear part
normalized in the kappa-weighted norm ``hypot(a, b/kappa)``, so the
propagation itself never underflows; exponentially small energies are
reported both linearly and as logs.  Quantities whose magnitude leaves the
representable range of IEEE doubles (or whose phase h*(x - m) cannot be
resolved in double precision) raise :class:`ScaleOutOfReach` instead of
returning silently saturated numbers.

Sampled arrays evaluate the mode pointwise on a uniform grid; when the
grid is coarser than the oscillation 1/h the values are exact but visually
aliased -- increase ``n_samples`` for plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .coeff import (
    FOUR_PI_SQ,
    TWO_PI,
    Coefficient,
    CounterexampleParams,
    PeriodicPair,
    _composite_gauss,
    _jsonable,
    make_counterexample_density,
    make_sequences,
)

__all__ = [
    "ScaleOutOfReach",
    "QuasimodeResult",
    "SweepReport",
    "solve_quasimode",
    "boundary_smallness_sweep",
]

# sampling the phase h*(x-m) loses ~h*2^-52 radians to rounding; above
# this h even a quarter period cannot be trusted pointwise
_MAX_REPRESENTABLE_H = 1e12
# |log| ceiling for headline energies/masses; e^{+-600} stays clear of
# the double overflow/underflow boundaries with room for squares' slack
_MAX_LOG_SCALE = 600.0
# the tightest tolerance either integrator is run at: below it the
# round-off of a step or cell swamps the error estimate
_MIN_RTOL = 3e-14
# a foreign crossing starting from more engine cells (16 max(h, h_k) r_k)
# than this is advanced by powers of its one-period transfer matrix
_DENSE_BUDGET = 30_000
# a check (the closed-form march: 8 n cells; each half of the generic
# reverse check: 16 h times its span) starting from more cells than this
# is skipped, with a flag in ``QuasimodeResult.flags``
_CHECK_BUDGET = 30_000
# boundary_smallness_sweep: samples of each row's mode on [0, 1]
_SWEEP_SAMPLES = 1025


class ScaleOutOfReach(ValueError):
    """A requested mode lives at a scale doubles cannot represent.

    Raised instead of returning saturated (0, inf, or phase-garbled)
    numbers; carries the offending index and a human-readable reason.
    """

    def __init__(self, message: str, j: Optional[int] = None):
        super().__init__(message)
        self.j = j


# --------------------------------------------------------------------------
# state algebra: (log magnitude, a, b) with hypot(a, b/kappa) == 1
# --------------------------------------------------------------------------

def _normalized(log_mag: float, a: float, b: float, kappa: float) -> tuple:
    scale = math.hypot(a, b / kappa)
    if scale == 0.0:
        raise FloatingPointError("degenerate quasimode state")
    return (log_mag + math.log(scale), a / scale, b / scale)


def _rotate(state: tuple, d: float, h: float) -> tuple:
    """Exact propagation over a stretch where omega == 4 pi^2.

    The rotation rate is 2 pi h, i.e. h full turns per unit length, so
    the phase is reduced as ``h d mod 1`` BEFORE the factor 2 pi enters:
    h is integer-valued and the stretch endpoints are dyadic, making
    ``h d`` exact in double precision.  Reducing after the product
    (cos(2 pi h d)) would lose ~h d * eps_mach radians, which the
    unweighted boundary energy amplifies by (2 pi h)^2 -- a 1e-4 error
    at h ~ 3e6 where the true aligned state is error-free.
    """
    log_mag, a, b = state
    kappa = TWO_PI * h
    turns = math.remainder(h * d, 1.0)
    c = math.cos(TWO_PI * turns)
    s = math.sin(TWO_PI * turns)
    a2 = c * a + (s / kappa) * b
    b2 = -kappa * s * a + c * b
    return _normalized(log_mag, a2, b2, kappa)


def _state_energy_log(state: tuple, kappa: float) -> float:
    """log(|phi|^2 + |phi'|^2) of a normalized state."""
    log_mag, a, b = state
    return 2.0 * log_mag + math.log(a * a + b * b)


def _fill_rotation(state: tuple, x0: float, xs: np.ndarray, h: float):
    """Sample the rotating solution at xs (vectorized, exact).

    Same modular phase reduction as :func:`_rotate`; grid points need
    not be dyadic, but reducing the turn count before the 2 pi factor
    never loses accuracy and keeps on-grid boundary samples consistent
    with the propagated states.
    """
    log_mag, a, b = state
    kappa = TWO_PI * h
    amp = math.exp(log_mag) if log_mag > -708.0 else 0.0
    turns = h * (xs - x0)
    turns = turns - np.round(turns)
    ph = TWO_PI * turns
    c = np.cos(ph)
    s = np.sin(ph)
    phi = amp * (a * c + (b / kappa) * s)
    phip = amp * (-kappa * s * a + c * b)
    return phi, phip


# --------------------------------------------------------------------------
# Magnus transfer-matrix engine
# --------------------------------------------------------------------------
#
# phi'' + q(x) phi = 0 is linear, so the propagator over a span is the
# ordered product of cell propagators.  Each cell gets the fourth-order
# Magnus matrix built from q at its two Gauss points (exact when q is
# constant on the cell), states are carried in the frequency-scaled
# variables (phi, phi'/kappa) so every entry is O(1), and the products of
# the initial cells are formed by a log-depth prefix scan.

_GAUSS_LO = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_HI = 0.5 + math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0
# halvings after which a cell is accepted whatever its error estimate: the
# cell is then ~1e-12 of its initial width, i.e. it straddles a
# discontinuity of q whose contribution is below any requested tolerance
_MAX_HALVINGS = 40
# initial cells per chunk: each chunk is refined, scanned and folded into
# the running product on its own, which bounds the engine's memory (the
# scaled psi sweep to j = 17 peaks at 131 MB with 4096, 266 MB with 32768,
# and runs no slower)
_CHUNK_CELLS = 1 << 12
# refinement of one chunk stops with ScaleOutOfReach beyond this many
# open cells
_MAX_OPEN_CELLS = 1 << 21


def _magnus_cells(q_lo, q_hi, dx, kappa: float) -> np.ndarray:
    """Magnus-4 cell propagators, rows (m00, m01, m10, m11), scaled.

    With A = [[0, 1], [-q, 0]] and Gauss samples q_lo, q_hi over a cell of
    signed width dx, Omega = dx (A_lo + A_hi)/2 + (sqrt 3/12) dx^2
    [A_hi, A_lo] = [[d, dx], [-dx qbar, -d]] is traceless, so
    exp(Omega) = C I + S Omega with D = det Omega, C = cos sqrt D and
    S = sin(sqrt D)/sqrt D (cosh/sinh when D < 0).  The result acts on
    (phi, phi'/kappa).
    """
    qbar = 0.5 * (q_lo + q_hi)
    d = _COMMUTATOR * dx * dx * (q_hi - q_lo)
    det = dx * dx * qbar - d * d
    root = np.sqrt(np.abs(det))
    c = np.cos(root)
    s = np.sinc(root / math.pi)
    hyper = det < 0.0
    if np.any(hyper):
        r = root[hyper]
        c[hyper] = np.cosh(r)
        s[hyper] = np.sinh(r) / r
    sdx = s * dx
    return np.stack([c + s * d, kappa * sdx, -sdx * qbar / kappa, c - s * d])


def _mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-stacked 2x2 products a @ b (either side may broadcast)."""
    return np.stack([a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                     a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]])


def _scan(mats: np.ndarray) -> np.ndarray:
    """Inclusive prefix products M_i ... M_0 in log2(n) vectorized passes."""
    out = mats.copy()
    shift = 1
    while shift < out.shape[1]:
        out[:, shift:] = _mat_mul(out[:, shift:], out[:, :-shift])
        shift *= 2
    return out


def _refine(q: Callable, xa, dx, kappa: float, tol: float) -> tuple:
    """One accepted Magnus matrix per input cell, in input order.

    Each level evaluates q at the Gauss points of every open cell in one
    call and compares the cell's Magnus matrix with the product of its
    two halves; a cell is accepted, with the more accurate two-half
    product, once no entry differs by more than ``tol``, else its halves
    open the next level.  Deepest level first, each split cell then gets
    the product of its halves' matrices.  Returns (matrices, nfev).
    """
    levels = []
    full = None
    nfev = 0
    for halvings in range(_MAX_HALVINGS + 1):
        half = 0.5 * dx
        xm = xa + half
        pts = [xa + _GAUSS_LO * half, xa + _GAUSS_HI * half,
               xm + _GAUSS_LO * half, xm + _GAUSS_HI * half]
        if full is None:
            pts += [xa + _GAUSS_LO * dx, xa + _GAUSS_HI * dx]
        qv = np.asarray(q(np.concatenate(pts)), dtype=float).reshape(
            len(pts), -1)
        nfev += qv.size
        left = _magnus_cells(qv[0], qv[1], half, kappa)
        right = _magnus_cells(qv[2], qv[3], half, kappa)
        if full is None:
            full = _magnus_cells(qv[4], qv[5], dx, kappa)
        fine = _mat_mul(right, left)
        ok = np.max(np.abs(full - fine), axis=0) <= tol
        if halvings == _MAX_HALVINGS:
            ok[:] = True
        split = ~ok
        levels.append((fine, split))
        if not np.any(split):
            break
        if 2 * np.count_nonzero(split) > _MAX_OPEN_CELLS:
            raise ScaleOutOfReach(
                f"the quasimode ODE needs more than {_MAX_OPEN_CELLS} open "
                f"Magnus cells at tolerance {tol:.1e}")
        # first halves, then second halves; this level's arrays go before
        # the next q call
        xa = np.concatenate([xa[split], xm[split]])
        dx = np.concatenate([half[split], half[split]])
        full = np.concatenate([left[:, split], right[:, split]], axis=1)
        del pts, qv, half, xm, left, right

    mats = levels.pop()[0]
    while levels:
        fine, split = levels.pop()
        n = mats.shape[1] // 2
        fine[:, split] = _mat_mul(mats[:, n:], mats[:, :n])
        mats = fine
    return mats, nfev


def _magnus_propagate(q: Callable, x0: float, x1: float, kappa: float,
                      rtol: float, max_cell: float, at=()) -> tuple:
    """Propagators of phi'' + q(x) phi = 0 from x0 to each of ``at``, x1.

    ``q`` is vectorized; ``at`` lists points of the span where the state
    is wanted.  The initial mesh has every point of ``at`` as a cell edge
    and no cell wider than ``max_cell``; cells are refined (see
    :func:`_refine`) until their error estimate in the (phi, phi'/kappa)
    variables is at most ``rtol``, folded back into one matrix per
    initial cell and multiplied by a prefix scan, so the states at ``at``
    are read exactly at initial-cell edges.  Initial cells are processed
    ``_CHUNK_CELLS`` at a time; each chunk's prefixes are multiplied onto
    the renormalized product of all earlier chunks, so memory stays
    bounded and only the growth within one chunk has to fit a double.

    Returns ``(logs, mats, nfev)``: ``exp(logs[i]) * mats[:, i]`` (rows
    m00, m01, m10, m11) maps (phi, phi'/kappa) at x0 to the state at
    ``at[i]``, the last column to x1; ``nfev`` counts evaluations of q.
    """
    sign = 1.0 if x1 >= x0 else -1.0
    t_at = sign * (np.asarray(at, dtype=float) - x0)
    knots = np.unique(np.concatenate([[0.0, sign * (x1 - x0)], t_at]))
    gaps = np.diff(knots)
    pieces = np.maximum(1, np.ceil(gaps / max_cell)).astype(np.int64)
    first = np.cumsum(pieces) - pieces
    n_cells = int(pieces.sum())
    want = np.append(np.searchsorted(knots, t_at), knots.size - 1)
    # wanted state i is reached after the first reach[i] initial cells
    reach = np.append(first, n_cells)[want]

    tol = max(rtol, _MIN_RTOL)
    out = np.empty((4, want.size))
    out[:] = np.array([1.0, 0.0, 0.0, 1.0])[:, None]
    logs = np.zeros(want.size)
    carry = np.array([1.0, 0.0, 0.0, 1.0])
    carry_log = 0.0
    nfev = 0
    for lo in range(0, n_cells, _CHUNK_CELLS):
        idx = np.arange(lo, min(lo + _CHUNK_CELLS, n_cells))
        seg = np.searchsorted(first, idx, side="right") - 1
        k = idx - first[seg]
        step = gaps[seg] / pieces[seg]
        t_lo = knots[seg] + k * step
        # the end is computed as the next cell's start, so the widths sum
        # to the span exactly (a per-cell rounding of the width would
        # drift the phase by kappa * ulp per cell)
        t_hi = np.where(k + 1 == pieces[seg], knots[seg + 1],
                        knots[seg] + (k + 1) * step)
        mats, n = _refine(q, x0 + sign * t_lo, sign * (t_hi - t_lo),
                          kappa, tol)
        nfev += n
        prefix = _scan(mats)
        if not np.all(np.isfinite(prefix)):
            raise ScaleOutOfReach(
                "the quasimode amplitude overflows double precision within "
                "one chunk of the transfer-matrix scan")
        hit = (reach > lo) & (reach <= idx[-1] + 1)
        if np.any(hit):
            cols = reach[hit] - lo - 1
            prod = _mat_mul(prefix[:, cols], carry[:, None])
            norm = np.max(np.abs(prod), axis=0)
            out[:, hit] = prod / norm
            logs[hit] = carry_log + np.log(norm)
        total = _mat_mul(prefix[:, -1], carry)
        norm = float(np.max(np.abs(total)))
        carry = total / norm
        carry_log += math.log(norm)
    return logs, out, nfev


def _matrix_power(mat: np.ndarray, n: int) -> tuple:
    """(log scale, unit-max matrix) of mat^n by repeated squaring."""
    result = np.eye(2)
    result_log = 0.0
    base = mat.copy()
    base_log = 0.0
    while n:
        if n & 1:
            result = base @ result
            scale = float(np.max(np.abs(result)))
            result /= scale
            result_log += base_log + math.log(scale)
        n >>= 1
        if n:
            base = base @ base
            scale = float(np.max(np.abs(base)))
            base /= scale
            base_log = 2.0 * base_log + math.log(scale)
    return result_log, result


# --------------------------------------------------------------------------
# foreign-interval crossings
# --------------------------------------------------------------------------

def _cross_dense(pair_k, entry_k, h: float, state: tuple,
                 x_from: float, x_to: float, rtol: float,
                 xs: Optional[np.ndarray]):
    """Advance across a foreign interval with the Magnus engine.

    Returns (state, phi_samples, phip_samples, stats).  The engine runs
    on the normalized linear state; samples are rescaled by the carried
    log magnitude afterwards.
    """
    kappa = TWO_PI * h
    hk = entry_k.h
    mk = entry_k.m
    h2 = h * h
    log_mag, a, b = state

    def q(x):
        return h2 * pair_k.alpha(hk * (x - mk))

    at = xs if xs is not None else ()
    logs, mats, nfev = _magnus_propagate(
        q, x_from, x_to, kappa, rtol, 1.0 / (16.0 * max(h, hk)), at)
    phi = mats[0] * a + mats[1] * (b / kappa)
    dphi = kappa * (mats[2] * a + mats[3] * (b / kappa))

    phi_s = phip_s = None
    if xs is not None and xs.size:
        amp = np.exp(log_mag + logs[:-1])
        phi_s = amp * phi[:-1]
        phip_s = amp * dphi[:-1]
    new_state = _normalized(log_mag + float(logs[-1]), float(phi[-1]),
                            float(dphi[-1]), kappa)
    return new_state, phi_s, phip_s, {"nfev": nfev, "mode": "dense"}


def _period_matrix(pair_k, ratio: float, rtol: float):
    """Transfer matrix of y'' = -ratio^2 alpha(tau) y over tau in [0, 1].

    The matrix acts on (y, y'/(2 pi ratio)); its determinant is
    renormalized to 1 and the deviation reported.  The initial cells
    resolve both the solution (ratio oscillations per unit) and the
    coefficient (one period per unit).
    """
    r2 = ratio * ratio

    def q(t):
        return r2 * pair_k.alpha(t)

    logs, mats, nfev = _magnus_propagate(
        q, 0.0, 1.0, TWO_PI * ratio, rtol, 1.0 / (16.0 * max(1.0, ratio)))
    mat = math.exp(float(logs[-1])) * mats[:, -1].reshape(2, 2)
    det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    mat /= math.sqrt(abs(det))
    return mat, abs(det - 1.0), nfev


def _cross_powered(pair_k, entry_k, h: float, state: tuple,
                   direction: int, rtol: float):
    """Advance across a foreign interval by whole-period matrix powers.

    The coefficient inside the interval is alpha(|tau|) with
    tau = h_k (x - m_k): 1-periodic on the right half and its MIRROR
    image on the left half (the cutoff knots are not symmetric within a
    period).  One engine solve builds the forward unit-period matrix M;
    the mirrored periods use R M^{-1} R with R = diag(1, -1) (time
    reversal), and leftward crossings use the exact inverses.  Each half
    contributes its matrix to the power n_k/2, formed by repeated
    squaring with log-scale renormalization; no samples are produced
    inside the span.

    In tau units the scaled state (phi, (dphi/dtau)/(2 pi h/h_k)) is the
    x-space (phi, phi'/kappa), so the period matrix acts on it directly.
    """
    kappa = TWO_PI * h
    if not (entry_k.n <= 2.0 ** 50):
        raise ScaleOutOfReach(
            f"crossing I_{entry_k.j} needs an exact whole-period count, "
            f"but n_{entry_k.j} = {entry_k.n:.3g} exceeds integer "
            "resolution", j=entry_k.j)
    n_k = int(round(entry_k.n))
    if n_k % 2 != 0:
        raise ValueError(f"n_{entry_k.j} = {n_k} is not even")
    mat, det_dev, nfev = _period_matrix(pair_k, h / entry_k.h, rtol)
    m_inv = np.array([[mat[1, 1], -mat[0, 1]],
                      [-mat[1, 0], mat[0, 0]]])
    m_mir = np.array([[m_inv[0, 0], -m_inv[0, 1]],
                      [-m_inv[1, 0], m_inv[1, 1]]])      # R M^{-1} R
    m_mir_inv = np.array([[mat[0, 0], -mat[0, 1]],
                          [-mat[1, 0], mat[1, 1]]])      # R M R
    if direction > 0:
        plan = (m_mir, mat)
    else:
        plan = (m_inv, m_mir_inv)

    log_mag, a, b = state
    v = np.array([a, b / kappa])
    for step_mat in plan:
        power_log, power = _matrix_power(step_mat, n_k // 2)
        v = power @ v
        scale = math.hypot(v[0], v[1])
        log_mag += power_log + math.log(scale)
        v /= scale
    new_state = _normalized(log_mag, float(v[0]), float(v[1]) * kappa, kappa)
    stats = {"mode": "powered", "periods": n_k,
             "det_dev": det_dev, "nfev": nfev}
    return new_state, stats


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasimodeResult:
    """A solved quasimode with its energy bookkeeping.

    ``phi``/``phi_prime`` sample the mode on ``x``; spans advanced by
    powered transfer matrices carry NaN samples (the boundary states are
    still exact, see ``stats``).  Exponentially small energies are
    duplicated as logs; the linear fields underflow to 0.0 gracefully.
    ``flags`` name each check that was skipped, and why.
    """

    j: Optional[int]
    h: float
    eps: Optional[float]
    m: float
    r: Optional[float]
    kind: str
    x: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    interior_mass: Optional[float]
    extreme_energy: Optional[float]
    extreme_energy_log: Optional[float]
    boundary_energy_0: float
    boundary_energy_0_log: float
    boundary_energy_1: float
    boundary_energy_1_log: float
    stats: dict = field(repr=False)
    flags: tuple = ()

    def to_summary(self) -> dict:
        return _jsonable(self)


# --------------------------------------------------------------------------
# the solver
# --------------------------------------------------------------------------

def solve_quasimode(
    omega: Coefficient,
    j: Optional[int] = None,
    *,
    h: Optional[float] = None,
    m: Optional[float] = None,
    r: Optional[float] = None,
    rtol: float = 1e-12,
    n_samples: int = 4097,
    checks: bool = True,
) -> QuasimodeResult:
    """Solve phi'' + h^2 omega phi = 0 with phi(m) = 1, phi'(m) = 0.

    For trapping densities pass ``j`` (the marked-interval index); ``h``,
    ``m`` and ``r`` come from the stored sequence data and the solution is
    assembled from the closed form, exact rotations and Magnus-engine
    crossings.  For any other density pass ``h`` and ``m`` (and optionally
    ``r`` to request interval-energy fields); a constant density uses the
    trigonometric solution, everything else the Magnus engine from the
    center outward.  The engine starts from cells no wider than 1/(16 h)
    (and 1/(16 h_k) inside a foreign interval), with every sample point a
    cell edge, and halves each cell until its step-doubling error
    estimate in the (phi, phi'/kappa) variables is at most ``rtol``.

    A foreign crossing that would start from more than 30 000 engine
    cells (16 max(h, h_k) r_k) switches to powers of the one-period
    transfer matrix, and the samples in that span are NaN.  ``checks``
    runs the closed-form check of a trapping mode (one inward engine
    march from the edge state) or the generic reverse check.  A check
    that would start from more than 30 000 cells (8 n for the first,
    16 h times the span for each half of the second) is skipped and
    named in ``flags``.  ``stats["nfev"]`` counts evaluations of the
    coefficient by the engine plus those of the generic reverse check.

    Raises :class:`ScaleOutOfReach` when the mode lives beyond double
    precision: h not finite or above 1e12 (the phase h(x-m) would be
    rounding-dominated), or eps*n above 600 (the headline energies and
    masses would over/underflow).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if not (0.0 < rtol <= 1e-6):
        raise ValueError("rtol must lie in ]0, 1e-6]")
    xs = np.linspace(0.0, 1.0, n_samples)

    if omega.trapping is not None:
        if h is not None or m is not None or r is not None:
            raise ValueError(
                "for a trapping density the mode is selected by j; "
                "h, m, r are read from the stored sequences")
        return _solve_structured(omega, j, xs, rtol, checks)

    if j is not None:
        raise ValueError("j selects a trapping-density interval; "
                         "pass h and m for other densities")
    if h is None or m is None:
        raise ValueError("h and m are required for a generic density")
    if not (0.0 < m < 1.0):
        raise ValueError("the launch point m must lie inside ]0, 1[")
    if not math.isfinite(h) or h <= 0:
        raise ValueError("h must be positive and finite")
    if r is not None and not (math.isfinite(r) and r > 0):
        raise ValueError("r must be positive and finite")
    if h > _MAX_REPRESENTABLE_H:
        raise ScaleOutOfReach(
            f"h = {h:.3g} exceeds the phase-resolution ceiling "
            f"{_MAX_REPRESENTABLE_H:.0e}; the sampled phase would be "
            "rounding noise", j=None)

    _, vals = omega.sample(4097)
    span = float(vals.max() - vals.min())
    if span <= 1e-12 * float(abs(vals).max()):
        return _solve_constant(omega, float(vals.mean()), h, m, r, xs, rtol)
    return _solve_generic(omega, h, m, r, xs, rtol, checks)


def _interval_integral(pair: PeriodicPair, h: float, n: int,
                       integrand: Callable) -> float:
    """int_I integrand(h (x - m)) dx over the closed form's interval.

    For the squares w_eps^2 and w_eps'^2, eta(i+s) = i + eta(s) scales
    each period by e^{-2 eps}, so the integral is one period times a
    geometric sum: (2 J / h) (1 - e^{-eps n}) / (1 - e^{-2 eps}) with
    J = int_0^1 integrand(s) ds, taken by composite Gauss-Legendre (the
    integrand is smooth on [0, 1]).
    """
    J = _composite_gauss(integrand)
    eps = pair.eps
    return (2.0 * J / h) * (-math.expm1(-eps * n)) / (-math.expm1(-2.0 * eps))


def _solve_structured(omega, j, xs, rtol, checks):
    entries = omega.trapping.entries
    pairs = omega.trapping.pairs
    if j is None:
        j = omega.trapping.active_j
        if j is None:
            raise ValueError(
                "this density carries several marked intervals; pass j")
    entry = next((e for e in entries if e.j == j), None)
    if entry is None:
        raise ValueError(
            f"j = {j} is not a marked interval of this density "
            f"(available: {sorted(e.j for e in entries)})")

    if not math.isfinite(entry.h):
        raise ScaleOutOfReach(
            f"h_{j} is not representable in double precision", j=j)
    if entry.h > _MAX_REPRESENTABLE_H:
        raise ScaleOutOfReach(
            f"h_{j} = {entry.h:.3g} exceeds the phase-resolution ceiling "
            f"{_MAX_REPRESENTABLE_H:.0e}", j=j)
    eps_n = entry.eps * entry.n
    if eps_n > _MAX_LOG_SCALE:
        raise ScaleOutOfReach(
            f"eps_{j} h_{j} r_{j} = {eps_n:.1f} puts the extreme energy "
            f"e^{{-{eps_n:.0f}}} beyond double range", j=j)

    pair = pairs[j]
    h = entry.h
    m = entry.m
    n = int(round(entry.n))
    kappa = TWO_PI * h
    own_l, own_r = entry.interval
    phi = np.full_like(xs, np.nan)
    phip = np.full_like(xs, np.nan)
    stats = {"rtol": rtol, "max_step": 1.0 / (16.0 * h), "nfev": 0,
             "path": "structured", "n": n,
             "dense_spans": 0, "powered_spans": 0}

    # own interval: closed form
    mask = (xs >= own_l) & (xs <= own_r)
    sig = h * (xs[mask] - m)
    phi[mask] = pair.w(sig)
    phip[mask] = h * pair.w_prime(sig)

    interior_mass = _interval_integral(pair, h, n, lambda s: pair.w(s) ** 2)
    extreme_energy_log = -pair.decay_c * eps_n
    extreme_energy = math.exp(extreme_energy_log) \
        if extreme_energy_log > -708.0 else 0.0

    # walk outward; foreign intervals of the full sequence exist in the
    # density only when it carries them (psi family)
    edge_log = -0.5 * entry.eps * n          # log|phi| at sigma = +-n/2
    others = sorted((e for e in entries if e.j != j), key=lambda e: e.m)

    def walk(direction: int) -> tuple:
        """Propagate from the interval edge to the domain boundary."""
        state = (edge_log, 1.0, 0.0)
        pos = own_r if direction > 0 else own_l
        target = 1.0 if direction > 0 else 0.0
        crossings = [e for e in others
                     if (e.m > m if direction > 0 else e.m < m)]
        crossings.sort(key=lambda e: e.m, reverse=direction < 0)
        for ek in crossings:
            lo, hi = ek.interval
            near, far = (lo, hi) if direction > 0 else (hi, lo)
            if abs(near - pos) > 1e-15:
                seg = _segment_mask(xs, pos, near, direction)
                if np.any(seg):
                    phi[seg], phip[seg] = _fill_rotation(
                        state, pos, xs[seg], h)
                state = _rotate(state, near - pos, h)
                pos = near
            # the dense path integrates in x and evaluates the phase
            # h_k (x - m_k); beyond the representable-phase ceiling only
            # the scale-free per-period path is trustworthy
            est_steps = 16.0 * max(h, ek.h) * ek.r
            seg = _segment_mask(xs, near, far, direction)
            if est_steps <= _DENSE_BUDGET and ek.h <= _MAX_REPRESENTABLE_H:
                state, ph_s, pp_s, info = _cross_dense(
                    pairs[ek.j], ek, h, state, near, far, rtol,
                    xs[seg] if np.any(seg) else None)
                if ph_s is not None:
                    phi[seg] = ph_s
                    phip[seg] = pp_s
                stats["dense_spans"] += 1
            else:
                state, info = _cross_powered(
                    pairs[ek.j], ek, h, state, direction, rtol)
                stats["powered_spans"] += 1
            stats["nfev"] += info.get("nfev", 0)
            pos = far
        if abs(target - pos) > 0.0:
            seg = _segment_mask(xs, pos, target, direction)
            if np.any(seg):
                phi[seg], phip[seg] = _fill_rotation(state, pos, xs[seg],
                                                     h)
            state = _rotate(state, target - pos, h)
        return state

    state_right = walk(+1)
    state_left = walk(-1)
    be1_log = _state_energy_log(state_right, kappa)
    be0_log = _state_energy_log(state_left, kappa)

    flags = _closed_form_checks(pair, entry, stats) if checks else ()

    return QuasimodeResult(
        j=j, h=h, eps=entry.eps, m=m, r=entry.r, kind=omega.kind,
        x=xs, phi=phi, phi_prime=phip,
        interior_mass=interior_mass,
        extreme_energy=extreme_energy, extreme_energy_log=extreme_energy_log,
        boundary_energy_0=_safe_exp(be0_log),
        boundary_energy_0_log=be0_log,
        boundary_energy_1=_safe_exp(be1_log),
        boundary_energy_1_log=be1_log,
        stats=stats, flags=flags)


def _segment_mask(xs, a, b, direction):
    if direction > 0:
        return (xs > a + 1e-15) & (xs <= b + 1e-15)
    return (xs < a - 1e-15) & (xs >= b - 1e-15)


def _safe_exp(log_val: float) -> float:
    if log_val > 708.0:
        return math.inf
    if log_val < -708.0:
        return 0.0
    return math.exp(log_val)


def _closed_form_checks(pair, entry, stats) -> tuple:
    """Check w_eps by one engine march of w'' = -alpha(sigma) w inward.

    The march starts from the exact edge state (e^{-eps n/2}, 0) at
    sigma = n/2, where the decaying w_eps dominates inward, and runs to
    the center at the floor tolerance from 8 n initial cells of width
    1/16 (the count ``_CHECK_BUDGET`` caps).  It reads w and w' at the
    4 n + 1 cell edges sigma = k/8 and the launch state (1, 0) at the
    center.  Its subject is the closed form; the engine is tested on its
    own.  Returns the flags of a skipped check.
    """
    n = int(round(entry.n))
    if 8 * n > _CHECK_BUDGET:
        return (f"closed-form check skipped: {8 * n} initial cells exceed "
                f"the budget {_CHECK_BUDGET}",)

    sig_grid = np.linspace(0.0, 0.5 * n, 4 * n + 1)
    logs, mats, nfev = _magnus_propagate(
        pair.alpha, 0.5 * n, 0.0, TWO_PI, _MIN_RTOL, 1.0 / 16.0, sig_grid)
    # the state is (w, w'/2 pi), launched from (e^{-eps n/2}, 0): the
    # first column; sig_grid[0] is the center
    amp = np.exp(logs[:-1] - 0.5 * entry.eps * n)
    w = amp * mats[0, :-1]
    wp = TWO_PI * amp * mats[2, :-1]
    stats["closed_form_dev"] = float(np.max(np.abs(w - pair.w(sig_grid))))
    stats["closed_form_dev_prime"] = float(
        np.max(np.abs(wp - pair.w_prime(sig_grid))))
    stats["wronskian_dev"] = math.hypot(w[0] - 1.0, wp[0] / TWO_PI)
    stats["nfev"] += nfev
    return ()


def _solve_constant(omega, value, h, m, r, xs, rtol):
    """Exact trigonometric solution for omega == value (constant)."""
    nu = h * math.sqrt(value)
    phi = np.cos(nu * (xs - m))
    phip = -nu * np.sin(nu * (xs - m))
    if r is not None:
        lo, hi = m - r / 2.0, m + r / 2.0
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError("the interval m +- r/2 leaves [0, 1]")
        mass = r / 2.0 + math.sin(nu * r) / (2.0 * nu)
        e_ext = (math.cos(nu * r / 2.0) ** 2
                 + nu ** 2 * math.sin(nu * r / 2.0) ** 2)
        e_ext_log = math.log(e_ext)
    else:
        mass = None
        e_ext = e_ext_log = None
    be0 = math.cos(nu * m) ** 2 + nu ** 2 * math.sin(nu * m) ** 2
    be1 = (math.cos(nu * (1 - m)) ** 2
           + nu ** 2 * math.sin(nu * (1 - m)) ** 2)
    stats = {"rtol": rtol, "path": "constant-closed-form", "nfev": 0}
    return QuasimodeResult(
        j=None, h=h, eps=None, m=m, r=r, kind=omega.kind,
        x=xs, phi=phi, phi_prime=phip,
        interior_mass=mass,
        extreme_energy=e_ext, extreme_energy_log=e_ext_log,
        boundary_energy_0=be0, boundary_energy_0_log=math.log(be0),
        boundary_energy_1=be1, boundary_energy_1_log=math.log(be1),
        stats=stats)


# --------------------------------------------------------------------------
# reverse-check propagator: Gauss-Legendre collocation
# --------------------------------------------------------------------------
#
# The generic path's reverse check must not run on the engine it checks.
# It marches y' = [[0, kappa], [-q/kappa, 0]] y, y = (phi, phi'/kappa),
# by 3-stage Gauss-Legendre collocation (order 6; Hairer & Wanner,
# Solving ODEs II, IV.5).  The system is linear, so the stage equations
# of a cell are one 6x6 linear system whose two right-hand sides (the
# columns of I) give the cell's 2x2 step matrix.

_GL_R15 = math.sqrt(15.0)
_GL_NODES = np.array([0.5 - _GL_R15 / 10, 0.5, 0.5 + _GL_R15 / 10])
_GL_A = np.array([[5 / 36, 2 / 9 - _GL_R15 / 15, 5 / 36 - _GL_R15 / 30],
                  [5 / 36 + _GL_R15 / 24, 2 / 9, 5 / 36 - _GL_R15 / 24],
                  [5 / 36 + _GL_R15 / 30, 2 / 9 + _GL_R15 / 15, 5 / 36]])
_GL_B = np.array([5 / 18, 4 / 9, 5 / 18])
_GL_STAGE_RHS = np.tile(np.eye(2), (3, 1))
# initial cells refined together, and the open cells one such chunk may
# reach (64 times its initial cells) before the check is skipped: the
# stage solve holds ~1 kB per open cell, and weierstrass-zygmund, which
# still splits every cell after six halvings, would keep the check
# busy for over a minute at h = 100, where the forward solve takes 25 s
_COLLOCATION_CHUNK = 1 << 10
_COLLOCATION_MAX_OPEN = 1 << 16


def _collocation_steps(qv: np.ndarray, dx: np.ndarray,
                       kappa: float) -> np.ndarray:
    """Step matrices (n, 2, 2) of cells of signed widths ``dx``.

    ``qv[k, i]`` is q at node i of cell k.  The stage values solve
    Y_i = y + dx sum_j a_ij A_j Y_j, i.e.
    (I - dx (a (x) I) diag(A_1, A_2, A_3)) Y = (1 (x) I) y, and the step
    is y + dx sum_i b_i A_i Y_i.
    """
    n = dx.size
    a_dx = dx[:, None, None] * _GL_A
    system = np.zeros((n, 6, 6))
    system[:, np.arange(6), np.arange(6)] = 1.0
    system[:, 0::2, 1::2] = -kappa * a_dx
    system[:, 1::2, 0::2] = a_dx * (qv[:, None, :] / kappa)
    stages = np.linalg.solve(system, np.broadcast_to(_GL_STAGE_RHS,
                                                     (n, 6, 2)))
    b_dx = (dx[:, None] * _GL_B)[:, None, :]
    step = np.empty((n, 2, 2))
    step[:, 0] = kappa * (b_dx @ stages[:, 1::2])[:, 0]
    step[:, 1] = -((b_dx * (qv / kappa)[:, None, :]) @ stages[:, 0::2])[:, 0]
    step[:, 0, 0] += 1.0
    step[:, 1, 1] += 1.0
    return step


def _renormalized_product(mats: np.ndarray, logs: np.ndarray) -> tuple:
    """(log scale, unit-max matrix) of exp(sum logs) mats[-1] ... mats[0].

    Neighbours are multiplied pairwise, log2(n) vectorized passes, each
    product divided by its largest entry.
    """
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            mats = np.concatenate([mats, np.eye(2)[None]])
            logs = np.append(logs, 0.0)
        prod = mats[1::2] @ mats[0::2]
        norm = np.max(np.abs(prod), axis=(1, 2))
        mats = prod / norm[:, None, None]
        logs = logs[0::2] + logs[1::2] + np.log(norm)
    return float(logs[0]), mats[0]


def _collocation_propagate(q: Callable, x0: float, x1: float, kappa: float,
                           tol: float, max_cell: float) -> tuple:
    """Propagator of the reverse check from x0 to x1.

    Uniform initial cells no wider than ``max_cell`` are refined
    ``_COLLOCATION_CHUNK`` at a time: each pass evaluates q at the nodes
    of every open cell's two halves (and, on the first pass, the whole
    cell) in one call, and a cell is accepted with its two-half product
    once no entry differs from the whole-cell matrix by more than
    ``tol``; otherwise its halves are reopened.  Returns
    ``(log_scale, mat, nfev)``: ``exp(log_scale) * mat`` maps
    (phi, phi'/kappa) at x0 to x1, and ``nfev`` counts evaluations of q.
    ``mat`` is None if a chunk needs more than ``_COLLOCATION_MAX_OPEN``
    open cells.
    """
    sign = 1.0 if x1 >= x0 else -1.0
    n_cells = max(1, math.ceil(abs(x1 - x0) / max_cell))
    edges = np.linspace(x0, x1, n_cells + 1)
    chunk_logs, chunk_mats = [], []
    nfev = 0
    for lo in range(0, n_cells, _COLLOCATION_CHUNK):
        hi = min(lo + _COLLOCATION_CHUNK, n_cells)
        xa = edges[lo:hi]
        dx = edges[lo + 1:hi + 1] - xa
        full = None
        starts, accepted = [], []
        for halvings in range(_MAX_HALVINGS + 1):
            n = xa.size
            half = 0.5 * dx
            xm = xa + half
            cx, cw = [xa, xm], [half, half]
            if full is None:
                cx.append(xa)
                cw.append(dx)
            cx = np.concatenate(cx)
            cw = np.concatenate(cw)
            nodes = cx[:, None] + cw[:, None] * _GL_NODES
            qv = np.asarray(q(nodes.ravel()), dtype=float).reshape(
                nodes.shape)
            nfev += qv.size
            steps = _collocation_steps(qv, cw, kappa)
            left, right = steps[:n], steps[n:2 * n]
            if full is None:
                full = steps[2 * n:]
            fine = right @ left
            ok = np.max(np.abs(fine - full), axis=(1, 2)) <= tol
            if halvings == _MAX_HALVINGS:
                ok[:] = True
            starts.append(xa[ok])
            accepted.append(fine[ok])
            split = ~ok
            if not np.any(split):
                break
            if 2 * np.count_nonzero(split) > _COLLOCATION_MAX_OPEN:
                return None, None, nfev
            xa = np.concatenate([xa[split], xm[split]])
            dx = np.concatenate([half[split], half[split]])
            full = np.concatenate([left[split], right[split]])
        order = np.argsort(sign * np.concatenate(starts), kind="stable")
        mats = np.concatenate(accepted)[order]
        chunk_log, chunk_mat = _renormalized_product(mats,
                                                     np.zeros(mats.shape[0]))
        chunk_logs.append(chunk_log)
        chunk_mats.append(chunk_mat)
    log_scale, mat = _renormalized_product(np.array(chunk_mats),
                                           np.array(chunk_logs))
    return log_scale, mat, nfev


def _solve_generic(omega, h, m, r, xs, rtol, checks):
    """Magnus engine from the center outward for an arbitrary density.

    No closed form exists here.  The reverse check marches each boundary
    state back to the center by Gauss-Legendre collocation
    (:func:`_collocation_propagate`, independent of the engine), budget
    permitting (a skipped half is flagged), and reports the larger of the
    two deviations from the launch state.  Underflowing amplitudes raise
    :class:`ScaleOutOfReach` -- without structure there is no log-space
    representation to fall back on.
    """
    kappa = TWO_PI * h * math.sqrt(float(omega.omega_upper) / FOUR_PI_SQ)

    def q(x):
        return h * h * omega(x)

    max_step = 1.0 / (16.0 * h)
    stats = {"rtol": rtol, "max_step": max_step, "path": "generic-ode",
             "nfev": 0}

    mass = e_ext = e_ext_log = None
    if r is not None:
        lo, hi = m - r / 2.0, m + r / 2.0
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError("the interval m +- r/2 leaves [0, 1]")
        # 256 points per oscillation period keeps the trapezoid error of
        # the mass integral near 1e-6 relative (it is quadratic in the
        # per-period sample count); the cap bounds one-shot memory
        pts = min(int(256 * h * r) + 9, 2_000_001)
        mass = 0.0

    phi = np.empty_like(xs)
    phip = np.empty_like(xs)
    ends = {}
    edge_energy = {}
    for direction, target in ((+1, 1.0), (-1, 0.0)):
        sel = xs >= m if direction > 0 else xs < m
        gx = np.empty(0)
        if r is not None:
            gx = np.linspace(m, hi if direction > 0 else lo,
                             max(pts // 2, 5))
        n_sel = int(np.count_nonzero(sel))
        logs, mats, nfev = _magnus_propagate(
            q, m, target, kappa, rtol, max_step,
            np.concatenate([xs[sel], gx]))
        stats["nfev"] += nfev
        # launched from (phi, phi'/kappa) = (1, 0): the first column
        amp = np.exp(logs)
        vals = amp * mats[0]
        dvals = kappa * amp * mats[2]
        phi[sel] = vals[:n_sel]
        phip[sel] = dvals[:n_sel]
        if r is not None:
            gv = vals[n_sel:-1]
            mass += abs(float(np.trapezoid(gv * gv, gx)))
            edge_energy[direction] = float(gv[-1] ** 2
                                           + dvals[-2] ** 2)
        if logs[-1] + math.log(math.hypot(mats[0, -1], mats[2, -1])) \
                < math.log(1e-290):
            raise ScaleOutOfReach(
                f"the amplitude at x = {target:g} underflowed the generic "
                "ODE path; no structural log representation is available")
        ends[direction] = (float(vals[-1]), float(dvals[-1]))

    be0 = ends[-1][0] ** 2 + ends[-1][1] ** 2
    be1 = ends[+1][0] ** 2 + ends[+1][1] ** 2

    if r is not None:
        e_lo, e_hi = edge_energy[-1], edge_energy[+1]
        e_ext = 0.5 * (e_lo + e_hi)
        e_ext_log = math.log(e_ext) if e_ext > 0 else -math.inf
        stats["extreme_energy_left"] = e_lo
        stats["extreme_energy_right"] = e_hi

    flags = []
    if checks:
        devs = []
        for direction, end in ((+1, 1.0), (-1, 0.0)):
            est = 16.0 * h * abs(end - m)
            if est > _CHECK_BUDGET:
                flags.append(
                    f"reverse check from x = {end:g} skipped: {est:.0f} "
                    f"initial cells exceed the budget {_CHECK_BUDGET}")
                continue
            log_scale, mat, nfev = _collocation_propagate(
                q, end, m, kappa, max(rtol, _MIN_RTOL), max_step)
            stats["nfev"] += nfev
            if mat is None:
                flags.append(
                    f"reverse check from x = {end:g} skipped: refinement "
                    f"needs more than {_COLLOCATION_MAX_OPEN} open cells")
                continue
            phi_end, dphi_end = ends[direction]
            back = math.exp(log_scale) * (mat @ [phi_end, dphi_end / kappa])
            devs.append(math.hypot(back[0] - 1.0, back[1]))
        if devs:
            stats["wronskian_dev"] = max(devs)

    return QuasimodeResult(
        j=None, h=h, eps=None, m=m, r=r, kind=omega.kind,
        x=xs, phi=phi, phi_prime=phip,
        interior_mass=mass,
        extreme_energy=e_ext, extreme_energy_log=e_ext_log,
        boundary_energy_0=be0,
        boundary_energy_0_log=math.log(be0) if be0 > 0 else -math.inf,
        boundary_energy_1=be1,
        boundary_energy_1_log=math.log(be1) if be1 > 0 else -math.inf,
        stats=stats, flags=tuple(flags))


# --------------------------------------------------------------------------
# boundary-smallness sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    """Boundary energies across a mode family, with slope diagnostics.

    ``rows`` hold one dict per solved j (h, eps, n, masses, energies and
    their logs, the local slope of log(total boundary energy) against
    log h, the closed-form edge bound and the tail-energy ratio).  The
    sweep stops at the first j whose density cannot be built or whose
    mode raises :class:`ScaleOutOfReach`, and records where and why.
    """

    family: str
    mode: str
    rows: tuple
    slopes: tuple
    slope_magnitudes_increasing: bool
    truncated_at: Optional[int]
    truncation_reason: Optional[str]

    def to_summary(self) -> dict:
        return _jsonable(self)


def _tilde_tail_ratio(res: QuasimodeResult) -> Optional[float]:
    """Et(1) / Et(1/2) from the samples (both points are on-grid)."""
    xs = res.x
    idx_half = int(np.argmin(np.abs(xs - 0.5)))
    idx_one = len(xs) - 1
    h = res.h
    vals = []
    for i in (idx_half, idx_one):
        p, q = res.phi[i], res.phi_prime[i]
        if not (np.isfinite(p) and np.isfinite(q)):
            return None
        vals.append(FOUR_PI_SQ * h * h * p * p + q * q)
    if vals[0] == 0.0:
        return None
    return float(vals[1] / vals[0])


def _family_members(params: CounterexampleParams, family: str,
                    js: Sequence[int]) -> tuple:
    """Densities of the buildable prefix of ``js``, in order, then the
    first j that cannot be built and why (None, None when every j can).

    The psi family is one density carrying every interval: a mode is
    honest only against the full density, so it serves every j or none.
    A lambda member oscillates only in its own interval and is built from
    its single-entry sub-family; building stops at the first entry whose
    density cannot be assembled (h overflow, or eps so small that the
    pair's measured period average is quadrature-noise-dominated).
    """
    if family not in ("lambda", "psi"):
        raise ValueError(f"unknown family {family!r}")
    members = {}
    try:
        if family == "psi":
            shared = make_counterexample_density(params)
            members = dict.fromkeys(js, shared)
        else:
            for j in js:
                members[j] = make_counterexample_density(
                    params.restrict(j), family="lambda")[0]
    except ValueError as exc:
        return members, next(j for j in js if j not in members), str(exc)
    return members, None, None


def _family_rows(row: Callable, members: dict,
                 truncated_at: Optional[int],
                 reason: Optional[str]) -> tuple:
    """``row(j, density)`` for each member in order, stopping at the first
    :class:`ScaleOutOfReach`.  Returns (rows, truncated_at, reason); the
    members' own truncation stands when every row is reached."""
    rows = []
    for j, density in members.items():
        try:
            rows.append(row(j, density))
        except ScaleOutOfReach as exc:
            return rows, j, str(exc)
    return rows, truncated_at, reason


def boundary_smallness_sweep(
    *,
    mode: str = "scaled",
    family: str = "psi",
    j_range: Sequence[int] = range(2, 7),
    **sequence_kwargs,
) -> SweepReport:
    """Boundary energies of the quasimode family against h_j.

    Builds the sequences (``make_sequences``) and, at ``DEFAULT_KNOTS``,
    the family's densities (one for psi, one per j for lambda; see
    :func:`_family_members`), then solves one row per j in order and
    tabulates the boundary energies with their local slope
    d log(E_total) / d log(h_j).  The sweep truncates at the first j
    whose density cannot be built or whose mode is out of reach, and
    reports the truncation.  Rows are solved at :func:`solve_quasimode`'s
    default rtol (1e-12) on 1025 samples (``_SWEEP_SAMPLES``), without the
    closed-form check (a solve-level diagnostic it runs by default).

    Each row also carries ``edge_bound_log``: the energy-comparison chain
    "boundary energy <= weighted E(0) <= weighted E(edge) * growth"
    evaluates to 4 pi^2 h^2 e^{-(4/5) c eps_j h_j r_j} when the growth
    exponent is within its (1/5) eps h r allowance, so that is the bound
    recorded (every factor measured, none assumed).  ``tail_ratio`` is
    the weighted-energy ratio Et(1)/Et(1/2), exactly 1 for these
    densities (omega is constant there and the rotation count over
    [1/2, 1] is a whole number when h is even).
    """
    params = make_sequences(mode=mode, j_range=j_range, **sequence_kwargs)
    js = sorted(e.j for e in params.entries)

    def row(j: int, density: Coefficient) -> dict:
        res = solve_quasimode(density, j, n_samples=_SWEEP_SAMPLES,
                              checks=False)
        e = params.entry(j)
        pair = density.trapping.pairs[j]
        total_log = np.logaddexp(res.boundary_energy_0_log,
                                 res.boundary_energy_1_log)
        edge_bound_log = (math.log(FOUR_PI_SQ)
                          - 0.8 * pair.decay_c * e.eps * e.n
                          + 2.0 * math.log(e.h))
        return {
            "j": j, "h": e.h, "eps": e.eps, "n": e.n,
            "interior_mass": res.interior_mass,
            "extreme_energy": res.extreme_energy,
            "extreme_energy_log": res.extreme_energy_log,
            "boundary_energy_0": res.boundary_energy_0,
            "boundary_energy_0_log": res.boundary_energy_0_log,
            "boundary_energy_1": res.boundary_energy_1,
            "boundary_energy_1_log": res.boundary_energy_1_log,
            "total_boundary_log": float(total_log),
            "edge_bound_log": edge_bound_log,
            "edge_bound_ok": bool(
                res.boundary_energy_0_log <= edge_bound_log
                and res.boundary_energy_1_log <= edge_bound_log),
            "tail_ratio": _tilde_tail_ratio(res),
        }

    rows, truncated_at, truncation_reason = _family_rows(
        row, *_family_members(params, family, js))

    slopes = []
    for i in range(len(rows)):
        lo = max(0, i - 1)
        hi = min(len(rows) - 1, i + 1)
        if hi == lo:
            slopes.append(math.nan)
            continue
        dlog_e = rows[hi]["total_boundary_log"] - rows[lo]["total_boundary_log"]
        dlog_h = math.log(rows[hi]["h"]) - math.log(rows[lo]["h"])
        slopes.append(dlog_e / dlog_h)
    for r, slope in zip(rows, slopes):
        r["slope"] = slope

    mags = [abs(s) for s in slopes if not math.isnan(s)]
    increasing = (len(mags) >= 2
                  and all(b > a for a, b in zip(mags, mags[1:])))

    return SweepReport(
        family=family, mode=mode,
        rows=tuple(rows), slopes=tuple(slopes),
        slope_magnitudes_increasing=increasing,
        truncated_at=truncated_at,
        truncation_reason=truncation_reason)
