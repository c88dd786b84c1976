"""Energy-conserving finite differences for omega(x) u_tt = u_xx.

Forward evolution uses the symmetric three-point leapfrog with mass
weights omega(x_i) on the interior nodes of a uniform grid of n cells.
The scheme conserves a staggered quadratic energy exactly (up to
round-off), and because it is linear with time-independent
coefficients, the same holds for every k-th time-difference sequence,
which is how the higher energies E_k are tracked.

One private kernel, ``_leapfrog``, marches a node array or a (nodes x K)
block of data columns, each bitwise the single-column run.  It always
returns the boundary traces and computes energies and snapshots only on
request; it records no interior slice.  :func:`evolve` is the one
forward solve, free or driven by Dirichlet rows (``forcing=``): a
single-column run that tracks E_0..E_{k_max} at every level;
``observability`` marches its data as blocks without energies.
``_leapfrog_modes`` solves the homogeneous scheme in closed form instead:
one table of every mode's Chebyshev evolution, on which HUM's CG runs.

The sidewise solver is the flux-to-energy oracle of the paper's
argument: it re-reads the same equation as an evolution in x
(u_xx = omega u_tt) and, started at x = 0 from the boundary Cauchy data
(u = 0, u_x = a forward run's ``trace_left``), rebuilds the field and
its energies F_0, F_1 (``_SIDEWISE_K_MAX``) across the interval from the
flux alone, sharing nothing with the leapfrog but that trace.  It shrinks
the transverse window one grid point per step - a superset of the true
domain-of-dependence shrink rate sqrt(omega^*) dx per unit x at the CFL
number 0.9, so a full crossing needs T > 2 sqrt(omega^*) / 0.9.
:func:`apply_D_omega` is the discrete operator whose powers the time
differences of a trace must reproduce.  Every forward run and every wave
solve of ``observability`` builds its grid once with ``_wave_grid``; its
cell-count rule is ``_check_resolution``, callable before any march.

Boundary traces use third-order one-sided differences.  Rough
coefficients are sampled pointwise at the nodes; no smoothing is ever
applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .coeff import Coefficient, _jsonable

__all__ = [
    "WaveTrajectory",
    "SidewiseSlice",
    "SidewiseResult",
    "solver_time_grid",
    "evolve",
    "sidewise_evolve",
    "apply_D_omega",
    "trace_sobolev_norm",
]

# the CFL number of every time step: dt <= _CFL dx sqrt(omega_*)
_CFL = 0.9
# apply_D_omega rejects a result below this many times its noise estimate
_SNR_FLOOR = 100.0
# sidewise_evolve: the highest order k of the sidewise energies F_k
_SIDEWISE_K_MAX = 1


# --------------------------------------------------------------------------
# grids and energies
# --------------------------------------------------------------------------

class _Grid(NamedTuple):
    """The nodes of one wave solve, omega at them, dx, dt, step count."""

    x: np.ndarray
    om: np.ndarray
    dx: float
    dt: float
    steps: int


def _check_resolution(resolution: int) -> None:
    """A wave grid's cell count is a power of two, at least 8."""
    if resolution < 8 or resolution & (resolution - 1):
        raise ValueError("resolution must be a power of two (>= 8)")


def _wave_grid(omega: Coefficient, T: float, resolution: int) -> _Grid:
    """The one grid rule: ``resolution`` (:func:`_check_resolution`) cells
    on [0, L], omega sampled once at the nodes, dt = T/steps with steps
    the smallest count satisfying dt <= _CFL * dx * sqrt(omega_*)."""
    _check_resolution(resolution)
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"T = {T} must be positive and finite")
    x = np.linspace(0.0, omega.length, resolution + 1)
    om = omega(x)
    if om.min() <= 0 or omega.omega_lower <= 0:
        raise ValueError("density violates the hyperbolicity lower bound")
    dx = x[1] - x[0]
    steps = max(1, int(math.ceil(T / (_CFL * dx * math.sqrt(om.min()))
                                 - 1e-12)))
    return _Grid(x, om, dx, T / steps, steps)


def solver_time_grid(omega: Coefficient, T: float, resolution: int):
    """The (dt, steps) of every wave solve on this grid: the smallest
    step count with dt <= 0.9 * dx * sqrt(omega_*) (``_CFL`` = 0.9)."""
    return _wave_grid(omega, T, resolution)[3:]


def _staggered_energy(om, u_new, u_old, dt, dx):
    # exactly conserved by the homogeneous leapfrog: kinetic part on the
    # nodes (trapezoid weights), potential part as the symmetric product
    # of consecutive gradients
    v = (u_new - u_old) / dt
    w = om * v * v
    kin = 0.5 * dx * (np.sum(w) - 0.5 * (w[0] + w[-1]))
    pot = 0.5 * np.dot(np.diff(u_new), np.diff(u_old)) / dx
    return kin + pot


def _diff_k(levels, k, dt):
    """k-th time difference of a window of k+1 consecutive levels."""
    acc = np.zeros_like(levels[0])
    for i in range(k + 1):
        acc += ((-1.0) ** (k - i)) * math.comb(k, i) * levels[i]
    return acc / dt ** k


def _trace_left(u, dx):
    return (-11.0 * u[0] + 18.0 * u[1] - 9.0 * u[2] + 2.0 * u[3]) / (6.0 * dx)


def _trace_right(u, dx):
    return (11.0 * u[-1] - 18.0 * u[-2] + 9.0 * u[-3] - 2.0 * u[-4]) / (6.0 * dx)


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveTrajectory:
    """One forward run: grid, traces, energy series, sparse snapshots.

    ``energies[k]`` tracks the conserved energy of the k-th
    time-difference sequence at the staggered times ``energy_times[k]``.
    ``levels`` holds the final two solution levels (u at T-dt and T),
    which restart the recurrence exactly: evolving from the swapped pair
    runs the dynamics backward (the scheme is time-symmetric).
    ``flags`` and ``pz_ratios`` describe a forced run's Dirichlet rows
    (empty and None for a free run).
    """

    x: np.ndarray
    omega_nodes: np.ndarray
    dt: float
    steps: int
    T: float
    times: np.ndarray
    trace_left: np.ndarray
    trace_right: np.ndarray
    energies: Mapping[int, np.ndarray]
    energy_times: Mapping[int, np.ndarray]
    snapshot_times: np.ndarray
    snapshots_u: tuple
    snapshots_ut: tuple
    levels: tuple
    homogeneous: bool
    flags: tuple = ()
    pz_ratios: Optional[Mapping[str, float]] = None

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def energy_drift(self, k: int = 0) -> float:
        e = self.energies[k]
        ref = max(abs(e[0]), 1e-300)
        return float(np.max(np.abs(e - e[0])) / ref)

    def final_state(self):
        """(u, u_t) at t = T, the velocity by one-sided differencing."""
        u_prev, u_last = self.levels
        # first-order backward difference (u_T - u_{T-dt}) / dt of the
        # last two levels
        ut = (u_last - u_prev) / self.dt
        return u_last.copy(), ut

    def to_summary(self) -> dict:
        return {**_jsonable(self), "resolution": len(self.x) - 1,
                "energy_drift": {str(k): self.energy_drift(k)
                                 for k in self.energies}}


def _taylor_start(u0, v0, om, dt, dx):
    """(u0 with its ends zeroed, Taylor start u(dt) to fourth-order local
    accuracy) for node arrays or (nodes x K) blocks of data columns."""
    u0 = np.array(u0, dtype=float)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(u0))))
    if np.max(np.abs(u0[0])) > tol or np.max(np.abs(u0[-1])) > tol:
        raise ValueError("u0 must vanish at the endpoints")
    u0[0] = u0[-1] = 0.0
    inv_om = (1.0 / om).reshape((-1,) + (1,) * (u0.ndim - 1))
    lap0 = np.zeros_like(u0)
    lap0[1:-1] = (u0[2:] - 2 * u0[1:-1] + u0[:-2]) / dx ** 2
    lap1 = np.zeros_like(v0)
    lap1[1:-1] = (v0[2:] - 2 * v0[1:-1] + v0[:-2]) / dx ** 2
    u1 = (u0 + dt * v0 + 0.5 * dt ** 2 * inv_om * lap0
          + dt ** 3 / 6.0 * inv_om * lap1)
    u1[0] = 0.0
    u1[-1] = 0.0
    return u0, u1


def _forcing_flags(left, right, dt: float) -> tuple:
    """() when the Dirichlet rows f (x = 0) and g (x = 1) and their first
    derivatives vanish at t = 0, judged against the rows' own value and
    slope scales; otherwise the one incompatibility flag."""
    scale = max(float(np.max(np.abs(left))), float(np.max(np.abs(right))))
    if scale == 0.0:
        return ()
    slope = max(float(np.max(np.abs(np.diff(left)))),
                float(np.max(np.abs(np.diff(right))))) / dt
    rate0 = max(abs(left[1] - left[0]), abs(right[1] - right[0])) / dt
    if (abs(left[0]) <= 1e-9 * scale and abs(right[0]) <= 1e-9 * scale
            and rate0 <= 1e-4 * max(slope, scale)):
        return ()
    return ("forcing incompatible with zero initial data; "
            "boundary jump applied at the first level",)


def _sup_norm(rows, dt: float, k: int) -> float:
    """max over j <= k of sup |d^j/dt^j| of all ``rows`` combined.

    The j-th derivative is estimated by the j-th forward difference
    divided by dt^j (no edge stencils, so repeated differencing does not
    manufacture boundary artifacts)."""
    out = 0.0
    for g in rows:
        for j in range(k + 1):
            d = np.diff(g, n=j) if j else g
            if len(d):
                out = max(out, float(np.max(np.abs(d))) / dt ** j)
    return out


# levels per batch of boundary-trace evaluation in the kernel
_EDGE_CHUNK = 256


@dataclass(frozen=True)
class _March:
    """One kernel run; series have shape (steps+1,) + columns.  ``node1``
    is u at the first interior node (dx times the scheme's own
    summation-by-parts trace); ``levels`` are u at T-dt and T."""

    trace_left: np.ndarray
    trace_right: np.ndarray
    node1: np.ndarray
    levels: tuple
    energies: Mapping[int, np.ndarray]
    snapshots: Optional[tuple] = None       # (times, u, u_t) lists


def _leapfrog(om, dx, dt, steps, u_start, u_next, *, boundary=None,
              k_max=None, snapshot_stride=None) -> _March:
    """March a node array or a (nodes x K) block of first two levels.

    Every column gets bitwise the single-column arithmetic,
    (2 - 2 lam) u - u_prev + lam (u>> + u<<), in place on rotating
    buffers.  ``boundary``: optional (left, right) Dirichlet rows of
    shape (steps+1,) + columns for every level; without it the ends are
    zero from the third level.  Only on request: energies of orders
    <= ``k_max`` (one column only; order k at every level from the
    (k+1)-th on) and snapshots.
    """
    first = np.array(u_start, dtype=float)
    second = np.array(u_next, dtype=float)
    cols = first.shape[1:]
    orders = range(0 if k_max is None else k_max + 1)
    if orders and cols:
        raise ValueError("energies are tracked for a single column only")
    n = first.shape[0] - 1
    lam = (dt ** 2 / dx ** 2 / om[1:-1]).reshape((-1,) + (1,) * len(cols))
    coef = 2.0 - 2.0 * lam
    if boundary is None:
        left = right = np.zeros((steps + 1,) + cols)
    else:
        left, right = (np.asarray(b, dtype=float) for b in boundary)
        first[0], first[-1] = left[0], right[0]
        second[0], second[-1] = left[1], right[1]

    # k_max + 2 levels feed the k-th difference energies; >= 3 buffers so
    # the write target never aliases the two levels it is computed from
    nbuf = max(3, len(orders) + 1)
    bufs = [first, second] + [np.zeros_like(first) for _ in range(nbuf - 2)]
    inner = [b[1:-1] for b in bufs]
    ahead = [b[2:] for b in bufs]
    behind = [b[:-2] for b in bufs]
    order = [0, 1]          # buffer indices, oldest level first
    free = list(range(2, nbuf))
    scratch = np.empty((n - 1,) + cols)

    # the rows the traces read are gathered level by level and their
    # stencils applied to a whole chunk of levels at once
    rows = np.array([0, 1, 2, 3, n - 3, n - 2, n - 1, n])
    gathered = np.empty((_EDGE_CHUNK, len(rows)) + cols)
    series = np.empty((3, steps + 1) + cols)

    def flush(level):
        a = level - level % _EDGE_CHUNK
        g = np.moveaxis(gathered[:level + 1 - a], 1, 0)
        out = series[:, a:level + 1]
        out[0] = _trace_left(g[:4], dx)
        out[1] = _trace_right(g[4:8], dx)
        out[2] = g[1]

    first.take(rows, 0, gathered[0], "clip")
    second.take(rows, 0, gathered[1], "clip")
    if steps == 1:
        flush(1)

    energies = {k: [] for k in orders}

    def push_energies():
        held = [bufs[i] for i in order]
        for k in orders:
            if len(held) >= k + 2:
                d_old = _diff_k(held[-(k + 2):-1], k, dt)
                d_new = _diff_k(held[-(k + 1):], k, dt)
                energies[k].append(_staggered_energy(om, d_new, d_old, dt, dx))

    if orders:
        push_energies()
    snaps = None
    if snapshot_stride is not None:
        snaps = ([0.0], [first.copy()], [None])

    prev, cur = 0, 1
    for m in range(1, steps):
        tgt = free.pop() if free else order.pop(0)
        target = bufs[tgt]
        tg = inner[tgt]
        np.multiply(inner[cur], coef, out=tg)
        tg -= inner[prev]
        np.add(ahead[cur], behind[cur], out=scratch)
        scratch *= lam
        tg += scratch
        target[0] = left[m + 1]
        target[-1] = right[m + 1]
        order.append(tgt)
        i = (m + 1) % _EDGE_CHUNK
        target.take(rows, 0, gathered[i], "clip")
        if i == _EDGE_CHUNK - 1 or m + 1 == steps:
            flush(m + 1)
        if orders:
            push_energies()
        if snaps is not None and m % snapshot_stride == 0:
            snaps[0].append(m * dt)
            snaps[1].append(bufs[cur].copy())
            snaps[2].append((target - bufs[prev]) / (2 * dt))
        prev, cur = cur, tgt

    if snaps is not None and steps >= 2:
        held = [bufs[i] for i in order]
        snaps[0].append(steps * dt)
        snaps[1].append(held[-1].copy())
        snaps[2].append((3 * held[-1] - 4 * held[-2] + held[-3]) / (2 * dt))

    return _March(
        trace_left=series[0], trace_right=series[1], node1=series[2],
        levels=(bufs[prev].copy(), bufs[cur].copy()),
        energies={k: np.asarray(v) for k, v in energies.items()},
        snapshots=snaps)


@dataclass(frozen=True)
class _Modes:
    """The homogeneous scheme solved in closed form on one grid and step.

    With M = diag(omega) and K the Dirichlet Laplacian on the interior
    nodes, the scheme is u^{n+1} = 2u^n - u^{n-1} - dt^2 M^{-1} K u^n, and
    M^{-1/2} K M^{-1/2} = Q diag(mu) Q^T decouples it: z = Q^T M^{1/2} u
    evolves as z^n = U_{n-1}(c) z^1 - U_{n-2}(c) z^0, c = 1 - dt^2 mu/2,
    with U the Chebyshev polynomials of the second kind.  ``table[n, k]``
    = U_{n-1}(c_k) = sin(n theta_k)/sin(theta_k), n = 0..steps; U_{n-2}
    is the row above, with U_{-2} = -1.  Arrays may carry K columns.
    """

    mu: np.ndarray
    vectors: np.ndarray
    root_om: np.ndarray
    q: np.ndarray           # node 1 reads u_1 = q . z
    table: np.ndarray

    def to_modal(self, u):
        """z = Q^T M^{1/2} u."""
        u = np.asarray(u, dtype=float)[1:-1]
        return self.vectors.T @ (u.T * self.root_om).T

    def node1(self, z0, z1):
        """u^n_1, n = 0..steps (``_leapfrog``'s node1), from the modal
        coordinates of the first two levels."""
        b = (np.asarray(z0).T * self.q).T
        both = np.tensordot(self.table, np.stack(
            [(np.asarray(z1).T * self.q).T, b], axis=-1), 1)
        out = both[..., 0]
        out[1:] -= both[:-1, ..., 1]
        out[0] += b.sum(axis=0)
        return out

    def node1_adjoint(self, g):
        """(a0, a1) with sum_n g[n] node1(z0, z1)[n] = a0 . z0 + a1 . z1."""
        g = np.asarray(g, dtype=float)
        ahead = np.zeros_like(g)
        ahead[:-1] = g[1:]
        both = np.tensordot(np.stack([g, ahead]), self.table, (1, 0)).T
        a0, a1 = g[0] - both[..., 1], both[..., 0]
        return (a0.T * self.q).T, (a1.T * self.q).T


def _leapfrog_modes(om, dx, dt, steps) -> _Modes:
    """Eigenpairs of the scheme and its one (steps+1) x (nodes-2) table.

    theta = 2 arcsin(dt sqrt(mu) / 2) is arccos(c) without its
    cancellation near c = 1; the scheme is stable only while every c > -1.
    """
    root_om = np.sqrt(om[1:-1])
    mu, vectors = eigh_tridiagonal(
        2.0 / (dx ** 2 * om[1:-1]),
        -1.0 / (dx ** 2 * root_om[:-1] * root_om[1:]))
    half = 0.5 * dt * np.sqrt(np.maximum(mu, 0.0))
    if half.max() >= 1.0:
        raise ValueError("time step beyond the scheme's stability limit "
                         "(a modal cosine 1 - dt^2 mu / 2 is <= -1)")
    theta = 2.0 * np.arcsin(half)
    table = np.empty((steps + 1, len(mu)))
    np.multiply.outer(np.arange(steps + 1), theta, out=table)
    np.sin(table, out=table)
    table /= np.sin(theta)
    return _Modes(mu=mu, vectors=vectors, root_om=root_om,
                  q=vectors[0] / root_om[0], table=table)


def _as_samples(f: Union[Callable, np.ndarray, None], x: np.ndarray):
    if f is None:
        return np.zeros_like(x)
    if callable(f):
        return np.asarray(f(x), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != x.shape:
        raise ValueError("data array does not match the grid")
    return arr.copy()


def evolve(omega: Coefficient, u0, u1, T: float, resolution: int,
           k_max: int = 2, snapshot_stride: Optional[int] = None,
           start_levels: Optional[tuple] = None, *,
           forcing: Optional[tuple] = None) -> WaveTrajectory:
    """Evolve omega u_tt = u_xx under Dirichlet conditions.

    ``u0``/``u1`` are callables on [0, L] or node arrays (None is zero);
    both must vanish at the endpoints.  ``start_levels``, when given,
    bypasses the Taylor start and seeds the recurrence verbatim with two
    consecutive levels (u0/u1 must then be None) - this is how a finished
    run is continued or reversed exactly.

    ``forcing=(f, g)`` holds the Dirichlet rows u(t, 0) = f and
    u(t, L) = g, one value per level of the solver grid
    (:func:`solver_time_grid`); they set the end values of every level,
    the first two included.  Without it the ends are zero.  Rows that do
    not vanish to first order at t = 0 are flagged (the boundary node
    jumps to f(0) at the initial level), not rejected.  A forced run's
    ``pz_ratios`` reports
    ``interior`` = sup_t E_0(t) / (omega^* (||f, g||_{W2inf})^2) and
    ``flux`` = int (|u_x(t,0)|^2 + |u_x(t,1)|^2) dt
               / (omega^* (||f, g||_{W3inf})^2),
    both with discrete norms (:func:`_sup_norm`).

    One energy rule for every run: a single-column kernel run tracks
    E_0..E_{k_max} at every level, E_k at the staggered times
    ``energy_times[k]`` = (n - (k+1)/2) dt, n = k+1..steps.  Snapshots
    default to every steps // 128 (``snapshot_stride=1`` keeps every
    level).  The boundary traces are the whole record of the run's flux;
    no interior slice is recorded (:func:`sidewise_evolve` rebuilds the
    interior from ``trace_left``).
    """
    x, om, dx, dt, steps = _wave_grid(omega, T, resolution)
    if forcing is not None:
        forcing = tuple(np.asarray(row, dtype=float) for row in forcing)
        if any(row.shape != (steps + 1,) for row in forcing):
            raise ValueError(
                f"forcing must be sampled on the solver grid: "
                f"steps={steps}, dt={dt!r} (see solver_time_grid)")

    if start_levels is not None:
        if u0 is not None or u1 is not None:
            raise ValueError("start_levels replaces u0/u1")
        ua, ub = (_as_samples(level, x) for level in start_levels)
        ut0 = (ub - ua) / dt
    else:
        ut0 = _as_samples(u1, x)
        ua, ub = _taylor_start(_as_samples(u0, x), ut0, om, dt, dx)

    run = _leapfrog(om, dx, dt, steps, ua, ub, boundary=forcing, k_max=k_max,
                    snapshot_stride=snapshot_stride or max(1, steps // 128))
    st, su, sut = run.snapshots
    sut[0] = ut0
    en = run.energies
    flags, pz = (), None
    if forcing is not None:
        flags = _forcing_flags(*forcing, dt)
        om_star = float(om.max())
        w2 = _sup_norm(forcing, dt, 2)
        w3 = _sup_norm(forcing, dt, 3)
        sup_energy = float(np.max(en[0])) if len(en[0]) else 0.0
        flux = float(np.trapezoid(run.trace_left ** 2 + run.trace_right ** 2,
                                  dx=dt))
        pz = {
            "interior": sup_energy / (om_star * w2 ** 2) if w2 > 0 else 0.0,
            "flux": flux / (om_star * w3 ** 2) if w3 > 0 else 0.0,
            "sup_energy": sup_energy,
            "flux_integral": flux,
            "forcing_w2": w2,
            "forcing_w3": w3,
        }
    return WaveTrajectory(
        x=x, omega_nodes=om, dt=dt, steps=steps, T=T,
        times=np.arange(steps + 1) * dt,
        trace_left=run.trace_left, trace_right=run.trace_right,
        energies=en, energy_times={
            k: (np.arange(k + 1, steps + 1) - (k + 1) / 2.0) * dt
            for k in en},
        snapshot_times=np.asarray(st), snapshots_u=tuple(su),
        snapshots_ut=tuple(sut), levels=run.levels,
        homogeneous=forcing is None or not any(map(np.any, forcing)),
        flags=flags, pz_ratios=pz)


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
# the operator D_omega and trace norms
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


def trace_sobolev_norm(trace: np.ndarray, beta: float, dt: float) -> float:
    """H^beta(0,T) norm of a boundary signal, by tapered FFT.

    The signal is multiplied by a fixed cosine taper (10% of the length
    on each side), zero-padded to at least four times the next power of
    two, and transformed; the norm is
    (sum (1+xi^2)^beta |F(xi)|^2 d_nu)^{1/2} with xi the angular
    frequency and F the transform approximated as dt * FFT.  At beta=0
    this is the L^2 norm of the tapered signal (Parseval).  A negative
    or non-finite beta is rejected.
    """
    return _tapered_sobolev_norm(trace, _check_beta(beta), dt)


def _check_beta(beta) -> float:
    """The trace exponent beta; negative, nan and inf are rejected."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    return beta


def _tapered_spectrum(n: int, dt: float, exponent: float) -> tuple:
    """(taper, padded length, (1+xi^2)^exponent) for n samples at step dt."""
    w = np.ones(n)
    edge = max(2, int(0.10 * n))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    padded = 1 << (int(math.ceil(math.log2(n))) + 2)
    xi = 2.0 * math.pi * np.fft.rfftfreq(padded, dt)
    return w, padded, (1.0 + xi ** 2) ** exponent


def _tapered_sobolev_norm(trace: np.ndarray, exponent: float,
                          dt: float) -> float:
    """H^exponent(0,T) norm of a signal for any real exponent.

    :func:`trace_sobolev_norm` is the nonnegative side; a negative
    exponent gives the dual norm that :func:`observability.hum_control`
    reports for its control.
    """
    s = np.asarray(trace, dtype=float)
    n = len(s)
    if n < 16:
        raise ValueError("trace too short")
    w, padded, weight = _tapered_spectrum(n, dt, exponent)
    spec = np.fft.rfft(s * w, n=padded) * dt
    dnu = 1.0 / (padded * dt)
    mass = np.abs(spec) ** 2 * weight
    # one-sided spectrum: double the interior bins
    mass[1:-1] *= 2.0
    return float(math.sqrt(np.sum(mass) * dnu))
