"""Energy-conserving finite differences for omega(x) u_tt = u_xx.

Forward evolution uses the symmetric three-point leapfrog with mass
weights omega(x_i) on the interior nodes of a uniform grid of n cells.
The scheme conserves a staggered quadratic energy exactly (up to
round-off), and because it is linear with time-independent
coefficients, the same holds for every k-th time-difference sequence,
which is how the higher energies E_k are tracked.

One private kernel, ``_leapfrog``, marches a node array or a (nodes x K)
block of data columns, each bitwise the single-column run.  It marches
three C-ordered level buffers with its coefficients stored per entry of a
level, so a block's step runs at numpy's contiguous speed.  It keeps one
record of every level's edge rows, for the boundary traces; energies
(from copies of the last levels) and snapshots only on request; no
interior slice.
:func:`evolve` is the one forward solve, free or driven by Dirichlet rows
(``forcing=``): a single-column run that tracks E_0..E_{k_max} at every
level; ``observability`` marches its data as blocks without energies.
``_leapfrog_modes`` solves the homogeneous scheme in closed form instead:
one table of every mode's Chebyshev evolution, on which HUM's conjugate
residuals run (they minimize the residual HUM's stopping rule reads).
``_sinusoids`` is the package's one n-theta table kernel, sin(n theta +
phase) by angle addition on blocks of about sqrt(steps) rows; it builds
that table and ``observability``'s closed-form mode traces, within
0.5 eps (1 + n theta) of the exact sine measured (np.sin of the rounded
n theta + phase reaches 0.9 eps (1 + n theta)).
Its eigenproblem, ``_scheme_eigenpairs``, is one ``eigh_tridiagonal``
call for every selection: the whole spectrum for HUM, the scheme's
lowest modes for ``observability``'s constants and the modes in a
frequency window for its divergence rows (those two subsets by coarse
bisection and inverse iteration, then one Rayleigh-Ritz step).
Every forward run and every wave solve of ``observability`` builds its
grid once with ``_wave_grid``; its cell-count rule is
``_check_resolution``, callable before any march.

The sidewise solver (the flux-to-energy oracle of the paper's argument)
and the operator D_omega (whose powers the time differences of a trace
must reproduce) check this module from outside it: they live with the
tests, in ``tests/oracles.py``, which imports from this module only the
CFL number ``_CFL``.

The public traces of :func:`evolve` are third-order one-sided
differences, close enough to u_x for the tests' sidewise oracle to
rebuild the energy; ``observability`` reads the scheme's own
summation-by-parts traces (u_1 - u_0)/dx and (u_n - u_{n-1})/dx, which
its conserved energy and HUM's duality identity pair with.  Rough
coefficients are sampled pointwise at the nodes; no smoothing is ever
applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .coeff import Coefficient, _jsonable

__all__ = [
    "WaveTrajectory",
    "solver_time_grid",
    "evolve",
    "trace_sobolev_norm",
]

# the CFL number of every time step: dt <= _CFL dx sqrt(omega_*)
_CFL = 0.9
# _scheme_eigenpairs: a subset's bisection tolerance, in Gershgorin bounds
# of ||T||.  At res 16384 (the j=3 window at ppw 24) the first components
# of the window vectors stay within 3.8e-12 relative of the whole
# spectrum's; at 1e-7 one of them moved 4.5e-7
_ISOLATE = 1e-9


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
    bad = np.flatnonzero(~(np.isfinite(om) & (om > 0)))
    if bad.size or omega.omega_lower <= 0:
        at = f": omega = {om[bad[0]]:g} at node {bad[0]}" if bad.size else ""
        raise ValueError(f"density violates the hyperbolicity lower bound{at}")
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


def _taylor_start(u0, v0, om, dt, dx, *, names=("u0", "u1")):
    """(u0 with its ends zeroed, Taylor start u(dt) to fourth-order local
    accuracy) for node arrays or (nodes x K) blocks of data columns.  A
    u0 or v0 that does not vanish at the ends is rejected under its name
    in ``names`` (the first level would half use a velocity's ends)."""
    u0 = np.array(u0, dtype=float)
    for data, name in zip((u0, v0), names):
        tol = 1e-12 * max(1.0, float(np.max(np.abs(data))))
        if np.max(np.abs(data[0])) > tol or np.max(np.abs(data[-1])) > tol:
            raise ValueError(f"{name} must vanish at the endpoints")
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


@dataclass(frozen=True)
class _March:
    """One kernel run; series have shape (steps+1,) + columns.  Beside
    the public stencil traces, ``sbp_left``/``sbp_right`` are the
    summation-by-parts traces (u_1 - u_0)/dx and (u_n - u_{n-1})/dx;
    ``levels`` are u at T-dt and T."""

    trace_left: np.ndarray
    trace_right: np.ndarray
    sbp_left: np.ndarray
    sbp_right: np.ndarray
    levels: tuple
    energies: Mapping[int, np.ndarray]
    snapshots: Optional[tuple] = None       # (times, u, u_t) lists


def _leapfrog(om, dx, dt, steps, u_start, u_next, *, boundary=None,
              k_max=None, snapshot_stride=None) -> _March:
    """March a node array or a (nodes x K) block of first two levels.

    Every column gets bitwise the single-column arithmetic,
    (2 - 2 lam) u - u_prev + lam (u>> + u<<), in place on three level
    buffers (previous, current, next): C-ordered copies of the two
    levels, whatever the inputs' layout, with lam and 2 - 2 lam stored
    once per entry of a level (one value along each row), so a block's
    update runs over contiguous memory.  The eight edge rows of every
    level go into one record, whose trace stencils run after the march.
    ``boundary``: optional (left, right) Dirichlet rows of shape
    (steps+1,) + columns for every level; without it the ends are zero
    from the third level.  Only on request: energies of orders
    <= ``k_max`` (one column only; order k at every level from the
    (k+1)-th on, read from copies of the last k_max + 2 levels) and
    snapshots.
    """
    first = np.array(u_start, dtype=float, order="C")
    second = np.array(u_next, dtype=float, order="C")
    cols = first.shape[1:]
    orders = range(0 if k_max is None else k_max + 1)
    if orders and cols:
        raise ValueError("energies are tracked for a single column only")
    n = first.shape[0] - 1
    # one coefficient per entry, not a (rows, 1) column broadcast over
    # the block: numpy then runs each update as one contiguous loop
    # instead of one K-entry loop per row
    lam = np.ascontiguousarray(np.broadcast_to(
        (dt ** 2 / dx ** 2 / om[1:-1]).reshape((-1,) + (1,) * len(cols)),
        (n - 1,) + cols))
    coef = 2.0 - 2.0 * lam
    if boundary is None:
        left = right = np.zeros((steps + 1,) + cols)
    else:
        left, right = (np.asarray(b, dtype=float) for b in boundary)
        first[0], first[-1] = left[0], right[0]
        second[0], second[-1] = left[1], right[1]

    bufs = (first, second, np.zeros_like(first))
    # interior rows, their right and their left neighbours
    ins, aheads, behinds = ([b[1 + k:n + k] for b in bufs] for k in (0, 1, -1))
    scratch = np.empty((n - 1,) + cols)
    # the rows the traces read, level by level
    rows = np.array([0, 1, 2, 3, n - 3, n - 2, n - 1, n])
    edges = np.empty((steps + 1, len(rows)) + cols)
    first.take(rows, 0, edges[0], "clip")
    second.take(rows, 0, edges[1], "clip")

    energies = {k: [] for k in orders}
    held = []          # copies of the last k_max + 2 levels

    def push_energies(level):
        held.append(level.copy())
        del held[:-(k_max + 2)]
        for k in orders:
            if len(held) >= k + 2:
                d_old = _diff_k(held[-(k + 2):-1], k, dt)
                d_new = _diff_k(held[-(k + 1):], k, dt)
                energies[k].append(_staggered_energy(om, d_new, d_old, dt, dx))

    if orders:
        push_energies(first)
        push_energies(second)
    snaps = None
    if snapshot_stride is not None:
        snaps = ([0.0], [first.copy()], [None])

    prev, cur = 0, 1
    for m in range(1, steps):
        nxt = 3 - prev - cur
        target = bufs[nxt]
        tg = ins[nxt]
        np.multiply(ins[cur], coef, out=tg)
        tg -= ins[prev]
        np.add(aheads[cur], behinds[cur], out=scratch)
        scratch *= lam
        tg += scratch
        target[0] = left[m + 1]
        target[-1] = right[m + 1]
        target.take(rows, 0, edges[m + 1], "clip")
        if orders:
            push_energies(target)
        if snaps is not None and m % snapshot_stride == 0:
            snaps[0].append(m * dt)
            snaps[1].append(bufs[cur].copy())
            snaps[2].append((target - bufs[prev]) / (2 * dt))
        prev, cur = cur, nxt

    if snaps is not None and steps >= 2:
        last, before, oldest = bufs[cur], bufs[prev], bufs[3 - prev - cur]
        snaps[0].append(steps * dt)
        snaps[1].append(last.copy())
        snaps[2].append((3 * last - 4 * before + oldest) / (2 * dt))

    g = np.moveaxis(edges, 1, 0)
    return _March(
        trace_left=_trace_left(g[:4], dx), trace_right=_trace_right(g[4:], dx),
        sbp_left=(g[1] - g[0]) / dx, sbp_right=(g[7] - g[6]) / dx,
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
    = U_{n-1}(c_k) = sin(n theta_k)/sin(theta_k), n = 0..steps, the
    :func:`_sinusoids` table divided in place by sin(theta_k); U_{n-2}
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
        """u^n_1, n = 0..steps (dx times ``_leapfrog``'s ``sbp_left``),
        from the modal coordinates of the first two levels."""
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


def _scheme_eigenpairs(om, dx, dt, count=None, *, window=None):
    """(mu, Q, sqrt(omega), theta): every eigenpair of the scheme's
    tridiagonal T = M^{-1/2} K M^{-1/2} (:class:`_Modes`), the ``count``
    lowest, or those with sqrt(mu) in the ``window`` ]lo, hi] (none, when
    it holds no eigenvalue; finite 0 <= lo < hi, checked before any
    solve).  theta = 2 arcsin(dt sqrt(mu) / 2) is arccos(1 - dt^2 mu / 2)
    without its cancellation near 0; the scheme is stable only while
    every 1 - dt^2 mu / 2 > -1.

    One ``eigh_tridiagonal`` call serves every selection (``select="i"``
    for ``count``, ``"v"`` on ]lo^2, hi^2] for ``window``).  A subset's
    eigenvalues are bisected only to _ISOLATE times the Gershgorin bound
    of ||T||, and inverse iteration gives their vectors Z; one
    Rayleigh-Ritz step, the eigenpairs (mu, U) of Z^T T Z and V = Z U,
    restores full-precision eigenvalues and resolves near-degenerate
    (tunnelling-split) pairs inside span Z.  At most two n x k arrays
    are held at a time.
    """
    from scipy.linalg import eigh_tridiagonal

    root_om = np.sqrt(om[1:-1])
    d = 2.0 / (dx ** 2 * om[1:-1])
    e = -1.0 / (dx ** 2 * root_om[:-1] * root_om[1:])
    select, bounds = "a", None
    if window is not None:
        lo, hi = window
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError(f"window {window!r} must have finite bounds "
                             f"0 <= lo < hi")
        select, bounds = "v", (lo * lo, hi * hi)
    elif count is not None:
        if not 1 <= count <= len(d):
            raise ValueError(f"count {count!r} must lie in 1..{len(d)}")
        select, bounds = "i", (0, count - 1)
    size = np.abs(e)
    gershgorin = float(np.max(np.abs(d) + np.r_[size, 0.0] + np.r_[0.0, size]))
    mu, Z = eigh_tridiagonal(d, e, select=select, select_range=bounds,
                             tol=_ISOLATE * gershgorin)
    if select != "a" and len(mu):
        # Z^T T Z = Z^T R + s I with R = (T - s) Z, s the subset's mean
        # eigenvalue: R's entries are of the subset's spread, not of
        # ||T||, so Z^T R keeps its accuracy under einsum's plain
        # summation.  R is built a column at a time (no temporary beside Z
        # and R).  einsum, not BLAS, forms Z^T R and Z U: matmul's level-3
        # calls raised a trapping sweep's peak RSS by about 1 MB (2-vCPU
        # Xeon VM) for 4 ms less
        shift = float(np.mean(mu))
        R = (d - shift)[:, None] * Z
        for j in range(len(mu)):
            R[1:, j] += e * Z[:-1, j]
            R[:-1, j] += e * Z[1:, j]
        H = np.einsum("ik,ij->kj", Z, R)
        del R
        mu, U = np.linalg.eigh(0.5 * (H + H.T))
        mu, Z = mu + shift, np.einsum("ik,kj->ij", Z, U)
    half = 0.5 * dt * np.sqrt(np.maximum(mu, 0.0))
    if np.any(half >= 1.0):
        raise ValueError("time step beyond the scheme's stability limit "
                         "(a modal cosine 1 - dt^2 mu / 2 is <= -1)")
    return mu, Z, root_om, 2.0 * np.arcsin(half)


def _sinusoids(theta, steps, phase=0.0):
    """sin(n theta_k + phase_k), n = 0..steps, as a (steps+1) x k array
    (``phase`` broadcasts against the 1-D ``theta``).

    Row n = qB + r (B = isqrt(steps+1), Q blocks) is built by angle
    addition, sin(qB theta) cos(r theta + phase) + cos(qB theta)
    sin(r theta + phase): 2(B+Q)k sines and cosines instead of
    (steps+1)k, three in-place flops per entry, and an error within about
    0.5 eps (1 + n theta) of the exact sine.
    """
    theta = np.asarray(theta, dtype=float)
    block = math.isqrt(steps + 1)
    count = -(-(steps + 1) // block)
    inner = np.multiply.outer(np.arange(block), theta) + phase
    outer = np.multiply.outer(np.arange(0, count * block, block), theta)
    c_in, s_in = np.cos(inner), np.sin(inner)
    table = np.empty((count, block, len(theta)))
    spare = np.empty_like(c_in)
    for part, c, s in zip(table, np.cos(outer), np.sin(outer)):
        np.multiply(c_in, s, out=part)
        part += np.multiply(s_in, c, out=spare)
    return table.reshape(count * block, len(theta))[:steps + 1]


def _leapfrog_modes(om, dx, dt, steps) -> _Modes:
    """Every eigenpair of the scheme and its one (steps+1) x (nodes-2)
    table, :func:`_sinusoids` over sin(theta)."""
    mu, vectors, root_om, theta = _scheme_eigenpairs(om, dx, dt)
    table = _sinusoids(theta, steps)
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
    are taken every ``snapshot_stride`` levels, a positive integer, by
    default steps // 128 (``snapshot_stride=1`` keeps every level).  The
    boundary traces are the whole record of the run's flux; no interior
    slice is recorded (the tests' sidewise solver,
    ``tests/oracles.py``, rebuilds the interior from ``trace_left``).
    """
    if not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise ValueError(
            f"k_max must be a nonnegative integer, got {k_max!r}")
    if snapshot_stride is not None and not (
            isinstance(snapshot_stride, (int, np.integer))
            and snapshot_stride > 0):
        raise ValueError(
            f"snapshot_stride must be None or a positive integer, got "
            f"{snapshot_stride!r}")
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

    if snapshot_stride is None:
        snapshot_stride = max(1, steps // 128)
    run = _leapfrog(om, dx, dt, steps, ua, ub, boundary=forcing, k_max=k_max,
                    snapshot_stride=snapshot_stride)
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
# trace norms
# --------------------------------------------------------------------------

def trace_sobolev_norm(trace: np.ndarray, beta: float, dt: float) -> float:
    """H^beta(0,T) norm of a boundary signal, by tapered FFT.

    The signal is multiplied by a fixed cosine taper (10% of the length
    on each side), zero-padded to at least four times the next power of
    two, and transformed; the norm is
    (sum (1+xi^2)^beta |F(xi)|^2 d_nu)^{1/2} with xi the angular
    frequency and F the transform approximated as dt * FFT.  At beta=0
    this is the L^2 norm of the tapered signal (Parseval).  A negative
    or non-finite beta, and a dt that is not positive and finite, are
    rejected.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return math.sqrt(float(_tapered_gram(trace, _check_beta(beta), dt)))


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


def _tapered_gram(traces: np.ndarray, exponent: float, dt: float):
    """H^exponent(0,T) inner products, for any real exponent, of one
    signal (its squared norm) or of the columns of an (n x K) block:
    sum (1+xi^2)^exponent Re(F_i conj(F_j)) d_nu over the one-sided
    tapered spectrum (:func:`_tapered_spectrum`), F = dt * FFT."""
    s = np.asarray(traces, dtype=float)
    n = len(s)
    if n < 16:
        raise ValueError("trace too short")
    w, padded, weight = _tapered_spectrum(n, dt, exponent)
    spec = np.fft.rfft(s.T * w, n=padded) * dt
    mass = weight / (padded * dt)
    # one-sided spectrum: double the interior bins
    mass[1:-1] *= 2.0
    return ((spec.real * mass) @ spec.real.T
            + (spec.imag * mass) @ spec.imag.T)
