"""Observability tests: the batched leapfrog kernel against a plain
recurrence, quotients against d'Alembert, the ensemble/Gramian ordering,
HUM reaching rest, the weighted impulse-response corrector against the
forced march, the divergence sweep's march count, truncation and growth
bookkeeping, and the package import surface."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from waveobs import coeff
from waveobs import observability as ob
from waveobs import quasimodes as qm
from waveobs import wavesim as ws

import oracles


def reference_march(om, dx, dt, steps, u0, u1, left=None, right=None):
    """One column of the leapfrog scheme, written out level by level."""
    lam = dt ** 2 / dx ** 2 / om[1:-1]
    levels = [np.array(u0, dtype=float), np.array(u1, dtype=float)]
    if left is not None:
        for i in (0, 1):
            levels[i][0], levels[i][-1] = left[i], right[i]
    for m in range(1, steps):
        u, u_prev = levels[-1], levels[-2]
        new = np.empty_like(u)
        new[1:-1] = (2.0 - 2.0 * lam) * u[1:-1] - u_prev[1:-1]
        new[1:-1] += lam * (u[2:] + u[:-2])
        new[0] = 0.0 if left is None else left[m + 1]
        new[-1] = 0.0 if right is None else right[m + 1]
        levels.append(new)
    trace_l = np.array([(-11.0 * u[0] + 18.0 * u[1] - 9.0 * u[2]
                         + 2.0 * u[3]) / (6.0 * dx) for u in levels])
    trace_r = np.array([(11.0 * u[-1] - 18.0 * u[-2] + 9.0 * u[-3]
                         - 2.0 * u[-4]) / (6.0 * dx) for u in levels])
    node1 = np.array([u[1] for u in levels])
    return trace_l, trace_r, node1, (levels[-2], levels[-1])


class TestKernel:
    # 300 steps cross the kernel's 256-level trace batches
    n, steps, K = 32, 300, 3

    @pytest.fixture(scope="class")
    def grid(self):
        x = np.linspace(0.0, 1.0, self.n + 1)
        om = coeff.make_baseline("lipschitz")(x)
        dx = 1.0 / self.n
        return om, dx, 0.9 * dx * math.sqrt(om.min())

    @pytest.mark.parametrize("forced", [False, True])
    def test_block_equals_single_columns(self, grid, forced):
        om, dx, dt = grid
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal((self.n + 1, self.K))
        u1 = u0 + dt * rng.standard_normal((self.n + 1, self.K))
        u0[0] = u0[-1] = u1[0] = u1[-1] = 0.0
        boundary = None
        if forced:
            boundary = tuple(rng.standard_normal((self.steps + 1, self.K))
                             for _ in range(2))
        run = ws._leapfrog(om, dx, dt, self.steps, u0, u1, boundary=boundary)
        for c in range(self.K):
            sides = (None, None) if boundary is None else (
                boundary[0][:, c], boundary[1][:, c])
            tl, tr, node1, levels = reference_march(
                om, dx, dt, self.steps, u0[:, c], u1[:, c], *sides)
            assert np.array_equal(run.trace_left[:, c], tl)
            assert np.array_equal(run.trace_right[:, c], tr)
            assert np.array_equal(run.node1[:, c], node1)
            assert np.array_equal(run.levels[0][:, c], levels[0])
            assert np.array_equal(run.levels[1][:, c], levels[1])
            single = ws._leapfrog(
                om, dx, dt, self.steps, u0[:, c], u1[:, c],
                boundary=None if boundary is None else sides)
            assert np.array_equal(single.trace_left, tl)
            assert np.array_equal(single.levels[1], levels[1])

    def test_records_only_on_request(self, grid):
        om, dx, dt = grid
        u = np.zeros((self.n + 1, 2))
        run = ws._leapfrog(om, dx, dt, 10, u, u)
        assert not run.energies and run.snapshots is None
        with pytest.raises(ValueError, match="single column"):
            ws._leapfrog(om, dx, dt, 10, u, u, k_max=0)


class TestQuotient:
    @pytest.fixture(scope="class")
    def one(self):
        return coeff.make_baseline("constant", value=1.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_dalembert_closed_form(self, one, k):
        # sin(k pi x) data on omega = 1: the flux is k pi cos(k pi t)
        # (position) or sin(k pi t) (velocity); T = 2.5 holds whole
        # periods of the squared trace, so Q_0 = 1/T and
        # Q_1 = 1/((k pi)^2 T)
        T = 2.5
        mode = lambda x: np.sin(k * math.pi * x)
        zero = lambda x: np.zeros_like(x)
        for u0, u1 in ((mode, zero), (zero, mode)):
            q0 = ob.observability_quotient(one, u0, u1, T, 0, resolution=256)
            q1 = ob.observability_quotient(one, u0, u1, T, 1, resolution=256)
            assert q0.value == pytest.approx(1.0 / T, rel=2e-3)
            assert q1.value == pytest.approx(
                1.0 / ((k * math.pi) ** 2 * T), rel=2e-3)
            assert q0.admissible and not q0.unbounded

    @pytest.mark.parametrize("k", [1, 2])
    def test_right_side_matches_left(self, one, k):
        # sin(k pi x) on omega = 1 radiates k pi cos(k pi t) through x = 0
        # and (-1)^k times that through x = 1: the same |flux|, so the
        # same quotient from either end
        mode = lambda x: np.sin(k * math.pi * x)
        for m in (0, 1):
            left, right = (ob.observability_quotient(
                one, mode, np.zeros_like, 2.5, m, resolution=256, side=side)
                for side in ("left", "right"))
            assert (left.side, right.side) == ("left", "right")
            assert right.value == pytest.approx(left.value, rel=1e-11)

    def test_cumulative_orders(self):
        # the cumulative denominator sums the energies of orders 0..m, one
        # part per order, each the single-order denominator; so Q cannot
        # grow with m
        om = coeff.make_baseline("lipschitz")
        single = [ob.observability_quotient(om, data_mix, np.zeros_like, 3.0,
                                            k, resolution=128).denominator
                  for k in range(4)]
        values = []
        for m in range(4):
            q = ob.observability_quotient(om, data_mix, np.zeros_like, 3.0, m,
                                          resolution=128, cumulative=True)
            assert q.denominator_parts == tuple(single[:m + 1])
            assert q.denominator == sum(q.denominator_parts)
            values.append(q.value)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_wide_eps_density(self):
        # scaled mode (eps_j >= 0.05) used to crash in travel_time
        dens = coeff.make_counterexample_density(
            coeff.make_sequences("scaled", j_range=range(2, 5)))
        T = 2.0 * coeff.travel_time(dens) + 0.5
        q = ob.observability_quotient(
            dens, lambda x: np.sin(math.pi * x), np.zeros_like, T,
            resolution=128)
        assert math.isfinite(q.value) and q.value > 0
        assert q.admissible


class TestConstants:
    def test_ensemble_below_gramian(self):
        rep = ob.estimate_observability_constant(
            coeff.make_baseline("lipschitz"), cutoffs=(4, 8),
            resolution=64, n_random=2, seed=3,
            cross_check=True, cross_check_cutoff=4,
            cross_check_resolution=64)
        ratio = rep.cross_check["ensemble_over_gramian"]
        assert 0.0 <= ratio <= 1.0 + 1e-6
        assert len(rep.rows) == 2 * (2 + 7)
        assert all(math.isfinite(c) and c > 0 for c in rep.constants.values())

    def test_beta_weight_lowers_quotient(self):
        # the H^1 weight (1 + xi^2) >= 1 can only lower the quotient; the
        # data are the ensemble candidates of cutoff 4, res 64, seed 3
        om = coeff.make_baseline("lipschitz")
        T = ob._default_horizon(coeff.travel_time(om))
        grid = ws._wave_grid(om, T, 64)
        cands = ob._ensemble_data(grid.x, grid.om, 4,
                                  np.random.default_rng(3), 2)
        assert len(cands) == 2 + 7
        for _, u0, u1 in cands:
            q0, q1 = (ob.observability_quotient(
                om, u0, u1, T, beta=beta, resolution=64).value
                for beta in (0.0, 1.0))
            assert 0.0 < q1 <= q0

    def test_ensemble_row_matches_single_quotient(self):
        # a batched candidate's quotient equals the single-datum one
        om = coeff.make_baseline("lipschitz")
        rep = ob.estimate_observability_constant(
            om, cutoffs=(4,), resolution=64, n_random=0)
        row = next(r for r in rep.rows if r["label"] == "mode-top-velocity")
        x = np.linspace(0.0, 1.0, 65)
        u1 = ob._sine_mixture(x, np.eye(4)[-1])
        q = ob.observability_quotient(om, np.zeros_like(x), u1, rep.T,
                                      resolution=64)
        assert q.value == row["quotient"]

    def test_lipschitz_constants_flat(self):
        # exact-over-span constants on one grid: the spans are nested, so
        # the constant can only grow with the cutoff, and for a Lipschitz
        # density it stays flat (0.4124 .. 0.4169 measured)
        om = coeff.make_baseline("lipschitz")
        T = 2.0 * coeff.travel_time(om) + 0.5
        values = [ob.gramian_observability_constant(
            om, T, c, resolution=256)["value"] for c in (4, 8, 16, 32)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] / values[0] <= 1.05

    @pytest.mark.parametrize("m", [1, 2])
    def test_gramian_bounds_basis_quotients(self, m):
        # the constant is the max of the quotient over the span, so it
        # bounds the quotient of each basis datum at the same m, grid and
        # T (0.03808 >= 0.03394 at m = 1, 0.004716 >= 0.003890 at m = 2)
        om = coeff.make_baseline("lipschitz")
        res, cutoff, T = 64, 4, 3.0
        gram = ob.gramian_observability_constant(om, T, cutoff,
                                                 resolution=res, m=m)
        x = np.linspace(0.0, 1.0, res + 1)
        zero = np.zeros_like(x)
        quotients = []
        for k in range(1, cutoff + 1):
            mode = np.sin(k * math.pi * x)
            for u0, u1 in ((mode, zero), (zero, mode)):
                quotients.append(ob.observability_quotient(
                    om, u0, u1, T, m, resolution=res).value)
        assert gram["m"] == m and math.isfinite(gram["value"])
        assert all(math.isfinite(q) for q in quotients)
        assert gram["value"] >= max(quotients)


def test_hum_reaches_rest():
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 129)
    y0 = np.sin(math.pi * x) + 0.5 * np.sin(2.0 * math.pi * x)
    res = ob.hum_control(om, y0, np.zeros_like(x), T=3.0, resolution=128)
    assert res.converged and res.controlled
    assert res.terminal_relative <= 1e-6
    # duality: the control cost is bounded by the observability constant
    gram = ob.gramian_observability_constant(om, 3.0, 8, resolution=128)
    assert res.cost_ratio <= gram["value"]


def test_hum_dual_norm_control():
    # at m=1 the control minimizes the tapered H^{-1} norm, which sits
    # below the L^2 norm of the same signal
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 129)
    y0 = np.sin(math.pi * x) + 0.5 * np.sin(2.0 * math.pi * x)
    res = ob.hum_control(om, y0, np.zeros_like(x), T=3.0, m=1,
                         resolution=128)
    assert res.converged and res.controlled
    assert res.control_norm < res.control_l2


@pytest.fixture
def marches(monkeypatch):
    """Kind of every leapfrog kernel run, wherever it is called from."""
    calls = []
    kernel = ws._leapfrog

    def counted(*args, **kwargs):
        forced = kwargs.get("boundary") is not None
        calls.append("forced" if forced else "homogeneous")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(ws, "_leapfrog", counted)
    monkeypatch.setattr(ob, "_leapfrog", counted)
    return calls


def test_hum_zero_target(marches):
    # zero data need no control: the zero row, flagged, with no CG
    # iteration and no verification march
    om = coeff.make_baseline("lipschitz")
    zero = np.zeros(65)
    res = ob.hum_control(om, zero, zero, T=3.0, resolution=64)
    assert res.converged and res.controlled and res.iterations == 0
    assert res.control.shape == res.times.shape and not res.control.any()
    assert res.flags == ("zero target: the zero control suffices",)
    assert marches == []


class TestHumOperator:
    """HUM's modal duality operator against the two-march construction
    it replaced, input validation, and its march count."""

    @staticmethod
    def two_march_operator(om, dx, dt, steps, smooth):
        """Forward leapfrog trace, then the reversed boundary-forced march
        whose two earliest levels pair against the adjoint's levels."""
        pair_w = om * dx / dt ** 2
        rest, no_right = np.zeros(len(om)), np.zeros(steps + 1)

        def apply(p, v):
            g = smooth(ws._leapfrog(om, dx, dt, steps, p, p + dt * v).node1
                       / dx)
            w1, w0 = ws._leapfrog(om, dx, dt, steps, rest, rest,
                                  boundary=(g[::-1], no_right)).levels
            f0, f1 = -pair_w * w1, pair_w * w0
            return f0 + f1, dt * f1

        return apply

    @pytest.mark.parametrize("m", [0, 1])
    def test_duality_identity(self, m):
        om_c = coeff.make_baseline("lipschitz")
        res = 64
        x = np.linspace(0.0, 1.0, res + 1)
        om, dx = om_c(x), x[1] - x[0]
        dt, steps = ws.solver_time_grid(om_c, 3.0, res)
        smooth = ob._smoothing_operator(steps + 1, dt, m)
        marched = self.two_march_operator(om, dx, dt, steps, smooth)
        modes = ws._leapfrog_modes(om, dx, dt, steps)
        _, modal = ob._duality_operator(modes, smooth, dx, dt)
        rng = np.random.default_rng(m)
        for _ in range(3):
            p, v = np.zeros((2, res + 1))
            p[1:-1], v[1:-1] = rng.standard_normal((2, res - 1))
            got = modal(np.concatenate([modes.to_modal(p),
                                        modes.to_modal(v)]))
            # the marched functional on nodal (p, v), pulled back by
            # Q^T M^{-1/2} to the modal coordinates z = Q^T M^{1/2} u
            ref = np.concatenate([
                modes.vectors.T @ (f[1:-1] / modes.root_om)
                for f in marched(p, v)])
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [0.5, -1])
    def test_rejects_non_integer_order(self, m):
        x = np.linspace(0.0, 1.0, 65)
        with pytest.raises(ValueError, match="nonnegative integer"):
            ob.hum_control(coeff.make_baseline("lipschitz"), np.sin(
                math.pi * x), np.zeros_like(x), T=3.0, m=m, resolution=64)

    def test_numpy_integer_order(self):
        x = np.linspace(0.0, 1.0, 65)
        res = ob.hum_control(coeff.make_baseline("lipschitz"),
                             np.sin(math.pi * x), np.zeros_like(x), T=3.0,
                             m=np.int64(1), resolution=64)
        assert res.m == 1 and type(res.m) is int

    def test_no_march_inside_cg(self, marches):
        # only the verification marches, once; the CG runs on the table
        om = coeff.make_baseline("lipschitz")
        x = np.linspace(0.0, 1.0, 129)
        res = ob.hum_control(om, np.sin(math.pi * x), np.zeros_like(x),
                             T=3.0, resolution=128)
        assert res.converged and res.iterations > 2
        assert marches == ["forced"]


class TestCutoffGuard:
    """1 <= cutoff <= resolution // 2, checked before any march."""

    def test_gramian(self, marches):
        om = coeff.make_baseline("lipschitz")
        for cutoff, match in ((33, "group velocity"),
                              (0, "must be at least 1"),
                              (-4, "must be at least 1")):
            with pytest.raises(ValueError, match=match):
                ob.gramian_observability_constant(om, 3.0, cutoff,
                                                  resolution=64)
        assert marches == []
        out = ob.gramian_observability_constant(om, 3.0, 32, resolution=64)
        assert out["cutoff"] == 32 and marches == ["homogeneous"]

    def test_ensemble(self, marches):
        om = coeff.make_baseline("lipschitz")
        kw = dict(n_random=1, resolution=64)
        for cutoffs, match in (((8, 33), "group velocity"),
                               ((), "at least one cutoff"),
                               ((0,), "must be at least 1"),
                               ((-4,), "must be at least 1"),
                               ((8, -4), "must be at least 1"),
                               ((8, 8), "strictly increasing"),
                               ((16, 8), "strictly increasing")):
            with pytest.raises(ValueError, match=match):
                ob.estimate_observability_constant(om, 3.0, cutoffs, **kw)
        with pytest.raises(ValueError, match="group velocity"):
            ob.estimate_observability_constant(
                om, 3.0, (8,), cross_check=True, cross_check_cutoff=33,
                cross_check_resolution=64, **kw)
        assert marches == []
        rep = ob.estimate_observability_constant(om, 3.0, (8, 32), **kw)
        assert rep.cutoffs == (8, 32) and marches == ["homogeneous"]


def data_mix(x):
    return np.sin(math.pi * x) + 0.5 * np.sin(2.0 * math.pi * x)


def sidewise_energy(sw, u_x0):
    """E = 1/2 int (u_x^2 + omega u_t^2) dx at the middle time index
    (N-1)//2 of the window, from the sidewise levels alone: u_t centered
    in t; u_x the slice's own at x = 0, centered in x inside, one-sided
    at the far end."""
    c = (len(sw.times) - 1) // 2
    lv, dxs, last = sw.levels, abs(sw.dxs), len(sw.levels) - 1

    def at(level, index):
        # level l holds the time indices l .. N-1-l
        return lv[level][index - level]

    ut = np.array([(at(l, c + 1) - at(l, c - 1)) / (2.0 * sw.dt)
                   for l in range(last + 1)])
    ux = np.array([u_x0[c]] + [(at(l + 1, c) - at(l - 1, c)) / (2.0 * dxs)
                               for l in range(1, last)]
                  + [(at(last, c) - at(last - 1, c)) / dxs])
    return 0.5 * np.trapezoid(ux ** 2 + sw.omega_values * ut ** 2, dx=dxs)


class TestWavesimOracles:
    """The sidewise solver and D_omega check the quotient's two routes:
    the flux-to-energy ratio, and the np.diff time derivatives of Q_m."""

    def test_sidewise_flux_to_energy(self):
        # the paper's sidewise argument: marching the boundary Cauchy data
        # (u, u_x)(t, 0) = (0, trace_left) across ]0, 1[ in x rebuilds
        # E(T/2), and with u1 = 0 the quotient's numerator is 2E, so
        # 2E / denominator must be Q_0.  The two routes share only the
        # trace.  T = 3.5 clears the sidewise trim limit
        # 2 sqrt(omega^*) / cfl = 2.72.
        om = coeff.make_baseline("lipschitz")
        T = 3.5
        gaps = []
        for res in (128, 256, 512):
            traj = ws.evolve(om, data_mix, None, T, res, k_max=0)
            slc = oracles.SidewiseSlice(x0=0.0, times=traj.times,
                                        u=np.zeros_like(traj.times),
                                        u_x=traj.trace_left)
            sw = oracles.sidewise_evolve(om, slc, span=1.0)
            assert sw.x_values[-1] == pytest.approx(1.0)
            q = ob.observability_quotient(om, data_mix, np.zeros_like, T,
                                          resolution=res)
            energy = sidewise_energy(sw, slc.u_x)
            gaps.append(abs(2.0 * energy / q.denominator / q.value - 1.0))
        # measured 1.6e-4, 4.3e-5, 1.1e-5
        assert gaps[0] <= 2.5e-4 and gaps[1] <= 7e-5
        assert all(a >= 3.0 * b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("k, bound", [(1, 1e-8), (2, 1e-6)])
    def test_D_omega_time_differences(self, k, bound):
        # on the leapfrog u^{n+1} - 2u^n + u^{n-1} = dt^2 D_omega u^n, so
        # the 2k-th time difference of a trace (Q_m's np.diff route) is
        # the trace of the run started from D_omega^k of the first two
        # levels, k levels later.  The gap is round-off, measured
        # 1.1e-9 (k = 1) and 9.1e-8 (k = 2) in the L^2 norm that Q_m's
        # denominator integrates.
        om = coeff.make_baseline("lipschitz")
        T, res = 3.0, 256
        dt, _ = ws.solver_time_grid(om, T, res)
        # a one-step run ends on the first two levels of the data's run
        first = ws.evolve(om, data_mix, None, dt, res, k_max=0).levels
        trace = ws.evolve(om, data_mix, None, T, res, k_max=0).trace_left
        start = tuple(oracles.apply_D_omega(u, om, k) for u in first)
        moved = ws.evolve(om, None, None, T, res, k_max=0,
                          start_levels=start).trace_left[k:-k]
        diffs = np.diff(trace, 2 * k) / dt ** (2 * k)
        assert np.linalg.norm(diffs - moved) <= bound * np.linalg.norm(moved)
        # and so Q_{2k}'s denominator is the moved trace's L^2 energy
        energy = ob._trace_derivative_energy(trace, dt, 2 * k)
        assert energy == pytest.approx(np.trapezoid(moved ** 2, dx=dt),
                                       rel=3.0 * bound)


def _order_entry_points():
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 65)
    u, zero = np.sin(math.pi * x), np.zeros_like(x)
    return {
        "observability_quotient": lambda m: ob.observability_quotient(
            om, u, zero, 3.0, m, resolution=64),
        "estimate_observability_constant":
            lambda m: ob.estimate_observability_constant(
                om, 3.0, (4,), n_random=1, resolution=64, m=m),
        "gramian_observability_constant":
            lambda m: ob.gramian_observability_constant(
                om, 3.0, 4, resolution=64, m=m),
        "run_counterexample_sweep": lambda m: ob.run_counterexample_sweep(
            family="lambda", j_list=(2,), m_list=(0, m),
            points_per_wavelength=6.0, sequence_kwargs={"n0": 30}),
        "hum_control": lambda m: ob.hum_control(
            om, u, zero, 3.0, m, resolution=64),
    }


class TestOrderRule:
    """One rule for the derivative order m at every entry point: a
    negative or fractional order is rejected before any march, never
    rounded to a neighbouring integer."""

    @pytest.mark.parametrize("m", [-1, 0.5, 1.5, math.nan])
    @pytest.mark.parametrize("entry", sorted(_order_entry_points()))
    def test_rejected(self, entry, m, marches):
        with pytest.raises(ValueError, match="nonnegative integer"):
            _order_entry_points()[entry](m)
        assert marches == []

    def test_integral_float_accepted(self):
        rep = _order_entry_points()["estimate_observability_constant"](1.0)
        assert rep.m == 1 and type(rep.m) is int


def _beta_entry_points():
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 65)
    u, zero = np.sin(math.pi * x), np.zeros_like(x)
    kw = dict(n_random=1, resolution=64)
    return {
        "observability_quotient": lambda beta: ob.observability_quotient(
            om, u, zero, 3.0, beta=beta, resolution=64),
        "estimate_observability_constant":
            lambda beta: ob.estimate_observability_constant(
                om, 3.0, (4,), beta=beta, **kw),
        "trace_sobolev_norm": lambda beta: ws.trace_sobolev_norm(
            np.ones(64), beta, 0.01),
    }


class TestBetaRule:
    """One rule for the trace exponent beta: a negative or non-finite
    beta is rejected before any march."""

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", sorted(_beta_entry_points()))
    def test_rejected(self, entry, beta, marches):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _beta_entry_points()[entry](beta)
        assert marches == []


def _bad_input_calls():
    """case -> (message pattern, call) for inputs outside every domain."""
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 65)
    u, zero = np.sin(math.pi * x), np.zeros_like(x)
    sweep = dict(family="lambda", sequence_kwargs={"n0": 30})
    calls = {
        "n_random=-1": ("nonnegative", lambda: (
            ob.estimate_observability_constant(
                om, 3.0, (4,), n_random=-1, resolution=64))),
        "sweep-j_list=()": ("at least one", lambda: (
            ob.run_counterexample_sweep(j_list=(), **sweep))),
        "sweep-j_list=(2, 2)": ("strictly increasing", lambda: (
            ob.run_counterexample_sweep(j_list=(2, 2), **sweep))),
        "sweep-j_list=(3, 2)": ("strictly increasing", lambda: (
            ob.run_counterexample_sweep(j_list=(3, 2), **sweep))),
        "cross_check_resolution=100": ("power of two", lambda: (
            ob.estimate_observability_constant(
                om, 3.0, (4,), n_random=1, resolution=64, cross_check=True,
                cross_check_cutoff=4, cross_check_resolution=100))),
        "cross_check-beta=0.5": ("has no beta", lambda: (
            ob.estimate_observability_constant(
                om, 3.0, (4,), n_random=1, resolution=64, beta=0.5,
                cross_check=True, cross_check_cutoff=4,
                cross_check_resolution=64))),
        "observability_quotient-side=middle": ("side must", lambda: (
            ob.observability_quotient(om, u, zero, 3.0, resolution=64,
                                      side="middle"))),
        "gramian_observability_constant-cutoff=65": ("small cutoffs", lambda: (
            ob.gramian_observability_constant(om, 3.0, 65, resolution=256))),
        "_quotient-zero-data": ("zero data", lambda: (
            ob._quotient(zero, zero, np.ones(64), 0.01, 1.0 / 64, 3.0,
                         1.0))),
        "observability_quotient-zero-data": ("zero data", lambda: (
            ob.observability_quotient(om, zero, zero, 3.0, resolution=64))),
        "evolve-data-shape": ("does not match the grid", lambda: (
            ws.evolve(om, u, zero, 3.0, 128, k_max=0))),
    }
    for ppw in (0.0, -6.0, math.nan, math.inf):
        calls[f"sweep-points_per_wavelength={ppw}"] = (
            "positive and finite", lambda ppw=ppw: (
                ob.run_counterexample_sweep(
                    j_list=(2,), points_per_wavelength=ppw, **sweep)))
    for T in (math.nan, math.inf):
        for name, call in {
            "observability_quotient": lambda T: ob.observability_quotient(
                om, u, zero, T, resolution=64),
            "estimate_observability_constant":
                lambda T: ob.estimate_observability_constant(
                    om, T, (4,), n_random=1, resolution=64),
            "gramian_observability_constant":
                lambda T: ob.gramian_observability_constant(
                    om, T, 4, resolution=64),
            "hum_control": lambda T: ob.hum_control(
                om, u, zero, T, resolution=64),
            "evolve": lambda T: ws.evolve(om, u, zero, T, 64, k_max=0),
        }.items():
            calls[f"{name}-T={T}"] = ("positive and finite",
                                      lambda call=call, T=T: call(T))
    return calls


class TestInputRule:
    """Out-of-domain sizes and times raise a ValueError that names the
    input, before any march."""

    @pytest.mark.parametrize("case", sorted(_bad_input_calls()))
    def test_rejected(self, case, marches):
        match, call = _bad_input_calls()[case]
        with pytest.raises(ValueError, match=match):
            call()
        assert marches == []


class TestResolutionFlags:
    """Constants taken on a grid that misses the trapping-resolution rule
    (resolution + 1) r_j >= 8 n_j carry a flag."""

    def test_lambda_member(self):
        # h = 120, n = 30, r = 1/4: the rule needs resolution + 1 >= 960
        params = coeff.make_sequences("concentrating", j_range=range(2, 3),
                                      n0=30)
        lam = coeff.make_counterexample_density(params, family="lambda")[0]
        assert params.entry(2).h == 120.0
        for res, flagged in ((512, True), (1024, False)):
            rep = ob.estimate_observability_constant(lam, 1.0, (8,),
                                                     n_random=1,
                                                     resolution=res)
            gram = ob.gramian_observability_constant(lam, 1.0, 8,
                                                     resolution=res)
            assert len(rep.flags) == flagged
            assert rep.to_summary()["flags"] == gram["flags"] == list(
                rep.flags)

    def test_lipschitz_never_flagged(self):
        om = coeff.make_baseline("lipschitz")
        for res in (16, 256):
            rep = ob.estimate_observability_constant(om, 3.0, (8,),
                                                     n_random=1,
                                                     resolution=res)
            gram = ob.gramian_observability_constant(om, 3.0, 8,
                                                     resolution=res)
            assert rep.flags == () and gram["flags"] == []


def test_omega_sampled_once_per_grid():
    # a density that counts its evaluations on the resolution + 1 nodes:
    # each entry point builds one grid and samples omega once on it
    base = coeff.make_baseline("lipschitz")
    res = 256
    on_grid = []

    def fn(x):
        if x.shape == (res + 1,):
            on_grid.append(1)
        return base(x)

    om = coeff.make_baseline("custom", fn=fn, omega_lower=base.omega_lower,
                             omega_upper=base.omega_upper)
    x = np.linspace(0.0, 1.0, res + 1)
    u, zero = np.sin(math.pi * x), np.zeros_like(x)
    calls = {
        "observability_quotient": (lambda: ob.observability_quotient(
            om, u, zero, 3.0, resolution=res), 1),
        "estimate_observability_constant":
            (lambda: ob.estimate_observability_constant(
                om, 3.0, (8,), n_random=1, resolution=res), 1),
        "gramian_observability_constant":
            (lambda: ob.gramian_observability_constant(
                om, 3.0, 8, resolution=res), 1),
        "evolve": (lambda: ws.evolve(om, u, zero, 3.0, res, k_max=0), 1),
        "hum_control": (lambda: ob.hum_control(om, u, zero, 3.0,
                                               resolution=res), 1),
    }
    counts = {}
    for name, (call, _) in calls.items():
        on_grid.clear()
        call()
        counts[name] = len(on_grid)
    assert counts == {name: want for name, (_, want) in calls.items()}


def test_lambda_divergence_sweep():
    # the benchmark's divergence call: the closed-form numerators along
    # the concentrating lambda family, Q_0 growing more than 2x per step
    table = ob.run_counterexample_sweep(
        family="lambda", j_list=(2, 3), points_per_wavelength=6.0,
        sequence_kwargs={"n0": 30})
    assert len(table.rows) == 2 and table.truncated_at is None
    assert all(r["numerator_route"] == "closed-form" for r in table.rows)
    q0 = [r["Q"][0] for r in table.rows]
    assert q0[1] > 2.0 * q0[0]
    assert table.diverging(0, factor=2.0, runs=2)


def forced_corrector_traces(density, h, T, resolution):
    """The direct construction: each phase's forcing marched at the left
    and at the right edge apart, as the columns of one (nodes x 4)
    block."""
    x = np.linspace(0.0, density.length, resolution + 1)
    om = density(x)
    dt, steps = ws.solver_time_grid(density, T, resolution)
    times = np.arange(steps + 1) * dt
    zero = np.zeros_like(times)
    cols = []
    for name, sig in (("cos", np.cos(h * times)), ("sin", np.sin(h * times))):
        cols += [(name, sig, zero), (name, zero, sig)]
    rest = np.zeros((len(x), len(cols)))
    run = ws._leapfrog(om, x[1] - x[0], dt, steps, rest, rest, boundary=(
        np.stack([c[1] for c in cols], axis=1),
        np.stack([c[2] for c in cols], axis=1)))
    out = {}
    for (name, _, _), trace in zip(cols, run.trace_left.T):
        out.setdefault(name, []).append(trace)
    return times, out


def assert_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


INCOMPATIBLE = ("forcing incompatible with zero initial data; "
                "boundary jump applied at the first level",)


class TestCorrector:
    """Weighted impulse-response corrector traces against the forced
    block march, left and right edges combined by the same weights."""

    @pytest.fixture(scope="class")
    def lam(self):
        params = coeff.make_sequences(mode="concentrating",
                                      j_range=range(2, 4), n0=30)
        dens = coeff.make_counterexample_density(params.restrict(2),
                                                 family="lambda")[0]
        return dens, params.entry(2).h, 2.0 * coeff.travel_time(dens) + 0.5

    @staticmethod
    def check(dens, h, T, resolution, edges):
        times, got, flags = ob._corrector_traces(dens, h, T, resolution,
                                                 edges)
        ref_times, ref = forced_corrector_traces(dens, h, T, resolution)
        assert np.array_equal(times, ref_times)
        assert sorted(got) == ["cos", "sin"]
        for name, (left, right) in ref.items():
            assert_close(got[name], edges[0] * left + edges[1] * right)
        assert flags == INCOMPATIBLE

    @pytest.mark.parametrize("resolution", [256, 1024])
    @pytest.mark.parametrize("equal", [True, False])
    def test_matches_forced_march(self, lam, resolution, equal):
        self.check(*lam, resolution, (0.49, 0.49) if equal else (0.7, -1.9))

    def test_psi_row(self):
        # the psi j=3 row of the n0 = 30 family: the right edge value is
        # a fifth of the left one
        params = coeff.make_sequences(mode="concentrating",
                                      j_range=range(2, 4), n0=30)
        dens = coeff.make_counterexample_density(params)
        h = params.entry(3).h
        T = 2.0 * coeff.travel_time(dens) + 0.5
        self.check(dens, h, T, 1024, (0.2022 / h, 0.0435 / h))

    def test_random_edge_signal(self):
        # nonzero g[0] and g[1] exercise the feed-through of level 0 and
        # the first forced level
        om_c = coeff.make_baseline("lipschitz")
        res = 64
        x = np.linspace(0.0, 1.0, res + 1)
        om, dx = om_c(x), x[1] - x[0]
        dt, steps = ws.solver_time_grid(om_c, 3.0, res)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2, steps + 1))
        rest, zero = np.zeros(res + 1), np.zeros(steps + 1)
        impulse = np.zeros(steps + 1)
        impulse[1] = 1.0
        # the left trace sees a left edge value at once, a right one never
        for left, feed_through in ((True, -11.0 / (6.0 * dx)), (False, 0.0)):
            h_run = ws._leapfrog(om, dx, dt, steps, rest, rest, boundary=(
                impulse if left else zero, zero if left else impulse))
            assert h_run.trace_left[1] == pytest.approx(feed_through)
            got = ob._impulse_convolution(h_run.trace_left, g)
            for row, sig in zip(got, g):
                ref = ws._leapfrog(om, dx, dt, steps, rest, rest, boundary=(
                    sig if left else zero, zero if left else sig))
                assert_close(row, ref.trace_left)

    @pytest.mark.parametrize("edges", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0),
                                       (0.3, -2.0)],
                             ids=["equal", "left", "right", "unequal"])
    def test_single_column_marches(self, lam, monkeypatch, edges):
        shapes = []
        kernel = ws._leapfrog

        def counted(om, dx, dt, steps, u_start, u_next, **kwargs):
            shapes.append(np.shape(u_start))
            return kernel(om, dx, dt, steps, u_start, u_next, **kwargs)

        monkeypatch.setattr(ob, "_leapfrog", counted)
        dens, h, T = lam
        ob._corrector_traces(dens, h, T, 256, edges)
        assert shapes == [(257,)]


def test_psi_sweep_marches_once_per_row(marches):
    # both rows have two distinct edge values; one forced march each
    table = ob.run_counterexample_sweep(
        family="psi", j_list=(2, 3), points_per_wavelength=6.0,
        sequence_kwargs={"n0": 30})
    assert [r["j"] for r in table.rows] == [2, 3]
    assert marches == ["forced", "forced"]
    for r in table.rows:
        assert r["edge_values"][0] != r["edge_values"][1]
        assert r["corrector_flags"] == INCOMPATIBLE


@pytest.mark.parametrize("family", ["lambda", "psi"])
def test_divergence_sweep_truncates_unbuildable_family(family):
    # paper-strict N = 2: the j = 3 pair (and so the psi density) cannot
    # be built, and the j = 2 lambda row is beyond the wave grid's cap
    table = ob.run_counterexample_sweep(
        family=family, j_list=(2, 3),
        sequence_kwargs={"mode": "paper-strict", "N": 2})
    assert table.rows == () and table.truncated_at == 2
    assert table.truncation_reason
    assert math.isnan(table.T) == (family == "psi")


class TestGrowth:
    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (0.0, 1.0)])
    def test_floored_row_is_not_growth(self, a, b):
        assert math.isnan(ob._growth_factor(a, b))

    def test_floored_constant_overall_growth(self):
        rep = ob.ObservabilityReport(
            omega_kind="constant", omega_descriptor={}, T=3.0, T_omega=1.0,
            admissible=True, m=0, beta=None, cutoffs=(8, 16),
            constants={8: math.inf, 16: 1.0}, argmax_labels={}, rows=(),
            growth_factors=(), resolution=64, seed=0, n_random=0)
        assert math.isnan(rep.overall_growth)

    def test_rules(self):
        assert ob._growth_factor(2.0, 6.0) == 3.0
        assert ob._growth_factor(2.0, math.inf) == math.inf

    def test_floored_row_does_not_diverge(self):
        def table(factors):
            return ob.DivergenceTable(
                family="lambda", mode="concentrating", T=1.0, m_list=(0,),
                rows=(), growth_factors={0: tuple(factors)})

        qs = (math.inf, 1.0, 20.0)
        floored = table(ob._growth_factor(a, b) for a, b in zip(qs, qs[1:]))
        assert not floored.diverging(0, factor=10.0, runs=3)
        # runs counts rows: three rows give two factors
        assert table((12.0, 15.0)).diverging(0, factor=10.0, runs=3)
        assert not table((12.0,)).diverging(0, factor=10.0, runs=3)

    @pytest.mark.parametrize("runs", [1, 0, -1])
    @pytest.mark.parametrize("factors, m", [
        ((0.5, 0.25), 0),     # shrinking quotients
        ((), 0),              # a single row
        ((12.0, 15.0), 1),    # an order the table does not hold
    ])
    def test_fewer_than_two_runs_rejected(self, factors, m, runs):
        table = ob.DivergenceTable(
            family="lambda", mode="concentrating", T=1.0, m_list=(0,),
            rows=(), growth_factors={0: factors})
        assert not table.diverging(m, factor=10.0, runs=2)
        with pytest.raises(ValueError, match="at least 2"):
            table.diverging(m, factor=10.0, runs=runs)


def _summarized_results():
    """result type -> a cheap call returning one."""
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 65)
    u, zero = np.sin(math.pi * x), np.zeros_like(x)
    dt, steps = ws.solver_time_grid(om, 1.0, 64)
    t = np.arange(steps + 1) * dt
    forcing = (np.sin(5.0 * t) * t ** 2, np.zeros_like(t))
    return {
        "QuotientResult": lambda: ob.observability_quotient(
            om, u, zero, 3.0, m=1, resolution=64),
        "ObservabilityReport": lambda: ob.estimate_observability_constant(
            om, 3.0, (4, 8), n_random=1, resolution=64, cross_check=True,
            cross_check_cutoff=4, cross_check_resolution=64),
        "DivergenceTable": lambda: ob.run_counterexample_sweep(
            family="lambda", j_list=(2,), points_per_wavelength=6.0,
            sequence_kwargs={"n0": 30}),
        "ControlResult": lambda: ob.hum_control(om, u, zero, 3.0,
                                                resolution=64),
        "WaveTrajectory": lambda: ws.evolve(om, u, zero, 1.0, 64),
        "WaveTrajectory-forced": lambda: ws.evolve(
            om, None, None, 1.0, 64, forcing=forcing),
        "SweepReport": lambda: qm.boundary_smallness_sweep(
            mode="scaled", family="psi", j_range=range(2, 4)),
    }


@pytest.mark.parametrize("kind", sorted(_summarized_results()))
def test_summary_round_trips_through_json(kind):
    # every field that holds no array is in the summary, as JSON types
    # (plain json.dumps takes it, and loading gives the same text back);
    # the array fields are left out
    res = _summarized_results()[kind]()
    assert type(res).__name__ == kind.split("-")[0]
    summary = res.to_summary()
    text = json.dumps(summary)
    assert json.dumps(json.loads(text)) == text

    def holds_array(v):
        items = (v.values() if isinstance(v, dict)
                 else v if isinstance(v, tuple) else (v,))
        return any(isinstance(a, np.ndarray) for a in items)

    arrays = {f.name for f in dataclasses.fields(res)
              if holds_array(getattr(res, f.name))}
    assert arrays.isdisjoint(summary)
    assert {f.name for f in dataclasses.fields(res)} - arrays <= set(summary)
    if kind in ("ControlResult", "WaveTrajectory"):
        assert arrays


def test_sine_mixture_explicit_sum():
    res, cutoff = 64, 32
    x = np.linspace(0.0, 1.0, res + 1)
    coeffs = np.random.default_rng(5).standard_normal(cutoff)
    ref = sum(c * np.sin((k + 1) * math.pi * x) for k, c in enumerate(coeffs))
    got = ob._sine_mixture(x, coeffs)
    assert got[0] == got[-1] == 0.0
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that
    imports the package from this checkout."""
    src = str(Path(ob.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


def test_import_leaves_out_fft_and_integrate():
    # a generic quasimode solve runs its reverse check, which must not
    # pull scipy.integrate in either
    code = ("import sys, waveobs.observability; "
            "from waveobs import coeff, quasimodes; "
            "res = quasimodes.solve_quasimode("
            "coeff.make_baseline('log-lipschitz'), h=10.0, m=0.5); "
            "assert 'wronskian_dev' in res.stats; "
            "print(sorted(m for m in ('scipy.fft', 'scipy.integrate') "
            "if m in sys.modules))")
    out = _fresh_python(code)
    assert out.strip() == "[]"


def test_import_leaves_out_scipy_and_mpmath():
    # importing the package loads neither; the functions that need
    # scipy.linalg or mpmath import it when called, and still run
    code = "\n".join([
        "import math, sys",
        "import numpy as np",
        "import waveobs",
        "from waveobs import coeff, modulus, observability, quasimodes, "
        "wavesim",
        "from waveobs import *",
        "print(sorted({m.split('.')[0] for m in sys.modules}",
        "             & {'scipy', 'mpmath'}))",
        "x = np.linspace(0.0, 1.0, 65)",
        "res = observability.hum_control(",
        "    coeff.make_baseline('lipschitz'), np.sin(math.pi * x),",
        "    np.zeros_like(x), T=3.0, resolution=64)",
        "params = coeff.make_sequences()",
        "print(res.converged, res.controlled, len(params.entries))",
    ])
    out = _fresh_python(code)
    assert out.split("\n")[:2] == ["[]", "True True 5"]


def test_constant_route_leaves_out_scipy():
    # the ensemble constant and its Gramian cross-check solve their
    # eigenproblem with numpy alone
    code = "\n".join([
        "import sys",
        "from waveobs import coeff, observability",
        "rep = observability.estimate_observability_constant(",
        "    coeff.make_baseline('lipschitz'), 3.0, (4,), n_random=1,",
        "    resolution=64, cross_check=True, cross_check_cutoff=4,",
        "    cross_check_resolution=64)",
        "print(rep.cross_check['gramian'] > 0,",
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = _fresh_python(code)
    assert out.strip() == "True []"


def test_star_import():
    namespace = {}
    exec("from waveobs import *", namespace)
    assert {"coeff", "wavesim", "observability"} <= set(namespace)


@pytest.mark.parametrize("module", ["coeff", "modulus", "quasimodes",
                                    "wavesim", "observability"])
def test_all_names_resolve(module):
    # the traced benchmark run getattr()s every name in __all__
    mod = importlib.import_module(f"waveobs.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["coeff", "modulus", "quasimodes",
                                    "wavesim", "observability"])
def test_all_functions_defined_in_module(module):
    # the traced benchmark run wraps a function of __all__ only where its
    # __module__ is the module that lists it
    mod = importlib.import_module(f"waveobs.{module}")
    foreign = [name for name in mod.__all__
               if inspect.isfunction(getattr(mod, name))
               and getattr(mod, name).__module__ != mod.__name__]
    assert foreign == []
