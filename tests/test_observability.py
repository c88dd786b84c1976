"""Observability tests: the leapfrog kernel's column blocks against a
plain recurrence, and its edge-impulse reciprocity, quotients against
d'Alembert, the closed-form constant against the marched Gramian and the
datum that attains it, HUM reaching rest, the divergence rows' trapped
eigenmode against a marched quotient and across grids, its window guard,
the sweep's eigensolve count, truncation and growth bookkeeping, and the
package import surface, private names and docstring cross-references."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import os
import re
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


def reference_levels(om, dx, dt, steps, u0, u1, left=None, right=None):
    """Every level of one column of the leapfrog scheme, written out
    level by level."""
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
    return levels


def reference_march(om, dx, dt, steps, u0, u1, left=None, right=None):
    """One column of the leapfrog scheme: traces and last two levels."""
    levels = reference_levels(om, dx, dt, steps, u0, u1, left, right)
    trace_l = np.array([(-11.0 * u[0] + 18.0 * u[1] - 9.0 * u[2]
                         + 2.0 * u[3]) / (6.0 * dx) for u in levels])
    trace_r = np.array([(11.0 * u[-1] - 18.0 * u[-2] + 9.0 * u[-3]
                         - 2.0 * u[-4]) / (6.0 * dx) for u in levels])
    sbp = (np.array([(u[1] - u[0]) / dx for u in levels]),
           np.array([(u[-1] - u[-2]) / dx for u in levels]))
    return trace_l, trace_r, sbp, (levels[-2], levels[-1])


class TestKernel:
    # K-column blocks against single columns and the plain recurrence,
    # over 300 levels of the kernel's edge record
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
            tl, tr, sbp, levels = reference_march(
                om, dx, dt, self.steps, u0[:, c], u1[:, c], *sides)
            assert np.array_equal(run.trace_left[:, c], tl)
            assert np.array_equal(run.trace_right[:, c], tr)
            assert np.array_equal(run.sbp_left[:, c], sbp[0])
            assert np.array_equal(run.sbp_right[:, c], sbp[1])
            assert np.array_equal(run.levels[0][:, c], levels[0])
            assert np.array_equal(run.levels[1][:, c], levels[1])
            single = ws._leapfrog(
                om, dx, dt, self.steps, u0[:, c], u1[:, c],
                boundary=None if boundary is None else sides)
            assert np.array_equal(single.trace_left, tl)
            assert np.array_equal(single.levels[1], levels[1])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_input_layout_does_not_change_bits(self, grid, layout):
        # a Fortran-ordered block and a strided view of a wider array
        # march to the bits of the C-ordered block, into C-ordered levels
        om, dx, dt = grid
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal((self.n + 1, self.K))
        u1 = u0 + dt * rng.standard_normal((self.n + 1, self.K))
        u0[0] = u0[-1] = u1[0] = u1[-1] = 0.0
        if layout == "fortran":
            v0, v1 = np.asfortranarray(u0), np.asfortranarray(u1)
        else:
            wide = np.zeros((2, self.n + 1, 2 * self.K))
            wide[0][:, ::2], wide[1][:, ::2] = u0, u1
            v0, v1 = wide[0][:, ::2], wide[1][:, ::2]
        assert not (v0.flags.c_contiguous or v1.flags.c_contiguous)
        ref = ws._leapfrog(om, dx, dt, self.steps, u0, u1)
        run = ws._leapfrog(om, dx, dt, self.steps, v0, v1)
        for name in ("trace_left", "trace_right", "sbp_left", "sbp_right"):
            assert np.array_equal(getattr(run, name), getattr(ref, name))
        for got, want in zip(run.levels, ref.levels):
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous

    def test_records_only_on_request(self, grid):
        om, dx, dt = grid
        u = np.zeros((self.n + 1, 2))
        run = ws._leapfrog(om, dx, dt, 10, u, u)
        assert not run.energies and run.snapshots is None
        with pytest.raises(ValueError, match="single column"):
            ws._leapfrog(om, dx, dt, 10, u, u, k_max=0)


def assert_bits(got, want):
    """Equal bit patterns, the sign bits of zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _hull_case(name, n, steps):
    """(u0, u1, boundary) of one support pattern on n cells."""
    rest, zero = np.zeros(n + 1), np.zeros(steps + 1)
    impulse = zero.copy()
    impulse[1] = 1.0
    x = np.arange(n + 1)

    def bump(lo, hi):
        return np.where((x >= lo) & (x <= hi), np.sin(x - lo + 1.0), 0.0)

    if name == "middle":
        return bump(250, 262), 0.9 * bump(250, 262), None
    if name == "left-impulse":
        return rest, rest, (impulse, zero)
    if name == "right-impulse":
        return rest, rest, (zero, -impulse)
    if name == "unequal-columns":
        u = np.stack([bump(10, 14), bump(300, 305), bump(500, n - 1)], 1)
        return u, 0.5 * u, None
    if name == "negative-zero":
        u1 = bump(100, 104)
        u1[400] = -0.0
        return bump(100, 104), u1, None
    if name == "late-edge-values":
        left = zero.copy()
        left[steps // 2], left[steps] = 1.0, -0.0
        return bump(100, 104), bump(100, 104), (left, zero)
    if name == "ends-without-boundary":
        u0 = bump(100, 104)
        u0[0], u0[-1] = 1.0, -2.0
        return u0, u0, None
    if name == "zero-start":
        return rest, rest, None
    return rest, rest, (zero, zero)     # zero boundary rows


class TestHull:
    """Data of every support pattern (compact, an impulse at either
    edge, -0.0, late edge values, zero) march to the bits of the plain
    recurrence, sign bits of zeros included."""

    n = 512

    @pytest.fixture(scope="class")
    def grid(self):
        x = np.linspace(0.0, 1.0, self.n + 1)
        om = coeff.make_baseline("lipschitz")(x)
        dx = 1.0 / self.n
        return om, dx, 0.9 * dx * math.sqrt(om.min())

    @pytest.mark.parametrize("steps", [1, 2, 4, 256, 257, 300])
    @pytest.mark.parametrize("name", [
        "middle", "left-impulse", "right-impulse", "unequal-columns",
        "negative-zero", "late-edge-values", "ends-without-boundary",
        "zero-start", "zero-boundary"])
    def test_bits_match_reference(self, grid, name, steps):
        om, dx, dt = grid
        u0, u1, boundary = _hull_case(name, self.n, steps)
        run = ws._leapfrog(om, dx, dt, steps, u0, u1, boundary=boundary)
        block = u0.ndim == 2
        for c in range(u0.shape[1] if block else 1):
            col = (lambda a: a[:, c]) if block else (lambda a: a)
            sides = () if boundary is None else boundary
            tl, tr, sbp, levels = reference_march(
                om, dx, dt, steps, col(u0), col(u1), *sides)
            for got, want in ((run.trace_left, tl), (run.trace_right, tr),
                              (run.sbp_left, sbp[0]),
                              (run.sbp_right, sbp[1]),
                              (run.levels[0], levels[0]),
                              (run.levels[1], levels[1])):
                assert_bits(col(got), want)

    @pytest.mark.parametrize("name", ["middle", "negative-zero"])
    def test_energies_and_snapshots(self, grid, name):
        om, dx, dt = grid
        steps = 300
        u0, u1, _ = _hull_case(name, self.n, steps)
        levels = reference_levels(om, dx, dt, steps, u0, u1)
        for k_max, stride in itertools.product((0, 2, 3), (1, 7)):
            run = ws._leapfrog(om, dx, dt, steps, u0, u1, k_max=k_max,
                               snapshot_stride=stride)
            for k in range(k_max + 1):
                assert_bits(run.energies[k], [ws._staggered_energy(
                    om, ws._diff_k(levels[i - k:i + 1], k, dt),
                    ws._diff_k(levels[i - k - 1:i], k, dt), dt, dx)
                    for i in range(k + 1, steps + 1)])
            times, snap_u, snap_ut = run.snapshots
            kept = list(range(0, steps, stride)) + [steps]
            assert_bits(times, [i * dt for i in kept])
            for got, i in zip(snap_u, kept):
                assert_bits(got, levels[i])
            for got, i in zip(snap_ut[1:-1], kept[1:-1]):
                assert_bits(got, (levels[i + 1] - levels[i - 1]) / (2 * dt))
            assert_bits(snap_ut[-1], (3 * levels[-1] - 4 * levels[-2]
                                      + levels[-3]) / (2 * dt))


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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unreached_edge_is_unbounded(self, side):
        # a bump in ]1/3, 2/3[ at res 256 reaches neither edge by
        # T = 0.2 (about 57 leapfrog steps, 85 nodes to go): the trace is
        # exactly zero, below the round-off floor (2.585e-25), so the
        # quotient reads inf with its flag; by T = 3 it is finite
        om = coeff.make_baseline("lipschitz")
        bump = lambda x: np.clip(1.0 - (6.0 * (x - 0.5)) ** 2, 0.0, None) ** 2
        q = ob.observability_quotient(om, bump, None, 0.2, resolution=256,
                                      side=side)
        assert q.value == math.inf and q.unbounded
        assert q.denominator == 0.0 and q.numerator > 0.0
        (flag,) = q.flags
        assert re.fullmatch(r"quotient unbounded at this resolution: trace "
                            r"energy 0\.000e\+00 at or below the round-off "
                            r"floor 2\.585e-25", flag)
        control = ob.observability_quotient(om, bump, None, 3.0,
                                            resolution=256, side=side)
        assert not control.unbounded and control.flags == ()
        assert control.value == pytest.approx(0.27247, rel=1e-4)

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


def lowest_modes(grid, c):
    """(mu, V, theta) of the c lowest modes, V the nodal eigenvectors."""
    mu, vectors, root_om, theta = ws._scheme_eigenpairs(grid.om, grid.dx,
                                                        grid.dt, c)
    return mu, vectors / root_om[:, None], theta


def lowest_mode_pencil(om, T, res, c, m=0, beta=None):
    """(D, N, V) of the c lowest modes on the grid, D from the closed-form
    traces, N = dx diag(mu) (+) dx I the data energy (V^T M V = I)."""
    grid = ws._wave_grid(om, T, res)
    mu, V, theta = lowest_modes(grid, c)
    D = ob._trace_gram(ob._mode_traces(grid, mu, V, theta), grid.dt, m, beta)
    return D, np.diag(grid.dx * np.concatenate([mu, np.ones(c)])), V


def nodal(V, coefficients):
    """The node array of sum_k coefficients[k] V_k, zero at the ends."""
    u = np.zeros(len(V) + 2)
    u[1:-1] = V @ coefficients
    return u


class TestConstants:
    def test_ensemble_below_gramian(self):
        # the closed-form constant and the marched one of the same span
        # agree; one pencil record per cutoff
        rep = ob.estimate_observability_constant(
            coeff.make_baseline("lipschitz"), cutoffs=(4, 8),
            resolution=64, n_random=2, seed=3,
            cross_check=True, cross_check_cutoff=4,
            cross_check_resolution=64)
        ratio = rep.cross_check["ensemble_over_gramian"]
        assert abs(ratio - 1.0) <= 1e-9
        assert [(r["cutoff"], r["basis_size"]) for r in rep.rows] == [
            (4, 8), (8, 16)]
        assert all(math.isfinite(c) and c > 0 for c in rep.constants.values())

    @pytest.mark.parametrize("kind", [
        "lipschitz", "bv-step", "hoelder", "log-lipschitz",
        "weierstrass-zygmund",
    ])
    def test_ensemble_never_above_gramian(self, kind):
        # the closed form is the marched Gramian of the same span, up to
        # round-off (8.7e-13 at most over these 18 runs per density)
        om = coeff.make_baseline(kind)
        for cc in (2, 4, 8):
            for res in (64, 128):
                for m in (0, 1, 2):
                    rep = ob.estimate_observability_constant(
                        om, cutoffs=(cc,), resolution=res, n_random=2,
                        seed=0, m=m, cross_check=True,
                        cross_check_cutoff=cc, cross_check_resolution=res)
                    ratio = rep.cross_check["ensemble_over_gramian"]
                    assert abs(ratio - 1.0) <= 1e-9, (cc, res, m, ratio)

    def test_beta_weight_lowers_quotient(self):
        # the H^1 weight (1 + xi^2) >= 1 lowers every quotient of a span,
        # so its largest one too
        om = coeff.make_baseline("lipschitz")
        c0, c1 = (ob.estimate_observability_constant(
            om, cutoffs=(2, 4), resolution=64, beta=beta).constants
            for beta in (0.0, 1.0))
        assert all(0.0 < c1[c] <= c0[c] for c in (2, 4))

    @pytest.mark.parametrize("m, beta", [(0, None), (1, None), (2, None),
                                         (0, 0.5)])
    def test_constant_attained_by_its_datum(self, m, beta):
        # the pencil's lambda_min eigenvector, as nodal data marched by
        # the single-datum quotient (which shares no trace code with the
        # closed form), has the constant as its quotient
        from scipy.linalg import eigh

        om = coeff.make_baseline("lipschitz")
        res, c = 64, 8
        rep = ob.estimate_observability_constant(
            om, cutoffs=(4, c), resolution=res, m=m, beta=beta)
        D, N, V = lowest_mode_pencil(om, rep.T, res, c, m, beta)
        x = eigh(D, N)[1][:, 0]
        q = ob.observability_quotient(om, nodal(V, x[:c]), nodal(V, x[c:]),
                                      rep.T, m, beta=beta, resolution=res)
        assert q.value == pytest.approx(rep.constants[c], rel=1e-9)

    def test_constant_marches_nothing(self, marches):
        # one eigensolve serves every cutoff; only the cross-check's
        # Gramian marches
        om = coeff.make_baseline("lipschitz")
        ob.estimate_observability_constant(om, 3.0, (4, 8, 16),
                                           resolution=64)
        assert marches == ["window"]
        marches.clear()
        ob.estimate_observability_constant(
            om, 3.0, (4, 8), resolution=64, cross_check=True,
            cross_check_cutoff=4, cross_check_resolution=64)
        assert marches == ["window", "window", "homogeneous", "window"]

    def test_constants_nested(self):
        # the spans are nested, so the constants cannot decrease with the
        # cutoff; the Lipschitz constant is flat
        om = coeff.make_baseline("lipschitz")
        for res, cuts in ((256, (8, 16, 32)), (1024, (8, 16, 32, 64))):
            rep = ob.estimate_observability_constant(om, cutoffs=cuts,
                                                     resolution=res)
            values = [rep.constants[c] for c in cuts]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert rep.flags == ()
        # [0.4322, 0.4351] to four digits (0.43217 .. 0.43510 measured)
        assert all(0.43215 <= v < 0.43515 for v in values)

    def test_below_control_time_is_flagged(self):
        # at half the control time the c = 16 pencil is below round-off
        # (lambda_min / lambda_max = -5e-17): inf and flagged, never a
        # negative or finite constant; c = 8 (5.8e-10) stays finite
        om = coeff.make_baseline("lipschitz")
        T = 0.5 * 2.0 * coeff.travel_time(om)
        rep = ob.estimate_observability_constant(om, T, (8, 16),
                                                 resolution=128)
        assert rep.constants[16] == math.inf
        assert math.isfinite(rep.constants[8]) and rep.constants[8] > 0
        assert [r["unbounded"] for r in rep.rows] == [False, True]
        assert len(rep.flags) == 1 and rep.flags[0].startswith("cutoff 16:")

    def test_lipschitz_constants_flat(self):
        # exact-over-span constants on one grid: the spans are nested, so
        # the constant can only grow with the cutoff, and for a Lipschitz
        # density it stays flat (0.4284 .. 0.4349 measured)
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
        # T (0.04240 >= 0.03889 at m = 1, 0.004933 >= 0.004567 at m = 2)
        om = coeff.make_baseline("lipschitz")
        res, cutoff, T = 64, 4, 3.0
        gram = ob.gramian_observability_constant(om, T, cutoff,
                                                 resolution=res, m=m)
        _, V, _ = lowest_modes(ws._wave_grid(om, T, res), cutoff)
        zero = np.zeros(res + 1)
        quotients = []
        for k in range(cutoff):
            mode = nodal(V, np.eye(cutoff)[k])
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


def test_hum_below_control_time_is_flagged():
    # T = 1 lies below 2 T_omega = 2.23 on the Lipschitz baseline, so no
    # control exists: the conjugate residuals run to their cap and the
    # verification march ends far from rest (0.1228 measured, 1e5 times
    # the tolerance)
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 257)
    res = ob.hum_control(om, np.sin(math.pi * x), np.zeros_like(x), T=1.0,
                         resolution=256)
    assert not res.converged and not res.controlled
    assert res.iterations == ob._HUM_MAX_ITER
    assert res.terminal_relative > 1e4 * ob._HUM_TOLERANCE
    assert len(res.flags) == 1
    assert res.flags[0].startswith("not controlled")


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
    assert_stopping_margin(res)


def assert_stopping_margin(res):
    """The stopping rule's factor-10 margin holds: the terminal energy
    defect is at most 10 times the squared final relative residual."""
    assert res.terminal_relative <= 10.0 * res.residuals[-1] ** 2


@pytest.mark.parametrize("seed", range(8))
def test_hum_residuals_never_increase(seed):
    # conjugate residuals minimize the residual the stopping rule reads,
    # so its history never rises (15-43 iterations measured); terminal
    # energy over squared final residual reads 1.9-2.3 here, 0.91 at m=1
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 257)
    rng = np.random.default_rng(seed)
    modes = np.sin(math.pi * np.outer(x, np.arange(1, 9)))
    y0, y1 = rng.standard_normal((2, 8)) @ modes.T
    res = ob.hum_control(om, y0, y1, T=3.0, resolution=256)
    assert all(b <= a for a, b in zip(res.residuals, res.residuals[1:]))
    assert res.converged and res.controlled and res.iterations <= 50
    assert_stopping_margin(res)


def test_hum_benchmark_target():
    # the benchmark's control call: the Lipschitz baseline, the fixed
    # 8-mode mixture (standard normal coefficients, seed 0), T = 3 at
    # res 256
    om = coeff.make_baseline("lipschitz")
    x = np.linspace(0.0, 1.0, 257)
    modes = np.sin(math.pi * np.outer(x, np.arange(1, 9)))
    rng = np.random.default_rng(0)
    y0, y1 = (modes @ rng.standard_normal(8) for _ in range(2))
    res = ob.hum_control(om, y0, y1, T=3.0, resolution=256)
    assert res.iterations == 18 and res.converged and res.controlled
    assert res.terminal_relative == pytest.approx(1.88997508841e-07,
                                                  rel=1e-9)


@pytest.fixture
def marches(monkeypatch):
    """Kind of every leapfrog kernel run, wherever it is called from,
    every modal solve of HUM ("modes") and every eigensolve of the
    constants' lowest modes or of a divergence row's window ("window")."""
    calls = []
    kernel = ws._leapfrog
    modal = ob._leapfrog_modes
    window = ob._scheme_eigenpairs

    def counted(*args, **kwargs):
        forced = kwargs.get("boundary") is not None
        calls.append("forced" if forced else "homogeneous")
        return kernel(*args, **kwargs)

    def solved(*args):
        calls.append("modes")
        return modal(*args)

    def eigensolved(*args, **kwargs):
        calls.append("window")
        return window(*args, **kwargs)

    monkeypatch.setattr(ws, "_leapfrog", counted)
    monkeypatch.setattr(ob, "_scheme_eigenpairs", eigensolved)
    monkeypatch.setattr(ob, "_leapfrog", counted)
    monkeypatch.setattr(ob, "_leapfrog_modes", solved)
    return calls


def test_hum_zero_target(marches):
    # zero data need no control: the zero row, flagged, with no
    # conjugate-residual iteration and no verification march
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
            g = smooth(ws._leapfrog(om, dx, dt, steps, p,
                                    p + dt * v).sbp_left)
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

    @pytest.mark.parametrize("kind", ["lipschitz", "bv-step"])
    def test_reads_the_quotients_series(self, kind):
        # HUM's modal trace e_1 / dx of the data's Taylor start levels is
        # the series whose energy is the quotient's denominator (4.6e-14
        # and 6.4e-15 apart measured)
        om = coeff.make_baseline(kind)
        res, T = 64, 3.0
        grid = ws._wave_grid(om, T, res)
        p = data_mix(grid.x)
        v = np.sin(3.0 * math.pi * grid.x)
        q = ob.observability_quotient(om, p, v, T, resolution=res)
        modes = ws._leapfrog_modes(grid.om, grid.dx, grid.dt, grid.steps)
        z0, z1 = (modes.to_modal(level) for level in ws._taylor_start(
            p, v, grid.om, grid.dt, grid.dx))
        gamma = modes.node1(z0, z1) / grid.dx
        assert q.denominator == pytest.approx(
            np.trapezoid(gamma ** 2, dx=grid.dt), rel=1e-10)

    def test_no_march_inside_cg(self, marches):
        # only the verification marches, once; the conjugate residuals
        # run on the table
        om = coeff.make_baseline("lipschitz")
        x = np.linspace(0.0, 1.0, 129)
        res = ob.hum_control(om, np.sin(math.pi * x), np.zeros_like(x),
                             T=3.0, resolution=128)
        assert res.converged and res.iterations > 2
        assert marches == ["modes", "forced"]


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
        assert out["cutoff"] == 32 and marches == ["window", "homogeneous"]

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
        assert rep.cutoffs == (8, 32) and marches == ["window"]

    def test_integral_float_accepted(self):
        # an integral float is the integer cutoff, as m = 1.0 is m = 1
        om = coeff.make_baseline("lipschitz")
        kw = dict(n_random=1, resolution=64, cross_check=True,
                  cross_check_resolution=64)
        rep = ob.estimate_observability_constant(
            om, 3.0, (4.0, 8.0), cross_check_cutoff=8.0, **kw)
        ref = ob.estimate_observability_constant(
            om, 3.0, (4, 8), cross_check_cutoff=8, **kw)
        assert rep.cutoffs == (4, 8)
        assert all(type(c) is int for c in rep.cutoffs)
        assert rep.constants == ref.constants
        assert rep.cross_check == ref.cross_check
        gram = ob.gramian_observability_constant(om, 3.0, 8.0, resolution=64)
        assert type(gram["cutoff"]) is int and gram["basis_size"] == 16
        assert gram["value"] == ref.cross_check["gramian"]


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
        energy = ob._trace_gram(trace, dt, 2 * k)
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
        "sweep-m_list=()": ("m_list must hold at least one", lambda: (
            ob.run_counterexample_sweep(j_list=(2,), m_list=(), **sweep))),
        "hum_control-y0-ends": ("y0 must vanish", lambda: (
            ob.hum_control(om, np.cos(math.pi * x), zero, 3.0,
                           resolution=64))),
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
        "observability_quotient-beta-m=2": ("beta = 0.5 replaces", lambda: (
            ob.observability_quotient(om, u, zero, 3.0, m=2, beta=0.5,
                                      resolution=64))),
        "observability_quotient-beta-cumulative": (
            "cumulative False", lambda: (
                ob.observability_quotient(om, u, zero, 3.0, beta=0.5,
                                          cumulative=True, resolution=64))),
        "estimate_observability_constant-beta-m=1": (
            "beta = 0.5 replaces", lambda: (
                ob.estimate_observability_constant(
                    om, 3.0, (4,), n_random=1, resolution=64, m=1,
                    beta=0.5))),
        "observability_quotient-side=middle": ("side must", lambda: (
            ob.observability_quotient(om, u, zero, 3.0, resolution=64,
                                      side="middle"))),
        "gramian_observability_constant-cutoff=65": ("group velocity", lambda: (
            ob.gramian_observability_constant(om, 3.0, 65, resolution=128))),
        "seed=-1": ("nonnegative integer", lambda: (
            ob.estimate_observability_constant(
                om, 3.0, (4,), seed=-1, resolution=64))),
        "evolve-u1-ends": ("u1 must vanish", lambda: (
            ws.evolve(om, u, np.cos(math.pi * x), 3.0, 64, k_max=0))),
        "observability_quotient-u1-ends": ("u1 must vanish", lambda: (
            ob.observability_quotient(om, u, np.cos(math.pi * x), 3.0,
                                      resolution=64))),
        "hum_control-y1-ends": ("y1 must vanish", lambda: (
            ob.hum_control(om, u, np.cos(math.pi * x), 3.0,
                           resolution=64))),
        "observability_quotient-zero-data": ("zero data", lambda: (
            ob.observability_quotient(om, zero, zero, 3.0, resolution=64))),
        "evolve-data-shape": ("does not match the grid", lambda: (
            ws.evolve(om, u, zero, 3.0, 128, k_max=0))),
        "diverging-m=5": ("m_list", lambda: (
            ob.DivergenceTable(
                family="lambda", mode="concentrating", T=1.0, m_list=(0,),
                rows=(), growth_factors={0: (12.0, 15.0)}).diverging(5))),
    }
    for value in (math.nan, math.inf):
        # a density whose node 16 sample (x = 0.25) is not finite
        sick = coeff.make_baseline(
            "custom", fn=lambda y, v=value: np.where(y == 0.25, v, 1.0),
            omega_lower=1.0, omega_upper=1.0)
        calls[f"observability_quotient-omega={value}"] = (
            rf"omega = {value!r} at node 16", lambda sick=sick: (
                ob.observability_quotient(sick, u, zero, 3.0,
                                          resolution=64)))
    rest = np.zeros(ws.solver_time_grid(om, 3.0, 64)[1] + 1)
    for k_max in (None, -1, 1.0):
        calls[f"evolve-k_max={k_max}"] = ("k_max", lambda k_max=k_max: (
            ws.evolve(om, u, zero, 3.0, 64, k_max=k_max)))
        calls[f"evolve-forced-k_max={k_max}"] = (
            "k_max", lambda k_max=k_max: ws.evolve(
                om, None, None, 3.0, 64, k_max=k_max, forcing=(rest, rest)))
    for stride in (0, -3, 2.0):
        calls[f"evolve-snapshot_stride={stride}"] = (
            "snapshot_stride", lambda stride=stride: ws.evolve(
                om, u, zero, 3.0, 64, k_max=0, snapshot_stride=stride))
    for cutoff in (8.5, math.nan, math.inf):
        for name, call in {
            "estimate_observability_constant":
                lambda c: ob.estimate_observability_constant(
                    om, 3.0, (c,), n_random=1, resolution=64),
            "cross_check_cutoff": lambda c: ob.estimate_observability_constant(
                om, 3.0, (4,), n_random=1, resolution=64, cross_check=True,
                cross_check_cutoff=c, cross_check_resolution=64),
            "gramian_observability_constant":
                lambda c: ob.gramian_observability_constant(
                    om, 3.0, c, resolution=64),
        }.items():
            calls[f"{name}-cutoff={cutoff}"] = (
                rf"cutoff {cutoff!r} must be an integer",
                lambda call=call, cutoff=cutoff: call(cutoff))
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


@pytest.mark.parametrize("call", [
    pytest.param(lambda om, u: ob.observability_quotient(
        om, u, np.zeros_like(u), T=1e-3, m=2, resolution=8),
                 id="observability_quotient"),
    pytest.param(lambda om, u: ob.estimate_observability_constant(
        om, 1e-3, (1,), resolution=8, m=2),
                 id="estimate_observability_constant"),
])
def test_trace_too_short_rejected(call):
    # T = 1e-3 on 8 cells is one time step: its two trace levels have no
    # second difference
    om = coeff.make_baseline("lipschitz")
    u = np.sin(math.pi * np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError,
                       match="trace too short for this derivative order"):
        call(om, u)


class TestResolutionFlags:
    """Constants taken on a grid that misses the trapping-resolution rule
    (resolution + 1) r_j >= 8 n_j carry a flag."""

    def test_lambda_member(self):
        # h = 120, n = 30, r = 1/4: the rule needs resolution + 1 >= 960
        params = coeff.make_sequences("concentrating", j_range=range(2, 3),
                                      n0=30)
        lam = coeff.make_counterexample_density(params, family="lambda")[0]
        assert params.entry(2).h == 120.0
        # past the control time, so that no pencil is below round-off
        T = ob._default_horizon(coeff.travel_time(lam))
        for res, flagged in ((512, True), (1024, False)):
            rep = ob.estimate_observability_constant(lam, T, (8,),
                                                     n_random=1,
                                                     resolution=res)
            gram = ob.gramian_observability_constant(lam, T, 8,
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
    # the members leave log-Lipschitz at a growing rate (181.99 -> 986.31)
    ll = [r["seminorm_LL"] for r in table.rows]
    assert ll[1] >= 3.0 * ll[0]
    # the rows as a full-precision eigh_tridiagonal window reads them (the
    # coarse bisection and Rayleigh-Ritz step agree within 1.8e-14
    # relative)
    for row, (q, frequency, modes) in zip(table.rows, [
            (0.4868873089258137, 118.25417696443363, 6),
            (12.025690321825234, 576.5738465915265, 31)]):
        assert row["Q"][0] == pytest.approx(q, rel=1e-10)
        assert row["trapped_frequency"] == pytest.approx(frequency,
                                                         rel=1e-10)
        assert row["window"]["modes"] == modes


def test_row_does_not_depend_on_other_rows():
    # each row runs at its own member's horizon, so with the sequences
    # fixed by j_range the j=2 row swept alone is the one swept beside
    # j=3, bit for bit (their horizons are 13.06176 and 13.06432)
    kw = {"n0": 30, "j_range": range(2, 4)}
    both, alone = (ob.run_counterexample_sweep(
        family="lambda", j_list=j_list, points_per_wavelength=6.0,
        sequence_kwargs=kw) for j_list in ((2, 3), (2,)))
    assert both.rows[0] == alone.rows[0]
    assert both.rows[0]["T"] < both.rows[1]["T"] == both.T


@pytest.mark.parametrize("family, bound", [("lambda", 1e-10),
                                           ("psi", 1e-3)])
def test_numerator_equipartition(family, bound):
    # phi'' + h^2 omega phi = 0 gives int |phi'/h|^2 - int omega phi^2 =
    # [phi phi'] / h^2, so the cos phase (phi/h, 0) and the sin phase
    # (0, phi) carry the same energy up to the edge terms: closed-form
    # on the lambda rows (2.7e-11, 2.9e-11 measured), trapezoid sums of
    # the solved samples on the psi rows (2.3e-4, 8.7e-5)
    table = ob.run_counterexample_sweep(
        family=family, j_list=(2, 3), m_list=(0,),
        points_per_wavelength=6.0, sequence_kwargs={"n0": 30})
    assert [r["j"] for r in table.rows] == [2, 3]
    for r in table.rows:
        assert abs(r["numerator_h1"] / r["numerator_l2"] - 1.0) <= bound


def assert_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("resolution", [256, 1024])
@pytest.mark.parametrize("density", ["lambda", "bv-step"])
def test_edge_impulse_reciprocity(density, resolution):
    # a law of the kernel: the scheme is reciprocal (lam_i omega_i =
    # dt^2/dx^2 at every node), so the node n-1 trace of a unit left
    # impulse is the node 1 trace of a unit right impulse
    if density == "lambda":
        params = coeff.make_sequences(mode="concentrating",
                                      j_range=range(2, 4), n0=30)
        dens = coeff.make_counterexample_density(params.restrict(2),
                                                 family="lambda")[0]
    else:
        dens = coeff.make_baseline("bv-step")
    grid = ws._wave_grid(dens, 2.0 * coeff.travel_time(dens) + 0.5,
                         resolution)
    rest, zero = np.zeros(resolution + 1), np.zeros(grid.steps + 1)
    impulse = zero.copy()
    impulse[1] = 1.0
    runs = [ws._leapfrog(grid.om, grid.dx, grid.dt, grid.steps, rest, rest,
                         boundary=sides)
            for sides in ((impulse, zero), (zero, impulse))]
    far = -runs[0].sbp_right            # u_{n-1}/dx, the right end at rest
    near = runs[1].sbp_left             # u_1/dx, the left end at rest
    assert np.max(np.abs(near)) > 0
    assert_close(far, near, rtol=1e-13)


def lambda_sweep(ppw, j_list=(2, 3), m_list=(0,)):
    """The lambda rows of the n0 = 30 concentrating family."""
    return ob.run_counterexample_sweep(
        family="lambda", j_list=j_list, m_list=m_list,
        points_per_wavelength=ppw, sequence_kwargs={"n0": 30})


def test_psi_sweep_marches_once_per_row(marches):
    # one eigensolve of the row's window per row, and no march
    table = ob.run_counterexample_sweep(
        family="psi", j_list=(2, 3), points_per_wavelength=6.0,
        sequence_kwargs={"n0": 30})
    assert [r["j"] for r in table.rows] == [2, 3]
    assert marches == ["window", "window"]
    for r in table.rows:
        assert r["edge_values"][0] != r["edge_values"][1]
        assert r["flags"] == ()


def test_lambda_sweep_marches_once_per_row(marches, monkeypatch):
    # the benchmark's call: one eigensolve per row, no march, no FFT and
    # no trace array (the trace energies are closed-form)
    def transformed(*args, **kwargs):
        raise AssertionError("the sweep transformed a trace")

    def traced(*args):
        raise AssertionError("the sweep built a (steps+1)-long trace")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, transformed)
    monkeypatch.setattr(ob, "_mode_traces", traced)
    table = lambda_sweep(6.0, m_list=(0, 1, 2))
    assert [r["j"] for r in table.rows] == [2, 3]
    assert marches == ["window", "window"]
    assert all(r["flags"] == () for r in table.rows)


def test_trapped_rows_converge():
    # ppw 24 and 48 (res 4096 / 8192 at j = 2, 16384 / 32768 at j = 3):
    # Q_0 read 0.4111 -> 0.4077 and 7.418 -> 7.131 (0.8% and 3.9%), the
    # j=3 / j=2 ratio 18.0 and 17.5, and the trapped sqrt(mu) sits
    # +0.12% / +0.28% off h at j = 3 and +0.70% / +0.81% at j = 2, whose
    # quasimode is barely trapped (boundary log -1.44)
    coarse, fine = (lambda_sweep(ppw).rows for ppw in (24.0, 48.0))
    for a, b in zip(coarse, fine):
        assert b["resolution"] == 2 * a["resolution"]
        assert abs(b["Q"][0] / a["Q"][0] - 1.0) <= 0.05
    for j2, j3 in (coarse, fine):
        assert j3["Q"][0] >= 10.0 * j2["Q"][0]
        assert abs(j2["trapped_frequency"] / j2["h"] - 1.0) <= 0.01
        assert abs(j3["trapped_frequency"] / j3["h"] - 1.0) <= 0.005


def test_trapped_row_matches_marched_quotient():
    # an oracle that shares no engine with the row: the maximizing mode's
    # nodal datum, marched by observability_quotient (the closed-form
    # traces matched the march to 2e-12 on the constants)
    (row,) = lambda_sweep(6.0, j_list=(2,)).rows
    params = coeff.make_sequences(mode="concentrating", j_range=range(2, 3),
                                  n0=30)
    dens = qm._family_members(params, "lambda", (2,))[0][2]
    grid = ws._wave_grid(dens, row["T"], row["resolution"])
    mu, vectors, root_om, _ = ws._scheme_eigenpairs(grid.om, grid.dx,
                                                    grid.dt)
    k = int(np.argmin(np.abs(np.sqrt(mu) - row["trapped_frequency"])))
    datum, zero = np.zeros(len(grid.x)), np.zeros(len(grid.x))
    datum[1:-1] = vectors[:, k] / root_om
    data = (datum, zero) if row["trapped_datum"] == "position" else (
        zero, datum)
    res = ob.observability_quotient(dens, *data, row["T"],
                                    resolution=row["resolution"])
    assert not res.unbounded
    assert res.value == pytest.approx(row["Q"][0], rel=1e-9)


def benchmark_window_modes():
    """(grid, mu, V, theta) of each benchmark row's window modes (the
    lambda n0 = 30 rows at ppw 6)."""
    table = lambda_sweep(6.0)
    params = coeff.make_sequences(mode="concentrating", j_range=range(2, 4),
                                  n0=30)
    members = qm._family_members(params, "lambda", (2, 3))[0]
    for row in table.rows:
        grid = ws._wave_grid(members[row["j"]], row["T"], row["resolution"])
        window = row["window"]
        mu, vectors, root_om, theta = ws._scheme_eigenpairs(
            grid.om, grid.dx, grid.dt, window=(window["lo"], window["hi"]))
        yield grid, mu, vectors / root_om[:, None], theta


@pytest.mark.parametrize("m", [0, 1, 2])
def test_closed_form_trace_energies(m):
    # the closed-form D_m against the trapezoid sums of the differenced
    # closed-form traces, position and velocity data: on the benchmark
    # rows' window modes (1.2e-14 relative at most measured) and the 8
    # lowest Lipschitz modes at res 1024, where theta reaches 2.6e-3
    # (1.6e-14)
    om = coeff.make_baseline("lipschitz")
    lipschitz = ws._wave_grid(om, 2.0 * coeff.travel_time(om) + 0.5, 1024)
    cases = [*benchmark_window_modes(), (lipschitz, *lowest_modes(
        lipschitz, 8))]
    for grid, mu, V, theta in cases:
        got = ob._mode_trace_energies(grid, mu, V, theta, m)
        ref = np.diag(ob._trace_gram(ob._mode_traces(grid, mu, V, theta),
                                     grid.dt, m))
        assert got.shape == ref.shape == (2 * len(mu),)
        assert np.all(np.abs(got / ref - 1.0) <= 1e-11)


@pytest.mark.parametrize("kind", ["lipschitz", "bv-step"])
def test_mode_traces_closed_form(kind):
    # the closed-form traces a_k cos(n theta_k), then b_k sin(n theta_k),
    # against the formula written out with numpy's own cos and sin
    grid = ws._wave_grid(coeff.make_baseline(kind), 3.0, 256)
    mu, V, theta = lowest_modes(grid, 32)
    a, b = ob._trace_amplitudes(grid, mu, V, theta)
    phase = np.multiply.outer(np.arange(grid.steps + 1), theta)
    ref = np.hstack([a * np.cos(phase), b * np.sin(phase)])
    got = ob._mode_traces(grid, mu, V, theta)
    assert got.shape == ref.shape == (grid.steps + 1, 64)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))


class TestWindowGuard:
    def test_edge_maximizer_is_flagged(self, monkeypatch):
        # a window that stops below the trapped mode, which sits
        # 0.33-0.85% above the dispersed h, peaks at its highest mode
        monkeypatch.setattr(ob, "_WINDOW_HI", 1.0)
        (row,) = lambda_sweep(6.0, j_list=(2,)).rows
        assert row["flags"] == ("trapped mode may lie outside the window",)
        assert row["trapped_frequency"] <= row["window"]["hi"]

    def test_empty_window_truncates(self, monkeypatch):
        # far above the grid's highest frequency: no eigenmode, so the
        # table stops at j = 2 with the reason instead of raising
        monkeypatch.setattr(ob, "_WINDOW_LO", 50.0)
        monkeypatch.setattr(ob, "_WINDOW_HI", 51.0)
        table = lambda_sweep(6.0)
        assert table.rows == () and table.truncated_at == 2
        assert table.truncation_reason.startswith("no eigenmode")


@pytest.mark.parametrize("family", ["lambda", "psi"])
def test_divergence_sweep_truncates_unbuildable_family(family):
    # paper-strict N = 2: every pair builds, the j = 3 one at
    # eps_3 = 6.6e-25 included, but the wave grid's cap cannot resolve
    # h_2, so both families stop at j = 2 for that reason, with the
    # density's travel time measured
    table = ob.run_counterexample_sweep(
        family=family, j_list=(2, 3),
        sequence_kwargs={"mode": "paper-strict", "N": 2})
    assert table.rows == () and table.truncated_at == 2
    assert table.truncation_reason.startswith(
        "wave grid cannot resolve h=8.886e+06")
    assert abs(table.T - 13.066) < 1e-3


class TestGrowth:
    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (0.0, 1.0)])
    def test_floored_row_is_not_growth(self, a, b):
        assert math.isnan(ob._growth_factor(a, b))

    def test_floored_constant_overall_growth(self):
        rep = ob.ObservabilityReport(
            omega_kind="constant", omega_descriptor={}, T=3.0, T_omega=1.0,
            admissible=True, m=0, beta=None, cutoffs=(8, 16),
            constants={8: math.inf, 16: 1.0}, rows=(),
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
        if m in table.m_list:
            assert not table.diverging(m, factor=10.0, runs=2)
        else:
            # an order the sweep never measured is an input error, not
            # an absence of growth
            with pytest.raises(ValueError, match="m_list"):
                table.diverging(m, factor=10.0, runs=2)
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


def test_import_leaves_out_numpy_polynomial():
    # the Gauss rule is written out; importing every module adds no
    # numpy.polynomial module to what importing numpy loads
    code = "\n".join([
        "import sys",
        "import numpy",
        "def poly():",
        "    return {m for m in sys.modules",
        "            if m.startswith('numpy.polynomial')}",
        "before = poly()",
        "from waveobs import coeff, modulus, observability, quasimodes, "
        "wavesim",
        "print(sorted(poly() - before))",
    ])
    assert _fresh_python(code).strip() == "[]"


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


def test_no_orphans_in_the_package():
    # every module-level import is used in its module, every
    # module-level private function is referenced from the package, every
    # module-level private constant is read in the package, and every
    # parameter of a function or lambda is read in its body: a helper that
    # lost its last caller, the import or constant it needed, or an
    # argument that lost its last use shows here
    pkg = Path(ob.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text()) for p in pkg.glob("*.py")}

    def names(tree) -> set:
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
        return out

    used = {name: names(tree) for name, tree in trees.items()}
    unused, orphans, unread = [], [], []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                unused += [f"{name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in used[name]]
            elif (isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and not any(node.name in u for u in used.values())):
                orphans.append(f"{name}: {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                orphans += [f"{name}: {t.id}" for t in targets
                            if isinstance(t, ast.Name)
                            and t.id.startswith("_")
                            and not t.id.startswith("__")
                            and not any(t.id in u for u in used.values())]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a]
                body = (node.body if isinstance(node.body, list)
                        else [node.body])
                read = {n.id for part in body for n in ast.walk(part)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                unread += [f"{name}: {getattr(node, 'name', 'lambda')}"
                           f"({a.arg})" for a in params
                           if a.arg not in read | {"self", "cls"}]
    assert unused == []
    assert orphans == []
    assert unread == []


def test_no_unread_private_names():
    # every module-level private function, class and constant of the
    # package is read outside its own definition: as a loaded name, an
    # attribute or a `from ... import`; a self-reference (recursion, a
    # class naming itself) and a docstring mention do not count, so a
    # knob or helper left behind by a refactor shows here
    pkg = Path(ob.__file__).resolve().parent
    reads, defined = [], []
    for path in sorted(pkg.glob("*.py")):
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            owner = (path.name, index)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((stmt.name, owner))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                defined += [(n.id, owner) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    reads.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    reads.append((node.attr, owner))
                elif isinstance(node, ast.ImportFrom):
                    reads += [(alias.name, owner) for alias in node.names]
    unread = [f"{file}: {name}" for name, (file, index) in defined
              if name.startswith("_") and not name.startswith("__")
              and not any(read == name and where != (file, index)
                          for read, where in reads)]
    assert unread == []


def test_one_sinusoid_table():
    # np.sin or np.cos of an np.multiply.outer(np.arange(...), ...) phase
    # (inline, or through a name it was assigned or written to with out=)
    # is an n-theta table built beside wavesim._sinusoids, the one kernel
    # that builds them
    pkg = Path(ob.__file__).resolve().parent

    def is_phase(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "np.multiply.outer"
                and bool(node.args) and isinstance(node.args[0], ast.Call)
                and ast.unparse(node.args[0].func) == "np.arange")

    found = []
    for path in sorted(pkg.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name == "_sinusoids"):
                continue
            phases = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and any(
                        map(is_phase, ast.walk(node.value))):
                    phases |= {t.id for t in node.targets
                               if isinstance(t, ast.Name)}
                elif is_phase(node):
                    phases |= {k.value.id for k in node.keywords
                               if k.arg == "out"
                               and isinstance(k.value, ast.Name)}
            found += [
                f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                if isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func) in ("np.sin", "np.cos")
                and any(is_phase(n) or (isinstance(n, ast.Name)
                                        and n.id in phases)
                        for n in ast.walk(node.args[0]))]
    assert found == []


def test_docstring_references_resolve():
    # every :func:, :class: and :mod: target in the package names a module
    # (:mod:), a name of its own module, or a name of the package module
    # its first part names; :meth: resolves through its class, the
    # enclosing one when the target is bare: a reference to a deleted
    # helper fails here
    pkg = Path(ob.__file__).resolve().parent
    role = re.compile(r":(func|class|mod|meth):`([\w.]+)`")

    def submodule(name):
        try:
            return importlib.import_module(f"waveobs.{name}")
        except ModuleNotFoundError:
            return None

    def resolves(scope, parts):
        if not hasattr(scope, parts[0]):
            scope, parts = submodule(parts[0]), parts[1:]
        for part in parts:
            if not hasattr(scope, part):
                return False
            scope = getattr(scope, part)
        return scope is not None

    unresolved = []
    for path in sorted(pkg.glob("*.py")):
        mod = importlib.import_module(
            "waveobs" if path.stem == "__init__" else f"waveobs.{path.stem}")
        text = path.read_text()
        classes = [node for node in ast.parse(text).body
                   if isinstance(node, ast.ClassDef)]
        for match in role.finditer(text):
            kind, target = match.groups()
            line = text.count("\n", 0, match.start()) + 1
            parts = target.split(".")
            if kind == "mod":
                ok = submodule(target) is not None
            elif kind == "meth" and len(parts) == 1:
                owner = [c.name for c in classes
                         if c.lineno <= line <= c.end_lineno]
                ok = bool(owner) and resolves(getattr(mod, owner[0]), parts)
            else:
                ok = resolves(mod, parts)
            if not ok:
                unresolved.append(f"{path.name}:{line}: :{kind}:`{target}`")
    assert unresolved == []
