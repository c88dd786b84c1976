"""Wave solver tests: closed-form oracles, conservation, both sweep
directions, operator powers, and trace norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveobs.coeff import make_baseline
from waveobs import wavesim as ws


@pytest.fixture(scope="module")
def om1():
    return make_baseline("constant", value=1.0)


@pytest.fixture(scope="module")
def om_smooth():
    return make_baseline(
        "custom",
        fn=lambda x: 1.5 + 0.5 * np.sin(3 * np.pi * x) * np.cos(np.pi * x),
        omega_lower=1.0, omega_upper=2.0)


def quintic_ramp(t, t1=0.3):
    u = np.clip(t / t1, 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


class TestEvolve:
    def test_dalembert_half_period(self, om1):
        # u = cos(pi t) sin(pi x): at T=1 the profile is exactly negated
        traj = ws.evolve(om1, lambda x: np.sin(np.pi * x), None,
                         T=1.0, resolution=256)
        err = np.max(np.abs(traj.levels[1] + np.sin(np.pi * traj.x)))
        assert err < 5e-5

    def test_trace_oracle(self, om1):
        traj = ws.evolve(om1, lambda x: np.sin(np.pi * x), None,
                         T=2.0, resolution=512)
        exact = np.pi * np.cos(np.pi * traj.times)
        assert np.max(np.abs(traj.trace_left - exact)) < 5e-5
        # right trace of sin(pi x): u_x(t,1) = -pi cos(pi t)
        assert np.max(np.abs(traj.trace_right + exact)) < 5e-5

    def test_second_order_convergence(self, om1):
        # generic (non-resonant) horizon exposes the true scheme order
        errs = []
        for res in (256, 512):
            traj = ws.evolve(om1, lambda x: np.sin(np.pi * x), None,
                             T=1.37, resolution=res)
            exact = math.cos(math.pi * 1.37) * np.sin(np.pi * traj.x)
            errs.append(np.max(np.abs(traj.levels[1] - exact)))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_l2_order_on_mixture(self, om1):
        def u0(x):
            return np.sin(np.pi * x) + 0.4 * np.sin(3 * np.pi * x)

        def u1(x):
            return 0.7 * np.sin(2 * np.pi * x)

        errs = []
        for res in (256, 512):
            traj = ws.evolve(om1, u0, u1, T=0.77, resolution=res)
            x, t = traj.x, traj.steps * traj.dt
            exact = (np.cos(np.pi * t) * np.sin(np.pi * x)
                     + 0.4 * np.cos(3 * np.pi * t) * np.sin(3 * np.pi * x)
                     + 0.7 / (2 * np.pi) * np.sin(2 * np.pi * t)
                     * np.sin(2 * np.pi * x))
            errs.append(math.sqrt(traj.dx * np.sum((traj.levels[1] - exact) ** 2)))
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_energy_conservation_smooth(self, om_smooth):
        for res in (1024, 2048):
            traj = ws.evolve(om_smooth, lambda x: np.sin(np.pi * x),
                             lambda x: 0.2 * np.sin(2 * np.pi * x),
                             T=4.0, resolution=res)
            assert traj.energy_drift(0) < 1e-8
            assert traj.energy_drift(1) < 1e-6
            assert traj.energy_drift(2) < 1e-6

    def test_boundary_exact_zero(self, om_smooth):
        traj = ws.evolve(om_smooth, lambda x: np.sin(np.pi * x), None,
                         T=1.0, resolution=256, snapshot_stride=16)
        for u in traj.snapshots_u:
            assert u[0] == 0.0 and u[-1] == 0.0
        assert traj.levels[1][0] == 0.0 and traj.levels[1][-1] == 0.0

    def test_linearity_exact(self, om_smooth):
        u0 = lambda x: np.sin(np.pi * x)
        v0 = lambda x: np.sin(2 * np.pi * x)
        ta = ws.evolve(om_smooth, u0, None, T=0.5, resolution=128)
        tb = ws.evolve(om_smooth, v0, None, T=0.5, resolution=128)
        tc = ws.evolve(om_smooth,
                       lambda x: u0(x) + 0.37 * v0(x), None,
                       T=0.5, resolution=128)
        combo = ta.levels[1] + 0.37 * tb.levels[1]
        assert np.max(np.abs(tc.levels[1] - combo)) < 1e-12

    def test_time_reversibility(self, om_smooth):
        u0 = lambda x: np.sin(np.pi * x) * np.sin(2 * np.pi * x)
        u1 = lambda x: 0.3 * np.sin(3 * np.pi * x)
        fwd = ws.evolve(om_smooth, u0, u1, T=2.0, resolution=512)
        back = ws.evolve(om_smooth, None, None, T=fwd.steps * fwd.dt,
                         resolution=512,
                         start_levels=(fwd.levels[1], fwd.levels[0]))
        assert np.max(np.abs(back.levels[1] - u0(back.x))) < 1e-11

    def test_finite_propagation(self, om1):
        def bump(x):
            s = (x - 0.4) * (0.6 - x)
            return np.where(s > 0, np.exp(-0.01 / np.maximum(s, 1e-300)), 0.0)

        traj = ws.evolve(om1, bump, None, T=0.3, resolution=1024)
        u_prev, u_T = traj.levels
        v_T = (u_T - u_prev) / traj.dt
        dens = traj.omega_nodes * v_T ** 2 + np.gradient(u_T, traj.dx) ** 2
        total = np.sum(dens) * traj.dx
        # light cone [0.1, 0.9] plus a few cells of numerical spread
        pad = 8 * traj.dx
        outside = (traj.x < 0.1 - pad) | (traj.x > 0.9 + pad)
        assert np.sum(dens[outside]) * traj.dx < 1e-10 * total

    def test_snapshot_velocities(self, om1):
        traj = ws.evolve(om1, lambda x: np.sin(np.pi * x), None,
                         T=1.0, resolution=256, snapshot_stride=32)
        assert np.array_equal(traj.snapshots_ut[0], np.zeros_like(traj.x))
        for tm, ut in zip(traj.snapshot_times[1:], traj.snapshots_ut[1:]):
            exact = -np.pi * np.sin(np.pi * tm) * np.sin(np.pi * traj.x)
            assert np.max(np.abs(ut - exact)) < 5e-4

    def test_final_state_first_order_velocity(self, om1):
        # u = cos(pi t) sin(pi x); at T = 1/4 u_tt != 0, so the backward
        # difference (u_T - u_{T-dt})/dt has an O(dt) error that halves
        # with the grid
        errs = []
        for res in (256, 512):
            traj = ws.evolve(om1, lambda x: np.sin(np.pi * x), None,
                             T=0.25, resolution=res)
            u_prev, u_last = traj.levels
            u_T, ut_T = traj.final_state()
            assert np.array_equal(u_T, u_last)
            assert np.array_equal(ut_T, (u_last - u_prev) / traj.dt)
            exact = -np.pi * math.sin(np.pi * 0.25) * np.sin(np.pi * traj.x)
            errs.append(np.max(np.abs(ut_T - exact)))
        assert 1.8 < errs[0] / errs[1] < 2.2

    def test_input_validation(self, om1):
        sin0 = lambda x: np.sin(np.pi * x)
        with pytest.raises(ValueError, match="power of two"):
            ws.evolve(om1, sin0, None, T=1.0, resolution=300)
        with pytest.raises(ValueError, match="hyperbolicity"):
            # declared bound is positive but the samples dip below zero
            bad = make_baseline("custom", fn=lambda x: np.cos(7 * x),
                                omega_lower=0.1, omega_upper=1.0)
            ws.evolve(bad, sin0, None, T=1.0, resolution=256)
        with pytest.raises(ValueError, match="endpoints"):
            ws.evolve(om1, lambda x: np.cos(np.pi * x), None,
                      T=1.0, resolution=256)
        with pytest.raises(ValueError, match="start_levels"):
            ws.evolve(om1, sin0, None, T=1.0, resolution=256,
                      start_levels=(np.zeros(257), np.zeros(257)))


class TestInhomogeneous:
    def test_zero_forcing_zero_field(self, om1):
        dt, steps = ws.solver_time_grid(om1, 1.0, 256)
        t = np.arange(steps + 1) * dt
        traj = ws.evolve(om1, None, None, 1.0, 256,
                         forcing=(np.zeros_like(t), np.zeros_like(t)))
        assert np.max(np.abs(traj.levels[1])) == 0.0
        assert traj.flags == ()
        assert traj.homogeneous

    def test_ratios_stable_under_refinement(self, om1):
        vals = []
        for res in (512, 1024):
            dt, steps = ws.solver_time_grid(om1, 1.0, res)
            t = np.arange(steps + 1) * dt
            traj = ws.evolve(om1, None, None, 1.0, res, forcing=(
                np.sin(12.0 * t) * quintic_ramp(t), np.zeros_like(t)))
            assert traj.flags == ()
            vals.append(traj.pz_ratios)
        for key in ("interior", "flux"):
            assert abs(vals[1][key] / vals[0][key] - 1) < 0.15

    def test_superposition_residual(self, om1):
        # v = cos(pi t) cos(pi x) solves the equation but not the
        # boundary conditions; z corrects them.  u = v + z must satisfy
        # homogeneous boundary values exactly and the discrete PDE
        # residual to discretization order.
        residuals = []
        for res in (128, 256):
            dt, steps = ws.solver_time_grid(om1, 0.8, res)
            t = np.arange(steps + 1) * dt
            traj = ws.evolve(om1, None, None, 0.8, res, snapshot_stride=1,
                             forcing=(-np.cos(np.pi * t), np.cos(np.pi * t)))
            x, dx = traj.x, traj.dx
            # u levels on the snapshot grid (snapshots hold raw levels)
            m = traj.steps // 2
            levels = [traj.snapshots_u[m + i]
                      + np.cos(np.pi * traj.snapshot_times[m + i])
                      * np.cos(np.pi * x) for i in (-1, 0, 1)]
            tm = traj.snapshot_times[m]
            assert abs(traj.snapshots_u[m][0] + np.cos(np.pi * tm)) < 1e-12
            u_tt = (levels[2] - 2 * levels[1] + levels[0]) / dt ** 2
            u_xx = np.zeros_like(x)
            u_xx[1:-1] = (levels[1][2:] - 2 * levels[1][1:-1]
                          + levels[1][:-2]) / dx ** 2
            res_int = np.max(np.abs(
                traj.omega_nodes[1:-1] * u_tt[1:-1] - u_xx[1:-1]))
            residuals.append(res_int)
        # boundary of u = v + z vanishes by construction of the forcing
        assert residuals[0] > 0
        assert math.log2(residuals[0] / residuals[1]) > 1.5

    def test_one_energy_rule(self, om1):
        # free and forced runs both carry E_k, k <= k_max, at every level
        # from the (k+1)-th on, timed at the midpoint of the k+2 levels
        # that each value reads
        T, res = 0.5, 64
        dt, steps = ws.solver_time_grid(om1, T, res)
        t = np.arange(steps + 1) * dt
        free = ws.evolve(om1, lambda x: np.sin(np.pi * x), None, T, res)
        forced = ws.evolve(om1, None, None, T, res, forcing=(
            np.sin(12.0 * t) * quintic_ramp(t), np.zeros_like(t)))
        for traj in (free, forced):
            assert sorted(traj.energies) == [0, 1, 2]
            for k, e in traj.energies.items():
                times = traj.energy_times[k]
                assert len(e) == len(times) == steps - k
                assert times[0] == pytest.approx((k + 1) / 2 * dt)
                assert times[-1] == pytest.approx(T - (k + 1) / 2 * dt)

    def test_incompatible_flagged(self, om1):
        dt, steps = ws.solver_time_grid(om1, 0.5, 128)
        t = np.arange(steps + 1) * dt
        traj = ws.evolve(om1, None, None, 0.5, 128,
                         forcing=(np.cos(3 * t), np.zeros_like(t)))
        assert any("incompatible" in f for f in traj.flags)

    def test_grid_mismatch_rejected(self, om1):
        t = np.linspace(0, 1, 100)
        with pytest.raises(ValueError, match="solver grid"):
            ws.evolve(om1, None, None, 1.0, 128,
                      forcing=(np.sin(t), np.sin(t)))


class TestModes:
    """The closed-form modal solution against the marching kernel."""

    @staticmethod
    def grid(kind, res, T=3.0):
        omega = make_baseline(kind)
        x = np.linspace(0.0, 1.0, res + 1)
        dt, steps = ws.solver_time_grid(omega, T, res)
        return omega(x), x[1] - x[0], dt, steps

    @pytest.mark.parametrize("kind", ["lipschitz", "log-lipschitz"])
    @pytest.mark.parametrize("res", [64, 256])
    def test_node1_matches_leapfrog(self, kind, res):
        om, dx, dt, steps = self.grid(kind, res)
        rng = np.random.default_rng(res)
        p, v = rng.standard_normal((2, res + 1, 4))
        p[0] = p[-1] = v[0] = v[-1] = 0.0
        ref = ws._leapfrog(om, dx, dt, steps, p, p + dt * v).node1
        modes = ws._leapfrog_modes(om, dx, dt, steps)
        got = modes.node1(modes.to_modal(p), modes.to_modal(p + dt * v))
        assert got.shape == ref.shape == (steps + 1, 4)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_adjoint_pairing(self):
        om, dx, dt, steps = self.grid("lipschitz", 64)
        modes = ws._leapfrog_modes(om, dx, dt, steps)
        rng = np.random.default_rng(2)
        g = rng.standard_normal((steps + 1, 3))
        z0, z1 = rng.standard_normal((2, 63, 3))
        a0, a1 = modes.node1_adjoint(g)
        lhs = np.sum(g * modes.node1(z0, z1), axis=0)
        rhs = np.sum(a0 * z0 + a1 * z1, axis=0)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)

    def test_stability_limit(self):
        om, dx, _, _ = self.grid("lipschitz", 64)
        with pytest.raises(ValueError, match="stability"):
            ws._leapfrog_modes(om, dx, 2.0 * dx * math.sqrt(om.max()), 10)


class TestSidewise:
    def test_dalembert_exact(self, om1):
        T, res = 3.0, 512
        dt, steps = ws.solver_time_grid(om1, T, res)
        t = np.arange(steps + 1) * dt
        slc = ws.SidewiseSlice(x0=0.0, times=t, u=np.zeros_like(t),
                               u_x=np.pi * np.cos(np.pi * t))
        sw = ws.sidewise_evolve(om1, slc, span=0.5, direction="right")
        xu, tw, uu = sw.field_at(0.5)
        exact = np.cos(np.pi * tw) * np.sin(np.pi * xu)
        assert np.max(np.abs(uu - exact)) < 5e-6

    def test_left_direction(self, om1):
        T, res = 3.0, 512
        dt, steps = ws.solver_time_grid(om1, T, res)
        t = np.arange(steps + 1) * dt
        slc = ws.SidewiseSlice(x0=1.0, times=t, u=np.zeros_like(t),
                               u_x=-np.pi * np.cos(np.pi * t))
        sw = ws.sidewise_evolve(om1, slc, span=0.5, direction="left")
        xu, tw, uu = sw.field_at(0.5)
        exact = np.cos(np.pi * tw) * np.sin(np.pi * xu)
        assert abs(xu - 0.5) < 1e-9
        assert np.max(np.abs(uu - exact)) < 5e-6

    def test_cross_validation_with_forward(self, om_smooth):
        # the forward solve's every-level snapshots give the field along
        # x = 1/2; the sidewise sweep reconstructs it from the left
        # boundary trace alone
        T = 4.0
        mids, fields = {}, {}
        for res in (256, 512):
            traj = ws.evolve(om_smooth, lambda x: np.sin(np.pi * x),
                             None, T=T, resolution=res, snapshot_stride=1)
            mids[res] = np.array([u[res // 2] for u in traj.snapshots_u])
            fields[res] = traj
        fine = np.interp(fields[256].times, fields[512].times, mids[512])
        self_err = np.max(np.abs(fine - mids[256]))
        traj = fields[512]
        slc = ws.SidewiseSlice(x0=0.0, times=traj.times,
                               u=np.zeros_like(traj.times),
                               u_x=traj.trace_left)
        sw = ws.sidewise_evolve(om_smooth, slc, span=0.5)
        xu, tw, uu = sw.field_at(0.5)
        i0 = int(round(tw[0] / traj.dt))
        ref = mids[512][i0: i0 + len(uu)]
        agree = np.max(np.abs(uu - ref))
        assert agree < 2 * max(self_err, 1e-8)

    def test_f0_matches_boundary_flux(self, om1):
        T, res = 2.0, 256
        dt, steps = ws.solver_time_grid(om1, T, res)
        t = np.arange(steps + 1) * dt
        ux = np.pi * np.cos(np.pi * t)
        slc = ws.SidewiseSlice(x0=0.0, times=t, u=np.zeros_like(t), u_x=ux)
        sw = ws.sidewise_evolve(om1, slc, span=0.1)
        flux = 0.5 * np.trapezoid(ux ** 2, dx=dt)
        assert abs(sw.F[0][0] / flux - 1) < 0.01

    def test_span_validation(self, om1):
        dt, steps = ws.solver_time_grid(om1, 0.25, 256)
        t = np.arange(steps + 1) * dt
        slc = ws.SidewiseSlice(x0=0.0, times=t, u=np.zeros_like(t),
                               u_x=np.cos(t))
        with pytest.raises(ValueError, match="domain of dependence"):
            ws.sidewise_evolve(om1, slc, span=0.5)
        with pytest.raises(ValueError, match="direction"):
            ws.sidewise_evolve(om1, slc, span=0.05, direction="up")
        with pytest.raises(ValueError, match="domain"):
            ws.sidewise_evolve(om1, slc, span=0.5, direction="left")


class TestDOmega:
    def test_identity(self, om1):
        x = np.linspace(0, 1, 257)
        f = np.sin(np.pi * x)
        assert np.array_equal(ws.apply_D_omega(f, om1, 0), f)

    def test_single_power(self, om1):
        x = np.linspace(0, 1, 2049)
        r = ws.apply_D_omega(np.sin(np.pi * x), om1, 1)
        exact = -np.pi ** 2 * np.sin(np.pi * x)
        assert np.max(np.abs(r[1:-1] - exact[1:-1])) < 1e-5

    def test_double_power_weighted(self):
        om4 = make_baseline("constant", value=4.0)
        x = np.linspace(0, 1, 2049)
        r = ws.apply_D_omega(np.sin(2 * np.pi * x), om4, 2)
        exact = np.pi ** 4 * np.sin(2 * np.pi * x)
        rel = np.max(np.abs(r[2:-2] - exact[2:-2])) / np.pi ** 4
        assert rel < 1e-3

    def test_noise_floor_rejection(self, om1):
        x = np.linspace(0, 1, 65)
        with pytest.raises(ValueError, match="round-off"):
            ws.apply_D_omega(np.sin(np.pi * x), om1, 8)

    def test_negative_power_rejected(self, om1):
        with pytest.raises(ValueError, match="nonnegative"):
            ws.apply_D_omega(np.zeros(65), om1, -1)


class TestTraceSobolev:
    dt = 1e-3
    t = np.arange(0, 8.0 + 5e-4, 1e-3)

    def test_tone_ratio(self):
        for Om in (8 * np.pi, 16 * np.pi, 60.0):
            sig = np.sin(Om * self.t)
            h0 = ws.trace_sobolev_norm(sig, 0.0, self.dt)
            for beta in (0.5, 1.0, 2.0):
                hb = ws.trace_sobolev_norm(sig, beta, self.dt)
                pred = (1 + Om ** 2) ** (beta / 2)
                assert abs(hb / h0 / pred - 1) < 0.05

    def test_monotone_in_beta(self):
        sig = np.sin(25 * self.t) + 0.3 * np.cos(7 * self.t)
        vals = [ws.trace_sobolev_norm(sig, b, self.dt)
                for b in (0.0, 0.25, 0.5, 1.0, 1.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_parseval_at_zero(self):
        sig = np.sin(3 * self.t) * np.exp(-self.t)
        h0 = ws.trace_sobolev_norm(sig, 0.0, self.dt)
        n = len(sig)
        w = np.ones(n)
        e = max(2, int(0.1 * n))
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(e) / e))
        w[:e] = ramp
        w[-e:] = ramp[::-1]
        assert abs(h0 - math.sqrt(np.sum((sig * w) ** 2) * self.dt)) < 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ws.trace_sobolev_norm(np.sin(self.t), -0.5, self.dt)
        with pytest.raises(ValueError, match="short"):
            ws.trace_sobolev_norm(np.ones(8), 1.0, self.dt)


class TestProperties:
    @given(c=st.floats(min_value=-8.0, max_value=8.0,
                       allow_nan=False, allow_infinity=False))
    @settings(max_examples=10, deadline=None)
    def test_scaling_exact(self, c):
        om = make_baseline("constant", value=1.0)
        u0 = lambda x: np.sin(np.pi * x)
        base = ws.evolve(om, u0, None, T=0.4, resolution=128)
        scaled = ws.evolve(om, lambda x: c * u0(x), None,
                           T=0.4, resolution=128)
        assert np.allclose(scaled.levels[1], c * base.levels[1],
                           rtol=0, atol=1e-12 * max(1.0, abs(c)))

    @given(a1=st.floats(-1, 1), a2=st.floats(-1, 1), a3=st.floats(-1, 1))
    @settings(max_examples=10, deadline=None)
    def test_reversibility_random_data(self, a1, a2, a3):
        om = make_baseline(
            "custom",
            fn=lambda x: 1.5 + 0.5 * np.sin(3 * np.pi * x) * np.cos(np.pi * x),
            omega_lower=1.0, omega_upper=2.0)

        def u0(x):
            return (a1 * np.sin(np.pi * x) + a2 * np.sin(2 * np.pi * x)
                    + a3 * np.sin(3 * np.pi * x))

        fwd = ws.evolve(om, u0, None, T=0.6, resolution=128)
        back = ws.evolve(om, None, None, T=fwd.steps * fwd.dt,
                         resolution=128,
                         start_levels=(fwd.levels[1], fwd.levels[0]))
        scale = max(1.0, abs(a1) + abs(a2) + abs(a3))
        assert np.max(np.abs(back.levels[1] - u0(back.x))) < 1e-11 * scale

    @given(beta=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_sobolev_weight_lower_bound(self, beta):
        # H^beta >= H^0 always (the weight is >= 1)
        t = np.arange(0, 2.0, 1e-3)
        sig = np.sin(17 * t) * np.exp(-0.3 * t)
        h0 = ws.trace_sobolev_norm(sig, 0.0, 1e-3)
        hb = ws.trace_sobolev_norm(sig, beta, 1e-3)
        assert hb >= h0 * (1 - 1e-12)
