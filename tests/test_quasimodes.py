"""Tests for the quasimode solver.

Oracles in play:

* constant density -> exact trigonometric solution (also used to
  calibrate the long-horizon ODE invariant);
* trapping density, own interval -> the stored oscillator profile is an
  exact solution, so center values, extreme energies and boundary logs
  have closed forms;
* interior mass -> direct trapezoid of the sampled profile (independent
  of the geometric-sum formula the solver uses);
* powered transfer-matrix crossings -> the dense crossing of the same
  interval, and the period-by-period product of the same period matrices;
* Magnus engine -> the exact rotation (constant density) and a test-side
  DOP853 solve at rtol 3e-14 (smooth density; foreign crossing, with the
  density's own alpha evaluated one point at a time);
* closed-form w_eps -> the solver's sigma-space check, one engine march
  of w'' = -alpha w from the exact edge state inward to the center,
  compared with w and w' at cell edges and with the launch state (1, 0)
  at the center (the closed form is its subject; the engine is tested on
  its own above);
* generic reverse solve -> the launch state, reached from both boundary
  states by the collocation propagator, whose own oracles are the exact
  rotation (constant density) and errors planted in the engine's end
  states;
* Gronwall bounds -> checked on random pairs by the test-side
  certificate ``oracles.energy_gronwall_check`` (``tests/oracles.py``,
  which shares no code with the solver); the weighted bound is
  equality-tight for monotone envelopes, so its sup ratio is its own
  oracle.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from waveobs import quasimodes as qm
from waveobs.coeff import (
    FOUR_PI_SQ,
    TWO_PI,
    CounterexampleParams,
    SequenceEntry,
    build_oscillator_pair,
    make_baseline,
    make_counterexample_density,
    make_sequences,
)
from waveobs.quasimodes import (
    ScaleOutOfReach,
    _collocation_propagate,
    _cross_dense,
    _cross_powered,
    _magnus_propagate,
    _period_matrix,
    _state_energy_log,
    boundary_smallness_sweep,
    solve_quasimode,
)

from oracles import energy_gronwall_check

# --------------------------------------------------------------------------
# shared fixtures (module-scoped: the structured solves cost ~1 s each)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaled_params():
    return make_sequences(mode="scaled", j_range=range(2, 7))


@pytest.fixture(scope="module")
def scaled_density(scaled_params):
    return make_counterexample_density(scaled_params)


@pytest.fixture(scope="module")
def scaled_j2(scaled_density):
    return solve_quasimode(scaled_density, 2)


@pytest.fixture(scope="module")
def scaled_j6(scaled_density):
    return solve_quasimode(scaled_density, 6)


@pytest.fixture(scope="module")
def conc_params():
    return make_sequences(mode="concentrating", j_range=range(2, 7))


def _single_lambda_density(params, j):
    e = params.entry(j)
    single = CounterexampleParams(
        mode=params.mode, descriptor=params.descriptor,
        N=params.N, M=params.M, entries=(e,),
        cond_flags=tuple(f for f in params.cond_flags if f["j"] == j),
        notes=params.notes)
    return make_counterexample_density(single, family="lambda")[0]


def _engine(omega, *, h, m, r=None, rtol=1e-12, n_samples=4097,
            checks=True):
    """The generic path (Magnus engine from the center outward) on any
    density, constant and trapping ones included, which
    solve_quasimode sends to their closed forms instead."""
    return qm._solve_generic(omega, h, m, r, np.linspace(0.0, 1.0, n_samples),
                             rtol, checks)


# --------------------------------------------------------------------------
# constant density: exact trig oracle
# --------------------------------------------------------------------------


class TestConstantDensity:
    def test_unit_frequency_cosine(self):
        om = make_baseline("constant", value=FOUR_PI_SQ)
        res = solve_quasimode(om, h=1.0, m=0.5)
        expected = np.cos(TWO_PI * (res.x - 0.5))
        assert np.max(np.abs(res.phi - expected)) < 1e-14
        expected_p = -TWO_PI * np.sin(TWO_PI * (res.x - 0.5))
        assert np.max(np.abs(res.phi_prime - expected_p)) < 1e-13
        # phi(0) = cos(-pi) = -1, phi'(0) = 0: plain boundary energy 1
        assert abs(res.boundary_energy_0 - 1.0) < 1e-12
        assert abs(res.boundary_energy_1 - 1.0) < 1e-12
        assert res.stats["path"] == "constant-closed-form"

    def test_center_normalization(self):
        om = make_baseline("constant", value=9.0)
        res = solve_quasimode(om, h=3.5, m=0.25, r=0.5)
        i = int(np.argmin(np.abs(res.x - 0.25)))
        assert res.phi[i] == 1.0
        assert res.phi_prime[i] == 0.0

    def test_interval_mass_matches_quadrature(self):
        om = make_baseline("constant", value=9.0)
        res = solve_quasimode(om, h=3.5, m=0.25, r=0.5,
                              n_samples=(1 << 14) + 1)
        mask = (res.x >= 0.0) & (res.x <= 0.5)
        direct = float(np.trapezoid(res.phi[mask] ** 2, res.x[mask]))
        assert res.interior_mass == pytest.approx(direct, rel=1e-6)

    def test_forced_ode_matches_trig_short(self):
        om = make_baseline("constant", value=FOUR_PI_SQ)
        res = _engine(om, h=100.0, m=0.5, rtol=1e-13)
        expected = np.cos(TWO_PI * 100.0 * (res.x - 0.5))
        assert res.stats["path"] == "generic-ode"
        assert np.max(np.abs(res.phi - expected)) < 1e-9

    def test_forced_ode_long_horizon_invariant(self):
        # 1e4 oscillation periods at the solver floor: the relative
        # deviation from the exact rotation must stay below 1e-9
        om = make_baseline("constant", value=FOUR_PI_SQ)
        res = _engine(om, h=1e4, m=0.5, rtol=1e-13, checks=False)
        expected = np.cos(TWO_PI * 1e4 * (res.x - 0.5))
        dev = np.max(np.abs(res.phi - expected))
        assert dev < 1e-9, f"long-horizon deviation {dev:.3e}"


# --------------------------------------------------------------------------
# trapping density, structured path
# --------------------------------------------------------------------------


class TestStructuredScaled:
    def test_center_values_exact(self, scaled_density):
        for j in (2, 3, 4):
            res = solve_quasimode(scaled_density, j, checks=False,
                                  n_samples=4097)
            i = int(np.argmin(np.abs(res.x - res.m)))
            assert res.x[i] == res.m  # m = 3*2^-(j+1) is on the 2^-12 grid
            assert res.phi[i] == 1.0
            assert res.phi_prime[i] == 0.0

    def test_extreme_energy_closed_form(self, scaled_params, scaled_j2):
        e = scaled_params.entry(2)
        assert scaled_j2.extreme_energy_log == pytest.approx(
            -e.eps * e.n, rel=1e-12)
        assert scaled_j2.extreme_energy == pytest.approx(
            math.exp(-e.eps * e.n), rel=1e-12)

    def test_closed_form_agreement(self, scaled_density, conc_params):
        # the sigma-space march runs at the solver floor (rtol 3e-14)
        # but accumulates coherently over the half interval; measured
        # deviations sit at 9e-13 .. 2.4e-12 on the scaled family and at
        # 1.5e-11 / 2.9e-11 / 6.2e-11 (w) and 9.2e-11 / 1.8e-10 / 3.9e-10
        # (w') on the concentrating lambda members j = 2, 3, 4 (n = 240,
        # 582, 1406)
        rows = [(scaled_density, 2), (scaled_density, 4)]
        rows += [(_single_lambda_density(conc_params, j), j)
                 for j in (2, 3, 4)]
        for density, j in rows:
            res = solve_quasimode(density, j)
            assert res.flags == ()
            assert res.stats["closed_form_dev"] < 1e-10
            assert res.stats["closed_form_dev_prime"] < 5e-10
            assert res.stats["wronskian_dev"] < 1e-10

    def test_reverse_solve_within_conditioning(self, scaled_j2):
        # marching inward, the decaying closed form dominates: the march
        # amplifies no error, so the center state meets the launch state
        # (1, 0) at the tolerance floor's accumulated scale
        assert scaled_j2.stats["wronskian_dev"] <= 1e-11

    def test_one_engine_march_checks_a_mode(self, conc_params,
                                            monkeypatch):
        # a lambda member has no foreign interval, so the check's march
        # is the only engine run of a checked solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return _magnus_propagate(*args, **kwargs)

        monkeypatch.setattr(qm, "_magnus_propagate", counted)
        res = solve_quasimode(_single_lambda_density(conc_params, 2), 2)
        assert "wronskian_dev" in res.stats
        assert calls == [(0.5 * res.stats["n"], 0.0)]

    def test_interior_mass_vs_trapezoid(self, scaled_params):
        # oracle: direct quadrature of the closed-form profile on a grid
        # resolving the oscillation (independent of the geometric sum)
        e = scaled_params.entry(2)
        eps_bar = max(0.05, 1.01 * max(x.eps
                                       for x in scaled_params.entries))
        pair = build_oscillator_pair(e.eps, eps_bar=eps_bar)
        left, right = e.interval
        gx = np.linspace(left, right, 1 << 18)
        gv = pair.w(e.h * (gx - e.m))
        direct = float(np.trapezoid(gv * gv, gx))
        res = solve_quasimode(
            make_counterexample_density(scaled_params), 2, checks=False)
        assert res.interior_mass == pytest.approx(direct, rel=1e-9)

    def test_own_interval_samples_match_profile(self, scaled_params,
                                                scaled_j2):
        e = scaled_params.entry(2)
        eps_bar = max(0.05, 1.01 * max(x.eps
                                       for x in scaled_params.entries))
        pair = build_oscillator_pair(e.eps, eps_bar=eps_bar)
        mask = (scaled_j2.x >= e.interval[0]) & (scaled_j2.x <= e.interval[1])
        expected = pair.w(e.h * (scaled_j2.x[mask] - e.m))
        assert np.array_equal(scaled_j2.phi[mask], expected)

    def test_boundary_phase_alignment(self, scaled_params, scaled_j2):
        # h even => the rotation count over [1/2, 1] is whole, so the
        # right boundary energy equals the interval-edge energy exactly
        e = scaled_params.entry(2)
        assert scaled_j2.boundary_energy_1_log == pytest.approx(
            -e.eps * e.n, abs=1e-9)

    def test_samples_all_finite_with_default_budget(self, scaled_j6):
        assert np.all(np.isfinite(scaled_j6.phi))
        assert scaled_j6.stats["powered_spans"] == 0

    def test_result_summary_is_jsonable(self, scaled_j2):
        text = json.dumps(scaled_j2.to_summary())
        assert '"interior_mass"' in text


class TestClosedFormCheckSkips:
    """A skipped check of a trapping mode leaves a flag and no reading."""

    def test_check_budget_skips_both_checks(self, scaled_density,
                                            conc_params, monkeypatch):
        # concentrating j = 6 has n = 8232: the march would start from
        # 8 n = 65 856 cells, past the budget of 30 000
        res = solve_quasimode(_single_lambda_density(conc_params, 6), 6)
        assert res.flags == ("closed-form check skipped: 65856 initial "
                             "cells exceed the budget 30000",)
        # scaled j = 2 has n = 16: 8 n = 128 cells
        monkeypatch.setattr(qm, "_CHECK_BUDGET", 100)
        res = solve_quasimode(scaled_density, 2)
        for key in ("closed_form_dev", "closed_form_dev_prime",
                    "wronskian_dev"):
            assert key not in res.stats
        assert len(res.flags) == 1 and "skipped" in res.flags[0]


class TestPoweredCrossings:
    def test_rightward_powered_matches_dense(self, scaled_density,
                                             scaled_j6, monkeypatch):
        # force the deepest crossing (I_2 as seen from j=6) through the
        # per-period transfer matrix and compare the boundary state
        # against the default dense solve
        monkeypatch.setattr(qm, "_DENSE_BUDGET", 3000)
        forced = solve_quasimode(scaled_density, 6, checks=False)
        assert forced.stats["powered_spans"] >= 1
        assert np.isnan(forced.phi).any()
        assert abs(forced.boundary_energy_1_log
                   - scaled_j6.boundary_energy_1_log) < 1e-8

    def test_leftward_powered_matches_dense(self, scaled_density,
                                            scaled_j2, monkeypatch):
        monkeypatch.setattr(qm, "_DENSE_BUDGET", 10)
        forced = solve_quasimode(scaled_density, 2, checks=False)
        assert forced.stats["powered_spans"] >= 4
        assert abs(forced.boundary_energy_0_log
                   - scaled_j2.boundary_energy_0_log) < 1e-8

    def test_nan_samples_confined_to_powered_spans(self, scaled_density,
                                                   monkeypatch):
        # at this budget only the widest foreign interval ]1/4, 1/2]
        # (rightward from the j=6 mode) goes through the matrix path:
        # its samples are NaN, everything outside it stays finite
        monkeypatch.setattr(qm, "_DENSE_BUDGET", 3000)
        forced = solve_quasimode(scaled_density, 6, checks=False)
        bad = np.isnan(forced.phi)
        assert bad.any()
        assert np.min(forced.x[bad]) > 0.25
        assert np.max(forced.x[bad]) == pytest.approx(0.5, abs=1e-12)
        n_grid = np.count_nonzero((forced.x > 0.25) & (forced.x <= 0.5))
        assert int(bad.sum()) == n_grid


# --------------------------------------------------------------------------
# Magnus transfer-matrix engine against independent oracles
# --------------------------------------------------------------------------


def _smooth_custom():
    def fn(x):
        return 4.0 + np.sin(TWO_PI * x) + 0.5 * np.cos(2 * TWO_PI * x)
    return make_baseline("custom", fn=fn, omega_lower=2.4, omega_upper=5.6)


def _dop853(omega_at, h, x0, x1, y0):
    """Test-side DOP853 solve of phi'' + h^2 omega phi = 0 at rtol 3e-14;
    ``omega_at`` is a scalar evaluator."""
    def rhs(x, y):
        return (y[1], -h * h * omega_at(x) * y[0])
    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=3e-14,
                    atol=[1e-16, 1e-16 * h], dense_output=True)
    assert sol.success
    return sol


def _powered_oracle_entry(n, eps=1e-3):
    """A foreign interval ]7/16, 9/16] packing n coefficient periods."""
    return SequenceEntry(j=9, r=0.125, m=0.5, h=8.0 * n, n=float(n),
                         eps=eps, eps_h_r=eps * n)


class TestMagnusEngine:
    def test_constant_density_exact_rotation(self):
        # Magnus cells are exact for constant omega: only round-off remains
        om = make_baseline("constant", value=FOUR_PI_SQ)
        h = 64.0
        res = _engine(om, h=h, m=0.5, checks=False)
        ph = TWO_PI * h * (res.x - 0.5)
        assert np.max(np.abs(res.phi - np.cos(ph))) < 1e-12
        assert np.max(np.abs(res.phi_prime / (TWO_PI * h)
                             + np.sin(ph))) < 1e-12

    def test_negative_coefficient_exact_cosh(self):
        # q < 0 takes the hyperbolic branch of the cell exponential:
        # phi'' = k^2 phi from (1, 0) is cosh(k x), again exact
        k = 3.0
        at = np.linspace(0.0, 2.0, 9)
        logs, mats, _ = _magnus_propagate(
            lambda x: np.full_like(x, -k * k), 0.0, 2.0, k, 1e-12, 0.1, at)
        x = np.append(at, 2.0)
        amp = np.exp(logs)
        np.testing.assert_allclose(amp * mats[0], np.cosh(k * x),
                                   rtol=1e-13)
        np.testing.assert_allclose(amp * mats[2], np.sinh(k * x),
                                   rtol=1e-13, atol=1e-15)

    def test_smooth_custom_matches_dop853(self):
        om = _smooth_custom()
        h = 8.0
        res = solve_quasimode(om, h=h, m=0.5, n_samples=1025, checks=False)
        kappa = h * math.sqrt(om.omega_upper)
        for target, sel in ((1.0, res.x >= 0.5), (0.0, res.x < 0.5)):
            ref = _dop853(lambda x: float(om(np.array([x]))[0]), h, 0.5,
                          target, [1.0, 0.0]).sol(res.x[sel])
            assert np.max(np.abs(res.phi[sel] - ref[0])) < 1e-10
            assert np.max(np.abs(res.phi_prime[sel] - ref[1])) \
                < 1e-10 * kappa

    def test_scaled_foreign_crossing_matches_dop853(self, scaled_params,
                                                    scaled_density):
        # the j = 2 mode leaves its interval at x = 1/4 and crosses
        # I_3 = ]1/8, 1/4] leftward; DOP853 restarts from the sampled
        # state at 1/4, with omega = alpha_3(h_3 (x - m_3)) evaluated one
        # point at a time by the density's own pair
        res = solve_quasimode(scaled_density, 2, checks=False, n_samples=4097)
        e3 = scaled_params.entry(3)
        pair = scaled_density.trapping.pairs[3]

        def alpha(s):
            return float(pair.alpha(np.array([s]))[0])

        i0 = int(np.argmin(np.abs(res.x - 0.25)))
        assert res.x[i0] == 0.25
        span = (res.x >= 0.125) & (res.x < 0.25)
        sol = _dop853(lambda x: alpha(e3.h * (x - e3.m)), res.h, 0.25,
                      0.125, [res.phi[i0], res.phi_prime[i0]])
        ref = sol.sol(res.x[span])
        assert np.max(np.abs(res.phi[span] - ref[0])) < 1e-10
        assert np.max(np.abs(res.phi_prime[span] - ref[1])) \
            < 1e-10 * TWO_PI * res.h

    def test_powered_matches_straight_crossing(self):
        # 4000 coefficient periods: whole-period powers against the
        # engine run cell by cell across the whole interval in x
        n = 4000
        entry = _powered_oracle_entry(n, eps=1e-4)
        pair = build_oscillator_pair(entry.eps)
        h = 0.3 * entry.h
        kappa = TWO_PI * h
        state = (0.0, 0.6, 0.8 * kappa)
        lo, hi = entry.interval
        for direction, (near, far) in ((+1, (lo, hi)), (-1, (hi, lo))):
            powered, info = _cross_powered(pair, entry, h, state,
                                           direction, 1e-12)
            straight = _cross_dense(pair, entry, h, state, near, far,
                                    1e-12, None)[0]
            assert info["periods"] == n
            assert abs(_state_energy_log(powered, kappa)
                       - _state_energy_log(straight, kappa)) < 1e-9

    def test_powered_beyond_old_period_cap(self):
        # n/2 = 200,002 periods per half: past the 200,000 applications
        # the period-by-period crossing allowed.  Oracle: the straight
        # period-by-period product of the same engine period matrix
        n = 400_004
        entry = _powered_oracle_entry(n)
        pair = build_oscillator_pair(entry.eps)
        h = 0.3 * entry.h
        kappa = TWO_PI * h
        state = (0.0, 0.6, 0.8 * kappa)
        powered, info = _cross_powered(pair, entry, h, state, +1, 1e-12)
        assert info["periods"] == n

        mat, _, _ = _period_matrix(pair, h / entry.h, 1e-12)
        (a, b), (c, d) = mat.tolist()
        log_mag, v0, v1 = 0.0, 0.6, 0.8
        # rightward: the mirrored half R M^{-1} R, then M itself
        for m00, m01, m10, m11 in ((d, b, c, a), (a, b, c, d)):
            for i in range(n // 2):
                v0, v1 = m00 * v0 + m01 * v1, m10 * v0 + m11 * v1
                if i % 64 == 63:
                    scale = math.hypot(v0, v1)
                    log_mag += math.log(scale)
                    v0, v1 = v0 / scale, v1 / scale
        straight = (log_mag, v0, v1 * kappa)
        assert abs(_state_energy_log(powered, kappa)
                   - _state_energy_log(straight, kappa)) < 1e-9

    @pytest.mark.parametrize("chunk", [7, 8])
    @pytest.mark.parametrize("x0, x1", [(0.0, 1.0), (1.0, 0.0)])
    def test_states_independent_of_chunk(self, monkeypatch, chunk, x0, x1):
        # 64 initial cells of width 1/64, each refined several times; the
        # states at edges on both sides of every chunk boundary (and at
        # the end) must not depend on where the chunks are cut, and the
        # refinement decisions (hence nfev) must not move at all
        kappa = TWO_PI * 8.0

        def q(x):
            return kappa ** 2 * (1.0 + 0.3 * np.sin(5.0 * x))

        at = np.arange(1, 64) / 64.0

        def states():
            logs, mats, nfev = _magnus_propagate(q, x0, x1, kappa, 1e-12,
                                                 1.0 / 64.0, at)
            return np.exp(logs) * mats, nfev

        ref, ref_nfev = states()
        monkeypatch.setattr(qm, "_CHUNK_CELLS", chunk)
        got, nfev = states()
        assert ref_nfev > 6 * 64      # the cells were refined
        assert nfev == ref_nfev
        scale = np.max(np.abs(ref), axis=0)
        assert np.max(np.abs(got - ref) / scale) <= 1e-12


# --------------------------------------------------------------------------
# generic path (no structure assumed)
# --------------------------------------------------------------------------


class TestGenericDensity:
    def _smooth(self):
        def fn(x):
            return 4.0 + np.sin(TWO_PI * x) + 0.5 * np.cos(2 * TWO_PI * x)
        return make_baseline("custom", fn=fn, omega_lower=2.4,
                             omega_upper=5.6)

    def test_wronskian_and_mass(self):
        res = solve_quasimode(self._smooth(), h=8.0, m=0.5, r=0.5,
                              n_samples=4097)
        assert res.stats["path"] == "generic-ode"
        assert res.stats["wronskian_dev"] < 1e-11
        assert res.flags == ()
        mask = (res.x >= 0.25) & (res.x <= 0.75)
        direct = float(np.trapezoid(res.phi[mask] ** 2, res.x[mask]))
        # both routes are second-order quadratures of an oscillatory
        # integrand; ~1e-6 agreement is their common truncation floor
        assert res.interior_mass == pytest.approx(direct, rel=1e-5)

    def test_generic_matches_structured_on_lambda_density(self,
                                                          scaled_params):
        # dual route: the generic adaptive solver, fed the same density
        # and launch point, must reproduce the structural assembly
        om = _single_lambda_density(scaled_params, 2)
        e = scaled_params.entry(2)
        structured = solve_quasimode(om, 2, checks=False, n_samples=1025)
        generic = _engine(om, h=e.h, m=e.m, r=e.interval[1] - e.interval[0],
                          rtol=1e-13, n_samples=1025, checks=False)
        assert np.max(np.abs(structured.phi - generic.phi)) < 1e-8
        assert structured.boundary_energy_0_log == pytest.approx(
            generic.boundary_energy_0_log, abs=1e-8)

    def test_generic_matches_structured_across_flat_gap(self):
        # without I_3 the walks of j = 2 and j = 4 rotate across the flat
        # gap ]1/8, 1/4] between their interval and the foreign one
        params = make_sequences(mode="scaled", j_range=(2, 4))
        om = make_counterexample_density(params)
        assert params.entry(4).interval[1] < params.entry(2).interval[0]
        for j in (2, 4):
            e = params.entry(j)
            structured = solve_quasimode(om, j, checks=False, n_samples=1025)
            assert structured.stats["dense_spans"] == 1
            generic = _engine(om, h=e.h, m=e.m, r=e.r, rtol=1e-13,
                              n_samples=1025, checks=False)
            for side in ("boundary_energy_0_log", "boundary_energy_1_log"):
                assert getattr(structured, side) == pytest.approx(
                    getattr(generic, side), abs=1e-8)

    def test_h_ceiling_out_of_reach(self):
        om = make_baseline("constant", value=FOUR_PI_SQ)
        with pytest.raises(ScaleOutOfReach):
            solve_quasimode(om, h=1e13, m=0.5)

    def test_collocation_constant_density_exact_rotation(self):
        # the reverse check's own oracle: for q == nu^2 the exact
        # propagator of (phi, phi'/nu) is a rotation by nu (x1 - x0)
        nu = 8.0
        log_scale, mat, _ = _collocation_propagate(
            lambda x: np.full_like(x, nu * nu), 1.0, 0.0, nu, 1e-12, 1 / 64)
        c, s = math.cos(nu), math.sin(nu)
        np.testing.assert_allclose(math.exp(log_scale) * mat,
                                   [[c, -s], [s, c]], atol=1e-11)

    def test_reverse_check_runs_off_the_engine(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return _magnus_propagate(*args, **kwargs)

        monkeypatch.setattr(qm, "_magnus_propagate", counted)
        res = solve_quasimode(self._smooth(), h=8.0, m=0.5)
        assert "wronskian_dev" in res.stats
        # the forward halves only
        assert calls == [(0.5, 1.0), (0.5, 0.0)]

    @pytest.mark.parametrize("target", [1.0, 0.0], ids=["right", "left"])
    def test_reverse_check_sees_planted_error(self, monkeypatch, target):
        # a 1e-8 relative error in either forward end state must show
        def planted(q, x0, x1, *args, **kwargs):
            logs, mats, nfev = _magnus_propagate(q, x0, x1, *args, **kwargs)
            if x1 == target:
                mats[:, -1] *= 1.0 + 1e-8
            return logs, mats, nfev

        monkeypatch.setattr(qm, "_magnus_propagate", planted)
        res = solve_quasimode(make_baseline("log-lipschitz"), h=100.0,
                              m=0.5, r=0.5)
        assert res.stats["wronskian_dev"] >= 1e-9

    def test_check_budget_caps_each_half(self, monkeypatch):
        # 16 h (1 - m) = 32 initial cells on the right, 96 on the left
        monkeypatch.setattr(qm, "_CHECK_BUDGET", 64)
        res = solve_quasimode(self._smooth(), h=8.0, m=0.75)
        assert res.stats["wronskian_dev"] < 1e-11
        assert len(res.flags) == 1
        assert "reverse check from x = 0 skipped" in res.flags[0]

    def test_reverse_check_skipped_beyond_open_cell_cap(self, monkeypatch):
        # h = 8 on this density splits cells at rtol 1e-12, so with no
        # open cells allowed both halves give up instead of refining
        monkeypatch.setattr(qm, "_COLLOCATION_MAX_OPEN", 0)
        res = solve_quasimode(self._smooth(), h=8.0, m=0.5)
        assert "wronskian_dev" not in res.stats
        assert len(res.flags) == 2
        assert all("open cells" in f for f in res.flags)


# --------------------------------------------------------------------------
# input validation
# --------------------------------------------------------------------------


class TestValidation:
    def test_j_on_generic_density_rejected(self):
        om = make_baseline("constant", value=1.0)
        with pytest.raises(ValueError, match="trapping-density"):
            solve_quasimode(om, 3)

    def test_missing_h_rejected(self):
        om = make_baseline("constant", value=1.0)
        with pytest.raises(ValueError, match="h and m"):
            solve_quasimode(om)

    def test_h_on_structured_density_rejected(self, scaled_density):
        with pytest.raises(ValueError, match="selected by j"):
            solve_quasimode(scaled_density, 2, h=64.0)

    def test_lambda_member_defaults_to_active_j(self, conc_params):
        lam = _single_lambda_density(conc_params, 2)
        implicit = solve_quasimode(lam, checks=False)
        explicit = solve_quasimode(lam, 2, checks=False)
        assert implicit.j == 2
        assert np.array_equal(implicit.phi, explicit.phi)

    def test_psi_density_without_j_rejected(self, scaled_density):
        with pytest.raises(ValueError, match="pass j"):
            solve_quasimode(scaled_density)

    def test_unknown_j_rejected(self, scaled_density):
        with pytest.raises((KeyError, ValueError)):
            solve_quasimode(scaled_density, 11)

    def test_bad_rtol_rejected(self):
        om = make_baseline("constant", value=1.0)
        with pytest.raises(ValueError, match="rtol"):
            solve_quasimode(om, h=1.0, m=0.5, rtol=1e-3)

    @pytest.mark.parametrize("kind", ["constant", "log-lipschitz"])
    def test_nan_rtol_rejected(self, kind):
        with pytest.raises(ValueError, match="rtol"):
            solve_quasimode(make_baseline(kind), h=10.0, m=0.5,
                            rtol=math.nan)

    @pytest.mark.parametrize("r", [-0.2, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["constant", "log-lipschitz"])
    def test_bad_interval_width_rejected(self, kind, r):
        # r < 0 swapped the interval ends and gave a negative mass
        with pytest.raises(ValueError, match="r must"):
            solve_quasimode(make_baseline(kind), h=10.0, m=0.5, r=r)

    def test_bad_n_samples_rejected(self):
        om = make_baseline("constant", value=1.0)
        with pytest.raises(ValueError, match="n_samples"):
            solve_quasimode(om, h=1.0, m=0.5, n_samples=1)

    def test_bad_launch_point_rejected(self):
        om = make_baseline("constant", value=1.0)
        with pytest.raises(ValueError, match="launch"):
            solve_quasimode(om, h=1.0, m=1.5)


# --------------------------------------------------------------------------
# scale guards
# --------------------------------------------------------------------------


class TestScaleOutOfReach:
    def test_structured_energy_scale_guard(self):
        # eps*n beyond the log ceiling: the mode exists mathematically
        # but none of its headline numbers fit in a double (the decay
        # budget is anchored at the first j, so deep js must come from
        # a range that starts shallow)
        params = make_sequences(mode="concentrating", j_range=range(2, 9))
        om = _single_lambda_density(params, 8)
        with pytest.raises(ScaleOutOfReach, match="extreme energy"):
            solve_quasimode(om, 8)

    def test_paper_strict_sweep_truncates_immediately(self):
        rep = boundary_smallness_sweep(mode="paper-strict", family="psi",
                                       j_range=range(2, 5), N=2)
        assert rep.rows == ()
        assert rep.truncated_at == 2
        assert rep.truncation_reason

    def test_lambda_sqrt_log_reaches_only_j2(self):
        rep = boundary_smallness_sweep(mode="lambda", family="lambda",
                                       j_range=range(2, 5),
                                       lam="sqrt-log", N=1)
        assert len(rep.rows) == 1
        assert rep.rows[0]["j"] == 2
        assert rep.truncated_at == 3
        # the j=2 row is fully in reach and exactly aligned
        row = rep.rows[0]
        assert row["boundary_energy_0_log"] == pytest.approx(
            -row["eps"] * row["n"], abs=1e-6)


# --------------------------------------------------------------------------
# Gronwall energy bounds
# --------------------------------------------------------------------------


class TestGronwall:
    def test_constant_density_is_exact(self):
        om = make_baseline("constant", value=FOUR_PI_SQ)
        res = solve_quasimode(om, h=4.0, m=0.5)
        rep = energy_gronwall_check(res, om, n_random=100, seed=1)
        # gap integrand vanishes: E is conserved, ratio exactly <= 1
        assert rep.ok
        assert rep.ratio_sup_E <= 1.0 + 1e-12
        assert rep.ratio_sup_Et <= 1.0 + 1e-12

    def test_structured_density_bounds(self, scaled_density, scaled_j2):
        rep = energy_gronwall_check(scaled_j2, scaled_density,
                                    n_random=200, seed=3)
        assert rep.ok
        assert not rep.tilde_declined
        assert rep.ratio_sup_E <= 1.0 + 1e-6
        assert rep.ratio_sup_Et <= 1.0 + 1e-6

    def test_edge_to_boundary_pair(self, scaled_params, scaled_density,
                                   scaled_j2):
        e = scaled_params.entry(2)
        rep = energy_gronwall_check(scaled_j2, scaled_density,
                                    x_pairs=[(e.interval[0], 0.0)])
        rec = rep.records[0]
        assert rec["ratio_E"] <= 1.0 + 1e-9
        assert rec["exponent_E"] > 0.0

    def test_tilde_declined_without_differentiability(self):
        # few-term variant: the decline is keyed on the density KIND
        # (no differentiability guarantee), not on the actual roughness,
        # and the full 24-term coefficient has frequency content at 2^23
        # that no honest adaptive solve can resolve in test time
        om = make_baseline("weierstrass-zygmund", n_terms=8)
        res = solve_quasimode(om, h=6.0, m=0.5, checks=False)
        rep = energy_gronwall_check(res, om, n_random=50, seed=0)
        assert rep.tilde_declined
        assert rep.ratio_sup_Et is None
        assert "differentiability" in rep.decline_reason
        # the plain bound still holds
        assert rep.ratio_sup_E <= 1.0 + 1e-6

    def test_tilde_forced_on_smooth_custom(self):
        def fn(x):
            return 4.0 + np.sin(TWO_PI * x)
        om = make_baseline("custom", fn=fn, omega_lower=2.9,
                           omega_upper=5.1)
        res = solve_quasimode(om, h=5.0, m=0.5, checks=False)
        rep = energy_gronwall_check(res, om, n_random=100, seed=2,
                                    assume_differentiable=True)
        assert rep.ok
        assert rep.ratio_sup_Et <= 1.0 + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(a1=st.floats(-0.8, 0.8), a2=st.floats(-0.5, 0.5),
           h=st.floats(2.0, 10.0), seed=st.integers(0, 1000))
    def test_property_bounds_hold_on_smooth_densities(self, a1, a2, h,
                                                      seed):
        def fn(x, a1=a1, a2=a2):
            return 4.0 + a1 * np.sin(TWO_PI * x) + a2 * np.cos(
                2 * TWO_PI * x)
        om = make_baseline("custom", fn=fn,
                           omega_lower=4.0 - abs(a1) - abs(a2) - 0.1,
                           omega_upper=4.0 + abs(a1) + abs(a2) + 0.1)
        res = solve_quasimode(om, h=h, m=0.5, n_samples=1025, checks=False)
        rep = energy_gronwall_check(res, om, n_random=25, seed=seed,
                                    assume_differentiable=True)
        assert rep.ratio_sup_E <= 1.0 + 1e-6
        assert rep.ratio_sup_Et <= 1.0 + 1e-6


# --------------------------------------------------------------------------
# boundary-smallness sweeps
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaled_sweep():
    return boundary_smallness_sweep(mode="scaled", family="psi",
                                    j_range=range(2, 7))


@pytest.fixture(scope="module")
def conc_sweep():
    return boundary_smallness_sweep(mode="concentrating", family="lambda",
                                    j_range=range(2, 7))


class TestSweeps:
    def test_scaled_sweep_completes(self, scaled_sweep):
        assert len(scaled_sweep.rows) == 5
        assert scaled_sweep.truncated_at is None

    def test_scaled_slopes_not_steepening(self, scaled_sweep):
        # measured fact: with eps_j h_j = log^2(h_j) the decay budget
        # eps_j n_j ~ log^2(h_j)/2^j SHRINKS with j, so the boundary
        # energies grow and the slope magnitudes do not increase
        assert scaled_sweep.slope_magnitudes_increasing is False

    def test_scaled_edge_bound_holds_at_j2(self, scaled_sweep):
        rows = {r["j"]: r for r in scaled_sweep.rows}
        assert rows[2]["edge_bound_ok"] is True
        assert rows[3]["edge_bound_ok"] is True

    def test_interior_mass_lower_bound(self, scaled_sweep):
        # mass >= C / h^3 with C taken from the first row (the measured
        # trend has mass*h^3 increasing, so the bound holds with margin)
        rows = scaled_sweep.rows
        c0 = rows[0]["interior_mass"] * rows[0]["h"] ** 3
        for r in rows:
            assert r["interior_mass"] >= 0.99 * c0 / r["h"] ** 3

    def test_tail_ratios_exactly_one(self, scaled_sweep):
        for r in scaled_sweep.rows:
            assert r["tail_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_concentrating_lambda_slopes_steepen(self, conc_sweep):
        assert len(conc_sweep.rows) == 5
        assert conc_sweep.truncated_at is None
        assert conc_sweep.slope_magnitudes_increasing is True

    def test_concentrating_boundary_decay_exact(self, conc_sweep):
        # whole rotations on both sides: boundary energy = e^{-eps n}
        # exactly, on both edges
        for r in conc_sweep.rows:
            assert r["boundary_energy_0_log"] == pytest.approx(
                -r["eps"] * r["n"], abs=1e-6)
            assert r["boundary_energy_1_log"] == pytest.approx(
                -r["eps"] * r["n"], abs=1e-6)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            boundary_smallness_sweep(mode="scaled", family="mu")


# --------------------------------------------------------------------------
# observability-facing sample values
# --------------------------------------------------------------------------


class TestBoundaryTraceValues:
    def test_lambda_mode_edge_values(self, conc_params):
        # the control experiments read phi(0), phi(1) (the forcing
        # amplitudes) straight from the samples; for the concentrating
        # family both equal +-e^{-eps n / 2} with phi' ~ 0 there
        om = _single_lambda_density(conc_params, 2)
        e = conc_params.entry(2)
        res = solve_quasimode(om, 2, checks=False)
        target = math.exp(-0.5 * e.eps * e.n)
        assert abs(res.phi[0]) == pytest.approx(target, rel=1e-9)
        assert abs(res.phi[-1]) == pytest.approx(target, rel=1e-9)
        kappa = TWO_PI * res.h
        assert abs(res.phi_prime[0]) < 1e-9 * kappa * target
        assert abs(res.phi_prime[-1]) < 1e-9 * kappa * target

    def test_deterministic_resolve(self, conc_params):
        om = _single_lambda_density(conc_params, 3)
        a = solve_quasimode(om, 3, checks=False)
        b = solve_quasimode(om, 3, checks=False)
        assert np.array_equal(a.phi, b.phi)
        assert a.boundary_energy_0_log == b.boundary_energy_0_log
