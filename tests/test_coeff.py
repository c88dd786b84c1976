"""Tests for coefficient construction.

The oscillator pair is checked against an independent finite-difference
oracle (w'' + alpha w = 0 residual), exact-decay values at integer
arguments, and stability of the measured constants across eps.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveobs import coeff

FOUR_PI_SQ = 4.0 * math.pi ** 2


# --------------------------------------------------------------------------
# oscillator pair: independent oracles
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair():
    return coeff.build_oscillator_pair(0.048)


@pytest.fixture(scope="module")
def params():
    return coeff.make_sequences(mode="concentrating", j_range=range(2, 5))


@pytest.fixture(scope="module")
def dens(params):
    return coeff.make_counterexample_density(params)


class TestOscillatorPair:
    def test_ode_residual_finite_difference(self, pair):
        # oracle: w'' + alpha w = 0 via central differences on a fine grid,
        # independent of the closed form used to build alpha
        h = 1e-5
        x = np.linspace(0.11, 3.9, 2001)  # away from endpoint clipping
        w = pair.w(x)
        wpp = (pair.w(x + h) - 2 * w + pair.w(x - h)) / h ** 2
        resid = wpp + pair.alpha(x) * w
        scale = np.max(np.abs(pair.alpha(x) * w))
        assert np.max(np.abs(resid)) / scale < 5e-5

    def test_w_prime_consistent_with_w(self, pair):
        h = 1e-6
        x = np.linspace(0.2, 2.8, 801)
        fd = (pair.w(x + h) - pair.w(x - h)) / (2 * h)
        assert np.max(np.abs(fd - pair.w_prime(x))) < 1e-4

    def test_exact_decay_at_integers(self, pair):
        # the defining normalization: w(n) = exp(-eps n) exactly
        for n in (0, 1, 2, 7, 20, 100, 500):
            got = pair.w(np.array([float(n)]))[0]
            want = math.exp(-0.048 * n)
            assert abs(got - want) <= 1e-9 * want

    def test_eta_hits_integers(self, pair):
        ns = np.arange(0.0, 50.0)
        assert np.max(np.abs(pair.eta(ns) - ns)) < 1e-9

    def test_decay_rate_fit_is_one(self, pair):
        # envelope decay per period equals eps itself (fitted over integers)
        assert abs(pair.decay_c - 1.0) < 1e-6

    def test_alpha_flat_near_integers(self, pair):
        # chi vanishes identically near integer arguments, hence alpha is
        # exactly the free value there
        assert pair.flat_radius > 0.01
        offs = np.linspace(-pair.flat_radius, pair.flat_radius, 41)
        for n in (0, 1, 5):
            vals = pair.alpha(n + offs)
            assert np.max(np.abs(vals - FOUR_PI_SQ)) == 0.0

    def test_alpha_periodic(self, pair):
        x = np.linspace(0.0, 1.0, 4001)
        assert np.max(np.abs(pair.alpha(x) - pair.alpha(x + 3.0))) < 1e-12

    def test_hyperbolicity_window(self, pair):
        x = np.linspace(0.0, 1.0, 200001)
        v = pair.alpha(x)
        assert v.min() > 0.9 * FOUR_PI_SQ
        assert v.max() < 1.1 * FOUR_PI_SQ
        assert v.min() >= pair.alpha_min - 1e-12
        assert v.max() <= pair.alpha_max + 1e-12

    def test_gamma_positive_and_stable(self, pair):
        assert pair.gamma > 0
        other = coeff.build_oscillator_pair(0.012)
        assert other.gamma > 0
        assert abs(other.gamma - pair.gamma) / pair.gamma < 0.1

    def test_M_constant_stable_across_eps(self, pair):
        other = coeff.build_oscillator_pair(0.002)
        assert abs(other.M - pair.M) / pair.M < 0.1

    def test_M_bounds_measured_sups(self, pair):
        x = np.linspace(0.0, 1.0, 100001)
        sup_a = np.max(np.abs(pair.alpha(x) - FOUR_PI_SQ)) / pair.eps
        h = 1e-6
        ap = (pair.alpha(x + h) - pair.alpha(x - h)) / (2 * h)
        sup_ap = np.max(np.abs(ap)) / pair.eps
        assert sup_a <= pair.M * (1 + 1e-6)
        assert sup_ap <= pair.M * (1 + 1e-3)

    def test_mirror_search_on_symmetric_knots(self):
        # symmetric ramps make the gamma functional vanish at leading
        # order; the builder must return a strictly positive gamma
        # (0.00113 at eps = 0.048) or raise a clear error
        try:
            p = coeff.build_oscillator_pair(
                0.048, knots=(0.10, 0.25, 0.75, 0.90))
            assert p.gamma > 0
        except ValueError as err:
            assert "gamma" in str(err)

    def test_mirrored_knots_raise(self):
        # the knots are used as given: the mirror image of DEFAULT_KNOTS
        # reads gamma = -0.0169 at eps = 0.048 and is refused, not
        # swapped back for a pair on other knots
        mirrored = tuple(1.0 - k for k in coeff.DEFAULT_KNOTS[::-1])
        with pytest.raises(ValueError,
                           match=r"non-positive \(gamma=-1\.686e-02\)"):
            coeff.build_oscillator_pair(0.048, knots=mirrored)

    def test_gauss_rule_is_leggauss(self):
        # the written-out 8-node rule against numpy's; LAPACK may move
        # leggauss by an ulp, so equal bits are not asked for
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.max(np.abs(coeff._GAUSS_NODES - nodes)) <= 1e-15
        assert np.max(np.abs(coeff._GAUSS_WEIGHTS - weights)) <= 1e-15

    @pytest.mark.parametrize("knots", [coeff.DEFAULT_KNOTS,
                                       (0.2, 0.3, 0.5, 0.9)])
    def test_cutoff_is_the_smoothstep_plateau(self, knots):
        # one ramp formula: the cutoff is bitwise the plateau built from
        # the smoothstep, smoothstep(up) * (1 - smoothstep(down))
        a, b, c, d = knots
        u = np.random.default_rng(5).uniform(-2.0, 3.0, 200_000)
        w = np.mod(u, 1.0)
        ref = (coeff._smoothstep((w - a) / (b - a))
               * (1.0 - coeff._smoothstep((w - c) / (d - c))))
        assert np.array_equal(coeff._chi(u, knots), ref)

    @pytest.mark.parametrize("knots", [
        coeff.DEFAULT_KNOTS, tuple(1.0 - k for k in coeff.DEFAULT_KNOTS[::-1]),
        (0.2, 0.3, 0.5, 0.9), (0.1, 0.2, 0.2, 0.3)])
    def test_ramp_matches_full_array_formula(self, knots):
        # independent oracle: exp(-1/t) on every point, np.mod for the
        # period, and the plateau's combination; the ramp-only evaluation
        # must reproduce it bitwise, sign bits included
        def sigma(t):
            val = np.zeros_like(t)
            slope = np.zeros_like(t)
            pos = t > 0.0
            val[pos] = np.exp(-1.0 / t[pos])
            slope[pos] = val[pos] / t[pos] ** 2
            return val, slope

        def ramp(t):
            p, pp = sigma(t)
            q, qp = sigma(1.0 - t)
            return p / (p + q), (pp * q + p * qp) / (p + q) ** 2

        def chi_and_slope(u):
            u = np.mod(u, 1.0)
            up, up_p = ramp((u - a) / (b - a))
            down, down_p = ramp((u - c) / (d - c))
            dn = 1.0 - down
            return up * dn, up_p / (b - a) * dn + up * (-down_p / (d - c))

        def same(x, y):
            return (np.array_equal(x, y)
                    and np.array_equal(np.signbit(x), np.signbit(y)))

        a, b, c, d = knots
        k = np.array(knots)
        u = np.random.default_rng(11).uniform(-4.0, 5.0, 1_000_000)
        inputs = [u, np.concatenate([k, k + 1.0]),
                  u[:3000].reshape(50, 60), np.array([])]
        for x in inputs:
            got, ref = coeff._chi_and_slope(x, knots), chi_and_slope(x)
            assert got[0].shape == x.shape
            assert same(got[0], ref[0]) and same(got[1], ref[1])
            assert same(coeff._smoothstep(x), ramp(x)[0])

    def test_ramp_nan_and_tiny_arguments(self):
        # NaN in gives NaN out; at 1e-300 t**2 underflows to 0 and at
        # 5e-324 -1/t overflows, yet the slope is 0, not 0/0; none warns
        t = np.array([np.nan, 1e-300, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, slope = coeff._ramp(t)
            step = coeff._smoothstep(t)
            chi, chi_p = coeff._chi_and_slope(np.array([np.nan]),
                                              coeff.DEFAULT_KNOTS)
        assert np.isnan(val[0]) and np.isnan(slope[0]) and np.isnan(step[0])
        assert np.array_equal(val[1:], [0.0, 0.0])
        assert np.array_equal(slope[1:], [0.0, 0.0])
        assert np.array_equal(step[1:], [0.0, 0.0])
        assert np.isnan(chi[0]) and np.isnan(chi_p[0])

    @pytest.mark.parametrize("knots", [coeff.DEFAULT_KNOTS,
                                       (0.2, 0.3, 0.5, 0.9)])
    @pytest.mark.parametrize("eps", [0.048, 0.0432, 0.01])
    def test_knot_tables_match_alpha_on_dense_grid(self, eps, knots):
        # the measured sups come from the cached eps-free factors; they
        # are bitwise those of pair.alpha evaluated afresh on the grid
        p = coeff.build_oscillator_pair(eps, knots=knots)
        n = coeff._DENSE_CHECK
        al = p.alpha((np.arange(n) + 0.5) / n)
        dal = (al[2:] - al[:-2]) * (n / 2.0)
        assert p.M_alpha == float(np.max(np.abs(al - FOUR_PI_SQ)) / eps)
        assert p.M_alpha_prime == float(np.max(np.abs(dal)) / eps)
        assert p.alpha_min == float(al.min())
        assert p.alpha_max == float(al.max())

    def test_knot_tables_built_once_per_knot_set(self, monkeypatch):
        dense_calls = []
        chi_and_slope = coeff._chi_and_slope

        def counted(u, knots):
            if np.size(u) == coeff._DENSE_CHECK:
                dense_calls.append(tuple(knots))
            return chi_and_slope(u, knots)

        monkeypatch.setattr(coeff, "_chi_and_slope", counted)
        coeff._knot_tables.cache_clear()
        knots = (0.2, 0.3, 0.5, 0.9)
        pairs = [coeff.build_oscillator_pair(eps, knots=knots)
                 for eps in (0.048, 0.0432, 0.01)]
        assert dense_calls == [knots]
        assert pairs[0]._eta_values is pairs[2]._eta_values
        assert not pairs[0]._eta_values.flags.writeable

    def test_envelope_log_matches_w_log_abs(self, pair):
        x = np.array([0.5, 1.5, 7.25, 30.75])
        la = pair.w_log_abs(x)
        env = pair.envelope_log(x)
        # |w| <= envelope, with equality at the cosine's extrema
        assert np.all(la <= env + 1e-12)
        peaks = np.arange(0.0, 40.0, 0.5)
        assert np.max(np.abs(pair.w_log_abs(peaks) - pair.envelope_log(peaks))) < 1e-9


# --------------------------------------------------------------------------
# baseline densities
# --------------------------------------------------------------------------

class TestBaselines:
    @pytest.mark.parametrize("kind", [
        "constant", "lipschitz", "bv-step", "hoelder", "log-lipschitz",
        "weierstrass-zygmund",
    ])
    def test_bounds_and_roundtrip(self, kind):
        c = coeff.make_baseline(kind)
        x = np.linspace(0.0, 1.0, 20001)
        v = c(x)
        assert v.min() >= c.omega_lower - 1e-12
        assert v.max() <= c.omega_upper + 1e-12
        assert c.omega_lower > 0
        back = coeff.Coefficient.from_descriptor(json.loads(c.to_json()))
        assert np.array_equal(back(x), v)

    def test_hoelder_exponent_controls_growth(self):
        c = coeff.make_baseline("hoelder", beta=0.35)
        h = np.logspace(-6, -2, 20)
        incr = np.abs(c(0.5 + h) - c(0.5 * np.ones_like(h)))
        # |omega(1/2 + h) - omega(1/2)| = amplitude * h^0.35
        slope = np.polyfit(np.log(h), np.log(incr), 1)[0]
        assert abs(slope - 0.35) < 0.02

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            coeff.make_baseline("hoelder", exponent=0.35)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("kind, name", [
        ("constant", "value"), ("lipschitz", "base"), ("lipschitz", "slope"),
        ("bv-step", "left"), ("bv-step", "right"), ("hoelder", "beta"),
        ("hoelder", "base"), ("hoelder", "amplitude"),
        ("log-lipschitz", "base"), ("log-lipschitz", "amplitude"),
        ("weierstrass-zygmund", "base"),
        ("weierstrass-zygmund", "amplitude"),
        ("weierstrass-zygmund", "n_terms")])
    def test_non_finite_parameter_rejected(self, kind, name, value):
        # lipschitz with slope NaN declared [1, 1] for a density that is
        # NaN everywhere, and hoelder with amplitude inf an infinite bound
        with pytest.raises(ValueError,
                           match=rf"parameter {name}={value!r} is not finite"):
            coeff.make_baseline(kind, **{name: value})

    def test_weierstrass_positivity_guard(self):
        with pytest.raises(ValueError):
            coeff.make_baseline("weierstrass-zygmund", base=1.0, amplitude=1.5)

    def test_custom_requires_positive_lower(self):
        with pytest.raises(ValueError):
            coeff.make_baseline("custom", fn=lambda x: x,
                                omega_lower=0.0, omega_upper=1.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, math.nan), (1.0, math.inf),
                                        (math.nan, 2.0), (2.0, 1.0)])
    def test_custom_rejects_invalid_bounds(self, lo, hi):
        # a NaN upper bound would reach the quasimode engine, which
        # refines NaN cells until its open-cell cap
        with pytest.raises(ValueError, match="bounds must be finite"):
            coeff.make_baseline("custom", fn=lambda x: 1.0 + x,
                                omega_lower=lo, omega_upper=hi)

    def test_custom_descriptor_not_rebuildable(self):
        c = coeff.make_baseline("custom", fn=lambda x: 1.0 + x,
                                omega_lower=1.0, omega_upper=2.0)
        with pytest.raises(ValueError, match="cannot be rebuilt"):
            coeff.Coefficient.from_descriptor(json.loads(c.to_json()))

    def test_log_lipschitz_negative_amplitude_bounds(self):
        # the cusp dips to 1 - 2/e at x = 1/2 +- 1/e
        c = coeff.make_baseline("log-lipschitz", base=1.0, amplitude=-2.0)
        assert c.omega_lower == pytest.approx(1.0 - 2.0 / math.e, abs=1e-15)
        assert c.omega_upper == 1.0
        v = c(np.linspace(0.0, 1.0, 20001))
        assert c.omega_lower - 1e-12 <= v.min() < c.omega_lower + 1e-6
        assert v.max() <= c.omega_upper

    @pytest.mark.parametrize("base, amplitude", [(1.5, 0.7), (1.0, -2.0)])
    def test_log_lipschitz_matches_masked_formula(self, base, amplitude):
        # the evaluator's masked ufuncs against the gather/scatter form
        # they replace: bitwise on random points, at the cusp, next to it
        # and on NaN, which reads the base as before
        c = coeff.make_baseline("log-lipschitz", base=base,
                                amplitude=amplitude)
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.uniform(-0.5, 1.5, 4000),
                            [0.5, 0.5 + 1e-300, 0.5 - 1e-300, 0.5 - 1e-17,
                             np.nan]])
        t = np.abs(x - 0.5)
        ref = np.zeros_like(t)
        pos = t > 0
        ref[pos] = -t[pos] * np.log(t[pos])
        ref = base + amplitude * ref
        got = c(x)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert got[-1] == base

    def test_log_lipschitz_positivity_guard(self):
        with pytest.raises(ValueError, match="positivity"):
            coeff.make_baseline("log-lipschitz", base=1.0, amplitude=-4.0)

    def test_sample_uses_cell_centers(self):
        c = coeff.make_baseline("lipschitz")
        n = 64
        xs, vals = c.sample(n)
        assert len(xs) == n
        assert abs(xs[0] - 0.5 / n) < 1e-15
        assert abs(xs[-1] - (1 - 0.5 / n)) < 1e-15
        assert np.array_equal(vals, c(xs))


# --------------------------------------------------------------------------
# interval sequences
# --------------------------------------------------------------------------

class TestSequences:
    def test_concentrating_geometry(self):
        params = coeff.make_sequences(mode="concentrating", j_range=range(2, 6))
        for e in params.entries:
            assert e.r == 2.0 ** (-e.j)
            assert e.m == 3.0 * 2.0 ** (-(e.j + 1))
            left, right = e.interval
            assert abs(left - 2.0 ** (-e.j)) < 1e-15
            assert abs(right - 2.0 ** (1 - e.j)) < 1e-15
            assert e.n == round(e.n) and int(e.n) % 2 == 0
            assert abs(e.n - e.h * e.r) < 1e-6
        # intervals tile ]2^-5, 1/2] without gaps
        es = params.entries
        for k in range(len(es) - 1):
            assert abs(es[k].interval[0] - es[k + 1].interval[1]) < 1e-15

    def test_eps_decreasing_n_increasing(self):
        params = coeff.make_sequences(mode="concentrating", j_range=range(2, 7))
        eps = [e.eps for e in params.entries]
        ns = [e.n for e in params.entries]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_scaled_mode_notes_constant_n(self):
        params = coeff.make_sequences(mode="scaled", j_range=range(2, 6))
        assert len({e.n for e in params.entries}) == 1
        assert any("constant" in note for note in params.notes)
        # the slope-scale products eps_j h_j r_j must decrease here
        vals = [e.eps_h_r for e in params.entries]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_paper_strict_small_N_representable(self):
        params = coeff.make_sequences(
            mode="paper-strict", j_range=range(2, 3), N=2)
        e = params.entries[0]
        assert math.isfinite(e.h)
        assert e.n == round(e.n) and int(e.n) % 2 == 0
        assert e.h_ln is not None
        # h = exp(h_ln) to float precision
        assert abs(math.log(e.h) - float(e.h_ln)) < 1e-12

    def test_paper_strict_large_j_symbolic(self):
        params = coeff.make_sequences(
            mode="paper-strict", j_range=range(2, 5), N=4)
        assert any(not math.isfinite(e.h) for e in params.entries)
        assert any("below working precision" in n for n in params.notes)
        # the log-values keep increasing even when floats overflow
        lns = [float(e.h_ln) for e in params.entries]
        assert all(a < b for a, b in zip(lns, lns[1:]))

    def test_admissibility_flags_reject_desk_scale(self):
        params = coeff.make_sequences(mode="concentrating", j_range=range(2, 5))
        assert not any(f["eps_small"] for f in params.cond_flags)

    def test_admissibility_flags_accept_large_N(self):
        params = coeff.make_sequences(
            mode="paper-strict", j_range=range(2, 5), N=8)
        for f in params.cond_flags:
            assert f["eps_small"] and f["tail_sum"] and f["head_sum"]

    def test_admissibility_flags_reject_small_N(self):
        params = coeff.make_sequences(
            mode="paper-strict", j_range=range(2, 5), N=2)
        assert not all(
            f["eps_small"] and f["tail_sum"] and f["head_sum"]
            for f in params.cond_flags)

    def test_descriptor_roundtrip(self):
        params = coeff.make_sequences(mode="concentrating", j_range=range(2, 5))
        back = coeff.CounterexampleParams.from_descriptor(params.to_descriptor())
        assert back.mode == params.mode
        assert len(back.entries) == len(params.entries)
        for a, b in zip(back.entries, params.entries):
            assert a.j == b.j and a.h == b.h and a.eps == b.eps

    def test_lambda_mode_records_log_scale(self):
        params = coeff.make_sequences(
            mode="lambda", j_range=range(2, 4), N=2, lam="sqrt-log")
        assert params.entries[0].h_ln is not None
        assert not math.isfinite(params.entries[1].h)

    @pytest.mark.parametrize("psi, fn", [
        ("identity", lambda s: s),
        ("sqrt", math.sqrt),
        ("log", lambda s: 1.0 + math.log(s)),
    ])
    def test_scaled_psi_selector(self, psi, fn):
        # the defining relation eps_j h_j = log(h_j) psi(log h_j), each
        # psi evaluated here in plain floats
        params = coeff.make_sequences("scaled", j_range=range(2, 5), psi=psi)
        assert params.descriptor == f"psi={psi} (desk scale)"
        for e in params.entries:
            want = math.log(e.h) * fn(math.log(e.h))
            assert abs(e.eps * e.h - want) <= 1e-12 * want
        dens = coeff.make_counterexample_density(params)
        assert dens.kind == "counterexample-psi"
        assert set(dens.trapping.pairs) == {2, 3, 4}

    def test_lambda_log_log_selector(self):
        # eps_j h_j = lambda(1/h_j) log h_j with
        # lambda(h) = 1 + log(1 + log(1/h)); h_3 overflows doubles
        params = coeff.make_sequences(
            mode="lambda", j_range=range(2, 4), N=1, lam="log-log")
        assert params.descriptor == "lambda=log-log"
        finite = [e for e in params.entries if math.isfinite(e.h)]
        assert [e.j for e in finite] == [2]
        for e in finite:
            log_h = math.log(e.h)
            want = (1.0 + math.log(1.0 + log_h)) * log_h
            assert abs(e.eps * e.h - want) <= 1e-12 * want
        member, = coeff.make_counterexample_density(params.restrict(2),
                                                    family="lambda")
        assert member.kind == "counterexample-lambda(2)"
        assert member.trapping.active_j == 2

    def test_lambda_log_log_tail_is_fast(self):
        # the admissibility tail runs one level past j, to
        # h = exp(exp(2^(N (j + 1)) - 1) - 1).  At N = 1, j = 5, e^x taken
        # as an integer power of mp.e took over 10 s; at N = 2, j = 2 the
        # tail ran eight levels past j, to 2^20 in place of 2^6, for 47 s
        for N, j in ((1, 5), (2, 2)):
            start = time.perf_counter()
            coeff.make_sequences(mode="lambda", j_range=(j,), N=N,
                                 lam="log-log")
            assert time.perf_counter() - start < 2.0


# --------------------------------------------------------------------------
# trapping densities
# --------------------------------------------------------------------------

class TestCounterexampleDensity:
    def test_flat_outside_intervals(self, dens):
        xs = np.concatenate([
            np.linspace(0.51, 1.0, 101),
            np.linspace(1e-6, 2.0 ** -4 - 1e-9, 101),
        ])
        assert np.max(np.abs(dens(xs) - FOUR_PI_SQ)) == 0.0

    def test_continuous_at_interval_edges(self, dens):
        for edge in (0.5, 0.25, 0.125, 0.0625):
            v = dens(np.array([edge - 1e-9, edge, edge + 1e-9]))
            assert np.max(np.abs(v - FOUR_PI_SQ)) < 1e-9

    def test_oscillates_inside_intervals(self, dens, params):
        for e in params.entries:
            left, right = e.interval
            xs = np.linspace(left, right, 4001)
            v = dens(xs)
            assert v.max() - v.min() > 0.5  # genuinely oscillating

    def test_hyperbolic_window(self, dens):
        xs = np.linspace(0.0, 1.0, 300001)
        v = dens(xs)
        assert v.min() > 0
        assert dens.omega_lower <= v.min() + 1e-9
        assert v.max() <= dens.omega_upper + 1e-9

    def test_lambda_family_isolated_intervals(self, params):
        fam = coeff.make_counterexample_density(params, family="lambda")
        assert len(fam) == len(params.entries)
        for c, e in zip(fam, params.entries):
            left, right = e.interval
            inside = np.linspace(left + 1e-9, right, 501)
            outside = np.linspace(right + 1e-6, 1.0, 101)
            assert c(inside).std() > 0.1
            assert np.max(np.abs(c(outside) - FOUR_PI_SQ)) == 0.0
            assert c.params["K_scale"] > 0
            own = c.trapping.pairs[e.j]
            assert (c.omega_lower, c.omega_upper) == (
                min(own.alpha_min, FOUR_PI_SQ), max(own.alpha_max, FOUR_PI_SQ))

    def test_density_roundtrip(self, dens):
        back = coeff.Coefficient.from_descriptor(json.loads(dens.to_json()))
        xs = np.linspace(0.0, 1.0, 30001)
        assert np.array_equal(back(xs), dens(xs))

    def test_lambda_member_descriptor_roundtrip(self):
        # a lambda member rebuilt from its descriptor is the same density
        params = coeff.make_sequences("concentrating", j_range=range(2, 5),
                                      n0=30)
        member = coeff.make_counterexample_density(params, family="lambda")[1]
        assert member.kind == "counterexample-lambda(3)"
        back = coeff.Coefficient.from_descriptor(member.to_descriptor())
        assert back.kind == member.kind and back.trapping.active_j == 3
        xs = np.linspace(0.0, 1.0, 100_000)
        assert np.array_equal(back(xs), member(xs))
        assert coeff.travel_time(back) == coeff.travel_time(member)

    def test_unrepresentable_scale_raises(self):
        params = coeff.make_sequences(
            mode="paper-strict", j_range=range(2, 5), N=4)
        with pytest.raises(ValueError, match="double precision"):
            coeff.make_counterexample_density(params)

    def test_travel_time_wide_eps_family(self):
        # scaled mode carries eps_j >= 0.05; every pair rebuild must use
        # the family's own eps_bar ceiling
        params = coeff.make_sequences("scaled", j_range=range(2, 5))
        assert max(e.eps for e in params.entries) > 0.05
        assert params.eps_bar == max(0.05, 1.01 * max(
            e.eps for e in params.entries))
        dens = coeff.make_counterexample_density(params)
        t = coeff.travel_time(dens)
        xs = np.linspace(0.0, 1.0, 2 ** 18 + 1)
        assert abs(t - float(np.trapezoid(np.sqrt(dens(xs)), xs))) < 1e-6

    def test_travel_time_matches_quadrature(self, dens):
        t_struct = coeff.travel_time(dens)
        xs = np.linspace(0.0, 1.0, 2 ** 19 + 1)
        t_ref = float(np.trapezoid(np.sqrt(dens(xs)), xs))
        assert abs(t_struct - t_ref) < 1e-7


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------

class TestNormalForm:
    def test_identity(self):
        one = coeff.make_baseline("constant", value=1.0)
        om, L, diag = coeff.reduce_to_normal_form(one, one)
        assert L == 1.0
        assert om(np.array([0.37]))[0] == 1.0
        assert diag["relative_gap"] < 1e-12

    def test_constant_wave_speed(self):
        one = coeff.make_baseline("constant", value=1.0)
        four = coeff.make_baseline("constant", value=4.0)
        om, L, diag = coeff.reduce_to_normal_form(one, four)
        assert abs(L - 0.25) < 1e-12
        assert abs(om(np.array([0.1]))[0] - 4.0) < 1e-12

    def test_normal_form_descriptor_not_rebuildable(self):
        one = coeff.make_baseline("constant", value=1.0)
        four = coeff.make_baseline("constant", value=4.0)
        om, _, _ = coeff.reduce_to_normal_form(one, four, grid=1 << 10)
        with pytest.raises(ValueError, match="Python callable"):
            coeff.Coefficient.from_descriptor(om.to_descriptor())

    def test_travel_time_preserved(self):
        rho = coeff.make_baseline(
            "custom", fn=lambda x: 1 + 0.3 * np.sin(2 * np.pi * x),
            omega_lower=0.7, omega_upper=1.3)
        a = coeff.make_baseline(
            "custom", fn=lambda x: 1 + 0.2 * np.cos(2 * np.pi * x),
            omega_lower=0.8, omega_upper=1.2)
        om, L, diag = coeff.reduce_to_normal_form(rho, a)
        assert diag["relative_gap"] < 1e-9
        assert om.omega_lower > 0
        assert om.length == L


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

class TestProperties:
    @given(eps=st.floats(min_value=0.001, max_value=0.049))
    @settings(max_examples=10, deadline=None)
    def test_decay_exact_for_any_eps(self, eps):
        pair = coeff.build_oscillator_pair(eps)
        for n in (1, 3, 10):
            got = pair.w(np.array([float(n)]))[0]
            assert abs(got - math.exp(-eps * n)) <= 1e-8 * math.exp(-eps * n)

    @given(
        j0=st.integers(min_value=2, max_value=4),
        count=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_interval_tiling(self, j0, count):
        params = coeff.make_sequences(
            mode="concentrating", j_range=range(j0, j0 + count))
        total = sum(e.r for e in params.entries)
        want = 2.0 ** (1 - j0) - 2.0 ** (1 - j0 - count)
        assert abs(total - want) < 1e-15

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_descriptor_roundtrip_samples_identically(self, seed):
        rng = np.random.default_rng(seed)
        c = coeff.make_baseline(
            "hoelder", beta=float(rng.uniform(0.1, 0.9)),
            amplitude=float(rng.uniform(0.2, 1.0)))
        back = coeff.Coefficient.from_descriptor(json.loads(c.to_json()))
        xs = rng.uniform(0.0, 1.0, size=64)
        assert np.array_equal(back(xs), c(xs))


# --------------------------------------------------------------------------
# rejections
# --------------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: coeff.build_oscillator_pair(0.0),
                 r"eps=0\.0 outside \]0, 0\.05\[", id="eps=0"),
    pytest.param(lambda: coeff.build_oscillator_pair(0.05),
                 r"eps=0\.05 outside", id="eps=eps_bar"),
    pytest.param(lambda: coeff.build_oscillator_pair(
        0.01, knots=(0.5, 0.4, 0.6, 0.8)),
                 r"malformed cutoff knots \(0\.5, 0\.4", id="knots"),
    pytest.param(lambda: coeff.make_baseline("constant", value=0.0),
                 "constant density must be positive", id="constant"),
    pytest.param(lambda: coeff.make_baseline("lipschitz", slope=-2.0),
                 "kink density loses positivity", id="lipschitz"),
    pytest.param(lambda: coeff.make_baseline("bv-step", left=-1.0),
                 "step density loses positivity", id="bv-step"),
    pytest.param(lambda: coeff.make_baseline("hoelder", beta=1.0),
                 r"hoelder exponent 1\.0 outside \]0,1\[", id="hoelder-beta"),
    pytest.param(lambda: coeff.make_baseline("hoelder", amplitude=-2.0),
                 "cusp density loses positivity", id="hoelder-amplitude"),
    pytest.param(lambda: coeff.make_baseline("sine"),
                 "unknown baseline kind: 'sine'", id="kind"),
    pytest.param(lambda: coeff.make_sequences(j_range=()),
                 "empty j_range", id="j_range=()"),
    pytest.param(lambda: coeff.make_sequences(j_range=range(0, 3)),
                 "interval indices start at j = 1", id="j_range-from-0"),
    pytest.param(lambda: coeff.make_sequences("paper-strict"),
                 "paper-strict mode requires N", id="paper-strict-N"),
    pytest.param(lambda: coeff.make_sequences("lambda"),
                 "lambda mode requires N", id="lambda-N"),
    pytest.param(lambda: coeff.make_sequences("dyadic"),
                 "unknown sequence mode 'dyadic'", id="mode"),
    pytest.param(lambda: coeff.make_sequences("scaled", psi="cube"),
                 "unknown psi descriptor 'cube'", id="psi"),
    pytest.param(lambda: coeff.make_sequences("lambda", N=1, lam="sqrt"),
                 "unknown lambda descriptor 'sqrt'", id="lam"),
    pytest.param(lambda: coeff.make_counterexample_density(
        coeff.make_sequences(j_range=range(2, 3)), family="phi"),
                 "unknown family 'phi'", id="family"),
])
def test_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
