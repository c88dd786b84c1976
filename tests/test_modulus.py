"""Tests for moduli of continuity, TV trend, dyadic blocks, classifier.

Oracles: closed-form difference quotients of model cusps, FFT bin
arithmetic for pure tones, fine-grid TV sums for lacunary series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveobs import coeff, modulus


@pytest.fixture(scope="module")
def grid14():
    return np.linspace(0.0, 1.0, 2 ** 14 + 1)


@pytest.fixture(scope="module")
def weier():
    return coeff.make_baseline("weierstrass-zygmund", n_terms=16)


# --------------------------------------------------------------------------
# difference seminorms
# --------------------------------------------------------------------------

class TestDifferenceSeminorms:
    def test_linear_lip_is_one(self, grid14):
        ent = modulus.difference_seminorms(grid14, "first", "pointwise")
        assert abs(ent["Lip"].value - 1.0) < 1e-12

    def test_affine_kills_second_differences(self, grid14):
        f = 3.0 * grid14 + 1.0
        for norm in ("pointwise", "integral"):
            ent = modulus.difference_seminorms(f, "second", norm)
            for e in ent.values():
                assert e.value < 1e-12

    def test_constant_kills_first_differences(self, grid14):
        ent = modulus.difference_seminorms(
            np.full_like(grid14, 2.0), "first", "pointwise")
        assert ent["Lip"].value == 0.0

    def test_kink_second_difference_is_two_h(self, grid14):
        f = np.abs(grid14 - 0.5)
        ent = modulus.difference_seminorms(f, "second", "pointwise")
        # |h| + |-h| - 0 = 2h at the kink, so the Z ratio is exactly 2
        assert abs(ent["Z"].value - 2.0) < 1e-12
        assert all(abs(r - 2.0) < 1e-12 for r in ent["Z"].ratios)

    def test_weierstrass_zygmund_vs_lipschitz(self, weier, grid14):
        s = weier(grid14)
        hg = 2.0 ** -np.arange(4, 13)
        z = modulus.difference_seminorms(s, "second", "pointwise", hg)["Z"]
        lip = modulus.difference_seminorms(s, "first", "pointwise", hg)["Lip"]
        z_ratios = np.asarray(z.ratios)
        assert z_ratios.max() / z_ratios.min() < 1.5  # bounded across h
        # first-difference ratio grows ~ log(1/h): compare endpoints
        lip_r = np.asarray(lip.ratios)
        hs = np.asarray(lip.h)
        per_log = lip_r / np.log(1.0 / hs)
        assert per_log.max() / per_log.min() < 1.3

    def test_rejects_offset_below_spacing(self, grid14):
        with pytest.raises(ValueError, match="twice the sample spacing"):
            modulus.difference_seminorms(
                grid14, "first", "pointwise", h_grid=[2.0 ** -14])

    def test_rejects_non_multiple_offset(self, grid14):
        with pytest.raises(ValueError, match="multiples"):
            modulus.difference_seminorms(
                grid14, "first", "pointwise", h_grid=[1.0 / 3.0])

    def test_integral_below_pointwise(self, weier, grid14):
        s = weier(grid14)
        for order, key in (("first", "LL"), ("second", "Z"),
                           ("second", "LZ")):
            p = modulus.difference_seminorms(s, order, "pointwise")
            i = modulus.difference_seminorms(s, order, "integral")
            assert i[key + "_int"].value <= p[key].value + 1e-12

    def test_custom_weight_entry(self, grid14):
        f = np.abs(grid14 - 0.5)
        lam = lambda h: h * np.sqrt(1.0 + np.log(1.0 / h))
        ent = modulus.difference_seminorms(
            f, "first", "pointwise", weight=lam)
        assert "custom" in ent
        # custom ratio = Lip ratio / sqrt(1 + log(1/h))
        lip = ent["Lip"]
        got = np.asarray(ent["custom"].ratios)
        want = np.asarray(lip.ratios) / np.sqrt(1 + np.log(1 / np.asarray(lip.h)))
        assert np.allclose(got, want, rtol=1e-12)


# --------------------------------------------------------------------------
# total variation
# --------------------------------------------------------------------------

class TestTotalVariation:
    def test_monotone(self, grid14):
        tv = modulus.total_variation(grid14 ** 2)
        assert abs(tv.value - 1.0) < 1e-12
        assert tv.bounded

    def test_steps_count_jumps(self, grid14):
        f = (np.where(grid14 >= 0.3, 1.0, 0.0)
             + np.where(grid14 >= 0.7, 1.0, 0.0) + 1.0)
        tv = modulus.total_variation(f)
        assert abs(tv.value - 2.0) < 1e-12
        assert tv.bounded

    def test_lacunary_sum_fine_grid_value(self, weier):
        # fine-grid oracle for the truncated lacunary series: its
        # monotone laps interleave and partially cancel, so TV is far
        # below the sum of per-term variations (4 per term)
        x = np.linspace(0.0, 1.0, 2 ** 21 + 1)
        tv = modulus.total_variation(weier(x), levels=4)
        assert abs(tv.value - 14.44) < 0.2

    def test_lacunary_trend_grows(self, weier, grid14):
        tv = modulus.total_variation(weier(grid14), levels=8)
        assert not tv.bounded
        # each refinement reveals one more scale: steady increments
        inc = np.diff(tv.per_level)
        assert np.all(inc[-4:] > 0)

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            modulus.total_variation(np.ones(16), levels=6)


# --------------------------------------------------------------------------
# dyadic blocks
# --------------------------------------------------------------------------

class TestDyadicBlocks:
    def test_constant_only_low_block(self):
        sp = modulus.dyadic_blocks(np.full(1024, 3.3))
        for j in sp.j_values:
            if j == -1:
                assert abs(sp.block_norms["inf"][j] - 3.3) < 1e-12
            else:
                assert sp.block_norms["inf"][j] < 1e-12

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_tone_lands_in_its_block(self, k):
        n = 4096
        x = np.arange(n) / n
        sp = modulus.dyadic_blocks(np.cos(2 * np.pi * 2 ** k * x))
        hot = [j for j in sp.j_values if sp.block_norms["2"][j] > 1e-10]
        assert set(hot) <= {k - 1, k, k + 1}
        assert k in hot

    def test_weierstrass_band_values(self, weier):
        n = 2 ** 18
        x = np.arange(n) / n
        sp = modulus.dyadic_blocks(weier(x), j_max=12)
        for j in range(3, 11):
            v = 2.0 ** j * sp.block_norms["inf"][j]
            assert 0.5 <= v <= 2.0

    def test_reconstruction_band_limited(self):
        n = 8192
        x = np.arange(n) / n
        f = 1.1 + 0.7 * np.cos(2 * np.pi * 19 * x - 1.0) \
            + 0.2 * np.sin(2 * np.pi * 40 * x)
        sp = modulus.dyadic_blocks(f, j_max=9)
        assert sp.reconstruction_error(f) < 1e-10

    def test_blocks_confined_to_annulus(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(4096)
        sp = modulus.dyadic_blocks(f, j_max=9)
        for j, b in zip(sp.j_values, sp.blocks):
            if j < 0:
                continue
            fb = np.fft.rfft(b)
            bins = np.arange(len(fb))
            outside = (bins < 2 ** (j - 1)) | (bins > 2 ** (j + 1))
            assert np.linalg.norm(fb[outside]) < 1e-10 * max(
                np.linalg.norm(fb), 1.0)

    def test_norm_ordering(self):
        rng = np.random.default_rng(3)
        sp = modulus.dyadic_blocks(rng.standard_normal(2048))
        for j in sp.j_values:
            assert (sp.block_norms["1"][j]
                    <= sp.block_norms["2"][j] + 1e-12
                    <= sp.block_norms["inf"][j] + 1e-12)

    def test_even_extension_handles_nonperiodic(self):
        # a ramp is not band-limited: reconstruction converges at the
        # spectral-tail rate, versus O(1) Gibbs error when treated as
        # periodic
        n = 2048
        x = np.arange(n) / n
        even = modulus.dyadic_blocks(x.copy(), extension="even")
        per = modulus.dyadic_blocks(x.copy(), extension="periodic")
        assert even.reconstruction_error(x) < 1e-5
        assert even.reconstruction_error(x) < 1e-3 * per.reconstruction_error(x)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            modulus.dyadic_blocks(np.ones(1000))

    def test_rejects_bad_j_max(self):
        with pytest.raises(ValueError, match="j_max"):
            modulus.dyadic_blocks(np.ones(1024), j_max=20)


# --------------------------------------------------------------------------
# classifier
# --------------------------------------------------------------------------

def _report(samples):
    return modulus.modulus_report(samples)


class TestClassifier:
    def test_constant(self, grid14):
        assert _report(np.full_like(grid14, 2.0)).label == "Lipschitz/BV"

    def test_kink(self, grid14):
        assert _report(1.0 + np.abs(grid14 - 0.5)).label == "Lipschitz/BV"

    def test_step(self, grid14):
        r = _report(coeff.make_baseline("bv-step")(grid14))
        assert r.label == "Lipschitz/BV"

    def test_sqrt_cusp(self, grid14):
        r = _report(1.0 + np.abs(grid14 - 0.5) ** 0.5)
        assert r.label.startswith("Hoelder(")
        assert abs(r.classification.beta - 0.5) < 0.05

    def test_weierstrass(self, weier, grid14):
        r = _report(weier(grid14))
        assert r.label == "Zygmund"
        assert not r.tv.bounded

    def test_default_weierstrass_reads_zygmund(self, grid14):
        # the report takes the dyadic spectrum of its own samples, so the
        # paper's no-loss class is read without a caller-built spectrum
        r = modulus.modulus_report(
            coeff.make_baseline("weierstrass-zygmund")(grid14))
        assert r.label == "Zygmund"

    @pytest.mark.parametrize("n", [2 ** 14, 2 ** 14 + 2, 2 ** 7 + 1])
    def test_report_length_rejected(self, n):
        with pytest.raises(ValueError, match="2\\^K \\+ 1 samples"):
            modulus.modulus_report(np.ones(n))

    def test_log_lipschitz_cusp(self, grid14):
        r = _report(coeff.make_baseline("log-lipschitz")(grid14))
        assert r.label == "log-Lipschitz"

    def test_trapping_density_below_ladder(self):
        params = coeff.make_sequences(
            mode="concentrating", j_range=range(2, 5), n0=88, n_growth=2.07)
        dens = coeff.make_counterexample_density(params)
        x = np.linspace(0.0, 1.0, 2 ** 15 + 1)
        r = _report(dens(x))
        assert r.label == "below-log-Lipschitz"

    def test_permutation_stability(self, grid14):
        f = 1.0 + np.abs(grid14 - 0.5) ** 0.5
        hg = 2.0 ** -np.arange(2, 11)
        rng = np.random.default_rng(5)
        labels = set()
        for _ in range(4):
            perm = rng.permutation(len(hg))
            entries = {}
            entries.update(modulus.difference_seminorms(
                f, "first", "pointwise", hg[perm]))
            entries.update(modulus.difference_seminorms(
                f, "second", "pointwise", hg[perm]))
            labels.add(modulus.classify_modulus(entries, None).label)
        assert len(labels) == 1

    def test_missing_entries_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            modulus.classify_modulus({}, None)


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

class TestProperties:
    @given(k=st.integers(min_value=-3, max_value=3),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_scaling_covariance_exact_for_binary_factors(self, k, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(513)
        c = 2.0 ** k
        a = modulus.difference_seminorms(f, "first", "pointwise")
        b = modulus.difference_seminorms(c * f, "first", "pointwise")
        assert all(c * x == y for x, y in
                   zip(a["Lip"].ratios, b["Lip"].ratios))

    @given(c=st.floats(min_value=0.1, max_value=10.0),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_scaling_covariance_general(self, c, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(513)
        a = modulus.difference_seminorms(f, "second", "pointwise")
        b = modulus.difference_seminorms(c * f, "second", "pointwise")
        assert np.allclose(np.asarray(b["Z"].ratios),
                           c * np.asarray(a["Z"].ratios), rtol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_seminorms_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        f = np.cumsum(rng.standard_normal(257)) / 16.0
        for order in ("first", "second"):
            for norm in ("pointwise", "integral"):
                for e in modulus.difference_seminorms(f, order, norm).values():
                    assert e.value >= 0.0

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_partition_of_unity_on_bandlimited(self, seed):
        rng = np.random.default_rng(seed)
        n = 2048
        x = np.arange(n) / n
        freqs = rng.integers(0, 100, size=5)
        amps = rng.standard_normal(5)
        f = sum(a * np.cos(2 * np.pi * q * x + a)
                for a, q in zip(amps, freqs)) + 1.0
        sp = modulus.dyadic_blocks(f, j_max=9)
        assert sp.reconstruction_error(f) < 1e-9
