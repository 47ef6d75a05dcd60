import math

import numpy as np
import pytest
import scipy.stats as st

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import montecarlo as mc

from oracles import step_theory


class TestEmpiricalCdf:
    def test_basic(self):
        ecdf = mc.empirical_cdf([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ecdf.t, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(ecdf.f, [1 / 3, 2 / 3, 1.0])
        assert ecdf.sample_count == 3

    def test_duplicates_collapse(self):
        ecdf = mc.empirical_cdf([2.0, 1.0, 2.0, 2.0])
        np.testing.assert_allclose(ecdf.t, [1.0, 2.0])
        np.testing.assert_allclose(ecdf.f, [0.25, 1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            mc.empirical_cdf([])

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.EmpiricalCdf(np.array([1.0, 1.0]), np.array([0.5, 1.0]), 2)
        with pytest.raises(ValueError):
            mc.EmpiricalCdf(np.array([1.0, 2.0]), np.array([0.9, 0.5]), 2)
        with pytest.raises(ValueError):
            mc.EmpiricalCdf(np.array([1.0, np.nan]), np.array([0.5, 1.0]), 2)

    def test_thin_keeps_exact_points(self):
        ecdf = mc.empirical_cdf(np.arange(1, 1001, dtype=float))
        thin = ecdf.thin(100)
        assert thin.t.size <= 100
        assert thin.t[-1] == ecdf.t[-1]
        for t, f in zip(thin.t, thin.f):
            idx = np.searchsorted(ecdf.t, t)
            assert ecdf.f[idx] == f

    def test_thin_to_one_point_keeps_the_last(self):
        ecdf = mc.empirical_cdf(np.arange(1, 11, dtype=float))
        thin = ecdf.thin(1)
        assert thin.t.tolist() == [10.0] and thin.f.tolist() == [1.0]
        with pytest.raises(ValueError, match="max_points must be >= 1"):
            ecdf.thin(0)

    def test_thin_indices_for_validation(self):
        # simulate --validate thins to 4096 points, and its bench references
        # are checked to 1e-6: the kept indices must not move
        ecdf = mc.empirical_cdf(np.random.default_rng(4).random(10**4))
        idx = np.unique(np.linspace(0, 10**4 - 1, 4096).astype(int))
        thin = ecdf.thin(4096)
        np.testing.assert_array_equal(thin.t, ecdf.t[idx])
        np.testing.assert_array_equal(thin.f, ecdf.f[idx])


class TestSampleComposite:
    def test_mean(self):
        model = co.CompositeModel(3.0, 2.0, fa.Rician(4.0))
        xs = mc.sample_composite(model, 10**6, seed=1)
        # E[W] = w_bar; variance exists for m > 2
        var = xs.var()
        assert abs(xs.mean() - 2.0) < 3 * math.sqrt(var / 10**6)

    def test_determinism(self):
        model = co.CompositeModel(2.5, 1.0, fa.TWDP(4.0, 0.9))
        a = mc.sample_composite(model, 3000, seed=9)
        b = mc.sample_composite(model, 3000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_chunking_is_transparent(self):
        # crossing the internal chunk boundary must not disturb the prefix
        model = co.CompositeModel(3.0, 1.0, fa.Rayleigh())
        n = mc._CHUNK + 17
        a = mc.sample_composite(model, n, seed=4)
        b = mc.sample_composite(model, mc._CHUNK, seed=4)
        np.testing.assert_array_equal(a[: mc._CHUNK], b)

    def test_large_m_degeneracy_ks(self):
        baseline = fa.KappaMuShadowed(2.0, 1.5, 3.0)
        model = co.CompositeModel(1000.0, 1.0, baseline)
        comp = mc.sample_composite(model, 10**5, seed=6)
        base = fa.sample(baseline, 10**5, seed=63)
        assert st.ks_2samp(comp, base).pvalue > 0.01

    def test_substream_independence(self):
        model = co.CompositeModel(3.0, 1.0, fa.Rayleigh())
        xi, x = mc._draw_streams(model, 10**5, seed=12)
        corr = np.corrcoef(xi, x)[0, 1]
        assert abs(corr) < 0.01


class TestCompare:
    def test_own_interpolant_is_zero(self):
        ecdf = mc.empirical_cdf([1.0, 2.0, 3.0, 5.0])
        res = mc.compare(ecdf, step_theory(ecdf))
        assert res.sup_distance == 0.0
        assert res.cvm_value == pytest.approx(0.0, abs=1e-15)

    def test_shift_grows_sup(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        samples = rng.normal(size=4000)
        ecdf = mc.empirical_cdf(samples)
        sups = [
            mc.compare(ecdf, lambda t, c=c: st.norm.cdf(t - c)).sup_distance
            for c in (0.0, 0.1, 0.3, 0.8)
        ]
        assert all(a < b for a, b in zip(sups, sups[1:]))

    def test_ig_rayleigh_oracle(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        xs = mc.sample_composite(model, 10**6, seed=3)
        ecdf = mc.empirical_cdf(xs).thin(5000)
        res = mc.compare(ecdf, lambda t: co.composite_cdf(model, t))
        assert res.sup_distance + 250 / 10**6 < 0.002
