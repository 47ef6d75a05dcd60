import math

import numpy as np
import pytest
import scipy.stats as st

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import montecarlo as mc
from igcomposite.numerics import ConvergenceError

from oracles import hermite_map_compare, step_theory


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

    @pytest.mark.parametrize("n", [4097, 2 * 4096 - 1, 2 * 4096, 2 * 4096 + 1,
                                   10**4, 12000, 10**5])
    def test_thin_indices_for_validation(self, n):
        # simulate --validate thins to 4096 points, and its bench references
        # are checked to 1e-6: the kept indices must not move
        ecdf = mc.empirical_cdf(np.random.default_rng(4).random(n))
        assert ecdf.t.size == n
        idx = np.unique(np.linspace(0, n - 1, 4096).astype(int))
        assert idx[0] == 0 and idx[-1] == n - 1
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


# the first model of each baseline the benchmark validates
BASELINES = {
    "rayleigh": fa.Rayleigh(),
    "rician": fa.Rician(3.0),
    "nakagami": fa.NakagamiM(2.0),
    "hoyt": fa.Hoyt(0.5),
    "kappa-mu": fa.KappaMu(2.0, 1.5),
    "eta-mu": fa.EtaMu(0.4, 1.2),
    "kappa-mu-shadowed": fa.KappaMuShadowed(2.0, 1.5, 3.0),
    "twdp": fa.TWDP(4.0, 0.9),
}
# the series of Hoyt and eta-mu fails on these draws (ROADMAP item 2)
SERIES_DEFECTS = {("hoyt", 1.5), ("hoyt", 2.5), ("hoyt", 40.5), ("eta-mu", 40.5)}


def theory_pair(model):
    return (lambda t: co.composite_cdf(model, t)), (lambda t: co.composite_pdf(model, t))


def grid_ecdf(model):
    return mc.empirical_cdf(mc.sample_composite(model, 10**4, seed=7)).thin(4096)


class TestCompareWithDensity:
    """With the theory's PDF, compare takes F at t and the Gauss nodes of
    wide cells, and the other nodes from a Hermite map in ln u; it must give
    what the generic path gives."""

    @pytest.mark.parametrize("m", [1.5, 2.5, 40.5])
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_matches_the_generic_path(self, name, m):
        model = co.CompositeModel(m, 1.0, BASELINES[name])
        ecdf = grid_ecdf(model)
        cdf, pdf = theory_pair(model)
        if (name, m) in SERIES_DEFECTS:
            for density in (None, pdf):
                with pytest.raises(ConvergenceError):
                    mc.compare(ecdf, cdf, density=density)
            return
        generic, reduced = mc.compare(ecdf, cdf), mc.compare(ecdf, cdf, density=pdf)
        assert reduced.sup_distance == pytest.approx(generic.sup_distance, rel=0.0, abs=1e-9)
        assert reduced.cvm_value == pytest.approx(generic.cvm_value, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("name, m", [(name, m) for name in sorted(BASELINES)
                                         for m in (1.5, 2.5, 40.5)
                                         if (name, m) not in SERIES_DEFECTS])
    def test_matches_the_searched_hermite_map(self, name, m):
        # each node's cell comes from its eCDF step, not from a search
        model = co.CompositeModel(m, 1.0, BASELINES[name])
        ecdf = grid_ecdf(model)
        cdf, pdf = theory_pair(model)
        got = mc.compare(ecdf, cdf, density=pdf)
        sup, cvm = hermite_map_compare(ecdf, cdf, pdf, mc._WIDE_CELL)
        assert got.sup_distance == pytest.approx(sup, rel=0.0, abs=1e-15)
        assert got.cvm_value == pytest.approx(cvm, rel=1e-13, abs=0.0)

    def test_single_abscissa_with_a_pad(self):
        # no steps, so every Gauss node lies on a pad
        ecdf = mc.EmpiricalCdf(np.array([2.0]), np.array([1.0]), 1)
        cdf, pdf = (lambda u: st.gamma.cdf(u, 3.0)), (lambda u: st.gamma.pdf(u, 3.0))
        density = []
        want, got = mc.compare(ecdf, cdf, 1.0), mc.compare(ecdf, cdf, 1.0, self.spy(pdf, density))
        assert density == [1]
        assert got.sup_distance == pytest.approx(want.sup_distance, rel=0.0, abs=1e-9)
        assert got.cvm_value == want.cvm_value

    def test_wide_cells_are_evaluated(self, monkeypatch):
        # the heavy upper tail of these draws (the benchmark's
        # validate/nakagami/low-nonint, m = 2.5) has cells up to 0.6 wide in
        # ln u; interpolated, they move the CvM by 2.5e-2 relative
        model = co.CompositeModel(2.5, 1.0, fa.NakagamiM(2.5))
        ecdf = mc.empirical_cdf(mc.sample_composite(model, 12000, seed=12)).thin(4096)
        cdf, pdf = theory_pair(model)
        want = mc.compare(ecdf, cdf).cvm_value
        assert mc.compare(ecdf, cdf, density=pdf).cvm_value == pytest.approx(want, rel=1e-6)
        monkeypatch.setattr(mc, "_WIDE_CELL", math.inf)
        assert mc.compare(ecdf, cdf, density=pdf).cvm_value != pytest.approx(want, rel=1e-3)

    @staticmethod
    def spy(f, sizes):
        def wrapped(t):
            sizes.append(np.size(t))
            return f(t)
        return wrapped

    def test_point_counts(self):
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        ecdf = mc.empirical_cdf(mc.sample_composite(model, 10**4, seed=5)).thin(4096)
        n = ecdf.t.size
        wide = int(np.sum(np.diff(np.log(ecdf.t)) > mc._WIDE_CELL))
        assert 0 < wide < 100
        cdf, pdf = theory_pair(model)
        theory, density = [], []
        mc.compare(ecdf, self.spy(cdf, theory), density=self.spy(pdf, density))
        assert theory == [n + 4 * wide] and density == [n]
        # the generic path: t, its left limits and 4 Gauss nodes per step
        theory.clear()
        mc.compare(ecdf, self.spy(cdf, theory))
        assert theory == [2 * n + 4 * (n - 1)]

    def test_nonpositive_nodes_take_the_generic_path(self):
        # a density needs ln u at every node; a pad reaching below 0 (or a
        # negative abscissa) falls back to the left limits and every node
        ecdf = mc.empirical_cdf(np.random.default_rng(3).normal(size=500))
        density, sizes = [], []
        got = mc.compare(ecdf, self.spy(st.norm.cdf, sizes), 1.0, self.spy(st.norm.pdf, density))
        assert got == mc.compare(ecdf, st.norm.cdf, 1.0) and density == []
        positive = mc.EmpiricalCdf(ecdf.t + 10.0, ecdf.f, ecdf.sample_count)
        mc.compare(positive, lambda t: st.norm.cdf(t - 10.0), 11.0,
                   self.spy(lambda t: st.norm.pdf(t - 10.0), density))
        assert density == []

    def test_cell_below_ln_resolution_is_evaluated(self):
        # neighbouring abscissae one ulp apart at 1e10 share ln u, so their
        # cell has no width; its nodes take the next cell's left end
        t = np.array([9e9, 1e10, np.nextafter(1e10, np.inf), 1.1e10])
        ecdf = mc.EmpiricalCdf(t, np.array([0.25, 0.5, 0.75, 1.0]), 4)
        assert np.log(t[1]) == np.log(t[2])
        cdf, pdf = (lambda u: st.norm.cdf(u, 1e10, 1e9)), (lambda u: st.norm.pdf(u, 1e10, 1e9))
        want, got = mc.compare(ecdf, cdf), mc.compare(ecdf, cdf, density=pdf)
        assert got.sup_distance == pytest.approx(want.sup_distance, abs=1e-9)
        assert got.cvm_value == pytest.approx(want.cvm_value, rel=1e-6)
