import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc
import scipy.stats as st
from scipy.integrate import quad

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import numerics as nm

from oracles import ln_composite_cdf, ln_pdf_kappa_mu, ln_pdf_kappa_mu_shadowed

S = co.Strategy


def closed_form_rayleigh_cdf(u):
    # IG(m=2)/Rayleigh with unit mean power
    return u * (u + 2.0) / (u + 1.0) ** 2


def mixture_cdf_by_terms(model, u):
    """Loop reference for the mixture route: one incomplete beta per F term."""
    mix = co.mixture_of_f(model)
    total = np.zeros_like(u)
    m = mix.m
    for i, weight in enumerate(mix.weights):
        k = mix.shape + i
        om = k * mix.scale
        total += weight * sc.betainc(k, m, k * u / (k * u + (m - 1.0) * om))
    return np.clip(total, 0.0, 1.0)


def series_cdf_by_points(model, u):
    """Loop reference for the gmgf-general CDF: one scalar series per point."""
    m, wb = model.m, model.w_bar
    out = []
    for x in u:
        s, ln_r = (1.0 - m) * wb / x, math.log((m - 1.0) * wb / x)

        def term(n):
            q = m + n
            ln_t = q * ln_r - sc.gammaln(q + 1.0) + fa.gmgf_log(model.baseline, q, s)
            return math.exp(ln_t) if ln_t > -745.0 else 0.0

        out.append(1.0 - nm.sum_series(term)[0])
    return np.array(out)


def integer_cdf_by_points(model, u):
    """Loop reference for the gmgf-integer CDF: an m-term sum per point."""
    m, wb = round(model.m), model.w_bar
    out = []
    for x in u:
        s, ln_r = (1.0 - m) * wb / x, math.log((m - 1.0) * wb / x)
        ln_t = [n * ln_r - sc.gammaln(n + 1.0) + fa.gmgf_log(model.baseline, float(n), s)
                for n in range(m)]
        out.append(sum(math.exp(v) for v in ln_t if v > -745.0))
    return np.array(out)


def transform_pdf_by_points(model, u, m):
    """Loop reference for the transform PDF at shadowing shape m."""
    wb = model.w_bar
    base = m * math.log(wb * (m - 1.0)) - sc.gammaln(m)
    return np.array([
        math.exp(base - (m + 1.0) * math.log(x)
                 + fa.gmgf_log(model.baseline, m, (1.0 - m) * wb / x))
        for x in u
    ])


ALL_BASELINES = [
    fa.Rayleigh(),
    fa.Rician(3.0),
    fa.NakagamiM(2.7),
    fa.Hoyt(0.5),
    fa.KappaMu(2.0, 1.5),
    fa.EtaMu(0.4, 1.2),
    fa.KappaMuShadowed(2.0, 1.5, 3.0),
    fa.TWDP(2.0, 0.3),
]

MIXTURE_BASELINES = [
    fa.Rayleigh(),
    fa.NakagamiM(2.2),
    fa.Rician(4.0),
    fa.KappaMu(2.0, 1.5),
    fa.KappaMuShadowed(5.0, 2.0, 3.0),
    fa.TWDP(4.0, 0.9),
]


class TestCompositeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            co.CompositeModel(m=1.0, w_bar=1.0, baseline=fa.Rayleigh())
        with pytest.raises(ValueError):
            co.CompositeModel(m=2.0, w_bar=0.0, baseline=fa.Rayleigh())

    @pytest.mark.parametrize("m, w_bar", [(math.inf, 1.0), (math.nan, 1.0),
                                          (2.0, math.inf), (2.0, math.nan)])
    def test_non_finite_parameters_rejected(self, m, w_bar):
        # m -> inf is the unshadowed baseline, not a value the F laws can take
        with pytest.raises(ValueError, match="finite"):
            co.CompositeModel(m, w_bar, fa.Rayleigh())

    def test_baseline_renormalized(self):
        model = co.CompositeModel(m=2.0, w_bar=3.0, baseline=fa.Rician(4.0, omega_x=7.0))
        assert model.baseline.omega_x == 1.0
        assert model.w_bar == 3.0


class TestFDistribution:
    def test_pdf_example(self):
        assert co.f_pdf(co.FDistParams(2.0, 1.0, 1.0), 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_pdf_normalization(self):
        params = co.FDistParams(3.5, 2.2, 1.0)
        integral, _ = quad(lambda t: co.f_pdf(params, t), 0, np.inf, limit=300)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_pdf_origin_with_k_above_one(self):
        params = co.FDistParams(2.0, 2.5, 1.0)
        assert co.f_pdf(params, 1e-12) < 1e-9

    def test_cdf_example(self):
        assert co.f_cdf(co.FDistParams(2.0, 1.0, 1.0), 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_cdf_limit(self):
        assert co.f_cdf(co.FDistParams(2.5, 1.5, 1.0), 1e9) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("params", [co.FDistParams(2.0, 1.0, 1.0),
                                        co.FDistParams(3.5, 2.2, 1.3),
                                        co.FDistParams(5.0, 0.7, 0.6)])
    def test_cdf_matches_pdf_quadrature(self, params):
        for t in (0.2, 1.0, 3.0, 8.0):
            integral, _ = quad(lambda x: co.f_pdf(params, x), 0, t, limit=300)
            assert co.f_cdf(params, t) == pytest.approx(integral, abs=1e-9)

    def test_cdf_extreme_shape_fallback(self):
        # a shape far above m, where t^k alone leaves float range
        params = co.FDistParams(3.0, 160.0, 1.0)
        v = co.f_cdf(params, 18.0)
        integral, _ = quad(lambda x: co.f_pdf(params, x), 0, 18.0, limit=400)
        assert np.isfinite(v)
        assert v == pytest.approx(integral, abs=1e-9)

    @pytest.mark.parametrize("m,k,om,t", [(40.5, 60.0, 1.0, 0.7386),
                                          (40.5, 60.0, 1.0, 0.7),
                                          (100.0, 30.0, 0.3, 316.2)])
    def test_cdf_matches_mpmath_at_large_shapes(self, m, k, om, t):
        # a t^k 2F1 form returned 1.0 at t = 0.7 (within an array) and 0.845 at t = 316.2
        exact = float(mpmath.betainc(k, m, 0, mpmath.mpf(k * t) / (k * t + (m - 1.0) * om),
                                     regularized=True))
        params = co.FDistParams(m, k, om)
        assert co.f_cdf(params, t) == pytest.approx(exact, rel=1e-10, abs=1e-15)
        grid = np.array([t, 0.5 * t, 2.0 * t])
        assert co.f_cdf(params, grid)[0] == pytest.approx(exact, rel=1e-10, abs=1e-15)

    def test_mean_is_omega(self):
        params = co.FDistParams(4.0, 2.2, 1.7)
        mean, _ = quad(lambda t: t * co.f_pdf(params, t), 0, np.inf, limit=300)
        assert mean == pytest.approx(1.7, rel=1e-8)


class TestCompositePdf:
    def test_rayleigh_spot(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        for strat in (S.GMGF_GENERAL, S.GMGF_INTEGER, S.MIXTURE):
            assert co.composite_pdf(model, 1.0, strat) == pytest.approx(0.25, rel=1e-9)

    def test_normalization_twdp(self):
        model = co.CompositeModel(3.7, 1.0, fa.TWDP(4.0, 0.9))
        integral, _ = quad(
            lambda u: co.composite_pdf(model, u, S.MIXTURE), 0, np.inf, limit=300
        )
        assert integral == pytest.approx(1.0, abs=1e-7)

    def test_three_strategy_agreement_twdp(self):
        model = co.CompositeModel(5.0, 1.0, fa.TWDP(4.0, 0.9))
        u = 0.8
        a = co.composite_pdf(model, u, S.GMGF_GENERAL)
        b = co.composite_pdf(model, u, S.GMGF_INTEGER)
        c = co.composite_pdf(model, u, S.MIXTURE)
        assert a == pytest.approx(b, abs=1e-7)
        assert a == pytest.approx(c, abs=1e-7)

    def test_tiny_argument_is_graceful(self):
        # power-law left tail stays finite far down; past float range the
        # log-space evaluation floors to exactly 0 instead of NaN
        model = co.CompositeModel(3.0, 1.0, fa.NakagamiM(2.0))
        v = co.composite_pdf(model, 1e-150, S.GMGF_GENERAL)
        assert np.isfinite(v) and v > 0
        assert co.composite_pdf(model, 1e-320, S.GMGF_GENERAL) == 0.0


class TestCompositeCdf:
    def test_rayleigh_closed_form(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        for u in (0.1, 0.5, 1.0, 3.0, 10.0):
            expected = closed_form_rayleigh_cdf(u)
            for strat in (S.GMGF_GENERAL, S.GMGF_INTEGER, S.MIXTURE):
                assert co.composite_cdf(model, u, strat) == pytest.approx(
                    expected, abs=1e-9
                )

    def test_limits(self):
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        assert co.composite_cdf(model, 1e-7) < 1e-5
        assert co.composite_cdf(model, 1e5) > 1 - 1e-5

    def test_nakagami_strategies(self):
        model = co.CompositeModel(3.0, 1.0, fa.NakagamiM(2.0))
        u = 1.3
        a = co.composite_cdf(model, u, S.GMGF_INTEGER)
        b = co.composite_cdf(model, u, S.GMGF_GENERAL)
        c = co.composite_cdf(model, u, S.MIXTURE)
        assert a == pytest.approx(b, abs=1e-8)
        assert a == pytest.approx(c, abs=1e-8)

    @pytest.mark.parametrize(
        "baseline",
        [fa.TWDP(4.0, 0.9), fa.TWDP(3.0, 0.8), fa.TWDP(30.0, 1.0), fa.TWDP(0.5, 0.0)],
        ids=repr,
    )
    def test_twdp_integer_route_matches_mixture(self, baseline):
        # the integer-shape sum takes TWDP's GMGF at integer orders from the
        # periodic integral, the mixture route never touches it
        u = np.concatenate((np.logspace(-8, 2.5), [1e-150, 1e-299]))
        for m in (2.0, 3.0, 5.0):
            model = co.CompositeModel(m, 1.3, baseline)
            np.testing.assert_allclose(co.composite_cdf(model, u, S.GMGF_INTEGER),
                                       co.composite_cdf(model, u, S.MIXTURE),
                                       rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("u", [math.inf, math.nan, [1.0, math.inf]], ids=repr)
    @pytest.mark.parametrize("strategy", [S.MIXTURE, S.GMGF_GENERAL], ids=lambda s: s.value)
    def test_non_finite_argument_raises(self, u, strategy):
        # once a NaN on the mixture route and 1.0 on the series route
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        for fn in (co.composite_pdf, co.composite_cdf, co.amplitude_pdf, co.amplitude_cdf):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                fn(model, u, strategy)
        # a finite amplitude whose square, the power, overflows
        with pytest.raises(ValueError, match="must be finite and > 0"):
            co.amplitude_pdf(model, 1e200, strategy)

    def test_monotone(self):
        model = co.CompositeModel(2.2, 1.0, fa.KappaMu(2.0, 1.5))
        us = np.logspace(-2, 1.5, 40)
        vals = co.composite_cdf(model, us)
        assert np.all(np.diff(vals) > 0)

    def test_strategy_errors(self):
        hoyt = co.CompositeModel(2.5, 1.0, fa.Hoyt(0.5))
        with pytest.raises(ValueError):
            co.composite_cdf(hoyt, 1.0, S.MIXTURE)
        with pytest.raises(ValueError):
            co.composite_cdf(hoyt, 1.0, S.GMGF_INTEGER)

    def test_near_integer_m_treated_as_integer(self):
        model = co.CompositeModel(3.0 + 1e-12, 1.0, fa.NakagamiM(2.0))
        assert model.integer_m
        v = co.composite_cdf(model, 1.3, S.GMGF_INTEGER)
        exact = co.composite_cdf(co.CompositeModel(3.0, 1.0, fa.NakagamiM(2.0)), 1.3,
                                 S.GMGF_INTEGER)
        assert v == pytest.approx(exact, rel=1e-9)


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "baseline",
        [fa.Rayleigh(), fa.NakagamiM(2.0), fa.TWDP(4.0, 0.9)],
        ids=lambda m: type(m).__name__,
    )
    def test_cdf_derivative_is_pdf(self, baseline):
        model = co.CompositeModel(2.5, 1.0, baseline)
        for u in (0.4, 1.0, 2.5):
            h = 1e-4 * u
            num = (
                co.composite_cdf(model, u + h) - co.composite_cdf(model, u - h)
            ) / (2 * h)
            assert num == pytest.approx(co.composite_pdf(model, u), abs=1e-5)


class TestAmplitude:
    def test_identity_on_grid(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        rs = np.linspace(0.2, 2.5, 12)
        np.testing.assert_allclose(
            co.amplitude_cdf(model, rs),
            co.composite_cdf(model, rs * rs),
            rtol=1e-12,
        )

    def test_normalization(self):
        model = co.CompositeModel(3.0, 1.0, fa.Rician(2.0))
        integral, _ = quad(lambda r: co.amplitude_pdf(model, r), 0, np.inf, limit=300)
        assert integral == pytest.approx(1.0, abs=1e-7)

    def test_chain_rule_spot(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        assert co.amplitude_pdf(model, 1.0) == pytest.approx(0.5, rel=1e-9)


class TestOutage:
    def test_substitution(self):
        model = co.CompositeModel(2.0, 1.0, fa.Rayleigh())
        assert co.outage(model, 1.0, 1.0) == pytest.approx(
            co.composite_cdf(model, 1.0), rel=1e-12
        )
        assert co.outage(model, 1.0, 1.0) == pytest.approx(0.75, abs=1e-9)

    def test_monotone_in_threshold(self):
        model = co.CompositeModel(2.5, 1.0, fa.TWDP(2.0, 0.3))
        th = np.logspace(-3, 0, 10)
        vals = [co.outage(model, t, 1.0) for t in th]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scale_invariance_in_w_bar(self):
        a = co.CompositeModel(2.5, 1.0, fa.NakagamiM(2.0))
        b = co.CompositeModel(2.5, 7.3, fa.NakagamiM(2.0))
        assert co.outage(a, 0.01, 1.0) == pytest.approx(co.outage(b, 0.01, 1.0), rel=1e-9)


    def test_scalar_in_scalar_out_array_in_array_out(self):
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        th = np.array([1e-3, 1e-2, 1e-1])
        for fn in (co.outage, co.outage_asymptotic):
            assert isinstance(fn(model, 1e-2, 1.0), float)
            vals = fn(model, th, 1.0)
            assert isinstance(vals, np.ndarray) and vals.shape == th.shape
            np.testing.assert_allclose(vals, [fn(model, t, 1.0) for t in th], rtol=1e-12)

    @pytest.mark.parametrize("th", [[1e-2, 0.0, 0.1], [1e-2, -1.0], [np.nan, 1.0],
                                    [1e-2, np.inf]])
    def test_nonpositive_threshold_in_array_raises(self, th):
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        for fn in (co.outage, co.outage_asymptotic):
            with pytest.raises(ValueError):
                fn(model, np.array(th), 1.0)


class TestOutageAsymptotic:
    def test_twdp_k0_spot(self):
        model = co.CompositeModel(2.0, 1.0, fa.TWDP(0.0, 0.5))
        assert co.outage_asymptotic(model, 1e-3, 1.0) == pytest.approx(2e-3, rel=1e-12)

    def test_power_law_doubling(self):
        model = co.CompositeModel(3.0, 1.0, fa.TWDP(2.0, 0.3))
        v1 = co.outage_asymptotic(model, 1e-4, 1.0)
        v2 = co.outage_asymptotic(model, 2e-4, 1.0)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_nakagami_slope(self):
        model = co.CompositeModel(3.5, 1.0, fa.NakagamiM(2.0))
        ratios = np.logspace(-5, -4, 8)
        exact = np.array([co.outage(model, r, 1.0, S.MIXTURE) for r in ratios])
        slope = np.polyfit(np.log(ratios), np.log(exact), 1)[0]
        assert slope == pytest.approx(2.0, rel=1e-2)

    @pytest.mark.parametrize(
        "baseline,strategy",
        [
            (fa.Rician(3.0), S.MIXTURE),
            (fa.Hoyt(0.6), S.GMGF_INTEGER),  # no mixture route
            (fa.KappaMu(2.0, 1.0), S.MIXTURE),
        ],
        ids=lambda v: getattr(v, "value", type(v).__name__),
    )
    def test_ratio_near_one_for_unit_diversity_baselines(self, baseline, strategy):
        model = co.CompositeModel(2.0, 1.0, baseline)
        r = 1e-4
        exact = co.outage(model, r, 1.0, strategy)
        asym = co.outage_asymptotic(model, r, 1.0)
        assert exact / asym == pytest.approx(1.0, abs=0.02)


class TestMixtureOfF:
    def test_nakagami_single_term(self):
        model = co.CompositeModel(3.0, 2.0, fa.NakagamiM(2.2))
        mix = co.mixture_of_f(model)
        assert mix.weights.tolist() == [1.0]
        assert co.FDistParams(mix.m, mix.shape, mix.shape * mix.scale) \
            == co.FDistParams(3.0, 2.2, 2.0)

    def test_twdp_delta0_poisson(self):
        K = 3.0
        model = co.CompositeModel(2.0, 1.0, fa.TWDP(K, 0.0))
        mix = co.mixture_of_f(model)
        assert mix.weights[1] == pytest.approx(K * math.exp(-K), rel=1e-10)
        assert mix.shape + 1 == 2.0

    def test_reconstruction_vs_general(self):
        model = co.CompositeModel(3.2, 1.0, fa.KappaMuShadowed(2.0, 1.5, 3.0))
        us = np.logspace(-1.5, 1, 15)
        mix_vals = co.composite_pdf(model, us, S.MIXTURE)
        gen_vals = np.array([co.composite_pdf(model, u, S.GMGF_GENERAL) for u in us])
        np.testing.assert_allclose(mix_vals, gen_vals, atol=1e-6)

    def test_unsupported_baseline(self):
        model = co.CompositeModel(2.5, 1.0, fa.EtaMu(0.4, 1.2))
        with pytest.raises(ValueError):
            co.mixture_of_f(model)



class TestStrongLineOfSight:
    """Mixture weights are formed in log space with their normalization, so a
    strong specular component (Poisson or phase-averaged Poisson weights
    peaking near K) no longer overflows the mixture route."""

    U = np.array([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("baseline", [fa.Rician(1000.0), fa.KappaMu(400.0, 2.0)], ids=repr)
    def test_auto_matches_general(self, baseline):
        model = co.CompositeModel(2.5, 1.0, baseline)
        assert co._resolve(model, S.AUTO) is S.MIXTURE
        np.testing.assert_allclose(co.composite_cdf(model, self.U),
                                   co.composite_cdf(model, self.U, S.GMGF_GENERAL),
                                   rtol=0.0, atol=1e-6)

    def test_rician_1000_against_quadrature(self):
        # E[Q(m, (m-1) X / u)] over the Rician power X, a scaled noncentral
        # chi-square with 2 degrees of freedom, by QUADPACK
        K, m = 1000.0, 2.5
        law = st.ncx2(2, 2.0 * K, scale=1.0 / (2.0 * (1.0 + K)))
        ref = [quad(lambda x: law.pdf(x) * sc.gammaincc(m, (m - 1.0) * x / u),
                    0.5, 1.5, limit=500, epsabs=1e-14, epsrel=1e-13)[0] for u in self.U]
        model = co.CompositeModel(m, 1.0, fa.Rician(K))
        np.testing.assert_allclose(co.composite_cdf(model, self.U), ref, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("baseline, ln_pdf", [
        (fa.Rician(1e4), lambda x: ln_pdf_kappa_mu(x, 1e4, 1.0)),
        (fa.KappaMu(3000.0, 2.0), lambda x: ln_pdf_kappa_mu(x, 3000.0, 2.0)),
        (fa.KappaMuShadowed(800.0, 1.5, 3.0), lambda x: ln_pdf_kappa_mu_shadowed(x, 800.0, 1.5, 3.0)),
    ], ids=["rician-1e4", "kappa-mu-3000-2", "kappa-mu-shadowed-800-1.5-3"])
    def test_outage_to_minus_80_db(self, baseline, ln_pdf):
        # 10.7k-13.6k components, past the former 5000-term cap. From 0 dB
        # down, each value matches the oracle to 1e-6 until the outage
        # leaves double's normal range; being monotone, it stays below it
        tiny = np.finfo(float).tiny
        db = np.arange(-80.0, 0.1, 4.0)
        for m in (1.5, 2.5, 12.0, 40.5):
            got = co.outage(co.CompositeModel(m, 1.0, baseline), 10 ** (db / 10), 1.0)
            for k in reversed(range(db.size)):
                ref = math.exp(ln_composite_cdf(ln_pdf, m, 10 ** (db[k] / 10)))
                if ref < tiny:
                    assert np.all(got[:k + 1] < tiny)
                    break
                assert got[k] == pytest.approx(ref, rel=1e-6, abs=0.0)

    def test_lower_tail_components_are_kept(self):
        # at u = 1e-8 the CDF lives in the lowest-shape components, whose
        # Poisson weights are below 1e-14: a mixture cut from below as well
        # as above once gave 9.7e-223 here
        model = co.CompositeModel(2.5, 1.0, fa.Rician(100.0))
        ref = math.exp(ln_composite_cdf(lambda x: ln_pdf_kappa_mu(x, 100.0, 1.0), 2.5, 1e-8))
        got = co.composite_cdf(model, 1e-8)
        assert got == pytest.approx(ref, rel=1e-6, abs=0.0)
        assert got == pytest.approx(6.26e-50, rel=1e-3, abs=0.0)

    def test_twdp_general_route_matches_mixture(self):
        # TWDP's phase integrand summed in log space: its linear form
        # overflowed here once K (1 + delta) was a few hundred
        model = co.CompositeModel(2.5, 1.0, fa.TWDP(400.0, 0.5))
        mixture = co.composite_cdf(model, self.U, S.MIXTURE)
        np.testing.assert_allclose(co.composite_cdf(model, self.U, S.GMGF_GENERAL), mixture,
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(mixture, [0.358139, 0.698696, 0.904722], rtol=0.0, atol=1e-6)

    def test_twdp_without_second_ray_is_rician(self):
        twdp = co.CompositeModel(2.5, 1.0, fa.TWDP(400.0, 0.0))
        rician = co.CompositeModel(2.5, 1.0, fa.Rician(400.0))
        np.testing.assert_allclose(co.composite_cdf(twdp, self.U, S.MIXTURE),
                                   co.composite_cdf(rician, self.U, S.MIXTURE),
                                   rtol=0.0, atol=1e-12)


class TestMixtureCdfKernel:
    """The downward incomplete-beta recurrence against the per-term loop."""

    @pytest.mark.parametrize("baseline", MIXTURE_BASELINES, ids=lambda b: type(b).__name__)
    def test_matches_per_term_loop(self, baseline):
        u = np.logspace(-8, 2.5, 300)
        for m in (1.5, 2.5, 40.5, 1000.0):
            for w_bar in (1.0, 2.3):
                model = co.CompositeModel(m, w_bar, baseline)
                got = co.composite_cdf(model, u, S.MIXTURE)
                np.testing.assert_allclose(got, mixture_cdf_by_terms(model, u),
                                           rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("baseline", MIXTURE_BASELINES + [fa.Rician(1500.0)],
                             ids=[type(b).__name__ for b in MIXTURE_BASELINES] + ["Rician-1500"])
    def test_row_steps_match_blocks(self, baseline):
        # past _F_POINTS points the sum steps row by row; up to it, it takes
        # the blocks checked above against the per-term loop. At m = 1000
        # and x = 0.6 the rows of Rician(1500) underflow at a = 1 and peak
        # near a = 1500, so a step that never restarted from log space
        # would lose the CDF
        u = np.logspace(-8, 2.5, 2 * co._F_POINTS + 48)
        for m in (1.5, 40.5, 1000.0):
            model = co.CompositeModel(m, 1.3, baseline)
            for quantity in (co.composite_cdf, co.composite_pdf):
                whole = quantity(model, u, S.MIXTURE)
                parts = np.concatenate([quantity(model, part, S.MIXTURE)
                                        for part in np.array_split(u, 3)])
                np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-280)

    @pytest.mark.parametrize("baseline, u", [
        (fa.KappaMu(2.0, 1.5), 1e-230),
        (fa.KappaMuShadowed(2.0, 1.5, 3.0), 1e-250),
        (fa.NakagamiM(10.0), 1e-33),
    ], ids=["kappa-mu", "kappa-mu-shadowed", "nakagami"])
    def test_pdf_where_x_to_the_a_underflows(self, baseline, u):
        # x^a_i underflows, or goes subnormal, while x^a_i / t does not: the
        # PDF read 0, 0 and 3.5e-4 too high. NakagamiM(10) is the F law itself
        model = co.CompositeModel(3.0, 1.0, baseline)
        if isinstance(baseline, fa.NakagamiM):
            want = co.f_pdf(co.FDistParams(3.0, 10.0, 1.0), u)
        else:
            want = co.composite_pdf(model, u, S.GMGF_INTEGER)
        # a lone point takes the blocks; past _F_POINTS points, the row steps
        rows = np.concatenate(([u], np.linspace(0.01, 5.0, co._F_POINTS + 8)))
        for got in (co.composite_pdf(model, u, S.MIXTURE),
                    co.composite_pdf(model, rows, S.MIXTURE)[0]):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_empty_and_2d_input(self):
        model = co.CompositeModel(2.5, 1.3, fa.Rician(3.0))
        for quantity in (co.composite_cdf, co.composite_pdf):
            assert quantity(model, np.array([]), S.MIXTURE).shape == (0,)
            u = np.array([[0.2, 0.5, 1.0], [2.0, 4.0, 8.0]])
            np.testing.assert_array_equal(quantity(model, u, S.MIXTURE),
                                          quantity(model, u.ravel(), S.MIXTURE).reshape(u.shape))

    def test_scalar_input(self):
        model = co.CompositeModel(2.5, 1.3, fa.TWDP(4.0, 0.9))
        v = co.composite_cdf(model, 0.4, S.MIXTURE)
        assert isinstance(v, float)
        assert v == pytest.approx(mixture_cdf_by_terms(model, np.array([0.4]))[0],
                                  rel=0.0, abs=1e-11)


class TestTransformRoutesOverArrays:
    """The transform routes sum one series per point side by side; the
    per-point loops above are the reference. Only the summation order
    differs, so the results agree to a few ulps of the term count."""

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=lambda b: type(b).__name__)
    def test_match_per_point_loops(self, baseline):
        u = np.logspace(-2, 1.3, 5 if isinstance(baseline, fa.TWDP) else 30)
        for m in (2.5, 3.0):
            model = co.CompositeModel(m, 1.3, baseline)
            np.testing.assert_allclose(co.composite_cdf(model, u, S.GMGF_GENERAL),
                                       series_cdf_by_points(model, u), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(co.composite_pdf(model, u, S.GMGF_GENERAL),
                                       transform_pdf_by_points(model, u, m), rtol=1e-12)
        model = co.CompositeModel(3.0, 1.3, baseline)
        np.testing.assert_allclose(co.composite_cdf(model, u, S.GMGF_INTEGER),
                                   integer_cdf_by_points(model, u), rtol=0.0, atol=1e-14)

    def test_series_nonconvergence_still_raises(self):
        model = co.CompositeModel(2.5, 1.0, fa.Hoyt(0.5))
        with pytest.raises(nm.ConvergenceError):
            co.composite_cdf(model, np.array([1.0, 1e-4, 0.1]), S.GMGF_GENERAL)

    def test_failure_names_the_model_and_point(self, monkeypatch):
        # a NaN GMGF at u = 0.1 only: the failing series is not the first
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        u = np.array([0.05, 2.0, 0.1])
        s_bad = (1.0 - model.m) * model.w_bar / u[2]
        gmgf_log = fa.gmgf_log
        monkeypatch.setattr(fa, "gmgf_log", lambda b, q, s, tol: np.where(
            s == s_bad, np.nan, gmgf_log(b, q, s, tol)))
        with pytest.raises(nm.ConvergenceError,
                           match=r"^Rician\(k_r=3.0.*\), m = 2.5, u = 0.1: series term 0 is NaN"):
            co.composite_cdf(model, u, S.GMGF_GENERAL)

    def test_gmgf_failure_names_the_model(self, monkeypatch):
        def failing(*args):
            raise nm.ConvergenceError("periodic rule did not converge", 0.5, 1e-3)

        monkeypatch.setattr(fa, "gmgf_log", failing)
        model = co.CompositeModel(2.5, 1.0, fa.Rician(3.0))
        with pytest.raises(nm.ConvergenceError,
                           match=r"^Rician\(k_r=3.0.*\), m = 2.5: periodic rule") as exc:
            co.composite_cdf(model, np.array([0.5, 1.0]), S.GMGF_GENERAL)
        # the GMGF's estimate is no CDF: it stays on __cause__ only
        assert math.isnan(exc.value.estimate) and exc.value.error_bound == math.inf
        assert (exc.value.__cause__.estimate, exc.value.__cause__.error_bound) == (0.5, 1e-3)

    def test_series_failure_carries_the_cdf_estimate(self):
        # cut at 5 terms the partial sum is 0.159: the error carries 1 - 0.159
        model = co.CompositeModel(2.5, 1.0, fa.Hoyt(0.5))
        with pytest.raises(nm.ConvergenceError, match=r"u = 0.05: series did not converge") as exc:
            co.composite_cdf(model, 0.05, tol=nm.Tolerance(max_terms=5))
        inner = exc.value.__cause__
        assert exc.value.estimate == 1.0 - inner.estimate
        assert exc.value.error_bound == inner.error_bound
        # before the terms' peak no bound is known: 3 |last term| read 0.087
        assert abs(exc.value.estimate - co.composite_cdf(model, 0.05)) <= exc.value.error_bound

    @pytest.mark.parametrize("quantity, strategy, m", [
        (co.composite_pdf, S.GMGF_GENERAL, 2.5),
        (co.composite_pdf, S.GMGF_INTEGER, 3.0),
        (co.composite_cdf, S.GMGF_INTEGER, 3.0),
    ], ids=["pdf-general", "pdf-integer", "cdf-integer"])
    def test_nan_gmgf_names_the_model_and_point(self, monkeypatch, quantity, strategy, m):
        # a NaN GMGF at u = 0.1 only was a PDF or CDF term of 0
        model = co.CompositeModel(m, 1.0, fa.Rician(3.0))
        u = np.array([0.05, 2.0, 0.1])
        s_bad = (1.0 - m) * model.w_bar / u[2]
        gmgf_log = fa.gmgf_log
        monkeypatch.setattr(fa, "gmgf_log", lambda b, q, s, tol: np.where(
            s == s_bad, np.nan, gmgf_log(b, q, s, tol)))
        with pytest.raises(nm.ConvergenceError,
                           match=rf"^Rician\(k_r=3.0.*\), m = {m:g}, u = 0.1: the GMGF lost all "
                                 r"precision") as exc:
            quantity(model, u, strategy)
        assert math.isnan(exc.value.estimate) and exc.value.error_bound == math.inf

    @pytest.mark.parametrize("u", [700.0, 1000.0])
    @pytest.mark.parametrize("quantity", [co.composite_pdf, co.composite_cdf],
                             ids=["pdf", "cdf"])
    def test_lost_gmgf_at_large_m_raises(self, quantity, u):
        # Hoyt's GMGF is NaN at these orders and arguments. The PDF read 0
        # (it is 2.1446e-174 at u = 700); the CDF summed 353 NaN terms of
        # 2001 as zeros
        model = co.CompositeModel(2001.0, 1.0, fa.Hoyt(0.5))
        with pytest.raises(nm.ConvergenceError,
                           match=rf"^Hoyt\(q=0.5, omega_x=1.0\), m = 2001, u = {u:g}: "
                                 r"the GMGF lost all precision"):
            quantity(model, u)

    def test_large_m_pdf_where_the_gmgf_holds(self):
        # mpmath, by quadrature centred on the integrand's peak
        model = co.CompositeModel(2001.0, 1.0, fa.Hoyt(0.5))
        assert co.composite_pdf(model, 500.0) == pytest.approx(1.46048056438e-128, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2(b): every term before the series' "
                                           "peak is below abs_tol, so the 3-quiet-terms rule "
                                           "stops at once")
    def test_series_stop_rule_waits_for_the_peak(self):
        # NakagamiM's composite is exactly the F law; the series gives
        # 1 - 4e-16 for 1.3e-17. Raising would also be right
        model = co.CompositeModel(2.5, 1.0, fa.NakagamiM(8.0))
        exact = co.f_cdf(co.FDistParams(2.5, 8.0, 1.0), 1e-3)
        try:
            got = co.composite_cdf(model, 1e-3, S.GMGF_GENERAL)
        except nm.ConvergenceError:
            return
        assert got == pytest.approx(exact, rel=1e-6)

    def test_lost_precision_raises(self):
        # at m = 40.5 and u = 1e-4 the Hoyt terms stay flat until the GMGF
        # turns NaN near order 1e4; summed as zeros, that read as converged
        model = co.CompositeModel(40.5, 1.0, fa.Hoyt(0.5))
        with pytest.raises(nm.ConvergenceError):
            co.composite_cdf(model, np.array([1e-4, 1e-2]), S.GMGF_GENERAL)

    def test_points_below_float_range(self):
        model = co.CompositeModel(3.0, 1.0, fa.NakagamiM(2.0))
        for strat in (S.GMGF_GENERAL, S.GMGF_INTEGER):
            assert co.composite_cdf(model, np.array([1e-320]), strat)[0] == 0.0


class TestLargeShapeDegeneracy:
    def test_converges_to_baseline(self):
        baseline = fa.TWDP(7.0, 0.7)
        model = co.CompositeModel(1000.0, 1.0, baseline)
        us = np.linspace(0.1, 3.0, 15)
        comp = co.composite_pdf(model, us, S.MIXTURE)
        base = fa.pdf(baseline, us)
        assert np.max(np.abs(comp - base)) < 1e-2
