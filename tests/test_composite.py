import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import numerics as nm

S = co.Strategy


def closed_form_rayleigh_cdf(u):
    # IG(m=2)/Rayleigh with unit mean power
    return u * (u + 2.0) / (u + 1.0) ** 2


def mixture_cdf_by_terms(model, u):
    """Loop reference for the mixture route: one incomplete beta per F term."""
    mix = co.mixture_of_f(model)
    total = np.zeros_like(u)
    for term in mix.terms:
        m, k, om = term.params.m, term.params.k, term.params.omega
        total += term.weight * sc.betainc(k, m, k * u / (k * u + (m - 1.0) * om))
    return np.clip(mix.prefactor * total, 0.0, 1.0)


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

    @pytest.mark.parametrize("th", [[1e-2, 0.0, 0.1], [1e-2, -1.0], [np.nan, 1.0]])
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
        assert len(mix.terms) == 1
        term = mix.terms[0]
        assert term.params == co.FDistParams(3.0, 2.2, 2.0)

    def test_twdp_delta0_poisson(self):
        K = 3.0
        model = co.CompositeModel(2.0, 1.0, fa.TWDP(K, 0.0))
        mix = co.mixture_of_f(model)
        assert mix.prefactor == pytest.approx(math.exp(-K))
        assert mix.terms[1].weight == pytest.approx(K, rel=1e-10)
        assert mix.terms[1].params.k == 2.0

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
