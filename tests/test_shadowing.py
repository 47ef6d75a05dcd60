import dataclasses
import math
import typing

import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from igcomposite import montecarlo as mc
from igcomposite import shadowing as sh
from igcomposite.fitting import cvm_statistic

ALL_MODELS = [
    sh.Lognormal(mu=0.3, sigma=1.1),
    sh.GammaShadowing(k=2.4, omega=1.3),
    sh.InverseGaussian(mu_i=1.2, lam=3.0),
    sh.InverseGamma(m=3.5, omega_i=0.8),
]


class TestValidation:
    def test_inverse_gamma_requires_mean(self):
        with pytest.raises(ValueError):
            sh.InverseGamma(m=1.0, omega_i=1.0)
        with pytest.raises(ValueError):
            sh.InverseGamma(m=0.5, omega_i=1.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            sh.Lognormal(mu=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            sh.GammaShadowing(k=-1.0, omega=1.0)
        with pytest.raises(ValueError):
            sh.InverseGaussian(mu_i=1.0, lam=0.0)


class TestCdf:
    def test_examples(self):
        assert sh.cdf(sh.Lognormal(0.7, 0.4), math.exp(0.7)) == pytest.approx(0.5, abs=1e-14)
        assert sh.cdf(sh.GammaShadowing(1.0, 2.0), 2.0) == pytest.approx(
            1 - math.exp(-1), rel=1e-12
        )
        assert sh.cdf(sh.InverseGamma(2.0, 1.0), 1.0) == pytest.approx(
            2 * math.exp(-1), rel=1e-12
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_domain(self, model):
        with pytest.raises(ValueError):
            sh.cdf(model, 0.0)
        with pytest.raises(ValueError):
            sh.cdf(model, -1.0)

    @pytest.mark.parametrize("y", [math.nan, math.inf, [1.0, math.nan]], ids=repr)
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_non_finite_argument_raises(self, model, y):
        # NaN once passed through as a NaN CDF and PDF
        for fn in (sh.cdf, sh.pdf):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                fn(model, y)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_limits(self, model):
        assert sh.cdf(model, 1e-12) <= 1e-10
        assert sh.cdf(model, 1e12) >= 1 - 1e-10

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_monotone(self, model):
        ys = np.logspace(-3, 3, 200)
        vals = sh.cdf(model, ys)
        assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_cdf_matches_pdf_quadrature(self, model):
        for y in (0.4, 1.0, 2.7):
            integral, _ = quad(lambda t: sh.pdf(model, t), 0, y, limit=200)
            assert sh.cdf(model, y) == pytest.approx(integral, abs=1e-8)


class TestPdf:
    def test_examples(self):
        assert sh.pdf(sh.GammaShadowing(1.0, 1.0), 0.5) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        assert sh.pdf(sh.InverseGamma(2.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1), rel=1e-12
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_normalization(self, model):
        integral, _ = quad(lambda t: sh.pdf(model, t), 0, np.inf, limit=400)
        assert integral == pytest.approx(1.0, abs=1e-9)


class TestLogDomainCdf:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_identity(self, model):
        for t in (-2.0, 0.0, 1.5):
            assert sh.log_domain_cdf(model, t) == sh.cdf(model, math.exp(t))

    def test_examples(self):
        assert sh.log_domain_cdf(sh.Lognormal(0.0, 0.8), 0.0) == pytest.approx(0.5)
        assert sh.log_domain_cdf(sh.InverseGamma(2.0, 1.0), 0.0) == pytest.approx(
            2 * math.exp(-1), rel=1e-12
        )

    def test_extreme_arguments_saturate(self):
        model = sh.InverseGamma(3.0, 1.0)
        assert sh.log_domain_cdf(model, -1e4) == pytest.approx(0.0, abs=1e-12)
        assert sh.log_domain_cdf(model, 1e4) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_mean(self):
        xs = sh.sample_inverse_gamma(5.0, 1.0, 10**6, seed=42)
        # Var[xi] = omega^2/(m-2) = 1/3
        stderr = math.sqrt(1.0 / 3.0 / 10**6)
        assert abs(xs.mean() - 1.0) < 3 * stderr

    def test_determinism(self):
        a = sh.sample_inverse_gamma(3.0, 2.0, 1000, seed=7)
        b = sh.sample_inverse_gamma(3.0, 2.0, 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_ecdf_against_cdf(self):
        m, om = 5.0, 1.0
        xs = sh.sample_inverse_gamma(m, om, 10**6, seed=3)
        ecdf = mc.empirical_cdf(xs).thin(5000)
        model = sh.InverseGamma(m, om)
        res = mc.compare(ecdf, lambda t: sh.cdf(model, t))
        assert res.sup_distance + 250 / 10**6 < 0.002

    def test_reciprocal_gamma_duality(self):
        # 1/xi is gamma with shape m and mean m/((m-1) omega_i)
        m, om = 4.0, 0.7
        xs = sh.sample_inverse_gamma(m, om, 10**5, seed=11)
        recip = 1.0 / xs
        gamma_model = sh.GammaShadowing(k=m, omega=m / ((m - 1.0) * om))
        ecdf = mc.empirical_cdf(recip)
        stat = cvm_statistic(ecdf, lambda t: sh.cdf(gamma_model, t), support_pad=0.0)
        wrong = sh.GammaShadowing(k=m + 2.0, omega=m / ((m - 1.0) * om))
        stat_wrong = cvm_statistic(ecdf, lambda t: sh.cdf(wrong, t), support_pad=0.0)
        assert stat < 5e-4
        assert stat < stat_wrong / 20

    def test_domain(self):
        with pytest.raises(ValueError):
            sh.sample_inverse_gamma(1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            sh.sample_inverse_gamma(2.0, 1.0, 0, seed=0)


@pytest.mark.parametrize("cls", typing.get_args(sh.ShadowingModel), ids=lambda c: c.__name__)
def test_every_law_implements_cdf_and_pdf(cls):
    model = cls(**{f.name: 1.5 for f in dataclasses.fields(cls)})
    y = np.array([0.5, 1.0, 2.0])
    cdf, pdf = model.cdf(y), model.pdf(y)
    assert np.all((cdf > 0) & (cdf < 1)) and np.all(np.diff(cdf) > 0)
    assert np.all(pdf > 0)
    assert sh.cdf(model, 1.0) == model.cdf(1.0) == cdf[1]
    assert sh.pdf(model, 1.0) == model.pdf(1.0) == pdf[1]


def closed_form(model, y):
    """(PDF, CDF) as each law's closed form reads in double arithmetic, with
    no care for the ends of double range (the inverse Gaussian CDF's second
    term in log space, as exp(2 lam / mu) overflows in the bulk)."""
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        if isinstance(model, sh.Lognormal):
            z = (np.log(y) - model.mu) / model.sigma
            return (np.exp(-0.5 * z * z) / (y * model.sigma * np.sqrt(2.0 * np.pi)),
                    0.5 + 0.5 * sc.erf(z / np.sqrt(2.0)))
        if isinstance(model, sh.GammaShadowing):
            k, om = model.k, model.omega
            return (np.exp(k * np.log(k / om) + (k - 1.0) * np.log(y) - k * y / om
                           - sc.gammaln(k)),
                    sc.gammainc(k, k * y / om))
        if isinstance(model, sh.InverseGaussian):
            mu, lam = model.mu_i, model.lam
            root, ratio = np.sqrt(lam / y), y / mu
            return (np.sqrt(lam / (2.0 * np.pi * y**3))
                    * np.exp(-lam * (y - mu) ** 2 / (2.0 * mu**2 * y)),
                    sc.ndtr(root * (ratio - 1.0))
                    + np.exp(2.0 * lam / mu + sc.log_ndtr(-root * (ratio + 1.0))))
        m, rate = model.m, model.omega_i * (model.m - 1.0)
        return (np.exp(m * np.log(rate) - sc.gammaln(m) - (m + 1.0) * np.log(y) - rate / y),
                sc.gammaincc(m, rate / y))


# log_domain_cdf maps ln y in [-745, 709]; at every one of these y each law
# below has reached its limits: PDF 0, CDF 0 below the bulk and 1 above it
EXTREME_Y = [math.exp(-745.0), 1e-320, 1e-110, 1e110, 1e308, math.exp(709.0)]
LIMIT_MODELS = [sh.Lognormal(0.0, 1.0), sh.GammaShadowing(2.0, 1.0),
                sh.InverseGaussian(1.0, 1.0), sh.InverseGamma(3.0, 2.0)]


@pytest.mark.parametrize("y", EXTREME_Y, ids=lambda y: f"{y:.3g}")
@pytest.mark.parametrize("model", LIMIT_MODELS, ids=lambda m: type(m).__name__)
def test_ends_of_the_log_domain_reach_the_limits(model, y):
    # a RuntimeWarning is an error under pytest: InverseGaussian(1, 1).pdf
    # at 1e-110 was NaN, and four of these points raised one
    pdf, cdf = sh.pdf(model, y), sh.cdf(model, y)
    assert pdf == pytest.approx(0.0, abs=1e-100)
    assert cdf == pytest.approx(0.0 if y < 1.0 else 1.0, abs=1e-100)
    for value, formula in zip((pdf, cdf), closed_form(model, y)):
        if math.isfinite(formula):
            assert value == pytest.approx(float(formula), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("model", [
    sh.Lognormal(-3.0, 0.01), sh.Lognormal(5.0, 5.0), sh.GammaShadowing(0.05, 1e-6),
    sh.GammaShadowing(1e4, 1e6), sh.InverseGaussian(1e-6, 1e6), sh.InverseGaussian(1e6, 1e-6),
    sh.InverseGaussian(3.0, 50.0), sh.InverseGamma(1.0 + 1e-6, 1e6), sh.InverseGamma(1e4, 1e-6),
], ids=repr)
def test_finite_over_the_log_domain_and_equal_to_the_closed_form(model):
    # corners of the fit's parameter box, over the whole log domain
    y = np.exp(np.linspace(-745.0, 709.0, 20001))
    pdf, cdf = sh.pdf(model, y), sh.cdf(model, y)
    assert np.all(np.isfinite(pdf)) and np.all(np.isfinite(cdf))
    for value, formula in zip((pdf, cdf), closed_form(model, y)):
        ok = np.isfinite(formula)
        np.testing.assert_allclose(value[ok], formula[ok], rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_log_slope_is_the_derivative_of_ln_y_f(model):
    # d ln(y f(y)) / d ln y, by central differences in ln y
    t, h = np.linspace(-2.0, 2.0, 41), 1e-5
    def ln_g(t):
        return t + np.log(sh.pdf(model, np.exp(t)))
    want = (ln_g(t + h) - ln_g(t - h)) / (2.0 * h)
    np.testing.assert_allclose(model._log_slope(np.exp(t)), want, rtol=1e-7, atol=1e-7)
