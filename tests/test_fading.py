import dataclasses
import math
import typing
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc
import scipy.stats as st
from scipy.integrate import quad

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import montecarlo as mc
from igcomposite import numerics as nm

from oracles import gmgf_quadrature, oracle_pdf, pdf_twdp

MODELS = [
    fa.Rayleigh(),
    fa.Rician(k_r=4.0),
    fa.NakagamiM(m_f=2.7),
    fa.Hoyt(q=0.6),
    fa.KappaMu(kappa=2.0, mu=1.5),
    fa.EtaMu(eta=0.4, mu=1.2),
    fa.KappaMuShadowed(kappa=2.0, mu=1.5, m_f=3.0),
    fa.TWDP(k_r=4.0, delta=0.9),
]


class TestValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            fa.Rayleigh(omega_x=0.0)
        with pytest.raises(ValueError):
            fa.Rician(k_r=-0.1)
        with pytest.raises(ValueError):
            fa.NakagamiM(m_f=0.4)
        with pytest.raises(ValueError):
            fa.Hoyt(q=0.0)
        with pytest.raises(ValueError):
            fa.Hoyt(q=1.2)
        with pytest.raises(ValueError):
            fa.EtaMu(eta=1.5, mu=1.0)
        with pytest.raises(ValueError):
            fa.TWDP(k_r=1.0, delta=1.0001)


def twdp_closed_log_by_order(model, p, s):
    """The paper's integer-order TWDP GMGF closed form at one (p, s), its 1F2
    brackets and phase sums rebuilt for every order: a reference for the
    periodic integral that gmgf_log uses at every order."""
    K, D, om = model.k_r, model.delta, model.omega_x
    den = K + 1.0 - s * om
    zeta = K * D * s * om / den
    z4 = 0.25 * zeta * zeta
    brackets = []
    for j in range(p + 1):
        if j % 2 == 0:
            a, b, scale = (j + 1) / 2, 0.5, 2.0
        else:
            a, b, scale = (j + 2) / 2, 1.5, 2.0 * zeta
        brackets.append(scale * sc.beta(a, 0.5) * nm.hyp1f2(a, b, a + 0.5, z4))
    ln_abs, signs = [], []
    for q in range(p + 1):
        inner = sum(0.5 * math.comb(q, j) * D**j * brackets[j] for j in range(q + 1))
        ln_abs.append(2.0 * sc.gammaln(p + 1.0) - 2.0 * sc.gammaln(q + 1.0)
                      - sc.gammaln(p - q + 1.0) + q * math.log(K) + (q + 1.0) * math.log(K + 1.0)
                      - (p + q + 1.0) * math.log(den) + math.log(abs(inner)))
        signs.append(math.copysign(1.0, inner))
    ref = max(ln_abs)
    total = sum(sg * math.exp(v - ref) for sg, v in zip(signs, ln_abs))
    return p * math.log(om) - math.log(math.pi) + K * s * om / den + ref + math.log(total)


def twdp_gmgf_log_mpmath(model, p, s):
    """ln phi^(p)(s) for TWDP at 30 digits: the periodic phase integral of
    the Laplace-transformed integral-form PDF, by mpmath quadrature."""
    with mpmath.workdps(30):
        K, D, om = (mpmath.mpf(v) for v in (model.k_r, model.delta, model.omega_x))
        den = 1 + K - mpmath.mpf(s) * om
        c = K * (1 + K) / den

        def integrand(a):
            cos = mpmath.cos(a)
            return mpmath.exp(-K * D * cos) * mpmath.hyp1f1(p + 1, 1, c * (1 + D * cos))

        # the integrand is even about pi
        val = 2 * mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi])
        return float(mpmath.log(1 + K) - K + mpmath.loggamma(p + 1) - mpmath.log(2 * mpmath.pi)
                     + p * mpmath.log(om) - (p + 1) * mpmath.log(den) + mpmath.log(val))


class TestGmgf:
    def test_trivial_examples(self):
        assert fa.gmgf(fa.Rayleigh(), 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert fa.gmgf(fa.Rayleigh(), 0.0, -1.0) == pytest.approx(0.5, rel=1e-12)

    def test_kms_kappa_zero_collapses_to_nakagami(self):
        kms = fa.KappaMuShadowed(kappa=0.0, mu=1.7, m_f=3.0)
        nak = fa.NakagamiM(m_f=1.7)
        for p in (0.5, 1.0, 2.0, 3.7):
            for s in (-0.1, -1.0, -10.0):
                assert fa.gmgf(kms, p, s) == pytest.approx(fa.gmgf(nak, p, s), rel=1e-12)

    @pytest.mark.parametrize("p", [2.5, 10.5, 50.5])
    def test_large_argument_1f1(self, p):
        # K(1+K)/(1+K-s) ~ 1000: 1F1 itself overflows here, so the value
        # passes through Kummer's transformation
        K, s = 1000.0, -0.05
        den = 1.0 + K - s
        ref = (mpmath.loggamma(p + 1) + mpmath.log(1 + K) - K - (p + 1) * mpmath.log(den)
               + mpmath.log(mpmath.hyp1f1(p + 1, 1, K * (1 + K) / den)))
        assert fa.gmgf_log(fa.Rician(K), p, s) == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("p", [150.0, 200.0, 400.0])
    def test_direct_1f1_past_double_range(self, p):
        # at w = 399.5 < 600, 1F1(p+1; 1; w) overflows while ln phi is
        # finite: the value passes through Kummer's transformation (NaN once)
        K, s = 400.0, -0.5
        den = 1.0 + K - s
        with mpmath.workdps(30):
            ref = (mpmath.loggamma(p + 1) + mpmath.log(1 + K) - K - (p + 1) * mpmath.log(den)
                   + mpmath.log(mpmath.hyp1f1(p + 1, 1, K * (1 + K) / den)))
        assert fa.gmgf_log(fa.Rician(K), p, s) == pytest.approx(float(ref), rel=1e-12)

    def test_value_past_double_range_raises(self):
        # 170! = 7.3e306 is a double; 200! = 7.9e374 is not, though its log is
        assert fa.gmgf(fa.Rayleigh(), 170.0, 0.0) == pytest.approx(float(math.factorial(170)),
                                                                   rel=1e-12)
        with pytest.raises(nm.ConvergenceError,
                           match=r"^Rayleigh\(omega_x=1.0\): GMGF at p = 200.0, s = 0.0 is "
                                 r"past double range \(ln phi = 863.23"):
            fa.gmgf(fa.Rayleigh(), 200.0, 0.0)

    def test_large_argument_1f1_out_of_range_raises(self):
        # 1F1(1001.5; 1; 1000) is beyond double precision in either form
        with pytest.raises(nm.ConvergenceError):
            fa.gmgf(fa.Rician(1000.0), 1000.5, -0.05)

    def test_quadrature_failure_names_model_and_point(self):
        # 1F1(1001.5; 1; w) is past double range in either form at every
        # phase: the error says which model and which (p, s); the inner
        # estimate, ln of a phase integral, is not phi and stays on __cause__
        model = fa.TWDP(1000.0, 1.0)
        with pytest.raises(nm.ConvergenceError,
                           match=r"^TWDP\(k_r=1000.0, delta=1.0, omega_x=1.0\): GMGF at "
                                 r"p = 1000.5, s = -0.05: quadrature sum is not finite") as exc:
            fa.gmgf(model, 1000.5, -0.05)
        assert isinstance(exc.value.__cause__, nm.ConvergenceError)
        assert math.isnan(exc.value.estimate) and exc.value.error_bound == math.inf

    def test_twdp_closed_form_vs_quadrature(self):
        model = fa.TWDP(k_r=4.0, delta=0.9)
        val = fa.gmgf(model, 2.0, -1.5)
        brute = gmgf_quadrature(model, 2.0, -1.5)
        assert val == pytest.approx(brute, rel=1e-7)

    def test_twdp_closed_form_over_orders_matches_loop(self):
        # one (orders x points) block, as the transform CDF series asks for
        model = fa.TWDP(k_r=4.0, delta=0.9)
        p = np.arange(3.0, 43.0)[None, :]
        s = np.array([[-0.2], [-3.0], [-40.0], [-3.0]])
        got = fa.gmgf_log(model, p, s)
        ref = [[twdp_closed_log_by_order(model, int(pi), float(si)) for pi in p[0]]
               for si in s[:, 0]]
        np.testing.assert_allclose(got, ref, rtol=1e-11)

    def test_twdp_lost_precision(self):
        # where the paper's integer-order closed form loses precision (NaN
        # at the first case, off by 3e-11 at the second), the periodic
        # integral matches a 30-digit evaluation
        for model, p, s in ((fa.TWDP(k_r=30.0, delta=1.0), 32.0, -100.0),
                            (fa.TWDP(k_r=4.0, delta=0.9), 42.0, -40.0)):
            assert fa.gmgf_log(model, p, s) == pytest.approx(
                twdp_gmgf_log_mpmath(model, p, s), rel=0.0, abs=1e-11
            )

    def test_twdp_strong_specular_matches_mpmath(self):
        # the phase integrand's linear form overflowed here
        model = fa.TWDP(400.0, 0.5)
        assert fa.gmgf_log(model, 40.0, -0.5) == pytest.approx(
            twdp_gmgf_log_mpmath(model, 40, -0.5), rel=0.0, abs=1e-12
        )

    def test_check_integral_has_no_false_zero(self):
        # the `gmgf --check` integrand of NakagamiM, whose peak is far
        # narrower than the first grids at large m_f: 71 of these 378
        # integrals once converged to 0
        for m_f in (1, 5, 20, 50, 500, 5000):
            for om in np.logspace(-10, 10, 21):
                model = fa.NakagamiM(m_f, om)
                for p, s in ((0.0, 0.0), (2.0, -1.0 / om), (10.0, -5.0 / om)):
                    def ln_f(x):
                        with np.errstate(divide="ignore"):
                            return p * np.log(x) + s * x + np.log(fa.pdf(model, x))

                    assert nm.integrate_semi_infinite(ln_f) == pytest.approx(
                        fa.gmgf_log(model, p, s), rel=0.0, abs=1e-9
                    )

    def test_twdp_real_p_fallback(self):
        model = fa.TWDP(k_r=4.0, delta=0.9)
        val = fa.gmgf(model, 3.7, -1.5)
        brute = gmgf_quadrature(model, 3.7, -1.5)
        assert val == pytest.approx(brute, rel=1e-7)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_log_over_arrays_matches_scalar_calls(self, model):
        # p and s broadcast; TWDP's integral runs all pairs on one phase grid
        p = np.array([[0.0], [1.0], [2.5], [3.7], [7.0]])
        s = np.array([-0.1, -1.0, -10.0])
        got = fa.gmgf_log(model, p, s)
        assert got.shape == (5, 3)
        ref = [[fa.gmgf_log(model, float(pi), float(si)) for si in s] for pi in p[:, 0]]
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("model, p, s", [
        (fa.Hoyt(0.5), 2000.0, -1.0),
        (fa.Hoyt(0.5), 6000.0, -0.01),
        (fa.EtaMu(0.4, 1.2), 1000.0, -0.01),
        (fa.EtaMu(0.05, 0.7), 2000.0, -0.01),
        (fa.KappaMuShadowed(10.0, 1.5, 0.6), 1000.0, -0.001),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, float) else str(v))
    def test_overflowing_hyp2f1_is_nan_not_inf(self, model, p, s):
        # 2F1 overflows double precision there, while ln phi is finite (mpmath:
        # 12230.80 for Hoyt at p = 2000, s = -1): the log is unknown, so it is NaN, a
        # series reaching that term raises, and gmgf raises
        assert math.isnan(fa.gmgf_log(model, p, s))
        with pytest.raises(nm.ConvergenceError, match="lost all precision") as exc:
            fa.gmgf(model, p, s)
        # the message names the model (e.g. `Hoyt(q=0.5, ...`), p, s and the cause
        assert repr(model) in str(exc.value)
        assert f"p = {p}, s = {s}" in str(exc.value)
        assert "left double range" in str(exc.value)
        # in an array only the overflowing entry turns NaN
        low, high = fa.gmgf_log(model, np.array([3.0, p]), s)
        assert low == pytest.approx(fa.gmgf_log(model, 3.0, s), rel=1e-12)
        assert math.isnan(high)

    def test_domain(self):
        with pytest.raises(ValueError):
            fa.gmgf(fa.Rayleigh(), -0.5, -1.0)
        with pytest.raises(ValueError):
            fa.gmgf(fa.Rayleigh(), 1.0, 0.5)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
    def test_moments_match_pdf_quadrature(self, model, p):
        val = fa.gmgf(model, p, 0.0)
        f = oracle_pdf(model)
        brute, _ = quad(lambda x: x**p * f(x), 0, np.inf, limit=400)
        assert val == pytest.approx(brute, rel=1e-7)

    @pytest.mark.parametrize(
        "model",
        [fa.Rician(4.0), fa.NakagamiM(2.7), fa.KappaMuShadowed(2.0, 1.5, 3.0),
         fa.TWDP(4.0, 0.9)],
        ids=lambda m: type(m).__name__,
    )
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_mgf_derivative(self, model, p):
        # Richardson-extrapolated central differences of the plain MGF
        s, h = -1.0, 1e-4
        g = lambda x: fa.gmgf(model, 0.0, x)
        if p == 1:
            d_h = (g(s + h) - g(s - h)) / (2 * h)
            d_2h = (g(s + 2 * h) - g(s - 2 * h)) / (4 * h)
        else:
            d_h = (g(s + h) - 2 * g(s) + g(s - h)) / h**2
            d_2h = (g(s + 2 * h) - 2 * g(s) + g(s - 2 * h)) / (4 * h**2)
        richardson = (4 * d_h - d_2h) / 3
        assert fa.gmgf(model, float(p), s) == pytest.approx(richardson, rel=1e-4)


class TestHierarchyCollapses:
    GRID = [(p, s) for p in (0.5, 1.0, 2.0) for s in (-0.1, -1.0, -10.0)]
    INT_GRID = [(p, s) for p in (0.0, 1.0, 2.0, 3.0) for s in (-0.1, -1.0, -10.0)]

    def _agree(self, a, b, grid):
        for p, s in grid:
            assert fa.gmgf(a, p, s) == pytest.approx(fa.gmgf(b, p, s), rel=1e-9)

    def test_kms_to_nakagami(self):
        self._agree(fa.KappaMuShadowed(0.0, 1.7, 3.0), fa.NakagamiM(1.7), self.GRID)

    def test_rician_is_kappa_mu(self):
        self._agree(fa.Rician(3.0), fa.KappaMu(3.0, 1.0), self.GRID)

    def test_hoyt_q1_is_rayleigh(self):
        self._agree(fa.Hoyt(1.0), fa.Rayleigh(), self.GRID)

    def test_twdp_delta0_is_rician(self):
        self._agree(fa.TWDP(4.0, 0.0), fa.Rician(4.0), self.INT_GRID)

    def test_hoyt_is_eta_mu_half(self):
        self._agree(fa.Hoyt(0.6), fa.EtaMu(eta=0.36, mu=0.5), self.GRID)

    @pytest.mark.parametrize("model,k", [
        (fa.KappaMu(0.0, 0.3), 0.3),
        (fa.KappaMuShadowed(0.0, 0.3, 2.0), 0.3),
        (fa.EtaMu(1.0, 0.2), 0.4),
    ], ids=repr)
    def test_gamma_limits_below_the_nakagami_range(self, model, k):
        # shape k < 1/2 is no valid NakagamiM, but still the gamma law
        for x in (0.1, 0.8, 2.0):
            assert fa.pdf(model, x) == pytest.approx(st.gamma.pdf(x, k, scale=1.0 / k), rel=1e-12)
        for p, s in self.GRID:
            ref = math.exp(sc.gammaln(p + k) - sc.gammaln(k) - p * math.log(k)
                           - (p + k) * math.log1p(-s / k))
            assert fa.gmgf(model, p, s) == pytest.approx(ref, rel=1e-12)


class TestPdf:
    def test_examples(self):
        assert fa.pdf(fa.Rayleigh(), 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
        for x in (0.3, 1.0, 2.5):
            assert fa.pdf(fa.TWDP(0.0, 0.7), x) == pytest.approx(
                fa.pdf(fa.Rayleigh(), x), rel=1e-12
            )

    def test_twdp_mixture_vs_integral(self):
        model = fa.TWDP(4.0, 0.5)
        mix = fa.gamma_mixture(model)
        shapes = mix.shape + np.arange(mix.weights.size)
        for x in (0.2, 0.7, 1.5, 4.0):
            recon = mix.weights @ st.gamma.pdf(x, shapes, scale=mix.scale)
            assert recon == pytest.approx(fa.pdf(model, x), abs=1e-8)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_normalization(self, model):
        integral, _ = quad(lambda x: fa.pdf(model, x), 0, np.inf, limit=300)
        assert integral == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_against_oracle_transcription(self, model):
        f = oracle_pdf(model)
        for x in (0.1, 0.8, 2.0):
            assert fa.pdf(model, x) == pytest.approx(f(x), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            fa.pdf(fa.Rayleigh(), 0.0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("x", [math.nan, math.inf, [0.5, math.nan]], ids=repr)
    def test_non_finite_argument_raises(self, model, x):
        # NaN once passed through as a NaN PDF; TWDP at inf warned and gave 0
        with pytest.raises(ValueError, match="must be finite and > 0"):
            fa.pdf(model, x)

    def test_quadrature_failure_names_model_and_points(self):
        # TWDP's phase integral cannot meet 1e-15 on 32 points. The inner
        # estimate is ln of the phase integrals, [2.16, 4.40] here, not the
        # PDF [0.569, 0.438]: the error carries NaN and the inner one stays
        # on __cause__
        tol = nm.Tolerance(rel_tol=1e-15, max_subdivisions=1)
        with pytest.raises(nm.ConvergenceError,
                           match=r"^TWDP\(k_r=4.0, delta=0.9, omega_x=1.0\): PDF at "
                                 r"x = \[0.5 1. \]: quadrature did not converge on 32 points") as exc:
            fa.pdf(fa.TWDP(4.0, 0.9), [0.5, 1.0], tol)
        assert isinstance(exc.value.__cause__, nm.ConvergenceError)
        assert math.isnan(exc.value.estimate) and exc.value.error_bound == math.inf
        with pytest.raises(nm.ConvergenceError, match=r"PDF at x = 0.5: "):
            fa.pdf(fa.TWDP(4.0, 0.9), 0.5, tol)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("omega_x", [1.0, 1.3])
    def test_far_tail_is_zero(self, model, omega_x):
        # the Bessel and 1F1 factors are NaN this far out, and TWDP's phase
        # peak is narrower than any grid: the density is exactly 0 there
        model = dataclasses.replace(model, omega_x=omega_x)
        xs = omega_x * np.array([1e12, 1e15, 1e100, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            at_one = fa.pdf(model, 1.0)
            assert [fa.pdf(model, x) for x in xs] == [0.0] * 4
            got = fa.pdf(model, np.r_[1.0, xs])
        assert got[0] == at_one > 0
        assert np.all(got[1:] == 0.0)

    @pytest.mark.parametrize("model, xs", [
        (fa.TWDP(400.0, 0.5), [2.524]),
        (fa.TWDP(30.0, 1.0, omega_x=1.3), 1.3 * np.logspace(-4, 1, 6)),
    ], ids=["K400-tail-point", "K30-log-grid"])
    def test_twdp_against_mpmath(self, model, xs):
        # far in the tail (1.1e-24 at the first point, 8e-28 at x = 13 in
        # the second) the phase integral must still meet its relative budget
        K, D, om = (mpmath.mpf(v) for v in (model.k_r, model.delta, model.omega_x))

        def ref(x):
            x = mpmath.mpf(x)
            big_a = K * (1 + K) * x / om
            inner = mpmath.quad(
                lambda a: mpmath.exp(-K * D * mpmath.cos(a))
                * mpmath.besseli(0, 2 * mpmath.sqrt(big_a * (1 + D * mpmath.cos(a)))),
                mpmath.linspace(0, mpmath.pi, 9), method="gauss-legendre",
            )
            return (1 + K) / (mpmath.pi * om) * mpmath.exp(-(1 + K) * x / om - K) * inner

        got = fa.pdf(model, np.asarray(xs))
        with mpmath.workdps(20):
            want = np.array([float(ref(x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestOraclesAtStrongLineOfSight:
    """The oracle PDFs stay finite and normalized where e^(mu kappa) and the
    direct 1F1 leave double range."""

    CASES = [
        (fa.KappaMu(3000.0, 2.0), [0.9, 1.0, 1.05]),
        (fa.KappaMuShadowed(800.0, 1.5, 3.0), [0.3, 1.0, 2.5]),
    ]

    @staticmethod
    def _mpmath_pdf(model, x):
        x = mpmath.mpf(x)
        kap, mu = mpmath.mpf(model.kappa), mpmath.mpf(model.mu)
        if isinstance(model, fa.KappaMu):
            return (mu * (1 + kap) ** ((mu + 1) / 2) / (kap ** ((mu - 1) / 2) * mpmath.exp(mu * kap))
                    * x ** ((mu - 1) / 2) * mpmath.exp(-mu * (1 + kap) * x)
                    * mpmath.besseli(mu - 1, 2 * mu * mpmath.sqrt(kap * (1 + kap) * x)))
        mf = mpmath.mpf(model.m_f)
        return (mu**mu * mf**mf * (1 + kap) ** mu / (mpmath.gamma(mu) * (mu * kap + mf) ** mf)
                * x ** (mu - 1) * mpmath.exp(-mu * (1 + kap) * x)
                * mpmath.hyp1f1(mf, mu, mu * mu * kap * (1 + kap) / (mu * kap + mf) * x))

    IDS = ["kappa-mu-3000-2", "kappa-mu-shadowed-800-1.5-3"]

    @pytest.mark.parametrize("model, xs", CASES, ids=IDS)
    def test_unit_mass(self, model, xs):
        f = oracle_pdf(model)
        mass, _ = quad(f, 0.0, 50.0, points=[1.0], limit=400, epsabs=0.0, epsrel=1e-12)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("model, xs", CASES, ids=IDS)
    def test_matches_mpmath_and_the_library(self, model, xs):
        got = oracle_pdf(model)(np.array(xs))
        with mpmath.workdps(30):
            want = np.array([float(self._mpmath_pdf(model, x)) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(fa.pdf(model, np.array(xs)), got, rtol=1e-9, atol=0.0)


class TestGammaMixture:
    def test_nakagami_single_term(self):
        mix = fa.gamma_mixture(fa.NakagamiM(2.3, omega_x=1.4))
        assert mix.weights.tolist() == [1.0]
        assert mix.shape == 2.3
        assert mix.shape * mix.scale == 1.4

    def test_twdp_delta0_poisson(self):
        K = 3.0
        mix = fa.gamma_mixture(fa.TWDP(K, 0.0))
        assert mix.shape == 1.0
        assert mix.scale == pytest.approx(1.0 / (K + 1.0))
        for j, weight in enumerate(mix.weights[:8]):
            assert weight == pytest.approx(
                math.exp(-K) * K**j / math.factorial(j), rel=1e-10
            )

    @pytest.mark.parametrize("K,D", [(2.0, 0.5), (4.0, 0.9), (6.0, 0.3)])
    def test_twdp_weights_match_bessel_sum(self, K, D):
        from oracles import twdp_weight_bessel_sum

        js = np.arange(0.0, 25.0, 4.0)
        got = np.exp(fa._twdp_ln_weights(js, K, D, nm.DEFAULT_TOL))
        for j, weight in zip(js.astype(int), got):
            assert weight == pytest.approx(
                math.exp(-K) * twdp_weight_bessel_sum(j, K, D), rel=1e-10
            )

    def test_kms_weight_mass(self):
        kap, mu, mf = 2.0, 1.5, 3.0
        ln_ratio = math.log(mu * kap) - math.log(mu * kap + mf)
        base = mf * (math.log(mf) - math.log(mu * kap + mf))
        mass = sum(
            math.exp(
                sc.gammaln(mf + i) - sc.gammaln(mf) - sc.gammaln(i + 1.0)
                + i * ln_ratio + base
            )
            for i in range(200)
        )
        assert abs(1.0 - mass) < 1e-10
        mix = fa.gamma_mixture(fa.KappaMuShadowed(kap, mu, mf))
        assert mix.truncation_error_bound < 1e-10

    @pytest.mark.parametrize(
        "model",
        [fa.Rician(4.0), fa.KappaMu(2.0, 1.5), fa.KappaMuShadowed(2.0, 1.5, 3.0),
         fa.TWDP(4.0, 0.9)],
        ids=lambda m: type(m).__name__,
    )
    def test_reconstruction(self, model):
        mix = fa.gamma_mixture(model)
        shapes = mix.shape + np.arange(mix.weights.size)
        xs = np.logspace(-2, 1, 25) * model.omega_x
        for x in xs:
            recon = mix.weights @ st.gamma.pdf(x, shapes, scale=mix.scale)
            assert recon == pytest.approx(fa.pdf(model, x), abs=1e-6)

    @pytest.mark.parametrize("model", [
        fa.Rayleigh(1.3),
        fa.NakagamiM(2.2, omega_x=0.7),
        fa.Rician(4.0),
        fa.KappaMu(2.0, 1.5, omega_x=2.0),
        fa.KappaMuShadowed(5.0, 2.0, 3.0),
        fa.TWDP(4.0, 0.9, omega_x=0.6),
    ], ids=lambda m: type(m).__name__)
    def test_shapes_step_by_one_with_common_scale(self, model):
        # composite's mixture CDF walks down the components by the
        # incomplete-beta recurrence, which needs exactly this structure:
        # one first shape and one scale for all components, which must
        # then give the model's mean power
        mix = fa.gamma_mixture(model)
        assert np.ndim(mix.shape) == np.ndim(mix.scale) == 0
        assert mix.weights.ndim == 1
        shapes = mix.shape + np.arange(mix.weights.size)
        assert mix.weights @ shapes * mix.scale == pytest.approx(model.omega_x, rel=1e-10)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            fa.gamma_mixture(fa.Hoyt(0.5))
        with pytest.raises(ValueError):
            fa.gamma_mixture(fa.EtaMu(0.5, 1.0))

    def test_budget_error_names_the_baseline(self, monkeypatch):
        # the component count comes from upper-tail masses alone, so a
        # mixture past the components x points budget raises before any
        # weight array is built
        def no_weights(*args):
            raise AssertionError("a weight array was built")

        budget = fa._MIXTURE_BUDGET
        # the largest mixture the former 5000-term cap allowed fits at a
        # 24.6k-point validation
        assert 5000 * 24_600 <= budget
        with monkeypatch.context() as patch:
            patch.setattr(fa._Poisson, "ln_weights", no_weights)
            patch.setattr(fa._NegativeBinomial, "ln_weights", no_weights)
            # Rician(1e6) needs about 1e6 components even at one point
            with pytest.raises(nm.ConvergenceError,
                               match=rf"^Rician\(k_r=1000000.0.*budget of {budget} "):
                fa.gamma_mixture(fa.Rician(1e6))
            # kappa-mu shadowed(800, 1.5, 3) needs 13.6k components: fine
            # for an outage sweep, past the budget at 10000 points
            model = co.CompositeModel(2.5, 1.0, fa.KappaMuShadowed(800.0, 1.5, 3.0))
            with pytest.raises(nm.ConvergenceError,
                               match=rf"^KappaMuShadowed\(kappa=800.0.*10000 point.*{budget} "):
                co.composite_cdf(model, np.linspace(0.01, 2.0, 10000))
        # the negative-binomial weights of a strong line of sight with
        # m_f = 2 decay by only 800/802 per term: the former 5000-term cap
        # refused this mixture
        mix = fa.gamma_mixture(fa.KappaMuShadowed(800.0, 1.0, 2.0))
        assert mix.weights.size > 5000
        assert mix.truncation_error_bound < 1e-12

    @pytest.mark.parametrize("model", [
        fa.KappaMu(0.0, 2.5), fa.KappaMuShadowed(0.0, 1.5, 2.0), fa.TWDP(0.0, 0.4),
        fa.Rician(0.0), fa.Rayleigh(1.3), fa.NakagamiM(2.3, omega_x=1.4),
    ], ids=repr)
    def test_no_line_of_sight_is_one_gamma(self, model):
        # at rate 0 the log weights put all mass on the first component
        mix = fa.gamma_mixture(model)
        assert mix.weights.tolist() == [1.0]
        assert mix.truncation_error_bound == 0.0
        assert mix.shape * mix.scale == pytest.approx(model.omega_x, rel=1e-15)

    @pytest.mark.parametrize("model", [fa.Rician(1000.0), fa.KappaMu(400.0, 2.0),
                                       fa.TWDP(400.0, 0.5)], ids=repr)
    def test_strong_line_of_sight_weights_are_probabilities(self, model):
        # each weight is formed in log space with its normalization, so no
        # intermediate e^K overflows
        mix = fa.gamma_mixture(model)
        weights = mix.weights
        assert np.all((weights >= 0) & (weights <= 1))
        assert abs(1.0 - weights.sum()) == pytest.approx(mix.truncation_error_bound, abs=1e-13)
        assert mix.truncation_error_bound < 1e-12


class TestExactTailMass:
    """The mixture is cut where the upper-tail bound of its component index
    falls below rel_tol / 100, and that bound is truncation_error_bound: the
    exact tail mass for Poisson and negative-binomial indices."""

    @pytest.mark.parametrize("model, index_tail", [
        (fa.Rician(3.0), lambda n: sc.gammainc(n + 1, 3.0)),
        (fa.Rician(1000.0), lambda n: sc.gammainc(n + 1, 1000.0)),
        (fa.KappaMu(2.0, 1.5), lambda n: sc.gammainc(n + 1, 3.0)),
        (fa.KappaMu(3000.0, 2.0), lambda n: sc.gammainc(n + 1, 6000.0)),
        (fa.KappaMuShadowed(2.0, 1.5, 3.0), lambda n: sc.betainc(n + 1, 3.0, 3.0 / 6.0)),
        (fa.KappaMuShadowed(800.0, 1.5, 3.0), lambda n: sc.betainc(n + 1, 3.0, 1200.0 / 1203.0)),
    ], ids=["rician-3", "rician-1000", "kappa-mu-2-1.5", "kappa-mu-3000-2",
            "kappa-mu-shadowed-2-1.5-3", "kappa-mu-shadowed-800-1.5-3"])
    def test_poisson_and_negative_binomial(self, model, index_tail):
        mix = fa.gamma_mixture(model)
        n = mix.weights.size - 1
        assert abs(mix.truncation_error_bound - index_tail(n)) <= 1e-13
        assert mix.truncation_error_bound == pytest.approx(index_tail(n), rel=1e-12, abs=0.0)
        # n is the smallest index whose tail mass is below rel_tol / 100
        assert mix.truncation_error_bound <= 1e-12 <= index_tail(n - 1)

    @pytest.mark.parametrize("model", [fa.TWDP(4.0, 0.9), fa.TWDP(30.0, 1.0),
                                       fa.TWDP(400.0, 0.5)], ids=repr)
    def test_twdp_is_below_the_peak_rate_tail(self, model):
        K, D = model.k_r, model.delta
        mix = fa.gamma_mixture(model)
        n = mix.weights.size - 1
        peak_tail = sc.gammainc(n + 1, K * (1.0 + D))
        # the bound is the Poisson tail at the peak rate K (1 + delta), and
        # n is the smallest index where it is below rel_tol / 100
        assert abs(mix.truncation_error_bound - peak_tail) <= 1e-13
        assert 0.0 < mix.truncation_error_bound <= 1e-12 <= sc.gammainc(n, K * (1 + D))
        # it bounds the mass actually left out, the phase average of the
        # Poisson tail
        ref, _ = quad(lambda a: sc.gammainc(n + 1, K * (1.0 + D * math.cos(a))), 0.0, 2 * math.pi,
                      epsabs=0.0, epsrel=1e-12, limit=200)
        assert mix.truncation_error_bound >= ref / (2 * math.pi)

    @pytest.mark.parametrize("baseline", [fa.Rician(3.0), fa.KappaMuShadowed(2.0, 1.5, 3.0),
                                          fa.TWDP(4.0, 0.9), fa.NakagamiM(2.2)], ids=repr)
    def test_terms_are_the_arrays_the_route_sums(self, baseline, monkeypatch):
        # `gamma_mixture` gives the arrays the route sums, and `mixture_of_f`
        # the same components with shadowing shape m and scale times w_bar
        seen = []
        build = fa._MixtureBaseline.mixture
        monkeypatch.setattr(fa._MixtureBaseline, "mixture",
                            lambda self, *args: seen.append(build(self, *args)) or seen[-1])
        model = co.CompositeModel(2.5, 1.7, baseline)
        co.composite_cdf(model, np.array([0.3, 1.0, 2.0]))
        (route,) = seen
        gm, fm = fa.gamma_mixture(model.baseline), co.mixture_of_f(model)
        for mix in (gm, fm):
            assert mix.weights.tolist() == route.weights.tolist()
            assert mix.shape == route.shape
            assert mix.truncation_error_bound == route.truncation_error_bound
        assert gm.scale == route.scale
        assert fm.m == model.m
        assert fm.scale == route.scale * model.w_bar


def _closed_form_tail_alpha(model) -> float:
    """alpha of each mixture baseline's small-x law, from the limit of its
    PDF (I_nu(z) ~ (z/2)^nu / Gamma(nu+1), 1F1 -> 1)."""
    if isinstance(model, fa.Rayleigh):
        return 1.0
    if isinstance(model, fa.NakagamiM):
        mf = model.m_f
        return math.exp(mf * math.log(mf) - math.lgamma(mf))
    if isinstance(model, (fa.Rician, fa.KappaMu)):
        kap, mu = (model.k_r, 1.0) if isinstance(model, fa.Rician) else (model.kappa, model.mu)
        return math.exp(mu * math.log(mu * (1 + kap)) - mu * kap - math.lgamma(mu))
    if isinstance(model, fa.KappaMuShadowed):
        kap, mu, mf = model.kappa, model.mu, model.m_f
        return math.exp(mu * math.log(mu * (1 + kap)) + mf * math.log(mf)
                        - math.lgamma(mu) - mf * math.log(mu * kap + mf))
    # TWDP: (1 + K) e^-K I_0(K delta), with I_0 scaled so that no factor overflows
    K, D = model.k_r, model.delta
    return (1 + K) * math.exp(K * (D - 1)) * float(sc.i0e(K * D))


class TestTailParams:
    @pytest.mark.parametrize("model", [
        fa.Rayleigh(1.3), fa.NakagamiM(2.3, omega_x=1.7), fa.NakagamiM(0.5),
        fa.Rician(4.0, omega_x=0.5), fa.Rician(0.0), fa.Rician(500.0),
        fa.KappaMu(2.0, 1.5, omega_x=0.7), fa.KappaMu(0.0, 2.5), fa.KappaMu(400.0, 2.0),
        fa.KappaMuShadowed(2.0, 1.5, 3.0, omega_x=0.9), fa.KappaMuShadowed(0.0, 1.5, 2.0),
        fa.TWDP(4.0, 0.9, omega_x=1.1), fa.TWDP(0.0, 0.4), fa.TWDP(1000.0, 1.0),
        fa.TWDP(400.0, 0.5), fa.TWDP(3.0, 0.0),
    ], ids=repr)
    def test_first_component_matches_closed_form(self, model):
        # every mixture baseline takes its tail from its first gamma component
        tp = model.tail()
        shape = model.mixture().shape
        assert tp.beta == shape - 1.0
        assert tp.alpha == pytest.approx(_closed_form_tail_alpha(model), rel=1e-12)

    def test_closed_forms(self):
        tp = fa.tail_params(fa.TWDP(0.0, 0.4))
        assert (tp.alpha, tp.beta) == (1.0, 0.0)
        tp = fa.tail_params(fa.Rayleigh())
        assert (tp.alpha, tp.beta) == (1.0, 0.0)
        tp = fa.tail_params(fa.NakagamiM(2.0))
        assert tp.beta == pytest.approx(1.0)
        assert tp.alpha == pytest.approx(4.0, rel=1e-12)

    def test_twdp_strong_equal_rays(self):
        # (1 + K) e^-K I_0(K delta) with I_0(1000) beyond double precision
        K = 1000.0
        ref = (1 + K) * mpmath.exp(-K) * mpmath.besseli(0, K)
        assert fa.tail_params(fa.TWDP(K, 1.0)).alpha == pytest.approx(float(ref), rel=1e-12)

    def test_twdp_formula(self):
        K, D = 4.0, 0.9
        tp = fa.tail_params(fa.TWDP(K, D))
        assert tp.alpha == pytest.approx((1 + K) * math.exp(-K) * sc.i0(K * D), rel=1e-12)
        assert tp.beta == 0.0

    def test_nakagami_leading_term(self):
        model = fa.NakagamiM(2.0)
        tp = fa.tail_params(model)
        for x in (1e-4, 1e-5, 1e-6):
            cdf = sc.gammainc(2.0, 2.0 * x)
            ratio = cdf / (tp.alpha / (tp.beta + 1) * x ** (tp.beta + 1))
            assert ratio == pytest.approx(1.0, abs=5e-4 + 2 * x)

    def test_numeric_rician(self):
        K = 4.0
        tp = fa.tail_params(fa.Rician(K))
        assert tp.beta == pytest.approx(0.0, abs=1e-3)
        assert tp.alpha == pytest.approx((1 + K) * math.exp(-K), rel=1e-2)

    def test_numeric_kappa_mu(self):
        tp = fa.tail_params(fa.KappaMu(2.0, 1.5))
        assert tp.beta == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("model", [
        fa.Rayleigh(1.3),
        fa.Rician(4.0, omega_x=0.5),
        fa.NakagamiM(2.3, omega_x=1.7),
        fa.Hoyt(0.3, omega_x=2.0),
        fa.KappaMu(2.0, 1.5, omega_x=0.7),
        fa.KappaMu(0.0, 2.5),
        fa.EtaMu(0.4, 1.2, omega_x=1.3),
        fa.EtaMu(1.0, 0.8),
        fa.KappaMuShadowed(2.0, 1.5, 3.0, omega_x=0.9),
        fa.KappaMuShadowed(0.0, 1.5, 2.0),
        fa.TWDP(4.0, 0.9, omega_x=1.1),
    ], ids=lambda m: type(m).__name__)
    def test_pdf_limit_at_origin(self, model):
        tp = fa.tail_params(model)
        om = model.omega_x
        for x in (1e-9 * om, 1e-11 * om):
            law = (tp.alpha / om) * (x / om) ** tp.beta
            assert fa.pdf(model, x) / law == pytest.approx(1.0, abs=1e-7)


class TestSampling:
    def test_twdp_mean(self):
        xs = fa.sample(fa.TWDP(4.0, 0.9), 10**6, seed=5)
        # Var[W_T] <= E[W_T^2]; bound the standard error via the second moment
        var = fa.gmgf(fa.TWDP(4.0, 0.9), 2.0, 0.0) - 1.0
        assert abs(xs.mean() - 1.0) < 3 * math.sqrt(var / 10**6)

    def test_twdp_delta1_equal_amplitudes(self):
        v1, v2, _ = fa.twdp_specular_amplitudes(fa.TWDP(3.0, 1.0))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_twdp_inversion_roundtrip(self):
        model = fa.TWDP(4.0, 0.9, omega_x=2.0)
        v1, v2, sigma2 = fa.twdp_specular_amplitudes(model)
        assert v1 >= v2
        assert (v1**2 + v2**2) / (2 * sigma2) == pytest.approx(4.0, rel=1e-12)
        assert 2 * v1 * v2 / (v1**2 + v2**2) == pytest.approx(0.9, rel=1e-12)
        assert v1**2 + v2**2 + 2 * sigma2 == pytest.approx(2.0, rel=1e-12)

    def test_rician_ecdf_vs_closed_form(self):
        K = 4.0
        xs = fa.sample(fa.Rician(K), 10**6, seed=21)
        ecdf = mc.empirical_cdf(xs).thin(5000)
        res = mc.compare(
            ecdf, lambda x: st.ncx2.cdf(2 * (1 + K) * np.asarray(x), 2, 2 * K)
        )
        assert res.sup_distance + 250 / 10**6 < 0.002

    def test_determinism(self):
        a = fa.sample(fa.KappaMuShadowed(2.0, 1.5, 3.0), 2000, seed=9)
        b = fa.sample(fa.KappaMuShadowed(2.0, 1.5, 3.0), 2000, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_mean_all_models(self, model):
        xs = fa.sample(model, 200000, seed=13)
        var = fa.gmgf(model, 2.0, 0.0) - 1.0
        assert abs(xs.mean() - 1.0) < 4 * math.sqrt(var / 200000)


def _instance(cls, value):
    """An instance of `cls` with every parameter that has no default at `value`."""
    return cls(**{f.name: value for f in dataclasses.fields(cls)
                  if f.default is dataclasses.MISSING})


@pytest.mark.parametrize("cls", typing.get_args(fa.FadingModel), ids=lambda c: c.__name__)
def test_every_baseline_implements_the_method_set(cls):
    model = _instance(cls, 0.5)
    assert model.pdf(0.7) > 0
    assert math.isfinite(model.gmgf_log(1.5, -0.5))
    assert model.tail().alpha > 0
    assert model.draw(np.random.default_rng(1), 3).shape == (3,)
    has_mixture = hasattr(cls, "mixture")
    # the six mixture baselines, and only they, derive from the mixture base
    assert has_mixture == issubclass(cls, fa._MixtureBaseline) == (cls.__name__ in {
        "Rayleigh", "Rician", "NakagamiM", "KappaMu", "KappaMuShadowed", "TWDP"})
    if has_mixture:
        assert model.mixture().truncation_error_bound < 1e-12
    # `auto` takes the mixture route exactly where the baseline has one
    resolved = co._resolve(co.CompositeModel(2.5, 1.0, model), co.Strategy.AUTO)
    assert (resolved is co.Strategy.MIXTURE) == has_mixture
