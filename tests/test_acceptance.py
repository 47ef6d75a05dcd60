"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
import scipy.special as sc

from igcomposite import composite as co
from igcomposite import fading as fa
from igcomposite import fitting as ft
from igcomposite import montecarlo as mc
from igcomposite import numerics as nm
from igcomposite import shadowing as sh

from oracles import gmgf_quadrature, series_1f1, series_2f1

S = co.Strategy

# (baseline, m) matrix for criteria 2 and 4; TWDP rows follow the two
# figure families: K=4 with delta and m varied, delta=0.9 with K and m varied
COMBOS = [
    (fa.Rayleigh(), 2.0),
    (fa.NakagamiM(2.0), 3.0),
    (fa.Rician(3.0), 4.0),
    (fa.KappaMu(2.0, 1.5), 2.5),
    (fa.KappaMuShadowed(2.0, 1.5, 3.0), 3.2),
    (fa.Hoyt(0.5), 2.0),
    (fa.EtaMu(0.4, 1.2), 4.0),
    (fa.TWDP(4.0, 0.3), 2.0),
    (fa.TWDP(4.0, 0.9), 6.0),
    (fa.TWDP(4.0, 0.9), 2.5),
    (fa.TWDP(2.0, 0.9), 3.0),
    (fa.TWDP(6.0, 0.9), 5.0),
]


def _strategies(model: co.CompositeModel) -> list:
    strats = [S.GMGF_GENERAL]
    if model.integer_m:
        strats.append(S.GMGF_INTEGER)
    if hasattr(model.baseline, "mixture"):
        strats.append(S.MIXTURE)
    return strats


def test_criterion_1_gmgf_closed_forms():
    start = time.time()
    real_p_models = [
        fa.Rayleigh(),
        fa.Rician(4.0, omega_x=1.3),
        fa.NakagamiM(2.7, omega_x=0.7),
        fa.Hoyt(0.6),
        fa.KappaMu(2.0, 1.5),
        fa.EtaMu(0.4, 1.2),
        fa.KappaMuShadowed(2.0, 1.5, 3.0),
    ]
    worst = 0.0
    for model in real_p_models:
        for p in (0.5, 1.0, 2.0, 3.7):
            for s in (-0.1, -1.0, -10.0):
                closed = fa.gmgf(model, p, s)
                brute = gmgf_quadrature(model, p, s)
                worst = max(worst, abs(closed - brute) / abs(brute))
    twdp = fa.TWDP(4.0, 0.9)
    for p in (0, 1, 2, 3):
        for s in (-0.1, -1.0, -10.0):
            closed = fa.gmgf(twdp, float(p), s)
            brute = gmgf_quadrature(twdp, float(p), s)
            worst = max(worst, abs(closed - brute) / abs(brute))
    elapsed = time.time() - start
    assert worst < 1e-7, f"worst GMGF relative error {worst:.3e}"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (GMGF closed forms vs quadrature): PASS "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_strategy_equivalence():
    start = time.time()
    us = np.logspace(math.log10(0.01), math.log10(20.0), 16)
    worst_pdf = worst_cdf = 0.0
    for baseline, m in COMBOS:
        model = co.CompositeModel(m, 1.0, baseline)
        strats = _strategies(model)
        assert len(strats) >= 2, f"{baseline} m={m} has a single strategy"
        pdf_vals = [np.asarray(co.composite_pdf(model, us, st)) for st in strats]
        cdf_vals = [np.asarray(co.composite_cdf(model, us, st)) for st in strats]
        for other_p, other_c in zip(pdf_vals[1:], cdf_vals[1:]):
            worst_pdf = max(worst_pdf, float(np.max(np.abs(pdf_vals[0] - other_p))))
            worst_cdf = max(worst_cdf, float(np.max(np.abs(cdf_vals[0] - other_c))))
    elapsed = time.time() - start
    assert worst_pdf < 1e-6, f"pdf strategy disagreement {worst_pdf:.3e}"
    assert worst_cdf < 1e-6, f"cdf strategy disagreement {worst_cdf:.3e}"
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (strategy equivalence, {len(COMBOS)} combos): PASS "
          f"(max pdf dev {worst_pdf:.2e}, max cdf dev {worst_cdf:.2e}, {elapsed:.1f}s)")


def test_criterion_3_f_distribution_reduction():
    worst = 0.0
    worst_series = 0.0
    for m, mf, wb in ((2.0, 1.0, 1.0), (3.5, 2.2, 1.0), (4.0, 2.0, 2.5)):
        model = co.CompositeModel(m, wb, fa.NakagamiM(mf))
        params = co.FDistParams(m, mf, wb)
        for u in np.logspace(-2, 1.3, 12) * wb:
            # exact reduction routes: the one-term mixture, the transform-route
            # pdf closed form, and (integer m) the finite-sum CDF
            pairs = [
                (co.composite_pdf(model, u), co.f_pdf(params, u)),
                (co.composite_cdf(model, u), co.f_cdf(params, u)),
                (co.composite_pdf(model, u, S.GMGF_GENERAL), co.f_pdf(params, u)),
            ]
            if model.integer_m:
                pairs.append(
                    (co.composite_cdf(model, u, S.GMGF_INTEGER), co.f_cdf(params, u))
                )
            for composite_val, f_val in pairs:
                worst = max(worst, abs(composite_val - f_val) / abs(f_val))
            # the truncated-series CDF only promises absolute accuracy
            worst_series = max(
                worst_series,
                abs(co.composite_cdf(model, u, S.GMGF_GENERAL) - co.f_cdf(params, u)),
            )
    assert worst < 1e-9, f"F reduction relative error {worst:.3e}"
    assert worst_series < 1e-6, f"series-route absolute error {worst_series:.3e}"
    spot_model = co.CompositeModel(2.0, 1.0, fa.NakagamiM(1.0))
    assert co.composite_pdf(spot_model, 1.0) == pytest.approx(0.25, rel=1e-9)
    assert co.composite_cdf(spot_model, 1.0) == pytest.approx(0.75, rel=1e-9)
    print(f"\nACCEPTANCE 3 (Fisher-Snedecor F reduction): PASS "
          f"(worst rel err {worst:.2e}, series abs err {worst_series:.2e})")


def test_criterion_4_monte_carlo_oracle():
    start = time.time()
    n = 10**6
    thin_points = 4000
    margin = math.ceil(n / thin_points) / n
    worst = 0.0
    for seed, (baseline, m) in enumerate(COMBOS, start=100):
        model = co.CompositeModel(m, 1.0, baseline)
        samples = mc.sample_composite(model, n, seed=seed)
        ecdf = mc.empirical_cdf(samples).thin(thin_points)
        res = mc.compare(ecdf, lambda t: co.composite_cdf(model, t))
        worst = max(worst, res.sup_distance + margin)
        assert res.sup_distance + margin < 0.003, (
            f"{type(baseline).__name__} m={m}: sup {res.sup_distance:.4f}"
        )
    elapsed = time.time() - start
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 (Monte Carlo oracle, {len(COMBOS)}x1e6 samples): PASS "
          f"(worst sup bound {worst:.4f}, {elapsed:.1f}s)")


def test_criterion_5_outage_asymptotics():
    ratio_worst = 0.0
    slopes = {}
    for K in (2.0, 6.0):
        for m in (2.0, 6.0):
            model = co.CompositeModel(m, 1.0, fa.TWDP(K, 0.3))
            r = 1e-4  # -40 dB
            exact = co.outage(model, r, 1.0, S.MIXTURE)
            asym = co.outage_asymptotic(model, r, 1.0)
            ratio_worst = max(ratio_worst, abs(exact / asym - 1.0))
            ratios = np.logspace(-5, -4, 8)
            vals = np.array([co.outage(model, x, 1.0, S.MIXTURE) for x in ratios])
            slopes[(K, m)] = float(np.polyfit(np.log(ratios), np.log(vals), 1)[0])
    assert ratio_worst < 0.02, f"asymptote ratio deviation {ratio_worst:.3%}"
    for slope in slopes.values():
        assert slope == pytest.approx(1.0, rel=0.01)
    for K in (2.0, 6.0):
        delta = abs(slopes[(K, 2.0)] - slopes[(K, 6.0)]) / slopes[(K, 6.0)]
        assert delta < 0.005, f"m-dependence moved the slope by {delta:.3%}"

    ray = co.CompositeModel(2.5, 1.0, fa.Rayleigh())
    nak = co.CompositeModel(2.5, 1.0, fa.NakagamiM(2.0))
    ratios = np.logspace(-5, -4, 8)
    slope_ray = np.polyfit(
        np.log(ratios), np.log([co.outage(ray, x, 1.0, S.MIXTURE) for x in ratios]), 1
    )[0]
    slope_nak = np.polyfit(
        np.log(ratios), np.log([co.outage(nak, x, 1.0, S.MIXTURE) for x in ratios]), 1
    )[0]
    assert slope_ray == pytest.approx(1.0, rel=0.01)
    assert slope_nak == pytest.approx(2.0, rel=0.01)
    print(f"\nACCEPTANCE 5 (outage asymptotics): PASS "
          f"(worst ratio dev {ratio_worst:.3%}, slopes 1/2 within 1%)")


def test_criterion_6_large_shape_degeneracy():
    baseline = fa.TWDP(7.0, 0.7)
    model = co.CompositeModel(1000.0, 1.0, baseline)
    us = np.linspace(0.05, 4.0, 30)
    comp = np.asarray(co.composite_pdf(model, us, S.MIXTURE))
    base = np.asarray(fa.pdf(baseline, us))
    dev = float(np.max(np.abs(comp - base)))
    assert dev < 1e-2, f"large-m deviation {dev:.3e}"
    print(f"\nACCEPTANCE 6 (large-m degeneracy): PASS (max abs dev {dev:.2e})")


def test_criterion_7_fitting_recovery():
    start = time.time()
    # inverse-gamma recovery at n = 1e5
    ecdf = mc.empirical_cdf(np.log(sh.sample_inverse_gamma(5.0, 1.0, 10**5, seed=3)))
    res = ft.fit("inverse_gamma", ecdf, multistart=4)
    assert 4.75 <= res.params.m <= 5.25, f"recovered m {res.params.m:.3f}"

    # gamma recovery at n = 1e5
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
    ecdf_g = mc.empirical_cdf(np.log(rng.gamma(1.0, 1.0, 10**5)))
    res_g = ft.fit("gamma", ecdf_g, multistart=4)
    assert 0.95 <= res_g.params.k <= 1.05, f"recovered k {res_g.params.k:.3f}"

    # integer-m restriction on true m = 9.82 (coarse-data regime, where the
    # rounding penalty sits below the sampling floor as in the field fits)
    ecdf_i = mc.empirical_cdf(
        np.log(sh.sample_inverse_gamma(9.82, 1.05, 5000, seed=13))
    )
    res_real = ft.fit("inverse_gamma", ecdf_i, multistart=8)
    res_int = ft.fit("inverse_gamma", ecdf_i, integer_m=True, multistart=8)
    assert res_int.params.m == 10.0, f"integer fit chose m={res_int.params.m}"
    assert res_int.cvm <= 1.05 * res_real.cvm, (
        f"integer-m penalty {res_int.cvm / res_real.cvm - 1:.2%}"
    )

    # family ranking across seeded trials
    wins = 0
    for seed in range(10):
        trial = mc.empirical_cdf(
            np.log(sh.sample_inverse_gamma(5.0, 1.0, 20000, seed=1000 + seed))
        )
        ranked = ft.compare_families(trial, sorted(ft.FAMILIES), multistart=3)
        wins += ranked[0].family == "inverse_gamma"
    assert wins >= 9, f"true family ranked first in only {wins}/10 trials"
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 7 (fitting recovery): PASS "
          f"(m={res.params.m:.3f}, k={res_g.params.k:.3f}, integer m=10, "
          f"ranking {wins}/10, {elapsed:.1f}s)")


def test_criterion_8_special_function_suite():
    # the library calls scipy.special for these functions, so the identities
    # and series oracles are checked on scipy.special itself
    start = time.time()
    # incomplete gamma complementarity and the integer finite-sum identity
    for a in (0.5, 1.0, 2.7, 10.0):
        for z in (0.01, 1.0, 10.0):
            total = sc.gammainc(a, z) + sc.gammaincc(a, z)
            assert abs(total - 1.0) < 1e-12
    for a in (1, 2, 3, 5):
        for z in (0.05, 0.8, 2.0, 9.0):
            finite = 1.0 - math.exp(-z) * sum(z**k / math.factorial(k) for k in range(a))
            assert abs(sc.gammainc(a, z) - finite) < 1e-12

    # erf / Bessel identities
    assert sc.erf(0.0) == 0.0
    assert abs(sc.erf(1.0) - 0.8427007929497149) < 1e-12
    assert sc.iv(-3, 1.7) == sc.iv(3, 1.7)
    assert sc.iv(1, -2.0) == pytest.approx(-sc.iv(1, 2.0), rel=1e-13)

    # hypergeometric series oracles at acceptance-suite argument shapes
    for a, b, z in ((2.0, 1.0, 1.0), (3.7, 1.0, 2.5), (1.5, 1.5, 0.7)):
        assert sc.hyp1f1(a, b, z) == pytest.approx(series_1f1(a, b, z), rel=1e-10)
    for a, b, c, z in ((0.5, 2.0, 1.0, -0.3), (3.0, 1.5, 1.0, 0.4),
                       (0.5, 3.0, 1.0, 0.6)):
        assert sc.hyp2f1(a, b, c, z) == pytest.approx(series_2f1(a, b, c, z), rel=1e-10)
    # 1F1(2; 1; z) = (1+z) e^z: 2e at z=1
    assert sc.hyp1f1(2.0, 1.0, 1.0) == pytest.approx(2 * math.e, rel=1e-12)

    # quadrature spot identities
    val, _ = nm.integrate_finite(lambda a: np.exp(np.cos(a)), 0.0, 2 * math.pi)
    assert val == pytest.approx(2 * math.pi * sc.iv(0, 1.0), rel=1e-10)
    val, _ = nm.integrate_semi_infinite(lambda x: x**2.5 * np.exp(-2 * x))
    assert val == pytest.approx(math.gamma(3.5) / 2**3.5, rel=1e-10)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 (special-function suite): PASS ({elapsed:.1f}s)")
