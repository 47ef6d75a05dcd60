import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from igcomposite import numerics as nm

from oracles import series_1f1, series_2f1, series_bessel_i, series_erf


class TestTolerance:
    def test_defaults(self):
        tol = nm.Tolerance()
        assert tol.rel_tol == 1e-10
        assert tol.abs_tol == 1e-14
        assert tol.max_terms == 10000
        assert tol.max_subdivisions == 17

    @pytest.mark.parametrize(
        "kwargs",
        [dict(rel_tol=0.0), dict(rel_tol=-1e-3), dict(abs_tol=-1.0),
         dict(max_terms=0), dict(max_subdivisions=0)],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            nm.Tolerance(**kwargs)

    @pytest.mark.parametrize("k", [0, 18, 60])
    def test_max_subdivisions_range(self, k):
        with pytest.raises(ValueError, match=r"max_subdivisions must be in 1\.\.17"):
            nm.Tolerance(max_subdivisions=k)

    @pytest.mark.parametrize("k", [1, 5, 12, 17])
    def test_max_subdivisions_is_the_only_limit(self, k):
        # sqrt|x| never meets a 1e-14 budget: the rule doubles k times, to
        # 16 * 2^k nodes in all, and no other cap stops it earlier
        nodes = []

        def ln_f(x):
            nodes.append(x.size)
            with np.errstate(divide="ignore"):
                return 0.5 * np.log(np.abs(x))

        tol = nm.Tolerance(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=k)
        with pytest.raises(nm.ConvergenceError, match=f"on {16 << k} points"):
            nm.integrate_finite(ln_f, -1.0, 1.0, tol)
        assert sum(nodes) == 16 << k
        assert len(nodes) == k + 1


# The library calls scipy.special directly for these functions; the checks
# below hold those calls to the series oracles and identities it relies on.


class TestLnGamma:
    def test_examples(self):
        assert sc.gammaln(1.0) == pytest.approx(0.0, abs=1e-15)
        assert sc.gammaln(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
        assert sc.gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)


class TestIncompleteGamma:
    def test_examples(self):
        assert sc.gammainc(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert sc.gammainc(3.3, 0.0) == 0.0
        assert sc.gammainc(2.0, 2.0) == pytest.approx(1 - 3 * math.exp(-2), rel=1e-12)
        assert sc.gammaincc(1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)
        assert sc.gammaincc(3.3, 0.0) == 1.0
        assert sc.gammaincc(2.0, 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.7, 10.0])
    @pytest.mark.parametrize("z", [0.01, 1.0, 10.0])
    def test_complementarity(self, a, z):
        assert sc.gammainc(a, z) + sc.gammaincc(a, z) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("z", [0.05, 0.5, 1.0, 3.0, 12.0])
    def test_integer_finite_sum(self, a, z):
        finite = 1.0 - math.exp(-z) * sum(z**k / math.factorial(k) for k in range(a))
        assert sc.gammainc(a, z) == pytest.approx(finite, abs=1e-12)


class TestErf:
    def test_examples(self):
        assert sc.erf(0.0) == 0.0
        for x in (0.3, 1.0, 2.5):
            assert sc.erf(-x) == -sc.erf(x)
        assert sc.erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.0, 2.0, 3.5])
    def test_series_oracle(self, x):
        assert sc.erf(x) == pytest.approx(series_erf(x), abs=1e-12)


class TestBesselI:
    def test_examples(self):
        assert sc.iv(0, 0.0) == 1.0
        assert sc.iv(-2, 1.7) == sc.iv(2, 1.7)
        assert sc.iv(0, 1.0) == pytest.approx(1.2660658777520084, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_reflection(self, n):
        x = 2.3
        assert sc.iv(n, -x) == pytest.approx(
            (-1.0) ** n * sc.iv(n, x), rel=1e-13
        )

    @pytest.mark.parametrize("nu,x", [(0.0, 0.5), (1.5, 2.0), (3.0, 7.0), (0.5, 0.1)])
    def test_series_oracle(self, nu, x):
        assert sc.iv(nu, x) == pytest.approx(series_bessel_i(nu, x), rel=1e-12)


class TestHyp1f1:
    def test_examples(self):
        assert sc.hyp1f1(1.7, 2.3, 0.0) == 1.0
        assert sc.hyp1f1(2.5, 2.5, 1.3) == pytest.approx(math.exp(1.3), rel=1e-12)
        # 1F1(2; 1; z) = (1+z) e^z, so the value at z=1 is 2e
        assert sc.hyp1f1(2.0, 1.0, 1.0) == pytest.approx(2 * math.e, rel=1e-12)

    @pytest.mark.parametrize(
        "a,b,z",
        [(0.5, 1.5, 0.25), (2.0, 1.0, 1.0), (3.7, 1.0, 4.0), (1.2, 2.4, -3.0),
         (5.0, 1.0, -20.0), (10.5, 1.0, 2.5)],
    )
    def test_series_oracle(self, a, b, z):
        # the direct series is alternating-unstable for very negative z, so
        # oracle via Kummer's transform there
        if z < 0:
            expected = math.exp(z) * series_1f1(b - a, b, -z)
        else:
            expected = series_1f1(a, b, z)
        assert sc.hyp1f1(a, b, z) == pytest.approx(expected, rel=1e-10)


class TestHyp2f1:
    def test_examples(self):
        assert sc.hyp2f1(0.7, 1.3, 2.9, 0.0) == 1.0
        assert sc.hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
            -math.log(0.5) / 0.5, rel=1e-12
        )
        assert sc.hyp2f1(0.5, 2.0, 1.0, -0.3) == pytest.approx(
            series_2f1(0.5, 2.0, 1.0, -0.3), rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,c,z",
        [(0.5, 2.0, 1.0, -0.3), (3.0, 1.5, 1.0, 0.4), (0.5, 1.0, 1.0, 0.9),
         (2.0, 5.0, 1.5, -0.9), (1.2, 0.3, 2.2, 0.65)],
    )
    def test_series_oracle(self, a, b, c, z):
        if z < -0.5:
            # Pfaff transform keeps the oracle series fast and stable
            expected = (1 - z) ** (-a) * series_2f1(a, c - b, c, z / (z - 1))
        else:
            expected = series_2f1(a, b, c, z)
        assert sc.hyp2f1(a, b, c, z) == pytest.approx(expected, rel=1e-10)


class TestHyp1f2:
    def test_examples(self):
        assert nm.hyp1f2(0.7, 1.3, 0.9, 0.0) == 1.0
        assert nm.hyp1f2(0.5, 0.5, 1.5, 0.25) == pytest.approx(
            float(mpmath.hyp1f2(0.5, 0.5, 1.5, 0.25)), rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,b,c,z",
        [(1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 1.5, 0.25), (2.5, 1.5, 3.5, 9.0),
         (1.5, 0.5, 2.0, 25.0), (3.0, 1.5, 2.5, 0.01)],
    )
    def test_mpmath_oracle(self, a, b, c, z):
        assert nm.hyp1f2(a, b, c, z) == pytest.approx(
            float(mpmath.hyp1f2(a, b, c, z)), rel=1e-10
        )

    def test_pole(self):
        with pytest.raises(ValueError):
            nm.hyp1f2(1.0, -1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            nm.hyp1f2(1.0, 1.0, 0.0, 0.5)


class TestIntegrateFinite:
    def test_linear(self):
        # neither periodic nor vanishing at the ends: the rule converges
        # only algebraically and runs out of points
        with pytest.raises(nm.ConvergenceError), np.errstate(divide="ignore"):
            nm.integrate_finite(np.log, 0.0, 1.0)

    def test_periodic_bessel_identity(self):
        val = nm.integrate_finite(np.cos, 0.0, 2 * math.pi)
        expected = 2 * math.pi * sc.iv(0, 1.0)
        assert math.exp(val) == pytest.approx(expected, rel=1e-11)

    def test_error_estimate_bounds_truth(self):
        # a converged value is within the relative budget; one that ran out
        # of points is within its error bound, both in the log
        cases = [
            (lambda a: 20.0 * np.cos(a), 0.0, 2 * math.pi, 2 * math.pi * sc.iv(0, 20.0)),
            (lambda x: -x * x, -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0)),
        ]
        for ln_f, a, b, truth in cases:
            val = nm.integrate_finite(ln_f, a, b)
            assert abs(val - math.log(truth)) <= 1e-10
            with pytest.raises(nm.ConvergenceError) as exc:
                nm.integrate_finite(ln_f, a, b, nm.Tolerance(max_subdivisions=1))
            assert abs(exc.value.estimate - math.log(truth)) <= exc.value.error_bound

    def test_nonconvergence_carries_estimate(self):
        tol = nm.Tolerance(rel_tol=1e-14, abs_tol=0.0, max_subdivisions=2)
        with pytest.raises(nm.ConvergenceError) as exc, np.errstate(divide="ignore"):
            nm.integrate_finite(lambda x: 0.5 * np.log(np.abs(x)), -1.0, 1.0, tol)
        assert math.exp(exc.value.estimate) == pytest.approx(4.0 / 3.0, rel=1e-2)

    def test_non_finite_sum_stops_at_once(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.full(x.shape, np.nan)

        with pytest.raises(nm.ConvergenceError, match="not finite"):
            nm.integrate_finite(f, 0.0, 1.0)
        assert len(calls) <= 2


class TestIntegrateSemiInfinite:
    def test_examples(self):
        val = nm.integrate_semi_infinite(lambda x: -x)
        assert math.exp(val) == pytest.approx(1.0, rel=1e-10)
        val = nm.integrate_semi_infinite(lambda x: np.log(x) - x)
        assert math.exp(val) == pytest.approx(1.0, rel=1e-10)
        val = nm.integrate_semi_infinite(lambda x: 2.5 * np.log(x) - 2 * x)
        assert math.exp(val) == pytest.approx(math.gamma(3.5) / 2**3.5, rel=1e-10)
        # integrable singularity at the origin
        val = nm.integrate_semi_infinite(lambda x: -0.7 * np.log(x) - x)
        assert math.exp(val) == pytest.approx(math.gamma(0.3), rel=1e-10)


class TestSumSeries:
    def test_geometric(self):
        total, n = nm.sum_series(lambda k: 0.5**k)
        assert total == pytest.approx(2.0, rel=1e-9)
        assert n > 3

    def test_all_zero(self):
        total, n = nm.sum_series(lambda k: 0.0)
        assert total == 0.0
        assert n == 3

    def test_poisson_weights(self):
        K = 4.0
        total, _ = nm.sum_series(lambda k: K**k * math.exp(-K) / math.factorial(k))
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_nonconvergence(self):
        tol = nm.Tolerance(max_terms=50)
        with pytest.raises(nm.ConvergenceError):
            nm.sum_series(lambda k: 1.0, tol)

    def test_side_by_side_matches_one_at_a_time(self):
        ratios = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.995, 0.997])
        scales = np.array([1.0, 3.0, 1e-3, 2.0, 1.0, 0.5, 7.0])

        def terms(ks, idx):
            return scales[idx, None] * ratios[idx, None] ** ks

        totals, longest = nm.sum_series_blocks(terms, count=ratios.size)
        singles = [nm.sum_series(lambda k, r=r, c=c: c * r**k) for r, c in zip(ratios, scales)]
        np.testing.assert_allclose(totals, [t for t, _ in singles], rtol=1e-14, atol=0.0)
        assert longest == max(n for _, n in singles)

    def test_nonconvergence_bounds_the_tail(self):
        # 0.9^k cut at 50 terms leaves out exactly 0.9^50 / 0.1
        tol = nm.Tolerance(max_terms=50)
        tail = 0.9**50 / 0.1
        for summed in (lambda: nm.sum_series(lambda k: 0.9**k, tol),
                       lambda: nm.sum_series_blocks(
                           lambda ks, idx: 0.9 ** ks * np.ones((idx.size, 1)), tol, 2)):
            with pytest.raises(nm.ConvergenceError) as exc:
                summed()
            assert exc.value.error_bound == pytest.approx(tail, rel=1e-12, abs=0.0)
            assert exc.value.estimate == pytest.approx(10.0 - tail, rel=1e-14, abs=0.0)

    def test_side_by_side_nonconvergence(self):
        tol = nm.Tolerance(max_terms=200)
        ratios = np.array([0.5, 1.0, 0.9])
        with pytest.raises(nm.ConvergenceError) as exc:
            nm.sum_series_blocks(lambda ks, idx: ratios[idx, None] ** ks, tol, ratios.size)
        assert exc.value.series == 1

    @pytest.mark.parametrize("width", [1, 16, 64])
    def test_nan_past_the_stop_is_never_summed(self, width, monkeypatch):
        # blocks run past a stop; a series whose terms turn NaN just after
        # its stop still sums as one summed term by term
        ref, n = nm.sum_series(lambda k: 0.5**k)

        def terms(ks, idx):
            return np.where(ks < n, 0.5**ks, np.nan) * np.ones((idx.size, 1))

        monkeypatch.setattr(nm, "_SERIES_MIN_WIDTH", width)
        totals, longest = nm.sum_series_blocks(terms, count=3)
        np.testing.assert_allclose(totals, ref, rtol=1e-15)
        assert longest == n

    def test_nan_before_the_stop_raises(self):
        _, n = nm.sum_series(lambda k: 0.5**k)

        def terms(ks, idx):
            # only series 1 of 3 turns NaN before its stop
            return np.where((ks < n - 1) | (idx[:, None] != 1), 0.5**ks, np.nan)

        with pytest.raises(nm.ConvergenceError) as exc:
            nm.sum_series_blocks(terms, count=3)
        assert exc.value.series == 1

    def test_side_by_side_empty(self):
        totals, longest = nm.sum_series_blocks(lambda ks, idx: np.ones((idx.size, ks.size)),
                                               count=0)
        assert totals.shape == (0,) and longest == 0
