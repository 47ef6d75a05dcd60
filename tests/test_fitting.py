import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from igcomposite import cli
from igcomposite import fitting as ft
from igcomposite import montecarlo as mc
from igcomposite import shadowing as sh

from oracles import CvmFitOracle, direct_cvm_objective, step_theory


def ig_log_ecdf(m, omega, n, seed):
    return mc.empirical_cdf(np.log(sh.sample_inverse_gamma(m, omega, n, seed)))


class TestCvmStatistic:
    def test_hand_value(self):
        ecdf = mc.EmpiricalCdf(np.array([0.0, 1.0]), np.array([0.5, 1.0]), 2)
        stat = ft.cvm_statistic(ecdf, lambda t: np.clip(t, 0, 1), support_pad=0.0)
        assert stat == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_zero_against_own_interpolant(self):
        ecdf = mc.empirical_cdf([0.5, 1.0, 1.4, 3.0])
        stat = ft.cvm_statistic(ecdf, step_theory(ecdf), support_pad=2.0)
        assert stat == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative(self):
        ecdf = mc.empirical_cdf(np.linspace(-1, 1, 50))
        stat = ft.cvm_statistic(ecdf, lambda t: np.clip(0.5 * (t + 1), 0, 1))
        assert stat >= 0.0

    def test_consistency_with_sample_size(self):
        # the statistic against the generating CDF shrinks as n grows
        model = sh.InverseGamma(5.0, 1.0)
        stats = []
        for n in (500, 5000, 50000):
            ecdf = ig_log_ecdf(5.0, 1.0, n, seed=17)
            stats.append(
                ft.cvm_statistic(ecdf, lambda t: sh.log_domain_cdf(model, t))
            )
        assert stats[0] > stats[1] > stats[2]

    def test_pad_contributes(self):
        ecdf = mc.empirical_cdf([0.0, 1.0])
        wide = ft.cvm_statistic(ecdf, lambda t: np.full_like(np.asarray(t), 0.5), 3.0)
        narrow = ft.cvm_statistic(ecdf, lambda t: np.full_like(np.asarray(t), 0.5), 0.0)
        assert wide > narrow


class TestDbConversion:
    def test_zero_and_linearity(self):
        assert ft.db_to_natural_log(0.0) == 0.0
        a, b = 3.7, -1.2
        assert ft.db_to_natural_log(a + b) == pytest.approx(
            ft.db_to_natural_log(a) + ft.db_to_natural_log(b), rel=1e-12
        )

    def test_both_directions(self):
        assert ft.db_to_natural_log(20.0, "paper") == pytest.approx(
            400.0 / math.log(10.0), rel=1e-12
        )
        assert ft.db_to_natural_log(20.0, "conventional") == pytest.approx(
            math.log(10.0), rel=1e-12
        )

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            ft.db_to_natural_log(1.0, "sideways")


class TestFit:
    def test_recovers_inverse_gamma(self):
        ecdf = ig_log_ecdf(5.0, 1.0, 20000, seed=3)
        res = ft.fit("inverse_gamma", ecdf, multistart=4)
        assert res.family == "inverse_gamma"
        assert res.params.m == pytest.approx(5.0, rel=0.07)
        assert res.params.omega_i == pytest.approx(1.0, rel=0.05)

    def test_recovers_gamma(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        ecdf = mc.empirical_cdf(np.log(rng.gamma(1.0, 1.0, 20000)))
        res = ft.fit("gamma", ecdf, multistart=4)
        assert res.params.k == pytest.approx(1.0, rel=0.05)

    def test_multistart_monotone_improvement(self):
        ecdf = ig_log_ecdf(5.0, 1.0, 5000, seed=5)
        single = ft.fit("inverse_gamma", ecdf, multistart=1)
        multi = ft.fit("inverse_gamma", ecdf, multistart=4)
        assert multi.cvm <= single.cvm + 1e-15

    def test_params_stay_in_box(self):
        # data far from unit scale fit where they lie, inside the box around
        # the moment start: the mean omega near e^42
        ecdf = mc.empirical_cdf(np.linspace(40.0, 45.0, 200))
        res = ft.fit("gamma", ecdf, multistart=2)
        fam = ft.FAMILIES["gamma"]
        lo, hi = ft._box(fam.start(*ft._CvmQuadrature(ecdf, 5.0).log_moments)).T
        coords = np.log([res.params.k, res.params.omega])
        assert np.all((lo < coords) & (coords < hi)) and res.pinned == ()
        assert 40.0 < coords[1] < 45.0

    def test_integer_m_fit(self):
        ecdf = ig_log_ecdf(9.82, 1.05, 5000, seed=13)
        res_int = ft.fit("inverse_gamma", ecdf, integer_m=True, multistart=4)
        assert res_int.family == "inverse_gamma_integer"
        assert res_int.params.m == 10.0

    def test_integer_penalty_negligible_for_integer_truth(self):
        # true shape already integer: constraining costs nearly nothing once
        # the unconstrained estimate has settled close to it
        ecdf = ig_log_ecdf(5.0, 1.0, 10**5, seed=26)
        real = ft.fit("inverse_gamma", ecdf, multistart=2)
        constrained = ft.fit("inverse_gamma", ecdf, integer_m=True, multistart=2)
        assert constrained.cvm - real.cvm <= 0.1 * real.cvm

    def test_integer_m_starts_at_each_shapes_own_mean(self):
        # the unconstrained fit runs toward m = 1 (m - 1 = 1.7e-7 at omega
        # 1e6); started there alone, the m = 2 row stayed put with CvM 6.97
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
        ecdf = mc.empirical_cdf(np.log(rng.weibull(0.7, 30)))
        real = ft.fit("inverse_gamma", ecdf)
        assert real.params.m - 1.0 < 1e-5 and real.params.omega_i > 1e5
        res = ft.fit("inverse_gamma", ecdf, integer_m=True)
        # a dense scan of ln(omega) at the two candidate shapes
        scan = min(
            ft.cvm_statistic(ecdf, lambda t, m=m, w=w: sh.log_domain_cdf(
                sh.InverseGamma(m=m, omega_i=math.exp(w)), t))
            for m in (2.0, 3.0) for w in np.linspace(-6.0, 6.0, 1201)
        )
        assert res.cvm <= scan * (1.0 + 1e-9)
        assert res.params.omega_i == pytest.approx(0.4404, rel=1e-3)

    def test_degenerate_data(self):
        ecdf = mc.empirical_cdf([2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            ft.fit("gamma", ecdf)

    def test_unknown_family(self):
        ecdf = mc.empirical_cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            ft.fit("weibull", ecdf)
        with pytest.raises(ValueError):
            ft.fit("gamma", ecdf, integer_m=True)


@functools.lru_cache(maxsize=None)
def shifted_rows(shift):
    t = np.log(sh.sample_inverse_gamma(3.0, 2.0, 500, seed=102)) + shift
    return ft.compare_families(mc.empirical_cdf(t), sorted(ft.FAMILIES), integer_m=True)


class TestUnitChange:
    """Every family is a scale family and its search box sits around a
    moment start that moves with the data, so a change of units (ln y -> ln y
    + c) moves each row by c along its `scale` and keeps its CvM and rank."""

    @pytest.mark.parametrize("shift", [-40.0, -15.0, 15.0, 40.0])
    def test_shifted_logs_move_each_row_along_its_scale(self, shift):
        base, moved = shifted_rows(0.0), shifted_rows(shift)
        assert [r.family for r in moved] == [r.family for r in base]
        for res, want in zip(moved, base):
            assert res.pinned == () and want.pinned == (), res
            assert res.cvm == pytest.approx(want.cvm, rel=1e-9, abs=0.0), res.family
            scale = ft.FAMILIES[want.family.removesuffix("_integer")].scale
            # the lognormal's mu is a location; every other field scales
            expect = [value + shift * along if name == "mu" else value * math.exp(shift * along)
                      for (name, value), along in zip(vars(want.params).items(), scale)]
            assert params_of(res) == pytest.approx(expect, rel=1e-6), res.family


def central_jacobian(quad, make, x, h=1e-5):
    """Residual Jacobian by central differences of the library's log-domain CDF."""
    cols = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        up = sh.log_domain_cdf(make(x + e), quad.nodes)
        down = sh.log_domain_cdf(make(x - e), quad.nodes)
        cols.append(-np.sqrt(quad.weights) * (up - down) / (2.0 * h))
    return np.column_stack(cols)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x, r):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestSolver:
    ECDF = ig_log_ecdf(3.0, 2.0, 500, seed=31)
    INTEGER_ROW = (lambda c: sh.InverseGamma(m=3.0, omega_i=math.exp(c[0])),
                   ((math.log(1e-6), math.log(1e6)),), (1.0,))

    @pytest.mark.parametrize("family", sorted(ft.FAMILIES) + ["inverse_gamma_integer"])
    def test_jacobian_matches_central_differences(self, family):
        quad = ft._CvmQuadrature(self.ECDF, 5.0)
        if family == "inverse_gamma_integer":
            make, bounds, scale = self.INTEGER_ROW
            x = np.array([math.log(2.3)])
        else:
            fam = ft.FAMILIES[family]
            start = fam.start(*quad.log_moments)
            make, bounds, scale = fam.make, ft._box(start), fam.scale
            x = np.add(start, (0.3, -0.2))
        residuals, jacobian = ft._objective(quad, make, bounds, scale)
        got = jacobian(x, residuals(x))
        want = central_jacobian(quad, make, x)
        # both columns, relative to each column's largest entry
        err = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
        assert np.all(err < 1e-5), err
        # along the scale direction the derivative is exact (-y f(y))
        along, want_along = got @ scale, want @ scale
        assert np.abs(along - want_along).max() < 1e-8 * np.abs(want_along).max()

    @pytest.mark.parametrize("family", sorted(ft.FAMILIES))
    def test_solver_stays_in_box_from_a_bound(self, family):
        fam = ft.FAMILIES[family]
        seen = []

        def make(coords):
            seen.append(np.array(coords, dtype=float))
            return fam.make(coords)

        quad = ft._CvmQuadrature(self.ECDF, 5.0)
        mid = fam.start(*quad.log_moments)
        box = ft._box(mid)
        lo, hi = box.T
        starts = [lo, hi, (hi[0], mid[1]), (mid[0], hi[1]), (lo[0], mid[1])]
        res = ft._solve(family, quad, make, box, fam.scale, fam.fields, starts)
        seen = np.array(seen)
        assert np.all((seen >= lo) & (seen <= hi))
        # solves started on the upper bounds, whose forward differences
        # therefore stepped back inside
        assert np.any(seen[:, 0] == hi[0]) and np.any(seen[:, 1] == hi[1])
        assert res.converged

    def test_converges_to_box_constrained_minimum(self):
        # Rosenbrock's minimum (1, 1) lies outside the box; the constrained
        # one is on the face x0 = 0.5, where it starts
        lo, hi = np.array([-2.0, -2.0]), np.array([0.5, 2.0])
        seen = []

        def residuals(x):
            seen.append(x.copy())
            return rosenbrock(x)

        x, cost, njev, converged = ft._levenberg_marquardt(
            residuals, rosenbrock_jacobian, (0.5, -1.0), lo, hi)
        assert converged
        assert np.all((np.array(seen) >= lo) & (np.array(seen) <= hi))
        assert x == pytest.approx([0.5, 0.25], abs=1e-6)
        assert 2.0 * cost == pytest.approx(0.25, rel=1e-9)

    def test_budget_exhausted_is_not_converged(self, monkeypatch):
        box = np.array([-5.0, -5.0]), np.array([5.0, 5.0])
        calls = []

        def residuals(x):
            calls.append(1)
            return rosenbrock(x)

        monkeypatch.setattr(ft, "_NFEV_PER_COORD", 2)
        x, cost, njev, converged = ft._levenberg_marquardt(
            residuals, rosenbrock_jacobian, (-1.2, 1.0), *box)
        assert not converged
        assert len(calls) == 4
        res = ft.fit("inverse_gamma", self.ECDF, multistart=1)
        assert not res.converged

    def test_merged_starts_keep_the_lower_of_two_minima(self, monkeypatch):
        # cost (x0^2 - 1)^2 / 2 + x1^2 / 8 + (x0 - 1)^2 / 200: minima near
        # x0 = 1 and, 0.02 higher, near x0 = -1, which the first start reaches
        def residuals(x):
            return np.array([x[0] ** 2 - 1.0, 0.5 * x[1], 0.1 * (x[0] - 1.0)])

        def jacobian(x, r):
            return np.array([[2.0 * x[0], 0.0], [0.0, 0.5], [0.1, 0.0]])

        monkeypatch.setattr(ft, "_objective", lambda *args: (residuals, jacobian))
        box = ((-4.0, 4.0), (-4.0, 4.0))
        starts = np.add((-0.75, 0.0), ft._LATTICE[:8])
        lo, hi = np.transpose(box)
        ends = [ft._levenberg_marquardt(residuals, jacobian, x0, lo, hi)[0][0] for x0 in starts]
        assert ends[0] == pytest.approx(-1.0, abs=0.05)
        assert any(end == pytest.approx(1.0, abs=1e-6) for end in ends)

        def search():
            return ft._solve("two-well", None, tuple, box, None, ("x0", "x1"), starts)

        merged = search()
        monkeypatch.setattr(ft, "_BASIN_RADIUS", 0.0)
        unmerged = search()
        assert merged.params[0] == pytest.approx(1.0, abs=1e-6)
        assert merged.cvm == unmerged.cvm
        assert merged.converged and merged.iterations < unmerged.iterations

    def test_multistart_beyond_the_lattice_is_rejected(self):
        with pytest.raises(ValueError, match="13-point start lattice"):
            ft.fit("gamma", self.ECDF, multistart=14)
        with pytest.raises(ValueError, match="13-point start lattice"):
            ft.compare_families(self.ECDF, ["gamma"], multistart=14)
        assert ft.fit("gamma", self.ECDF, multistart=13).converged


class TestCompareFamilies:
    def test_true_family_ranks_first(self):
        ecdf = ig_log_ecdf(5.0, 1.0, 20000, seed=3)
        ranked = ft.compare_families(ecdf, sorted(ft.FAMILIES), multistart=3)
        assert ranked[0].family == "inverse_gamma"
        assert all(a.cvm <= b.cvm for a, b in zip(ranked, ranked[1:]))

    def test_single_family(self):
        ecdf = ig_log_ecdf(5.0, 1.0, 2000, seed=4)
        ranked = ft.compare_families(ecdf, ["gamma"], multistart=2)
        assert len(ranked) == 1

    def test_mild_shadowing_all_families_close(self):
        # very narrow lognormal data: every family fits within an order of
        # magnitude because the four shapes coincide as the variance vanishes
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        ecdf = mc.empirical_cdf(rng.normal(0.0, 0.011, 20000))
        ranked = ft.compare_families(ecdf, sorted(ft.FAMILIES), multistart=3)
        cvms = [r.cvm for r in ranked]
        assert cvms[-1] / cvms[0] < 10.0

    def test_integer_row_reuses_the_unconstrained_search(self, monkeypatch):
        ecdf = ig_log_ecdf(5.0, 1.0, 2000, seed=6)
        shapes = []
        library_cdf = sh.log_domain_cdf

        def counting(model, t):
            shapes.append(model.m)
            return library_cdf(model, t)

        monkeypatch.setattr(sh, "log_domain_cdf", counting)
        ft.fit("inverse_gamma", ecdf, multistart=2)
        search = len(shapes)
        shapes.clear()
        ranked = ft.compare_families(ecdf, ["inverse_gamma"], integer_m=True, multistart=2)
        # the integer-m solves evaluate whole shapes only
        assert sum(m != round(m) for m in shapes) == search
        # fit() alone runs its own unconstrained search and lands on the same row
        shapes.clear()
        alone = ft.fit("inverse_gamma", ecdf, integer_m=True, multistart=2)
        assert sum(m != round(m) for m in shapes) == search
        assert next(r for r in ranked if r.family == "inverse_gamma_integer") == alone

    def test_integer_m_needs_the_inverse_gamma_family(self, monkeypatch):
        ecdf = ig_log_ecdf(5.0, 1.0, 200, seed=6)
        fits = []
        monkeypatch.setattr(ft, "_fit_row", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match="integer_m applies to the inverse_gamma family"):
            ft.compare_families(ecdf, ["gamma", "lognormal"], integer_m=True)
        assert fits == []

    def test_unknown_family_among_known_ones_fails_before_any_fit(self, monkeypatch):
        ecdf = ig_log_ecdf(5.0, 1.0, 200, seed=6)
        fits = []
        monkeypatch.setattr(ft, "_fit_row", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match="unknown family 'weibull'"):
            ft.compare_families(ecdf, ["gamma", "weibull"])
        assert fits == []

    def test_one_quadrature_serves_every_row(self, monkeypatch):
        ecdf = ig_log_ecdf(5.0, 1.0, 500, seed=6)
        builds = {"_CvmQuadrature": 0, "_HermiteMap": 0}

        def spy(cls):
            library_init = cls.__init__

            def init(self, *args):
                builds[cls.__name__] += 1
                library_init(self, *args)
            monkeypatch.setattr(cls, "__init__", init)

        spy(ft._CvmQuadrature)
        spy(ft._HermiteMap)
        ranked = ft.compare_families(ecdf, sorted(ft.FAMILIES), integer_m=True, multistart=2)
        assert builds == {"_CvmQuadrature": 1, "_HermiteMap": 1}
        # each row is the one fit() gives on its own, field for field
        assert len(ranked) == 5
        for res in ranked:
            if res.family == "inverse_gamma_integer":
                alone = ft.fit("inverse_gamma", ecdf, integer_m=True, multistart=2)
            else:
                alone = ft.fit(res.family, ecdf, multistart=2)
            assert res == alone

    def test_failed_inverse_gamma_fit_fails_the_integer_row(self, monkeypatch):
        def failing(family, *args):
            raise RuntimeError("no minimum")

        monkeypatch.setattr(ft, "_fit_row", failing)
        ecdf = ig_log_ecdf(5.0, 1.0, 200, seed=6)
        with pytest.raises(RuntimeError, match="inverse_gamma: no minimum; "
                                               "inverse_gamma_integer: the inverse_gamma fit"):
            ft.compare_families(ecdf, ["inverse_gamma"], integer_m=True)

    def test_failed_rows_warn_with_their_reason(self, monkeypatch):
        library_row = ft._fit_row

        def fit_row(family, *args):
            if family == "gamma":
                raise RuntimeError("no minimum")
            return library_row(family, *args)

        monkeypatch.setattr(ft, "_fit_row", fit_row)
        ecdf = ig_log_ecdf(5.0, 1.0, 200, seed=6)
        with pytest.warns(ft.FitFailedWarning, match="^gamma: no minimum$"):
            ranked = ft.compare_families(ecdf, ["gamma", "lognormal"], multistart=2)
        assert [r.family for r in ranked] == ["lognormal"]

    def test_integer_row_appended(self):
        ecdf = ig_log_ecdf(5.0, 1.0, 2000, seed=6)
        ranked = ft.compare_families(
            ecdf, ["inverse_gamma"], integer_m=True, multistart=2
        )
        tags = {r.family for r in ranked}
        assert tags == {"inverse_gamma", "inverse_gamma_integer"}

    def test_empty_request(self):
        ecdf = mc.empirical_cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            ft.compare_families(ecdf, [])


# n = 500 log-samples of the two laws the benchmark fits; bounds are the
# benchmark's: parameters 1e-3 relative, CvM 1e-6 relative
ORACLE_DATA = {
    "invgamma": lambda: np.log(sh.sample_inverse_gamma(3.0, 2.0, 500, seed=31)),
    "gamma": lambda: np.log(
        np.random.Generator(np.random.Philox(np.random.SeedSequence(32))).gamma(2.0, 1.0, 500)
    ),
}


@functools.lru_cache(maxsize=None)
def oracle_fits(law: str) -> dict:
    oracle = CvmFitOracle(ORACLE_DATA[law]())
    out = {family: oracle.fit(family) for family in ft.FAMILIES}
    out["inverse_gamma_integer"] = oracle.fit_integer_m(out["inverse_gamma"][0][1])
    return out


class TestAgainstIndependentFitter:
    @pytest.mark.parametrize("law", sorted(ORACLE_DATA))
    @pytest.mark.parametrize("family", sorted(ft.FAMILIES) + ["inverse_gamma_integer"])
    def test_matches_dense_nelder_mead(self, law, family):
        ecdf = mc.empirical_cdf(ORACLE_DATA[law]())
        if family == "inverse_gamma_integer":
            res = ft.fit("inverse_gamma", ecdf, integer_m=True)
        else:
            res = ft.fit(family, ecdf)
        assert res.family == family
        params, cvm = oracle_fits(law)[family]
        assert tuple(vars(res.params).values()) == pytest.approx(params, rel=1e-3)
        assert res.cvm == pytest.approx(cvm, rel=1e-6)


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import catalog  # noqa: E402
import checks  # noqa: E402
import workload  # noqa: E402


class TestBenchReference:
    """The benchmark's fit cases, run in-process as bench/workload.py runs
    them, meet bench/reference.json under bench/checks.py."""

    def test_every_fit_case_meets_its_reference(self, tmp_path):
        for spec in (s for specs in catalog.DATASETS.values() for s in specs):
            catalog.write_dataset(spec, str(tmp_path))
        refs = workload.load_references()
        cases = [c for cases in catalog.strata("fit").values() for c in cases]
        failed = {}
        for case in cases:
            _, rc, error, stdout, out = workload.run_op(cli, case, str(tmp_path))
            reasons = checks.check(case, refs.get(case.id), rc, error, stdout, out)
            if reasons:
                failed[case.id] = reasons
        assert len(cases) == 40 and failed == {}


class TestMergedStarts:
    """A start that enters the basin of a minimum an earlier start reached
    stops; on the benchmark's fit data that leaves every row where the
    searches that run each start to its end put it."""

    @pytest.mark.parametrize("spec", [s for specs in catalog.DATASETS.values() for s in specs],
                             ids=catalog.dataset_name)
    def test_matches_unmerged_search_with_fewer_jacobians(self, spec, monkeypatch):
        values = catalog.dataset_values(spec)
        ecdf = mc.empirical_cdf(values if spec["scale"] == "ln" else np.log(values))

        def rows():
            ranked = ft.compare_families(ecdf, sorted(ft.FAMILIES), integer_m=True)
            return {r.family: r for r in ranked}

        merged = rows()
        monkeypatch.setattr(ft, "_BASIN_RADIUS", 0.0)
        unmerged = rows()
        assert merged.keys() == unmerged.keys() and len(merged) == 5
        for family, res in merged.items():
            want = unmerged[family]
            # the CvM minimum is flat: the unmerged search keeps whichever of
            # its starts' ends is lowest, and those ends differ by ~1e-5
            assert tuple(vars(res.params).values()) == pytest.approx(
                tuple(vars(want.params).values()), rel=1e-5)
            assert res.cvm == pytest.approx(want.cvm, rel=1e-9, abs=0.0)
            assert res.converged == want.converged
            assert res.iterations <= want.iterations
        assert (sum(r.iterations for r in merged.values())
                < sum(r.iterations for r in unmerged.values()))


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def bench_ecdf(spec):
    values = catalog.dataset_values(spec)
    return mc.empirical_cdf(values if spec["scale"] == "ln" else np.log(values))


def search_rows(ecdf, direct=False):
    """Every row of the CLI report, from the Hermite-reduced search or, if
    `direct`, from the search over the oracle's direct objective."""
    with pytest.MonkeyPatch.context() as mp:
        if direct:
            mp.setattr(ft, "_objective", direct_cvm_objective)
        ranked = ft.compare_families(ecdf, sorted(ft.FAMILIES), integer_m=True)
    return {r.family: r for r in ranked}


def hermite_cdf(quad, model):
    """F at every quadrature node as the reduced search sees it."""
    reduced = quad.hermite()
    k = reduced.knots.size
    cdf = sh.log_domain_cdf(model, reduced.points)
    g = reduced.y[:k] * sh.pdf(model, reduced.y[:k])
    return reduced.weighted(cdf[:k], g, cdf[k:]) / np.sqrt(quad.weights)


def params_of(res):
    return tuple(vars(res.params).values())


BENCH_SPECS = [s for specs in catalog.DATASETS.values() for s in specs]


@functools.lru_cache(maxsize=None)
def bench_rows(name):
    return search_rows(bench_ecdf(next(s for s in BENCH_SPECS if catalog.dataset_name(s) == name)))


class TestPinnedRows:
    """A row whose search coordinate stops on the edge of its search box
    names the field; on such data the ranking measures the box."""

    def test_narrow_data_pin_every_family(self, monkeypatch):
        # a box of each moment start +- 0.5 holds none of these minima
        monkeypatch.setattr(ft, "_BOX", 0.5)
        ecdf = mc.empirical_cdf(philox(45).normal(3.0, 0.001, 500))
        rows = {r.family: r for r in ft.compare_families(ecdf, sorted(ft.FAMILIES))}
        assert {family: r.pinned for family, r in rows.items()} == {
            "lognormal": ("sigma",), "gamma": ("k",),
            "inverse_gaussian": ("lam",), "inverse_gamma": ("m",)}
        assert all(r.converged for r in rows.values())

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=catalog.dataset_name)
    def test_no_bench_row_is_pinned(self, spec):
        rows = bench_rows(catalog.dataset_name(spec)).values()
        assert [r.pinned for r in rows] == [()] * 5

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=catalog.dataset_name)
    def test_fitted_parameters_are_floats(self, spec):
        for res in bench_rows(catalog.dataset_name(spec)).values():
            assert all(type(v) is float for v in params_of(res)), res


class TestHermiteReduction:
    """The fit search interpolates F at the step nodes from F and y f(y) at
    a few hundred knots; it must land where the search over the model CDF
    at every node (tests/oracles.py) lands."""

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=catalog.dataset_name)
    def test_interpolated_cdf_matches_the_direct_one(self, spec):
        ecdf = bench_ecdf(spec)
        quad = ft._CvmQuadrature(ecdf, 5.0)
        # an evaluation costs the knots and the pads, not the 4n step nodes
        assert quad.hermite().points.size < 0.4 * quad.nodes.size
        for res in bench_rows(catalog.dataset_name(spec)).values():
            gap = hermite_cdf(quad, res.params) - sh.log_domain_cdf(res.params, quad.nodes)
            assert np.abs(gap).max() < 1e-9, res.family
        for fam in ft.FAMILIES.values():
            for x0 in np.add(fam.start(*quad.log_moments), ft._LATTICE[:8]):
                model = fam.make(x0)
                gap = hermite_cdf(quad, model) - sh.log_domain_cdf(model, quad.nodes)
                assert np.abs(gap).max() < 1e-7, (fam.name, x0)

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=catalog.dataset_name)
    def test_search_matches_the_direct_search(self, spec):
        reduced = bench_rows(catalog.dataset_name(spec))
        direct = search_rows(bench_ecdf(spec), direct=True)
        assert reduced.keys() == direct.keys() and len(reduced) == 5
        for family, res in reduced.items():
            want = direct[family]
            assert params_of(res) == pytest.approx(params_of(want), rel=1e-6), family
            assert res.cvm == pytest.approx(want.cvm, rel=1e-9, abs=0.0), family
            assert res.converged == want.converged, family

    @pytest.mark.parametrize("spec", BENCH_SPECS, ids=catalog.dataset_name)
    def test_reported_cvm_is_the_statistic(self, spec):
        ecdf = bench_ecdf(spec)
        for res in bench_rows(catalog.dataset_name(spec)).values():
            exact = ft.cvm_statistic(ecdf, lambda t: sh.log_domain_cdf(res.params, t))
            assert res.cvm == pytest.approx(exact, rel=1e-14, abs=0.0), res.family

    def test_narrow_bulk_among_far_outliers(self):
        # s is set by the outliers here; the data knots keep the bulk's cells
        # narrow (the s/32 grid alone moved the parameters by 2.4e-4)
        ecdf = mc.empirical_cdf(np.concatenate(
            (philox(41).normal(0.0, 0.01, 2000), philox(42).uniform(-3.0, 3.0, 20))))
        reduced, direct = search_rows(ecdf), search_rows(ecdf, direct=True)
        for family, res in reduced.items():
            assert params_of(res) == pytest.approx(params_of(direct[family]), rel=1e-5), family
            assert res.cvm == pytest.approx(direct[family].cvm, rel=1e-9, abs=0.0), family

    def test_two_modes(self):
        # the inverse-gamma minimum is flat here: its parameters move by 6e-4
        # between the two searches, its CvM by 7e-9
        ecdf = mc.empirical_cdf(np.concatenate(
            (philox(43).normal(-1.0, 0.2, 250), philox(44).normal(1.0, 0.2, 250))))
        reduced, direct = search_rows(ecdf), search_rows(ecdf, direct=True)
        assert reduced.keys() == direct.keys()
        for family, res in reduced.items():
            assert res.cvm == pytest.approx(direct[family].cvm, rel=1e-7, abs=0.0), family

    @pytest.mark.parametrize("center, width", [(3.0, 0.001), (-738.0, 0.3)])
    @pytest.mark.parametrize("family", sorted(ft.FAMILIES))
    def test_jacobian_is_finite_where_the_density_underflows(self, family, center, width):
        # y f(y) underflows to 0 at the far pad nodes of narrow data; near
        # y = e^-745 it does so at knots too, where the inverse laws' slopes
        # overflow (rate / y, lam / 2y)
        ecdf = mc.empirical_cdf(philox(45).normal(center, width, 500))
        quad = ft._CvmQuadrature(ecdf, 5.0)
        fam = ft.FAMILIES[family]
        start = fam.start(*quad.log_moments)
        box = ft._box(start)
        residuals, jacobian = ft._objective(quad, fam.make, box, fam.scale)
        y = quad.hermite().y
        underflows = 0
        for x in np.clip(np.add(start, ft._LATTICE), *box.T):
            g = y * sh.pdf(fam.make(x), y)
            underflows += np.sum(g == 0.0)
            assert np.all(np.isfinite(jacobian(x, residuals(x)))), x
        assert underflows > 0

    def test_map_is_built_on_first_use(self):
        # validation's quadrature (montecarlo.compare) never asks for it
        quad = ft._CvmQuadrature(ig_log_ecdf(3.0, 2.0, 500, seed=31), 5.0)
        assert quad._hermite is None
        assert quad.hermite() is quad.hermite()
