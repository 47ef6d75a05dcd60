"""Cramer-von Mises fitting of shadowing families to empirical CDF data.

The statistic integrates |Fhat(t) - F(t)|^2 over the padded data support,
exploiting the step structure of Fhat: fixed Gauss-Legendre panels on each
step interval plus head/tail panels where Fhat is 0 and its final level.
As the squared norm of the residuals sqrt(w) (Fhat - F) at those nodes, it
is minimized in log coordinates by a small box-projected Levenberg-Marquardt,
one solve per point of a deterministic multistart lattice; a solve stops once
it enters the basin of a minimum an earlier one converged to.

The search takes F at the step nodes from a cubic Hermite interpolant in
t = ln y on a few hundred knots, with g = dF/dt = y f(y) as its slopes, so an
evaluation costs the knots and the pad nodes, not n; a row's reported CvM is
one direct evaluation at its parameters.

Every family has a coordinate direction that only rescales the law (Y -> Y e^d),
and along it dF/dd = -g and dg/dd = -g' exactly, so one Jacobian column comes
from the model PDF; the other coordinate takes one forward difference.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
import scipy.special as sc

from . import shadowing

if TYPE_CHECKING:
    from .montecarlo import EmpiricalCdf

__all__ = [
    "FitResult",
    "FitFailedWarning",
    "FAMILIES",
    "cvm_statistic",
    "fit",
    "compare_families",
    "db_to_natural_log",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class FitResult:
    """One fitted family.

    iterations sums the Jacobian evaluations of the Levenberg-Marquardt
    solves behind the row (for the integer-m row, the unconstrained search's
    and the integer-shape solves'); converged is true when the solve that
    produced the returned parameters met a stop rule (ftol, xtol or gtol)
    before its evaluation budget ran out. pinned names the fields of params
    whose search coordinate sits on the edge of its search box (for the
    integer-m row, omega_i only): such a row measures the box, not the family.
    """

    family: str
    params: shadowing.ShadowingModel
    cvm: float
    iterations: int
    converged: bool
    pinned: tuple[str, ...] = ()


class FitFailedWarning(UserWarning):
    """One row of `compare_families` failed while others succeeded; the
    message is "<family>: <reason>"."""


def db_to_natural_log(t_db, direction: str = "paper"):
    """Rescale amplitude-dB deviations to the natural-log domain.

    direction="paper" applies t = 20 t_dB / ln 10 (the literal published
    rescaling); direction="conventional" applies t = t_dB ln 10 / 20, the
    usual dB -> natural-log conversion. Both are linear; fitted parameters
    differ by a scale reparameterization between the two.
    """
    arr = np.asarray(t_db, dtype=float)
    if direction == "paper":
        out = arr * (20.0 / _LN10)
    elif direction == "conventional":
        out = arr * (_LN10 / 20.0)
    else:
        raise ValueError(f"db_to_natural_log: unknown direction {direction!r}")
    return float(out) if np.ndim(t_db) == 0 else out


class _CvmQuadrature:
    """Precomputed nodes/weights/levels for repeated CvM evaluations."""

    _GL2 = np.polynomial.legendre.leggauss(2)
    _GL4 = np.polynomial.legendre.leggauss(4)
    _GL64 = np.polynomial.legendre.leggauss(64)

    def __init__(self, ecdf: EmpiricalCdf, support_pad: float):
        if not 0 <= support_pad < math.inf:
            raise ValueError(f"support_pad must be finite and >= 0, got {support_pad}")
        t, f = ecdf.t, ecdf.f
        if t.size == 1 and support_pad == 0:
            raise ValueError("cvm_statistic: single-point eCDF with zero padding has no support")
        # 2-point panels are exact through cubics; on the sub-1e-3-wide steps
        # of a large eCDF that is far below statistical noise
        gx, gw = self._GL2 if t.size > 4097 else self._GL4
        mid, half = 0.5 * (t[:-1] + t[1:]), 0.5 * (t[1:] - t[:-1])
        nodes = [(mid[:, None] + half[:, None] * gx).ravel()]
        weights = [(half[:, None] * gw).ravel()]
        levels = [np.repeat(f[:-1], gx.size)]
        if support_pad > 0:
            px, pw = self._GL64
            for a, b, level in (
                (t[0] - support_pad, t[0], 0.0),
                (t[-1], t[-1] + support_pad, f[-1]),
            ):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                nodes.append(mid + half * px)
                weights.append(half * pw)
                levels.append(np.full(px.size, level))
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.levels = np.concatenate(levels)
        # the step nodes come first, then the pads' nodes; row k of `cells`
        # views the Gauss nodes of eCDF step k
        self.ecdf, self.steps = ecdf, nodes[0].size
        self.cells = self.nodes[:self.steps].reshape(-1, gx.size)
        self._hermite = None

    @functools.cached_property
    def log_moments(self) -> tuple[float, float]:
        """Mean and variance of the (log-domain) data the eCDF steps through."""
        t, df = self.ecdf.t, np.diff(self.ecdf.f, prepend=0.0)
        m1 = float(np.dot(t, df))
        return m1, float(np.dot(t * t, df)) - m1 * m1

    def evaluate(self, theory_at_nodes: np.ndarray) -> float:
        resid = self.levels - np.asarray(theory_at_nodes, dtype=float)
        return float(np.dot(self.weights, resid * resid))

    def hermite(self) -> _HermiteMap:
        """The fit search's Hermite map of these nodes, built on first use:
        the step nodes from its knots, the pad nodes direct."""
        if self._hermite is None:
            self._hermite = _HermiteMap(_fit_knots(self), self.nodes, self.steps,
                                        np.sqrt(self.weights))
        return self._hermite


# Knots of the fit's Hermite map. A cubic Hermite cell of width h misses F by at
# most h^4 max|F^(4)| / 384 (de Boor 1978), and F^(4) scales as s^-4 on data
# whose logs have standard deviation s. With cells of s/64 the reduced scale
# column stays within 1.7e-9 (of its largest entry) of central differences of
# the direct CDF on n = 500 inverse-gamma draws; s/32 misses by 3.1e-8.
_KNOT_SPACING = 1.0 / 64.0
# Every ceil(n / 128)-th abscissa is a knot as well: it keeps the cells narrow
# where the data crowd more tightly than s says, as a narrow bulk among far
# outliers does.
_DATA_KNOTS = 128


def _fit_knots(quad: _CvmQuadrature) -> np.ndarray:
    """A uniform grid of spacing s/64 over the data's range and every
    ceil(n / 128)-th abscissa, never more cells than step nodes."""
    t = quad.ecdf.t
    spread = math.sqrt(max(quad.log_moments[1], 0.0))
    cells = quad.steps
    if spread > 0:
        cells = min(cells, math.ceil((t[-1] - t[0]) / (_KNOT_SPACING * spread)))
    stride = -(-t.size // _DATA_KNOTS)
    return np.unique(np.concatenate((np.linspace(t[0], t[-1], cells + 1), t[::stride], t[-1:])))


def _hermite_basis(tau, h):
    """The cubic Hermite weights of v[k], v[k+1], dv[k] and dv[k+1] at the
    relative position tau in a cell [k, k+1] of width h."""
    return (
        (1.0 + 2.0 * tau) * (1.0 - tau) ** 2,
        tau * tau * (3.0 - 2.0 * tau),
        h * tau * (1.0 - tau) ** 2,
        -h * tau * tau * (1.0 - tau),
    )


class _HermiteMap:
    """The fit's values at a quadrature's nodes in t = ln y, each scaled by its
    node's `root_w`: at the first `steps` nodes, the cubic Hermite
    interpolant (`_hermite_basis`) of values v and slopes dv at the knots
    around it, found by search; at the others (the pads), values evaluated
    there.

    `points` are the knots followed by the direct nodes, and `y` is e^points
    as `shadowing.log_domain_cdf` maps them.
    """

    def __init__(self, knots: np.ndarray, nodes: np.ndarray, steps: int, root_w: np.ndarray):
        self.knots = knots
        self.points = np.concatenate((knots, nodes[steps:]))
        x = nodes[:steps]
        cell = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
        h = np.diff(knots)[cell]
        self.left, self.right, self.direct_root_w = cell, cell + 1, root_w[steps:]
        w = root_w[:steps]
        self.basis = tuple(w * b for b in _hermite_basis((x - knots[cell]) / h, h))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return np.exp(np.clip(self.points, shadowing._EXP_LO, shadowing._EXP_HI))

    def weighted(self, v: np.ndarray, dv: np.ndarray, at_direct: np.ndarray) -> np.ndarray:
        """root_w times the values at every node, from the values v and
        slopes dv at the knots and the values at the direct nodes."""
        left, right, w = self.left, self.right, self.basis
        return np.concatenate((w[0] * v.take(left) + w[1] * v.take(right)
                               + w[2] * dv.take(left) + w[3] * dv.take(right),
                               self.direct_root_w * at_direct))


def cvm_statistic(
    ecdf: EmpiricalCdf,
    theory: Callable[[np.ndarray], np.ndarray],
    support_pad: float = 5.0,
) -> float:
    """Integrated squared eCDF-vs-theory discrepancy over the padded support."""
    quad = _CvmQuadrature(ecdf, support_pad)
    return quad.evaluate(theory(quad.nodes))


# ---------------------------------------------------------------------------
# Family descriptors: log-ish coordinates, searched around a moment start
# ---------------------------------------------------------------------------


def _make_lognormal(c):
    return shadowing.Lognormal(mu=float(c[0]), sigma=math.exp(c[1]))


def _make_gamma(c):
    return shadowing.GammaShadowing(k=math.exp(c[0]), omega=math.exp(c[1]))


def _make_invgauss(c):
    return shadowing.InverseGaussian(mu_i=math.exp(c[0]), lam=math.exp(c[1]))


def _make_invgamma(c):
    return shadowing.InverseGamma(m=1.0 + math.exp(c[0]), omega_i=math.exp(c[1]))


@dataclass(frozen=True)
class _Family:
    name: str
    make: Callable
    start: Callable  # (log-mean, log-var) -> coords
    scale: tuple[float, float]  # coordinate direction that only rescales the law
    fields: tuple[str, str]  # the model field each coordinate sets


def _start_lognormal(m1, v):
    return (m1, math.log(math.sqrt(v)))


def _start_gamma(m1, v):
    k0 = min(max(1.0 / v, 0.06), 9e3)
    return (math.log(k0), m1 - sc.digamma(k0) + math.log(k0))


def _start_invgauss(m1, v):
    # the lognormal's mean e^(m1 + v/2) and shape mean / (e^v - 1)
    ln_mu0 = m1 + 0.5 * v
    return (ln_mu0, ln_mu0 - v - math.log(-math.expm1(-v)))


def _ln_omega_start(m1, m):
    """ln of the inverse-gamma mean at shape m that matches the log-mean m1."""
    return m1 + sc.digamma(m) - math.log(m - 1.0)


def _start_invgamma(m1, v):
    m0 = min(max(1.0 / v, 1.01), 9e3)
    return (math.log(m0 - 1.0), _ln_omega_start(m1, m0))


FAMILIES: dict[str, _Family] = {
    "lognormal": _Family(
        "lognormal",
        _make_lognormal,
        _start_lognormal,
        (1.0, 0.0),
        ("mu", "sigma"),
    ),
    "gamma": _Family(
        "gamma",
        _make_gamma,
        _start_gamma,
        (0.0, 1.0),
        ("k", "omega"),
    ),
    "inverse_gaussian": _Family(
        "inverse_gaussian",
        _make_invgauss,
        _start_invgauss,
        (1.0, 1.0),
        ("mu_i", "lam"),
    ),
    "inverse_gamma": _Family(
        "inverse_gamma",
        _make_invgamma,
        _start_invgamma,
        (0.0, 1.0),
        ("m", "omega_i"),
    ),
}

# Every coordinate is searched within ln 1e6 of its moment start: the box moves
# with the data, so a change of units (Y -> Y e^d) moves the fit along `scale`.
_BOX = math.log(1e6)


def _box(start) -> np.ndarray:
    """(lo, hi) of each coordinate: the start +- _BOX, clipped to exp's range."""
    return np.clip(np.asarray(start, dtype=float)[:, None] + (-_BOX, _BOX),
                   shadowing._EXP_LO, shadowing._EXP_HI)


# multistart offsets in coordinate space, applied around the moment start
_LATTICE = [
    (0.0, 0.0),
    (1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5),
    (1.5, 1.5), (-1.5, -1.5), (1.5, -1.5), (-1.5, 1.5),
    (3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0),
]


# scipy.optimize.least_squares' default stop rules and evaluation budget
_FTOL = _XTOL = _GTOL = 1e-8
_NFEV_PER_COORD = 100
_FD_STEP = math.sqrt(np.finfo(float).eps)
# A start whose iterate comes this close, in every coordinate, to a minimum an
# earlier start converged to is in that minimum's basin. Lattice points are 1.5
# apart, so the box around a minimum holds no other start; a converged solve
# sits within xtol = 1e-8 (relative) of its minimum, so a start headed there
# enters the box well before it converges.
_BASIN_RADIUS = 0.05


def _levenberg_marquardt(residuals, jacobian, x0, lo, hi, stop=lambda x, cost: False):
    """Minimize |r(x)|^2 / 2 over the box [lo, hi], starting at x0.

    Marquardt-damped Gauss-Newton steps on the coordinates the gradient does
    not hold at a bound, clipped to the box. Stops as least_squares does: a
    reduction below ftol of the cost (at a gain ratio above 1/4), a step
    below xtol of |x|, or a free gradient below gtol. `stop(x, cost)` is asked
    after each accepted step; a true answer ends the solve unconverged.
    Returns (x, cost, Jacobian evaluations, whether a stop rule was met within
    100 residual evaluations per coordinate).
    """
    x = np.array(x0, dtype=float)
    r = residuals(x)
    cost, nfev = 0.5 * float(r @ r), 1
    J, njev = jacobian(x, r), 1
    damping, growth, fresh = 1e-3, 2.0, True
    while True:
        if fresh:
            g = J.T @ r
            free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
            if np.max(np.abs(g[free]), initial=0.0) < _GTOL:
                return x, cost, njev, True
            A = J[:, free].T @ J[:, free]
            # Marquardt's scaling; a zero column (a coordinate the CDF does
            # not feel) is damped as a unit one, as MINPACK does
            D = np.diag(np.where(np.diag(A) > 0, np.diag(A), 1.0))
        if nfev >= _NFEV_PER_COORD * x.size:
            return x, cost, njev, False
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(A + damping * D, -g[free])
        x_new = np.clip(x + step, lo, hi)
        dx = x_new - x
        r_new = residuals(x_new)
        cost_new, nfev = 0.5 * float(r_new @ r_new), nfev + 1
        reduction = cost - cost_new
        predicted = -float(g @ dx) - 0.5 * float(np.sum((J @ dx) ** 2))
        ratio = reduction / predicted if predicted > 0 else 0.0
        done = (reduction < _FTOL * cost and ratio > 0.25) or (
            np.linalg.norm(dx) < _XTOL * (_XTOL + np.linalg.norm(x)))
        fresh = reduction > 0
        if fresh:
            x, r, cost = x_new, r_new, cost_new
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            growth = 2.0
        else:
            damping, growth = damping * growth, 2.0 * growth
        if done:
            return x, cost, njev, True
        if fresh:
            if stop(x, cost):
                return x, cost, njev, False
            J, njev = jacobian(x, r), njev + 1


def _objective(quad: _CvmQuadrature, make: Callable, bounds, scale):
    """The residuals sqrt(w) (Fhat - F) at the quadrature nodes, F the CDF of
    `make(coords)` through the quadrature's Hermite map, and their Jacobian
    (coords, residuals) -> (nodes, coords).

    `scale` is the coordinate direction that only rescales the law; its
    column is exact for these residuals, and the other one (in 2-D) is a
    forward difference, stepped back into the box at an upper bound.
    """
    target = np.sqrt(quad.weights) * quad.levels
    reduced = quad.hermite()
    n_knots, y = reduced.knots.size, reduced.y
    hi = np.transpose(bounds)[1]
    basis = np.array(scale, dtype=float)[:, None]
    if basis.size == 2:
        axis = int(scale[0] != 0)
        basis = np.column_stack([basis, np.eye(2)[axis]])
    to_coords = np.linalg.inv(basis)

    def residuals(coords) -> np.ndarray:
        model = make(coords)
        cdf = shadowing.log_domain_cdf(model, reduced.points)
        g = model._density(y[:n_knots], 1)
        return target - reduced.weighted(cdf[:n_knots], g, cdf[n_knots:])

    def jacobian(coords, r) -> np.ndarray:
        # along the scale direction dF/dd = -g and dg/dd = -g' at every
        # point, so the residuals' derivative is the map of +g
        model = make(coords)
        g = model._density(y, 1)
        knot_g = g[:n_knots]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.where(knot_g > 0, knot_g * model._log_slope(y[:n_knots]), 0.0)
        cols = [reduced.weighted(knot_g, slope, g[n_knots:])]
        if basis.shape[1] == 2:
            h = _FD_STEP * max(1.0, abs(coords[axis]))
            stepped = np.array(coords, dtype=float)
            stepped[axis] += h if coords[axis] + h <= hi[axis] else -h
            cols.append((residuals(stepped) - r) / (stepped[axis] - coords[axis]))
        return np.column_stack(cols) @ to_coords

    return residuals, jacobian


def _exact_cvm(quad: _CvmQuadrature, res: FitResult) -> FitResult:
    """`res` with its CvM from one direct evaluation at its parameters."""
    return replace(res, cvm=quad.evaluate(shadowing.log_domain_cdf(res.params, quad.nodes)))


def _solve(tag: str, quad: _CvmQuadrature, make: Callable, bounds, scale, fields,
           starts) -> FitResult:
    """Best least-squares CvM minimum over the starts (clipped into `bounds`)
    in coordinates `make` maps to a model; `fields` names each one's field.

    A start stops once it enters the basin of a minimum an earlier start
    converged to, at a cost no lower than that minimum's: it can only find
    that minimum again (clustering multistart, Rinnooy Kan & Timmer 1987).
    """
    residuals, jacobian = _objective(quad, make, bounds, scale)
    lo, hi = np.transpose(bounds)
    minima = []  # (x, cost) of each start that converged

    def known_basin(x, cost):
        return any(cost >= c and np.all(np.abs(x - m) < _BASIN_RADIUS) for m, c in minima)

    best = None
    iterations = 0
    for x0 in np.clip(starts, lo, hi):
        x, cost, njev, converged = _levenberg_marquardt(
            residuals, jacobian, x0, lo, hi, known_basin)
        iterations += njev
        if converged:
            minima.append((x, cost))
        if best is None or cost < best[1]:
            best = (x, cost, converged)
    x, cost, converged = best
    pinned = tuple(name for name, xi, a, b in zip(fields, x, lo, hi) if not a < xi < b)
    return FitResult(tag, make(x), 2.0 * cost, iterations, converged, pinned)


def _restrict_to_integer_m(quad: _CvmQuadrature, real: FitResult) -> FitResult:
    """Best integer shape near the unconstrained inverse-gamma fit `real`:
    for each candidate m, a ln(omega) solve started at its omega and one
    started at the omega that matches the data's log-mean at shape m."""
    best, iterations = None, real.iterations
    for m in sorted({max(2, round(real.params.m) + d) for d in (-2, -1, 0, 1, 2)}):
        start = (_ln_omega_start(quad.log_moments[0], m),)
        res = _solve(
            "inverse_gamma_integer",
            quad,
            lambda c, m=float(m): shadowing.InverseGamma(m=m, omega_i=math.exp(c[0])),
            _box(start),
            (1.0,),
            ("omega_i",),
            [(math.log(real.params.omega_i),), start],
        )
        iterations += res.iterations
        if best is None or res.cvm < best.cvm:
            best = res
    return _exact_cvm(quad, replace(best, iterations=iterations))


def _check_options(families: Sequence[str], integer_m: bool, multistart: int,
                   support_pad: float) -> None:
    """The ValueError of the first invalid option of a fit, before any fit."""
    if not families:
        raise ValueError("compare_families: no families requested")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"fit: unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if integer_m and "inverse_gamma" not in families:
        raise ValueError("fit: integer_m applies to the inverse_gamma family only")
    if not 1 <= multistart <= len(_LATTICE):
        raise ValueError(f"fit: multistart must be 1 to {len(_LATTICE)} (the points of the "
                         f"{len(_LATTICE)}-point start lattice), got {multistart}")
    if not 0 <= support_pad < math.inf:
        raise ValueError(f"fit: support_pad must be finite and >= 0, got {support_pad}")


_DEGENERATE = "fit: degenerate data (fewer than two distinct abscissae)"


def _fit_row(family: str, quad: _CvmQuadrature, multistart: int) -> FitResult:
    """The unconstrained fit of `family` on the data's quadrature `quad`,
    from the first `multistart` lattice points around its moment start."""
    fam = FAMILIES[family]
    m1, v = quad.log_moments
    start = fam.start(m1, max(v, 1e-4))
    return _exact_cvm(quad, _solve(family, quad, fam.make, _box(start), fam.scale, fam.fields,
                                   np.add(start, _LATTICE[:multistart])))


def fit(
    family: str,
    ecdf: EmpiricalCdf,
    integer_m: bool = False,
    multistart: int = 8,
    support_pad: float = 5.0,
) -> FitResult:
    """Minimize the CvM statistic for one shadowing family on log-domain data.

    integer_m (inverse-gamma only) fits the unconstrained law first, then
    re-optimizes the mean for each integer shape in a bracket around its
    shape and keeps the best.
    """
    _check_options((family,), integer_m, multistart, support_pad)
    if ecdf.t.size < 2:
        raise ValueError(_DEGENERATE)
    quad = _CvmQuadrature(ecdf, support_pad)
    real = _fit_row(family, quad, multistart)
    return _restrict_to_integer_m(quad, real) if integer_m else real


def compare_families(
    ecdf: EmpiricalCdf,
    families: Sequence[str],
    integer_m: bool = False,
    multistart: int = 8,
    support_pad: float = 5.0,
) -> list[FitResult]:
    """Fit each family and rank ascending by the CvM statistic.

    Every row shares one quadrature of the data (and its Hermite map). The
    integer-m row restricts the unconstrained inverse-gamma fit, which runs
    once. Per-family failures are collected: if every requested fit fails
    the aggregated error is raised, and otherwise each failed row warns
    with a FitFailedWarning "<family>: <reason>". Invalid options raise
    ValueError before any fit.
    """
    _check_options(families, integer_m, multistart, support_pad)
    results: list[FitResult] = []
    failures: list[str] = []
    if ecdf.t.size < 2:
        failures = [f"{family}: {_DEGENERATE}" for family in families]
    else:
        quad = _CvmQuadrature(ecdf, support_pad)
        for family in families:
            try:
                results.append(_fit_row(family, quad, multistart))
            except Exception as exc:  # aggregate and keep going
                failures.append(f"{family}: {exc}")
    real = next((r for r in results if r.family == "inverse_gamma"), None)
    if integer_m and real is None:
        failures.append("inverse_gamma_integer: the inverse_gamma fit it restricts failed")
    elif integer_m:
        try:
            results.append(_restrict_to_integer_m(quad, real))
        except Exception as exc:
            failures.append(f"inverse_gamma_integer: {exc}")
    if not results:
        raise RuntimeError("all family fits failed: " + "; ".join(failures))
    for failure in failures:
        warnings.warn(failure, FitFailedWarning, stacklevel=2)
    return sorted(results, key=lambda r: r.cvm)
