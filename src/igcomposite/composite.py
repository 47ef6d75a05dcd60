"""Inverse-gamma composite fading models.

A composite model multiplies a normalized inverse-gamma shadowing variable
(shape m > 1, unit mean) with a normalized baseline fading power and a mean
power w_bar. PDF/CDF/outage evaluate through three interchangeable routes:

* the two transform routes, built from one term of the baseline's
  generalized MGF, T_q(u) = r^q phi^(q)(-r) / Gamma(q+1) with
  r = (m-1) w_bar / u: the PDF is (m/u) T_m(u), the general CDF is
  1 - sum_{n>=0} T_{m+n}(u) (one series per point, those of all points
  summed side by side) and, for integer m, the CDF is the m-term sum
  sum_{n<m} T_n(u). A GMGF that lost all precision (NaN) raises
  ConvergenceError naming the model, m and u;
* the mixture route, where a gamma-mixture baseline turns the composite
  into a mixture of Fisher-Snedecor F distributions. Its CDF costs one
  regularized incomplete beta per point: the components share that
  function's argument and step their shape by 1, so a downward recurrence
  of positive terms gives the rest.

Outage and its asymptote are vectorized over the threshold, so a sweep is
one call.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import NamedTuple

import numpy as np
import scipy.special as sc

from . import fading
# sum_series and integrate_semi_infinite are unused here but stay module
# attributes: bench/layertrace.py wraps both by name and fails to install
# without them
from .numerics import (  # noqa: F401
    DEFAULT_TOL,
    ConvergenceError,
    Tolerance,
    _as_positive,
    _maybe_scalar,
    integrate_semi_infinite,
    sum_series,
    sum_series_blocks,
)

__all__ = [
    "CompositeModel",
    "FDistParams",
    "FMixture",
    "Strategy",
    "f_pdf",
    "f_cdf",
    "composite_pdf",
    "composite_cdf",
    "amplitude_pdf",
    "amplitude_cdf",
    "outage",
    "outage_asymptotic",
    "mixture_of_f",
]

_INTEGER_EPS = 1e-9


class Strategy(enum.Enum):
    AUTO = "auto"
    GMGF_GENERAL = "gmgf-general"
    GMGF_INTEGER = "gmgf-integer"
    MIXTURE = "mixture"


_frozen = dataclasses.dataclass(frozen=True)


@_frozen
class CompositeModel:
    """Shadowing shape m > 1, mean power w_bar, normalized baseline."""

    m: float
    w_bar: float
    baseline: fading.FadingModel

    def __post_init__(self):
        if not 1 < self.m < math.inf:
            raise ValueError(f"CompositeModel: m must be finite and > 1, got {self.m}")
        if not 0 < self.w_bar < math.inf:
            raise ValueError(f"CompositeModel: w_bar must be finite and > 0, got {self.w_bar}")
        # mean power lives in w_bar only; the baseline is renormalized
        object.__setattr__(
            self, "baseline", dataclasses.replace(self.baseline, omega_x=1.0)
        )

    @property
    def integer_m(self) -> bool:
        return abs(self.m - round(self.m)) < _INTEGER_EPS


@_frozen
class FDistParams:
    """Fisher-Snedecor F distribution: shadowing shape m, fading shape k, mean omega."""

    m: float
    k: float
    omega: float

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError(f"FDistParams: m must be > 1, got {self.m}")
        if not self.k > 0:
            raise ValueError(f"FDistParams: k must be > 0, got {self.k}")
        if not self.omega > 0:
            raise ValueError(f"FDistParams: omega must be > 0, got {self.omega}")


class FMixture(NamedTuple):
    """An F mixture as arrays: component i has weight weights[i] and law
    FDistParams(m, shape + i, (shape + i) * scale). The weights are
    probabilities and sum to 1 - truncation_error_bound."""

    weights: np.ndarray
    m: float
    shape: float
    scale: float
    truncation_error_bound: float


def f_pdf(params: FDistParams, t):
    """F-distribution PDF; vectorized over t > 0."""
    arr = _as_positive(t, "f_pdf: t")
    m, k, om = params.m, params.k, params.omega
    out = np.exp(
        m * math.log(m - 1.0)
        + k * math.log(k)
        + m * math.log(om)
        - sc.betaln(m, k)
        + (k - 1.0) * np.log(arr)
        - (m + k) * np.log((m - 1.0) * om + k * arr)
    )
    return _maybe_scalar(out, t)


def f_cdf(params: FDistParams, t):
    """F-distribution CDF I_x(k, m) at x = k t / (k t + (m-1) omega);
    vectorized over t > 0."""
    arr = _as_positive(t, "f_cdf: t")
    m, k, om = params.m, params.k, params.omega
    out = sc.betainc(k, m, k * arr / (k * arr + (m - 1.0) * om))
    return _maybe_scalar(out, t)


def mixture_of_f(model: CompositeModel, tol: Tolerance = DEFAULT_TOL) -> FMixture:
    """The baseline's gamma mixture (`fading.gamma_mixture`) mapped onto F
    components: same weights, shapes and bound, shadowing shape m, scale
    times w_bar."""
    gm = fading.gamma_mixture(model.baseline, tol)
    return FMixture(gm.weights, model.m, gm.shape, gm.scale * model.w_bar,
                    gm.truncation_error_bound)


def _resolve(model: CompositeModel, strategy: Strategy) -> Strategy:
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    mixture_ok = hasattr(model.baseline, "mixture")
    if strategy is Strategy.AUTO:
        if mixture_ok:
            return Strategy.MIXTURE
        if model.integer_m:
            return Strategy.GMGF_INTEGER
        return Strategy.GMGF_GENERAL
    if strategy is Strategy.MIXTURE and not mixture_ok:
        raise ValueError(
            f"mixture strategy unavailable for baseline "
            f"{type(model.baseline).__name__}"
        )
    if strategy is Strategy.GMGF_INTEGER and not model.integer_m:
        raise ValueError(f"gmgf-integer strategy requires integer m, got {model.m}")
    return strategy


def composite_pdf(
    model: CompositeModel,
    u,
    strategy: Strategy = Strategy.AUTO,
    tol: Tolerance = DEFAULT_TOL,
):
    """Composite power PDF at u > 0; vectorized over u."""
    return _evaluate(model, u, strategy, tol, pdf=True)


def composite_cdf(
    model: CompositeModel,
    u,
    strategy: Strategy = Strategy.AUTO,
    tol: Tolerance = DEFAULT_TOL,
):
    """Composite power CDF at u > 0; vectorized over u."""
    return _evaluate(model, u, strategy, tol, pdf=False)


def _evaluate(model: CompositeModel, u, strategy: Strategy, tol: Tolerance, pdf: bool):
    arr = _as_positive(u, f"composite_{'pdf' if pdf else 'cdf'}: u")
    strat = _resolve(model, strategy)
    if strat is Strategy.MIXTURE:
        out = _f_mixture(model, arr, tol, pdf)
    else:
        m = float(round(model.m)) if strat is Strategy.GMGF_INTEGER else model.m
        route = _pdf_transform if pdf else (
            _cdf_integer if strat is Strategy.GMGF_INTEGER else _cdf_series)
        out = np.zeros(arr.shape)
        # below, r nears overflow and both routes give 0: the CDF's value to
        # float precision, but not that of a PDF finite at 0 (Rayleigh's)
        live = arr >= 1e-300
        if live.any():
            out[live] = route(model, m, arr[live], tol)
        lost = np.isnan(out)
        if lost.any():
            raise ConvergenceError(
                f"{model.baseline}, m = {m:g}, u = {arr[lost][0]:.6g}: the GMGF lost all "
                f"precision (a transform term is NaN)",
                math.nan, math.inf)
    return _maybe_scalar(out if pdf else np.clip(out, 0.0, 1.0), u)


# The F sum's two ways through the components, by point count (they cross
# near 1024 points): up to _F_POINTS points, (components x points) blocks
# of at most _F_BLOCK elements, one exponential each; beyond, one row at a
# time, by a multiplicative step that is exact from log space every
# _F_RESTART rows. Memory grows with neither the components nor, past one
# row, the points.
_F_BLOCK = 1 << 15
_F_POINTS = 1 << 10
_F_RESTART = 8


def _f_mixture(model: CompositeModel, t: np.ndarray, tol: Tolerance, pdf: bool) -> np.ndarray:
    """The mixture route's PDF or CDF at t, from the baseline's gamma
    mixture as arrays (weights w_i, shapes a_i = a_0 + i).

    Its F components share m and omega_i / a_i, hence the argument
    x = t / (t + c) with c = (m-1) omega_i / a_i. With the rows
    r_i = x^a_i (1-x)^m / B(a_i, m), component i has PDF r_i / t, and
    DLMF 8.17.20, I_x(a, m) = I_x(a+1, m) + x^a (1-x)^m / (a B(a, m)),
    gives every CDF from the top one by adding positive terms only, so with
    the cumulative weights W_i = w_0 + ... + w_i the mixture CDF is
    W_n I_x(a_n, m) + sum_{i<n} W_i r_i / a_i: one incomplete beta per
    point, and no Python object per component.
    """
    points = max(t.size, 1)
    mix = model.baseline.mixture(tol, points)
    m = model.m
    a = mix.shape + np.arange(mix.weights.size)
    c = (m - 1.0) * mix.scale * model.w_bar
    x = (t / (t + c)).ravel()
    ln_t, ln_den = np.log(t), np.log(t + c)
    ln_x = (ln_t - ln_den).ravel()
    # the part of ln r_i every row shares; the PDF's rows r_i / t take their
    # 1/t here, so an x^a_i that underflows alone does not take the PDF with it
    ln_common = (m * (math.log(c) - ln_den) - (ln_t if pdf else 0.0)).ravel()
    cum = np.cumsum(mix.weights)
    coef = mix.weights if pdf else cum[:-1] / a[:-1]
    a = a[:coef.size]
    ln_beta = sc.betaln(a, m)
    total = np.zeros(t.size)
    if points <= _F_POINTS:
        step = _F_BLOCK // points
        for lo in range(0, coef.size, step):
            block = np.multiply.outer(a[lo:lo + step], ln_x)
            block += ln_common
            block -= ln_beta[lo:lo + step, None]
            total += coef[lo:lo + step] @ np.exp(block, out=block)
    else:
        # r_(i+1) = r_i x B(a_i, m) / B(a_i + 1, m), the ratio (a_i + m) / a_i
        # taken from the betaln values the blocks use, so that both carry the
        # same rounding of ln B. A row that underflowed is carried on as 0
        # until the next restart; what it would have grown to in
        # _F_RESTART - 1 steps lies far below 1e-280
        beta_ratio = np.exp(ln_beta[:-1] - ln_beta[1:])
        row, scaled = np.empty(t.size), np.empty(t.size)
        for i in range(coef.size):
            if i % _F_RESTART:
                row *= x
                row *= beta_ratio[i - 1]
            else:
                np.multiply(ln_x, a[i], out=row)
                row += ln_common
                row -= ln_beta[i]
                np.exp(row, out=row)
            total += np.multiply(row, coef[i], out=scaled)
    if pdf:
        return total.reshape(t.shape)
    return (cum[-1] * sc.betainc(mix.shape + coef.size, m, x) + total).reshape(t.shape)


def _ln_term(model: CompositeModel, m: float, q, u, tol: Tolerance):
    """ln T_q(u), T_q(u) = r^q phi^(q)(-r) / Gamma(q+1) with r = (m-1) w_bar / u:
    the one term every transform route is built from. q and u broadcast."""
    r = (m - 1.0) * model.w_bar / u
    return q * np.log(r) - sc.gammaln(q + 1.0) + fading.gmgf_log(model.baseline, q, -r, tol)


def _pdf_transform(model: CompositeModel, m: float, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # f(u) = (m/u) T_m(u), in log space: T_m can be subnormal where m/u is large
    return np.exp(math.log(m) - np.log(u) + _ln_term(model, m, m, u, tol))


def _cdf_integer(model: CompositeModel, m: float, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # F(u) = sum_{n<m} T_n(u), one GMGF call per order: one call over all
    # orders would multiply TWDP's (nodes x columns) phase array by m
    return sum(np.exp(_ln_term(model, m, float(n), u, tol)) for n in range(int(m)))


def _cdf_series(model: CompositeModel, m: float, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # F(u) = 1 - sum_{n>=0} T_{m+n}(u). The terms are positive and
    # single-peaked in n, but the 3-quiet-terms stop rule can still fire
    # early: at small u every term before the peak may lie below abs_tol,
    # and the rule then stops at once (NakagamiM(8), m = 2.5, u = 1e-3 gives
    # 1 - 4e-16 for 1.3e-17; ROADMAP item 2(b))

    def summed(points: np.ndarray) -> np.ndarray:
        try:
            return sum_series_blocks(
                lambda ns, idx: np.exp(_ln_term(model, m, m + ns, u[points[idx], None], tol)),
                tol, points.size)[0]
        except ConvergenceError as exc:
            if exc.series is None:  # a failing GMGF quadrature names no series
                raise ConvergenceError(f"{model.baseline}, m = {m:g}: {exc}",
                                       math.nan, math.inf) from exc
            raise ConvergenceError(f"{model.baseline}, m = {m:g}, u = {u[points[exc.series]]:.6g}: "
                                   f"{exc}", 1.0 - exc.estimate, exc.error_bound) from exc

    # the smallest u needs the most terms: sum its series first, so one
    # that cannot converge raises before the others are summed
    head = int(np.argmin(u))
    rest = np.delete(np.arange(u.size), head)
    total = np.empty(u.size)
    total[[head]] = summed(np.array([head]))
    total[rest] = summed(rest)
    return 1.0 - total


def amplitude_pdf(model, r, strategy=Strategy.AUTO, tol=DEFAULT_TOL):
    """PDF of the received amplitude R = sqrt(W): 2 r f_W(r^2)."""
    arr = _as_positive(r, "amplitude_pdf: r")
    with np.errstate(over="ignore"):
        power = _as_positive(arr * arr, "amplitude_pdf: r^2")
    out = 2.0 * arr * np.asarray(composite_pdf(model, power, strategy, tol))
    return _maybe_scalar(out, r)


def amplitude_cdf(model, r, strategy=Strategy.AUTO, tol=DEFAULT_TOL):
    """CDF of the received amplitude R = sqrt(W): F_W(r^2)."""
    arr = _as_positive(r, "amplitude_cdf: r")
    with np.errstate(over="ignore"):
        power = _as_positive(arr * arr, "amplitude_cdf: r^2")
    out = np.asarray(composite_cdf(model, power, strategy, tol))
    return _maybe_scalar(out, r)


def outage(
    model: CompositeModel,
    gamma_th,
    gamma_bar: float,
    strategy: Strategy = Strategy.AUTO,
    tol: Tolerance = DEFAULT_TOL,
):
    """Outage probability P(SNR < gamma_th) = F_W(w_bar gamma_th / gamma_bar);
    vectorized over gamma_th, so a whole threshold sweep is one CDF call."""
    th = _as_positive(gamma_th, "outage: gamma_th")
    _as_positive(gamma_bar, "outage: gamma_bar")
    return composite_cdf(model, model.w_bar * th / gamma_bar, strategy, tol)


def outage_asymptotic(model: CompositeModel, gamma_th, gamma_bar: float):
    """High-mean-SNR outage power law; slope beta+1 is the baseline's
    diversity order, shadowing only scales the intercept. Vectorized over
    gamma_th."""
    th = _as_positive(gamma_th, "outage_asymptotic: gamma_th")
    _as_positive(gamma_bar, "outage_asymptotic: gamma_bar")
    tp = fading.tail_params(model.baseline)
    m = model.m
    scale = math.exp(
        sc.gammaln(tp.beta + m + 1.0)
        - sc.gammaln(m)
        - (tp.beta + 1.0) * math.log(m - 1.0)
    )
    out = scale * tp.alpha / (tp.beta + 1.0) * (th / gamma_bar) ** (tp.beta + 1.0)
    return _maybe_scalar(out, gamma_th)
