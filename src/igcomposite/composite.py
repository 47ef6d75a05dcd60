"""Inverse-gamma composite fading models.

A composite model multiplies a normalized inverse-gamma shadowing variable
(shape m > 1, unit mean) with a normalized baseline fading power and a mean
power w_bar. PDF/CDF/outage evaluate through three interchangeable routes:

* the general transform route, which feeds the baseline's generalized MGF
  into the shadowing average (CDF as an infinite series per point, the
  series of all points summed side by side);
* the integer-shape route, where the CDF collapses to an m-term sum;
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

import numpy as np
import scipy.special as sc

from . import fading
# sum_series and integrate_semi_infinite are unused here but stay module
# attributes: bench/layertrace.py wraps both by name and fails to install
# without them
from .numerics import (  # noqa: F401
    DEFAULT_TOL,
    Tolerance,
    integrate_semi_infinite,
    sum_series,
    sum_series_blocks,
)

__all__ = [
    "CompositeModel",
    "FDistParams",
    "FTerm",
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
        if not self.m > 1:
            raise ValueError(f"CompositeModel: m must be > 1, got {self.m}")
        if not self.w_bar > 0:
            raise ValueError(f"CompositeModel: w_bar must be > 0, got {self.w_bar}")
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


@_frozen
class FTerm:
    weight: float
    params: FDistParams


@_frozen
class FMixture:
    terms: tuple[FTerm, ...]
    prefactor: float
    truncation_error_bound: float


def _as_positive(u, name: str) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"{name}: support is u > 0")
    return arr


def _maybe_scalar(out: np.ndarray, u):
    return float(out) if np.ndim(u) == 0 else out


def f_pdf(params: FDistParams, t):
    """F-distribution PDF; vectorized over t > 0."""
    arr = _as_positive(t, "f_pdf")
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
    arr = _as_positive(t, "f_cdf")
    m, k, om = params.m, params.k, params.omega
    out = sc.betainc(k, m, k * arr / (k * arr + (m - 1.0) * om))
    return _maybe_scalar(out, t)


def mixture_of_f(model: CompositeModel, tol: Tolerance = DEFAULT_TOL) -> FMixture:
    """Map the baseline's gamma mixture onto F components (means scale by w_bar)."""
    gm = fading.gamma_mixture(model.baseline, tol)
    terms = tuple(
        FTerm(t.weight, FDistParams(model.m, t.shape, t.omega * model.w_bar))
        for t in gm.terms
    )
    return FMixture(terms, gm.prefactor, gm.truncation_error_bound)


def _resolve(model: CompositeModel, strategy: Strategy) -> Strategy:
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    mixture_ok = isinstance(model.baseline, fading.MIXTURE_MODELS)
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
    arr = _as_positive(u, "composite_pdf")
    strat = _resolve(model, strategy)
    if strat is Strategy.MIXTURE:
        mix = mixture_of_f(model, tol)
        out = mix.prefactor * sum(
            t.weight * np.asarray(f_pdf(t.params, arr)) for t in mix.terms
        )
        return _maybe_scalar(np.asarray(out), u)
    m, wb = model.m, model.w_bar
    m_eval = float(round(m)) if strat is Strategy.GMGF_INTEGER else m
    base = m_eval * math.log(wb * (m_eval - 1.0)) - sc.gammaln(m_eval)
    flat = np.atleast_1d(arr)
    vals = np.zeros(flat.shape)
    live = flat >= 1e-300  # below, s would overflow; the density is far below float range
    x = flat[live]
    ln_f = base - (m_eval + 1.0) * np.log(x) + fading.gmgf_log(
        model.baseline, m_eval, (1.0 - m_eval) * wb / x, tol
    )
    vals[live] = np.where(ln_f > -745.0, np.exp(ln_f), 0.0)
    return _maybe_scalar(vals.reshape(arr.shape), u)


def composite_cdf(
    model: CompositeModel,
    u,
    strategy: Strategy = Strategy.AUTO,
    tol: Tolerance = DEFAULT_TOL,
):
    """Composite power CDF at u > 0; vectorized over u."""
    arr = _as_positive(u, "composite_cdf")
    strat = _resolve(model, strategy)
    if strat is Strategy.MIXTURE:
        mix = mixture_of_f(model, tol)
        out = mix.prefactor * _f_mixture_cdf(mix.terms, arr)
        return _maybe_scalar(np.clip(out, 0.0, 1.0), u)
    flat = np.atleast_1d(arr)
    vals = np.zeros(flat.shape)
    live = flat >= 1e-300  # the CDF is 0 to float precision below
    route = _cdf_integer if strat is Strategy.GMGF_INTEGER else _cdf_series
    if live.any():
        vals[live] = route(model, flat[live], tol)
    return _maybe_scalar(np.clip(vals.reshape(arr.shape), 0.0, 1.0), u)


def _f_mixture_cdf(terms: tuple[FTerm, ...], t: np.ndarray) -> np.ndarray:
    """sum_i weight_i * F_i(t) for the F components `mixture_of_f` builds.

    They share m and omega/k, hence x = t / (t + (m-1) omega/k), and their
    shapes step by 1. One incomplete beta gives the top component; the
    others follow downward by DLMF 8.17.20,
    I_x(a, m) = I_x(a+1, m) + x^a (1-x)^m / (a B(a, m)),
    which adds only positive terms.
    """
    top = terms[-1].params
    m = top.m
    c = (m - 1.0) * top.omega / top.k
    ln_den = np.log(t + c)
    ln_x = np.log(t) - ln_den
    m_ln_1mx = m * (math.log(c) - ln_den)
    cdf = np.asarray(f_cdf(top, t))
    total = terms[-1].weight * cdf
    for term in reversed(terms[:-1]):
        a = term.params.k
        cdf = cdf + np.exp(a * ln_x + m_ln_1mx - math.log(a) - sc.betaln(a, m))
        total = total + term.weight * cdf
    return total


def _cdf_series(model: CompositeModel, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # F(u) = 1 - sum_n [(m-1) w_bar / u]^(m+n) / Gamma(m+n+1) * phi^(m+n)(s).
    # Terms are positive and single-peaked in n (each model's GMGF decays
    # like (c - s)^-(q+1), making the term ratio |s|/(c+|s|) * (1+o(1)) < 1
    # past the peak), so the 3-quiet-terms stop rule cannot fire early.
    m, wb = model.m, model.w_bar
    s = (1.0 - m) * wb / u
    ln_r = np.log((m - 1.0) * wb / u)

    def terms(ns: np.ndarray, idx: np.ndarray) -> np.ndarray:
        q = m + ns
        ln_t = q * ln_r[idx, None] - sc.gammaln(q + 1.0) \
            + fading.gmgf_log(model.baseline, q, s[idx, None], tol)
        return np.where(ln_t < -745.0, 0.0, np.exp(ln_t))  # NaN stays NaN

    # the smallest u needs the most terms: sum its series first, so one
    # that cannot converge raises before the others are summed
    head = int(np.argmin(u))
    rest = np.delete(np.arange(u.size), head)
    total = np.empty(u.size)
    total[[head]], _ = sum_series_blocks(lambda ns, idx: terms(ns, idx + head), tol, 1)
    total[rest], _ = sum_series_blocks(lambda ns, idx: terms(ns, rest[idx]), tol, rest.size)
    return 1.0 - total


def _cdf_integer(model: CompositeModel, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    m_int = round(model.m)
    wb = model.w_bar
    s = (1.0 - m_int) * wb / u
    ln_r = np.log((m_int - 1.0) * wb / u)
    total = np.zeros(u.shape)
    for n in range(m_int):
        ln_t = n * ln_r - sc.gammaln(n + 1.0) + fading.gmgf_log(
            model.baseline, float(n), s, tol
        )
        total += np.where(ln_t > -745.0, np.exp(ln_t), 0.0)
    return total


def amplitude_pdf(model, r, strategy=Strategy.AUTO, tol=DEFAULT_TOL):
    """PDF of the received amplitude R = sqrt(W): 2 r f_W(r^2)."""
    arr = _as_positive(r, "amplitude_pdf")
    out = 2.0 * arr * np.asarray(composite_pdf(model, arr * arr, strategy, tol))
    return _maybe_scalar(out, r)


def amplitude_cdf(model, r, strategy=Strategy.AUTO, tol=DEFAULT_TOL):
    """CDF of the received amplitude R = sqrt(W): F_W(r^2)."""
    arr = _as_positive(r, "amplitude_cdf")
    out = np.asarray(composite_cdf(model, arr * arr, strategy, tol))
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
    th = np.asarray(gamma_th, dtype=float)
    if not np.all(th > 0):
        raise ValueError(f"outage: gamma_th must be > 0, got {gamma_th}")
    if not gamma_bar > 0:
        raise ValueError(f"outage: gamma_bar must be > 0, got {gamma_bar}")
    return composite_cdf(model, model.w_bar * th / gamma_bar, strategy, tol)


def outage_asymptotic(model: CompositeModel, gamma_th, gamma_bar: float):
    """High-mean-SNR outage power law; slope beta+1 is the baseline's
    diversity order, shadowing only scales the intercept. Vectorized over
    gamma_th."""
    th = np.asarray(gamma_th, dtype=float)
    if not np.all(th > 0):
        raise ValueError(f"outage_asymptotic: gamma_th must be > 0, got {gamma_th}")
    if not gamma_bar > 0:
        raise ValueError(f"outage_asymptotic: gamma_bar must be > 0, got {gamma_bar}")
    tp = fading.tail_params(model.baseline)
    m = model.m
    scale = math.exp(
        sc.gammaln(tp.beta + m + 1.0)
        - sc.gammaln(m)
        - (tp.beta + 1.0) * math.log(m - 1.0)
    )
    out = scale * tp.alpha / (tp.beta + 1.0) * (th / gamma_bar) ** (tp.beta + 1.0)
    return _maybe_scalar(out, gamma_th)
