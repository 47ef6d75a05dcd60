"""Baseline fast-fading models of the received signal power.

One frozen dataclass per baseline holds everything the composite needs of
it: the power PDF (`pdf`), the generalized MGF phi^(p)(s) = E[X^p e^{sX}]
(`gmgf_log`; a closed form for every model but TWDP, whose GMGF is one
periodic integral over the phase angle), the small-argument power law of
the PDF (`tail`), a physically constructed sampler (`draw`) and, for the
six baselines that have one, a gamma-mixture representation (`mixture`).
Those six state their mixture law once, as the first component's shape,
the common scale and the law of the component index, whose weights come
as one array and whose upper-tail bound sets where the mixture is cut;
`mixture` and `tail` derive from it. The module functions of the same
names dispatch to these methods.
All power variables carry mean omega_x; evaluations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
import scipy.special as sc

# hyp1f2 is unused here but stays a module attribute: bench/layertrace.py
# wraps fading.hyp1f2 by name and fails to install without it
from .numerics import (  # noqa: F401
    DEFAULT_TOL,
    ConvergenceError,
    Tolerance,
    _as_positive,
    _maybe_scalar,
    hyp1f2,
    integrate_finite,
)

__all__ = [
    "Rayleigh",
    "Rician",
    "NakagamiM",
    "Hoyt",
    "KappaMu",
    "EtaMu",
    "KappaMuShadowed",
    "TWDP",
    "FadingModel",
    "GammaMixture",
    "TailParams",
    "gmgf",
    "gmgf_log",
    "pdf",
    "gamma_mixture",
    "tail_params",
    "sample",
    "draw",
]

# The most components x points a mixture route may take on, well under a
# second of F sum: 5000 components at a 24.6k-point validation still fit.
# Each component counts as at least _MIN_POINTS points, for its weight
# and its row of the F sum, so that at a few points the budget stops at
# 131072 components (1 MB of weights). Past it the route raises before it
# builds any weight array.
_MIXTURE_BUDGET = 1 << 27
_MIN_POINTS = 1 << 10

# TWDP weights share one phase grid per this many components, which bounds
# the (nodes x components) integrand array
_PHASE_COLUMNS = 1024

# A far-tail density whose log is bounded below this rounds to 0; there
# its special-function factor, which can be NaN so far out, is not evaluated
_LN_UNDERFLOW = -745.0
_LN_OVERFLOW = math.log(np.finfo(float).max)


class GammaMixture(NamedTuple):
    """A gamma mixture as arrays: component i has weight weights[i], shape
    shape + i and mean (shape + i) * scale. The weights are probabilities.
    The mixture is cut from above only: it keeps components 0..n for the
    smallest n whose bound on the upper-tail mass P(N > n) of the component
    index is below tol.rel_tol / 100; the weights sum to
    1 - truncation_error_bound, that bound. There is no component cap; a
    mixture that passes the module's components x points budget raises
    ConvergenceError before any weight is computed."""

    weights: np.ndarray
    shape: float
    scale: float
    truncation_error_bound: float


@dataclass(frozen=True)
class TailParams:
    """Small-x power law f(x) ~ (alpha/omega_x) (x/omega_x)^beta, so that
    F(x) ~ (alpha/(beta+1)) (x/omega_x)^(beta+1)."""

    alpha: float
    beta: float


class _Baseline:
    """Argument handling shared by every baseline. A model supplies
    `_pdf(x, tol)` and `_gmgf_log(p, s, tol)` on float arrays, plus `tail()`
    and `draw(rng, count)`. A baseline whose law is a special case of
    another model names that model as `_law` instead and keeps only its own
    sampler."""

    def pdf(self, x, tol: Tolerance = DEFAULT_TOL):
        """Power PDF at x > 0; vectorized."""
        arr = _as_positive(x, "fading.pdf: x")
        try:
            out = self._pdf(arr, tol)
        except ConvergenceError as exc:
            # the inner estimate is ln of a phase integral, not the PDF
            raise ConvergenceError(f"{self!r}: PDF at x = {arr}: {exc}",
                                   math.nan, math.inf) from exc
        return _maybe_scalar(out, x)

    def gmgf_log(self, p, s, tol: Tolerance = DEFAULT_TOL):
        """ln phi^(p)(s) for p >= 0, s <= 0; vectorized over p and s, which
        broadcast together."""
        out = np.asarray(self._gmgf_log(
            np.asarray(p, dtype=float), np.asarray(s, dtype=float), tol
        ))
        return float(out) if out.ndim == 0 else out

    def _pdf(self, x, tol):
        return self._law._pdf(x, tol)

    def _gmgf_log(self, p, s, tol):
        return self._law._gmgf_log(p, s, tol)

    def tail(self) -> TailParams:
        return self._law.tail()


class _MixtureBaseline(_Baseline):
    """A baseline whose power PDF is a gamma mixture. It supplies
    `_mixture_law()` -> (index law, shape, scale), or inherits it from its
    `_law`: component i has weight P(N = i) under the index law, shape
    `shape` + i and mean (shape + i) * scale. `mixture` and `tail` both
    derive from it."""

    def _mixture_law(self):
        return self._law._mixture_law()

    def mixture(self, tol: Tolerance = DEFAULT_TOL, points: int = 1) -> GammaMixture:
        """The mixture for an evaluation at `points` points; see
        `GammaMixture` for where it is cut."""
        law, shape, scale = self._mixture_law()
        n = _last_index(self, law, tol.rel_tol * 1e-2, points)
        weights = np.exp(law.ln_weights(n, tol))
        tail = law.upper_tail(n)
        # they sum to 1 - tail (TWDP's to within the 1e-12 its bound
        # exceeds the mass left out): scaling them to it removes the drift
        # their large log-gamma terms share (3e-13 relative at rate 1000)
        weights *= (1.0 - tail) / weights.sum()
        return GammaMixture(weights, shape, scale, tail)

    def tail(self) -> TailParams:
        # component i vanishes like x^(shape+i-1) at the origin, so the
        # first, w_0 x^(shape-1) / (Gamma(shape) scale^shape), is the law
        law, shape, scale = self._mixture_law()
        return TailParams(
            math.exp(law.ln_weights(0, DEFAULT_TOL)[0]
                     - shape * math.log(scale / self.omega_x) - math.lgamma(shape)),
            shape - 1.0,
        )


def _check_power(omega_x: float) -> None:
    if not omega_x > 0:
        raise ValueError(f"omega_x must be > 0, got {omega_x}")


# ---------------------------------------------------------------------------
# Shared pieces: the gamma law, log-space special functions, the mixture loop
# ---------------------------------------------------------------------------

def _gamma_pdf(k: float, om: float, x: np.ndarray) -> np.ndarray:
    """Gamma PDF of shape k and mean om (the Nakagami-m power law)."""
    return np.exp(k * np.log(k / om) + (k - 1.0) * np.log(x) - k * x / om - sc.gammaln(k))


def _gamma_gmgf_log(k: float, om: float, p: np.ndarray, s: np.ndarray) -> np.ndarray:
    return sc.gammaln(p + k) - sc.gammaln(k) + p * math.log(om / k) \
        - (p + k) * np.log1p(-s * om / k)


def _ln_hyp1f1(a, b: float, w) -> np.ndarray:
    """ln 1F1(a; b; w) for a, b > 0 and w >= 0, where 1F1 >= 1. Wherever the
    direct value leaves double range, and from w = 600 on, by Kummer's
    transformation 1F1(a; b; w) = e^w 1F1(b-a; b; -w), which stays exact at
    any a (the large-w asymptotic series does not once a^2 is comparable to
    w). NaN where neither form is finite, for the reason given at
    `_ln_hyp2f1`."""
    out = np.log(sc.hyp1f1(a, b, w))
    near = np.isfinite(out) & (w < 600.0)
    if not near.all():
        out, far = np.asarray(out), ~near
        a, w = (np.broadcast_to(v, out.shape)[far] for v in (a, w))
        with np.errstate(divide="ignore", invalid="ignore"):
            out[far] = w + np.log(sc.hyp1f1(b - a, b, -w))
        out[~np.isfinite(out)] = np.nan
    return out


def _ln_hyp2f1(a, b, c, z) -> np.ndarray:
    """ln 2F1(a, b; c; z), NaN where 2F1 overflows double precision: its
    logarithm is then unknown, not infinite, so a series that reaches such
    a term raises instead of summing an infinity."""
    out = np.log(sc.hyp2f1(a, b, c, z))
    return np.where(np.isfinite(out), out, np.nan)


def _last_index(model, law, cut: float, points: int) -> int:
    """The smallest n with P(N > n) < cut under the index law, walked to
    from the law's inverse-CDF estimate. Only upper-tail masses are
    evaluated, so a mixture whose components 0..n at `points` points pass
    the budget raises here, before any weight array exists."""
    most = _MIXTURE_BUDGET // max(points, _MIN_POINTS)  # components allowed
    guess = law.first_guess(cut)
    n = int(min(guess, most)) if guess > 0 else 0
    while n < most and law.upper_tail(n) >= cut:
        n += 1
    while n > 0 and law.upper_tail(n - 1) < cut:
        n -= 1
    if n >= most:
        tail = law.upper_tail(n)
        raise ConvergenceError(
            f"{model}: gamma mixture needs more than {most} components at {points} "
            f"point(s), past the budget of {_MIXTURE_BUDGET} components x points "
            f"(a component counts as at least {_MIN_POINTS} points)",
            estimate=1.0 - tail,
            error_bound=tail,
        )
    return n


@dataclass(frozen=True)
class _Poisson:
    """Poisson(rate) component index, rate >= 0 (at rate 0 all mass is at
    0). `upper_tail`, the exact P(N > n), sets the component count and is
    the truncation bound."""

    rate: float

    def first_guess(self, cut: float) -> float:
        return sc.pdtrik(1.0 - cut, self.rate)

    def upper_tail(self, n: int) -> float:
        return float(sc.gammainc(n + 1.0, self.rate))

    def ln_weights(self, n: int, tol: Tolerance) -> np.ndarray:
        i = np.arange(n + 1.0)
        return sc.xlogy(i, self.rate) - self.rate - sc.gammaln(i + 1.0)


@dataclass(frozen=True)
class _NegativeBinomial:
    """Negative-binomial component index of the given size and mean >= 0:
    P(N = i) = Gamma(size + i) / (Gamma(size) i!) p^size (1 - p)^i with
    p = size / (size + mean). P(N > n) = I_(1-p)(n + 1, size) exactly."""

    size: float
    mean: float

    def first_guess(self, cut: float) -> float:
        return sc.nbdtrik(1.0 - cut, self.size, self.size / (self.size + self.mean))

    def upper_tail(self, n: int) -> float:
        return float(sc.betainc(n + 1.0, self.size, self.mean / (self.size + self.mean)))

    def ln_weights(self, n: int, tol: Tolerance) -> np.ndarray:
        size, total = self.size, self.size + self.mean
        i = np.arange(n + 1.0)
        return sc.gammaln(size + i) - sc.gammaln(i + 1.0) + sc.xlogy(i, self.mean / total) \
            + size * (math.log(size) - math.log(total)) - math.lgamma(size)


@dataclass(frozen=True)
class _PhasePoisson(_Poisson):
    """TWDP's component index: Poisson at rate K (1 + D cos a), averaged
    over a uniform phase a. The Poisson tail P(N > n) grows with the rate,
    so the phase average is at most the tail at the peak rate K (1 + D):
    `rate` is that peak, and the cut and bound are the Poisson law's."""

    K: float
    D: float

    def ln_weights(self, n: int, tol: Tolerance) -> np.ndarray:
        j = np.arange(n + 1.0)
        return np.concatenate([_twdp_ln_weights(j[lo:lo + _PHASE_COLUMNS], self.K, self.D, tol)
                               for lo in range(0, j.size, _PHASE_COLUMNS)])


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rayleigh(_MixtureBaseline):
    """Diffuse scatter only: the kappa-mu law at kappa = 0 and mu = 1 (the
    exponential law), sampled as a zero-mean complex Gaussian."""

    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)

    @property
    def _law(self) -> KappaMu:
        return KappaMu(0.0, 1.0, self.omega_x)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        a = rng.normal(scale=math.sqrt(self.omega_x / 2.0), size=count)
        b = rng.normal(scale=math.sqrt(self.omega_x / 2.0), size=count)
        return a * a + b * b


@dataclass(frozen=True)
class NakagamiM(_MixtureBaseline):
    """The gamma power law of shape m_f: kappa-mu at kappa = 0 and
    mu = m_f."""

    m_f: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.m_f >= 0.5:
            raise ValueError(f"NakagamiM: m_f must be >= 0.5, got {self.m_f}")

    @property
    def _law(self) -> KappaMu:
        return KappaMu(0.0, self.m_f, self.omega_x)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.gamma(shape=self.m_f, scale=self.omega_x / self.m_f, size=count)


@dataclass(frozen=True)
class KappaMu(_MixtureBaseline):
    kappa: float
    mu: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.kappa >= 0:
            raise ValueError(f"KappaMu: kappa must be >= 0, got {self.kappa}")
        if not self.mu > 0:
            raise ValueError(f"KappaMu: mu must be > 0, got {self.mu}")

    def _pdf(self, x, tol):
        kap, mu, om = self.kappa, self.mu, self.omega_x
        if kap == 0:
            return _gamma_pdf(mu, om, x)
        z = 2.0 * mu * np.sqrt(kap * (1.0 + kap) * x / om)
        lead = (
            np.log(mu)
            + 0.5 * (mu + 1.0) * np.log(1.0 + kap)
            - 0.5 * (mu - 1.0) * np.log(kap)
            - mu * kap
            - np.log(om)
            + 0.5 * (mu - 1.0) * np.log(x / om)
            - mu * (1.0 + kap) * x / om
            + z
        )
        # ive(v, z) <= 1 for z >= 1, so lead bounds the log density there
        return np.exp(lead) * sc.ive(mu - 1.0, np.where(lead < _LN_UNDERFLOW, np.minimum(z, 1.0), z))

    def _gmgf_log(self, p, s, tol):
        kap, mu, om = self.kappa, self.mu, self.omega_x
        if kap == 0:
            return _gamma_gmgf_log(mu, om, p, s)
        den = mu * (1.0 + kap) - s * om
        return (
            sc.gammaln(mu + p)
            - sc.gammaln(mu)
            + p * math.log(om)
            + mu * math.log(mu)
            + mu * math.log(1.0 + kap)
            - mu * kap
            - (mu + p) * np.log(den)
            + _ln_hyp1f1(mu + p, mu, mu * mu * kap * (1.0 + kap) / den)
        )

    def _mixture_law(self):
        kap, mu = self.kappa, self.mu
        return _Poisson(mu * kap), mu, self.omega_x / (mu * (1.0 + kap))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        kap, mu = self.kappa, self.mu
        idx = rng.poisson(mu * kap, size=count) if kap > 0 else np.zeros(count)
        return rng.gamma(shape=mu + idx, scale=self.omega_x / (mu * (1.0 + kap)), size=count)


@dataclass(frozen=True)
class Rician(_MixtureBaseline):
    """A fixed specular ray plus diffuse scatter. Its law is kappa-mu at
    mu = 1 and kappa = k_r; the sampler is its own."""

    k_r: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.k_r >= 0:
            raise ValueError(f"Rician: k_r must be >= 0, got {self.k_r}")

    @property
    def _law(self) -> KappaMu:
        return KappaMu(self.k_r, 1.0, self.omega_x)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        K, om = self.k_r, self.omega_x
        sigma = math.sqrt(om / (2.0 * (1.0 + K)))
        v = math.sqrt(K * om / (1.0 + K))
        a = v + rng.normal(scale=sigma, size=count)
        b = rng.normal(scale=sigma, size=count)
        return a * a + b * b


@dataclass(frozen=True)
class EtaMu(_Baseline):
    eta: float
    mu: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not 0 < self.eta <= 1:
            raise ValueError(f"EtaMu: eta must be in (0, 1] (format 1), got {self.eta}")
        if not self.mu > 0:
            raise ValueError(f"EtaMu: mu must be > 0, got {self.mu}")

    def _pdf(self, x, tol):
        eta, mu, om = self.eta, self.mu, self.omega_x
        if abs(eta - 1.0) < 1e-12:
            return _gamma_pdf(2.0 * mu, om, x)
        h = (2.0 + 1.0 / eta + eta) / 4.0
        big_h = (1.0 / eta - eta) / 4.0
        z = 2.0 * mu * big_h * x / om
        lead = (
            np.log(2.0) + 0.5 * np.log(np.pi)
            + (mu + 0.5) * np.log(mu)
            + mu * np.log(h)
            - sc.gammaln(mu)
            - (mu - 0.5) * np.log(big_h)
            - (mu + 0.5) * np.log(om)
            + (mu - 0.5) * np.log(x)
            - 2.0 * mu * h * x / om
            + z
        )
        # ive(v, z) <= 1 for z >= 1, so lead bounds the log density there
        return np.exp(lead) * sc.ive(mu - 0.5, np.where(lead < _LN_UNDERFLOW, np.minimum(z, 1.0), z))

    def _gmgf_log(self, p, s, tol):
        eta, mu, om = self.eta, self.mu, self.omega_x
        den = mu * (eta + 1.0) / eta - s * om
        return (
            2.0 * mu * math.log(mu)
            + sc.gammaln(p + 2.0 * mu)
            - sc.gammaln(2.0 * mu)
            + p * math.log(om)
            + 2.0 * mu * math.log(eta + 1.0)
            - mu * math.log(eta)
            - (p + 2.0 * mu) * np.log(den)
            + _ln_hyp2f1(
                mu,
                2.0 * mu + p,
                2.0 * mu,
                mu * (1.0 - eta * eta) / (mu * (1.0 + eta) - s * eta * om),
            )
        )

    def tail(self) -> TailParams:
        eta, mu = self.eta, self.mu
        h = (2.0 + 1.0 / eta + eta) / 4.0
        return TailParams(
            math.exp(2.0 * mu * math.log(2.0 * mu) + mu * math.log(h) - sc.gammaln(2.0 * mu)),
            2.0 * mu - 1.0,
        )

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        eta, mu, om = self.eta, self.mu, self.omega_x
        g1 = rng.gamma(shape=mu, scale=eta * om / (mu * (1.0 + eta)), size=count)
        g2 = rng.gamma(shape=mu, scale=om / (mu * (1.0 + eta)), size=count)
        return g1 + g2


@dataclass(frozen=True)
class Hoyt(_Baseline):
    """Nakagami-q fading: in-phase and quadrature Gaussians of unequal
    power. Its law is eta-mu (format 1) at eta = q^2 and mu = 1/2; only the
    sampler is its own."""

    q: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not 0 < self.q <= 1:
            raise ValueError(f"Hoyt: q must be in (0, 1], got {self.q}")

    @property
    def _law(self) -> EtaMu:
        return EtaMu(self.q * self.q, 0.5, self.omega_x)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        q, om = self.q, self.omega_x
        a = rng.normal(scale=math.sqrt(om / (1.0 + q * q)), size=count)
        b = rng.normal(scale=math.sqrt(q * q * om / (1.0 + q * q)), size=count)
        return a * a + b * b


@dataclass(frozen=True)
class KappaMuShadowed(_MixtureBaseline):
    kappa: float
    mu: float
    m_f: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.kappa >= 0:
            raise ValueError(f"KappaMuShadowed: kappa must be >= 0, got {self.kappa}")
        if not self.mu > 0:
            raise ValueError(f"KappaMuShadowed: mu must be > 0, got {self.mu}")
        if not self.m_f > 0:
            raise ValueError(f"KappaMuShadowed: m_f must be > 0, got {self.m_f}")

    def _pdf(self, x, tol):
        kap, mu, mf, om = self.kappa, self.mu, self.m_f, self.omega_x
        if kap == 0:
            return _gamma_pdf(mu, om, x)
        w = mu * mu * kap * (1.0 + kap) / (mu * kap + mf) * x / om
        lead = (
            mu * np.log(mu)
            + mf * np.log(mf)
            + mu * np.log(1.0 + kap)
            - sc.gammaln(mu)
            - np.log(om)
            - mf * np.log(mu * kap + mf)
            + (mu - 1.0) * np.log(x / om)
            - mu * (1.0 + kap) * x / om
        )
        # with c = max(m_f - mu, 0), ln 1F1(m_f; mu; w) <= w + c ln(m_f + w + c
        # + 1) + max(ln Gamma(mu) - ln Gamma(m_f), 0), by the convexity of
        # ln Gamma and a bound on Poisson moments
        c = max(mf - mu, 0.0)
        far = lead + w + c * np.log(mf + w + c + 1.0) \
            + max(math.lgamma(mu) - math.lgamma(mf), 0.0) < _LN_UNDERFLOW
        return np.where(far, 0.0, np.exp(lead + _ln_hyp1f1(mf, mu, np.where(far, 0.0, w))))

    def _gmgf_log(self, p, s, tol):
        kap, mu, mf, om = self.kappa, self.mu, self.m_f, self.omega_x
        if kap == 0:
            return _gamma_gmgf_log(mu, om, p, s)
        den = mu * (1.0 + kap) - s * om
        return (
            sc.gammaln(mu + p)
            - sc.gammaln(mu)
            + mf * math.log(mf)
            + p * math.log(om)
            + mu * math.log(mu)
            + mu * math.log(1.0 + kap)
            - mf * math.log(mu * kap + mf)
            - (mu + p) * np.log(den)
            + _ln_hyp2f1(
                mf, mu + p, mu, mu * mu * kap * (1.0 + kap) / (mu * kap + mf) / den
            )
        )

    def _mixture_law(self):
        kap, mu = self.kappa, self.mu
        return _NegativeBinomial(self.m_f, mu * kap), mu, self.omega_x / (mu * (1.0 + kap))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        kap, mu, mf = self.kappa, self.mu, self.m_f
        if kap > 0:
            idx = rng.negative_binomial(mf, mf / (mu * kap + mf), size=count)
        else:
            idx = np.zeros(count)
        return rng.gamma(shape=mu + idx, scale=self.omega_x / (mu * (1.0 + kap)), size=count)


@dataclass(frozen=True)
class TWDP(_MixtureBaseline):
    """Two specular rays plus diffuse scatter; k_r is the specular-to-diffuse
    power ratio and delta in [0, 1] the power balance of the two rays."""

    k_r: float
    delta: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.k_r >= 0:
            raise ValueError(f"TWDP: k_r must be >= 0, got {self.k_r}")
        if not 0 <= self.delta <= 1:
            raise ValueError(f"TWDP: delta must be in [0, 1], got {self.delta}")

    def _pdf(self, x, tol):
        """One periodic integral over the phase angle a per x, all x on one
        shared grid, of e^{-K t} I_0(2 sqrt(A t)) with t = 1 + delta cos a
        and A = K (1 + K) x / omega_x. Its exponent -K t + 2 sqrt(A t) is
        concave in t, so its value at the peak t = A / K^2, clipped to
        [1 - delta, 1 + delta], bounds the density; the columns where that
        bound underflows are 0 and are not integrated."""
        K, D, om = self.k_r, self.delta, self.omega_x
        if K == 0:
            return _gamma_pdf(1.0, om, x)
        big_a = K * (1.0 + K) * x / om
        t_peak = np.clip(big_a / (K * K), 1.0 - D, 1.0 + D)
        ln_lead = math.log((1.0 + K) / om) - (1.0 + K) * x / om
        keep = ln_lead - K * t_peak + 2.0 * np.sqrt(big_a * t_peak) >= _LN_UNDERFLOW

        def ln_integrand(alpha: np.ndarray) -> np.ndarray:
            t = 1.0 + D * np.cos(alpha)[:, None]
            z = 2.0 * np.sqrt(big_a[keep] * t)
            return z - K * t + np.log(sc.i0e(z))

        ln_val = integrate_finite(ln_integrand, 0.0, 2.0 * math.pi, tol)
        out = np.zeros(x.shape)
        out[keep] = np.exp(ln_lead[keep] + ln_val - math.log(2.0 * math.pi))
        return out

    def _gmgf_log(self, p, s, tol):
        """One periodic integral per (p, s) pair of the broadcast p and s;
        the pairs share the phase grid. (The Laplace transform of the Bessel
        kernel in the integral-form PDF reduces the defining double integral
        to one over the phase angle.)"""
        K, D, om = self.k_r, self.delta, self.omega_x
        if K == 0:
            return _gamma_gmgf_log(1.0, om, p, s)
        p, s = np.broadcast_arrays(p, s)
        den = 1.0 + K - s * om
        c = K * (1.0 + K) / den

        def ln_integrand(alpha: np.ndarray) -> np.ndarray:
            cos = np.cos(alpha).reshape((-1,) + (1,) * p.ndim)
            return -K * D * cos + _ln_hyp1f1(p + 1.0, 1.0, c * (1.0 + D * cos))

        return (
            math.log(1.0 + K)
            - K
            + sc.gammaln(p + 1.0)
            - math.log(2.0 * math.pi)
            + p * math.log(om)
            - (p + 1.0) * np.log(den)
            + integrate_finite(ln_integrand, 0.0, 2.0 * math.pi, tol)
        )

    def _mixture_law(self):
        K, D = self.k_r, self.delta
        return _PhasePoisson(K * (1.0 + D), K, D), 1.0, self.omega_x / (1.0 + K)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        v1, v2, sigma2 = twdp_specular_amplitudes(self)
        sigma = math.sqrt(sigma2)
        phi1 = rng.uniform(0.0, 2.0 * math.pi, size=count)
        phi2 = rng.uniform(0.0, 2.0 * math.pi, size=count)
        re = v1 * np.cos(phi1) + v2 * np.cos(phi2) + rng.normal(scale=sigma, size=count)
        im = v1 * np.sin(phi1) + v2 * np.sin(phi2) + rng.normal(scale=sigma, size=count)
        return re * re + im * im


FadingModel = Union[
    Rayleigh, Rician, NakagamiM, Hoyt, KappaMu, EtaMu, KappaMuShadowed, TWDP
]


def _twdp_ln_weights(j: np.ndarray, K: float, D: float, tol: Tolerance) -> np.ndarray:
    """ln of the TWDP mixture weights at the indices j, for K > 0 (and
    j = 0 at K = 0, where it is 0), all on one phase grid.

    The defining double Bessel sum alternates with exponentially growing
    terms, so each weight is taken in its positive phase-average form (from
    expanding the Bessel kernel of the integral-form PDF term by term): the
    Poisson probability of j at rate lambda(a) = K (1 + D cos a), averaged
    over the phase a.
    """

    def ln_integrand(alpha: np.ndarray) -> np.ndarray:
        lam = K * (1.0 + D * np.cos(alpha))[:, None]
        return sc.xlogy(j, lam) - lam

    return integrate_finite(ln_integrand, 0.0, 2.0 * math.pi, tol) - sc.gammaln(j + 1.0) \
        - math.log(2.0 * math.pi)


def twdp_specular_amplitudes(model: TWDP) -> tuple[float, float, float]:
    """Recover (V1, V2, sigma^2) from (K, delta, omega_x), with V1 >= V2."""
    K, D, om = model.k_r, model.delta, model.omega_x
    sigma2 = om / (2.0 * (1.0 + K))
    root = math.sqrt(max(0.0, 1.0 - D * D))
    v1 = math.sqrt(sigma2 * K * (1.0 + root))
    v2 = math.sqrt(sigma2 * K * (1.0 - root))
    return v1, v2, sigma2


# ---------------------------------------------------------------------------
# Module-level entry points: one dispatch each
# ---------------------------------------------------------------------------

def pdf(model: FadingModel, x, tol: Tolerance = DEFAULT_TOL):
    """Power PDF at x > 0; see `_Baseline.pdf`."""
    return model.pdf(x, tol)


def gmgf_log(model: FadingModel, p, s, tol: Tolerance = DEFAULT_TOL):
    """ln phi^(p)(s) for p >= 0, s <= 0; see `_Baseline.gmgf_log`."""
    return model.gmgf_log(p, s, tol)


def gmgf(model: FadingModel, p: float, s: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Generalized MGF phi^(p)(s) = E[X^p e^{sX}] for p >= 0, s <= 0."""
    if not p >= 0:
        raise ValueError(f"gmgf: p must be >= 0, got {p}")
    if not s <= 0:
        raise ValueError(f"gmgf: s must be <= 0, got {s}")
    try:
        ln_phi = gmgf_log(model, p, s, tol)
    except ConvergenceError as exc:
        # the inner estimate is ln of a phase integral, not phi
        raise ConvergenceError(f"{model!r}: GMGF at p = {p}, s = {s}: {exc}",
                               math.nan, math.inf) from exc
    if not ln_phi <= _LN_OVERFLOW:
        lost = math.isnan(ln_phi)
        why = ("lost all precision (a hypergeometric factor of it left double range)" if lost
               else f"is past double range (ln phi = {ln_phi:.12g})")
        raise ConvergenceError(f"{model!r}: GMGF at p = {p}, s = {s} {why}",
                               estimate=math.nan if lost else math.inf, error_bound=math.inf)
    return math.exp(ln_phi)


def gamma_mixture(model: FadingModel, tol: Tolerance = DEFAULT_TOL) -> GammaMixture:
    """The power PDF as a sum of weighted gamma PDFs whose shapes step by 1
    at one common scale: a single term for Rayleigh/Nakagami, Poisson
    weights for Rician and kappa-mu, negative-binomial weights for kappa-mu
    shadowed, phase-averaged Poisson weights for TWDP. Hoyt and eta-mu have
    one too (Moschopoulos 1985), but the library does not state it yet.

    The arrays the mixture route sums (see `GammaMixture`). No component
    cap applies: the components run up to where the upper-tail bound of
    the component index falls below tol.rel_tol / 100, and
    truncation_error_bound is that bound: the exact tail mass for Poisson
    and negative-binomial weights, the Poisson tail at the peak rate
    K (1 + delta) for TWDP. A mixture past the module's components x points
    budget raises ConvergenceError naming the model and the budget."""
    if not hasattr(model, "mixture"):
        raise ValueError(
            f"gamma_mixture: no mixture representation for {type(model).__name__}"
        )
    return model.mixture(tol)


def tail_params(model: FadingModel) -> TailParams:
    """Power-law parameters of the PDF near the origin,
    f(x) ~ (alpha/omega_x) (x/omega_x)^beta: the first gamma component of a
    mixture baseline, the exact small-x limit of the eta-mu PDF for Hoyt and
    eta-mu."""
    return model.tail()


def draw(model: FadingModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` power samples with an explicit generator, by each model's
    physical construction (never from its mixture)."""
    return model.draw(rng, count)


def sample(model: FadingModel, count: int, seed: int) -> np.ndarray:
    """Deterministic power samples; identical streams per (seed, count)."""
    if count < 1:
        raise ValueError(f"sample: count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return draw(model, rng, count)
