"""Baseline fast-fading models of the received signal power.

Each model exposes: a PDF, a generalized MGF phi^(p)(s) = E[X^p e^{sX}]
(a closed form for every model but TWDP, whose GMGF is one periodic
integral over the phase angle), a gamma-mixture representation where one
exists, small-argument CDF power-law parameters, and a physically
constructed sampler. All power variables carry mean omega_x; evaluations
are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.special as sc

# hyp1f2 is unused here but stays a module attribute: bench/layertrace.py
# wraps fading.hyp1f2 by name and fails to install without it
from .numerics import (  # noqa: F401
    DEFAULT_TOL,
    ConvergenceError,
    Tolerance,
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
    "GammaTerm",
    "GammaMixture",
    "TailParams",
    "gmgf",
    "gmgf_log",
    "pdf",
    "gamma_mixture",
    "tail_params",
    "sample",
    "draw",
    "MIXTURE_MODELS",
]


@dataclass(frozen=True)
class Rayleigh:
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)


@dataclass(frozen=True)
class Rician:
    k_r: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.k_r >= 0:
            raise ValueError(f"Rician: k_r must be >= 0, got {self.k_r}")


@dataclass(frozen=True)
class NakagamiM:
    m_f: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.m_f >= 0.5:
            raise ValueError(f"NakagamiM: m_f must be >= 0.5, got {self.m_f}")


@dataclass(frozen=True)
class Hoyt:
    q: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not 0 < self.q <= 1:
            raise ValueError(f"Hoyt: q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class KappaMu:
    kappa: float
    mu: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not self.kappa >= 0:
            raise ValueError(f"KappaMu: kappa must be >= 0, got {self.kappa}")
        if not self.mu > 0:
            raise ValueError(f"KappaMu: mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class EtaMu:
    eta: float
    mu: float
    omega_x: float = 1.0

    def __post_init__(self):
        _check_power(self.omega_x)
        if not 0 < self.eta <= 1:
            raise ValueError(f"EtaMu: eta must be in (0, 1] (format 1), got {self.eta}")
        if not self.mu > 0:
            raise ValueError(f"EtaMu: mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class KappaMuShadowed:
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


@dataclass(frozen=True)
class TWDP:
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


FadingModel = Union[
    Rayleigh, Rician, NakagamiM, Hoyt, KappaMu, EtaMu, KappaMuShadowed, TWDP
]

MIXTURE_MODELS = (Rayleigh, NakagamiM, Rician, KappaMu, KappaMuShadowed, TWDP)


def _check_power(omega_x: float) -> None:
    if not omega_x > 0:
        raise ValueError(f"omega_x must be > 0, got {omega_x}")


@dataclass(frozen=True)
class GammaTerm:
    weight: float
    shape: float
    omega: float


@dataclass(frozen=True)
class GammaMixture:
    """Weighted gamma components; prefactor * sum(weights) -> 1 as terms grow."""

    terms: tuple[GammaTerm, ...]
    prefactor: float
    truncation_error_bound: float


@dataclass(frozen=True)
class TailParams:
    """Small-x power law f(x) ~ (alpha/omega_x) (x/omega_x)^beta, so that
    F(x) ~ (alpha/(beta+1)) (x/omega_x)^(beta+1)."""

    alpha: float
    beta: float


# ---------------------------------------------------------------------------
# PDFs
# ---------------------------------------------------------------------------

def _ln_hyp1f1(a, b: float, w) -> np.ndarray:
    """ln 1F1(a; b; w) for w >= 0, switching to the large-argument asymptotic
    1F1 ~ Gamma(b)/Gamma(a) e^w w^(a-b) once the direct value would overflow."""
    a, w = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(w, dtype=float))
    out = np.empty(w.shape)
    small = w < 600.0
    if np.any(small):
        out[small] = np.log(sc.hyp1f1(a[small], b, w[small]))
    if np.any(~small):
        al, wl = a[~small], w[~small]
        corr = np.log1p((b - al) * (1.0 - al) / wl)
        out[~small] = (
            sc.gammaln(b) - sc.gammaln(al) + wl + (al - b) * np.log(wl) + corr
        )
    return out


def _ln_hyp2f1(a, b, c, z) -> np.ndarray:
    """ln 2F1(a, b; c; z), NaN where 2F1 overflows double precision: its
    logarithm is then unknown, not infinite, so a series that reaches such
    a term raises instead of summing an infinity."""
    out = np.log(sc.hyp2f1(a, b, c, z))
    return np.where(np.isfinite(out), out, np.nan)


def pdf(model: FadingModel, x, tol: Tolerance = DEFAULT_TOL):
    """Power PDF at x > 0. Vectorized except for TWDP, whose PDF is a
    periodic integral evaluated point by point."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("fading.pdf: support is x > 0")
    om = model.omega_x
    if isinstance(model, Rayleigh):
        out = np.exp(-arr / om) / om
    elif isinstance(model, NakagamiM):
        mf = model.m_f
        out = np.exp(
            mf * np.log(mf / om)
            + (mf - 1.0) * np.log(arr)
            - mf * arr / om
            - sc.gammaln(mf)
        )
    elif isinstance(model, Rician):
        if model.k_r == 0:
            out = np.exp(-arr / om) / om
        else:
            K = model.k_r
            z = 2.0 * np.sqrt(K * (1.0 + K) * arr / om)
            out = np.exp(
                np.log((1.0 + K) / om) - K - (1.0 + K) * arr / om + z
            ) * sc.i0e(z)
    elif isinstance(model, Hoyt):
        q = model.q
        z = (1.0 - q**4) * arr / (4.0 * q * q * om)
        out = np.exp(
            np.log((1.0 + q * q) / (2.0 * q * om))
            - (1.0 + q * q) ** 2 * arr / (4.0 * q * q * om)
            + z
        ) * sc.i0e(z)
    elif isinstance(model, KappaMu):
        kap, mu = model.kappa, model.mu
        if kap == 0:
            return pdf(NakagamiM(m_f=mu, omega_x=om), x)
        z = 2.0 * mu * np.sqrt(kap * (1.0 + kap) * arr / om)
        lead = (
            np.log(mu)
            + 0.5 * (mu + 1.0) * np.log(1.0 + kap)
            - 0.5 * (mu - 1.0) * np.log(kap)
            - mu * kap
            - np.log(om)
            + 0.5 * (mu - 1.0) * np.log(arr / om)
            - mu * (1.0 + kap) * arr / om
            + z
        )
        out = np.exp(lead) * sc.ive(mu - 1.0, z)
    elif isinstance(model, EtaMu):
        eta, mu = model.eta, model.mu
        if abs(eta - 1.0) < 1e-12:
            return pdf(NakagamiM(m_f=2.0 * mu, omega_x=om), x)
        h = (2.0 + 1.0 / eta + eta) / 4.0
        big_h = (1.0 / eta - eta) / 4.0
        z = 2.0 * mu * big_h * arr / om
        lead = (
            np.log(2.0) + 0.5 * np.log(np.pi)
            + (mu + 0.5) * np.log(mu)
            + mu * np.log(h)
            - sc.gammaln(mu)
            - (mu - 0.5) * np.log(big_h)
            - (mu + 0.5) * np.log(om)
            + (mu - 0.5) * np.log(arr)
            - 2.0 * mu * h * arr / om
            + z
        )
        out = np.exp(lead) * sc.ive(mu - 0.5, z)
    elif isinstance(model, KappaMuShadowed):
        kap, mu, mf = model.kappa, model.mu, model.m_f
        if kap == 0:
            return pdf(NakagamiM(m_f=mu, omega_x=om), x)
        w = mu * mu * kap * (1.0 + kap) / (mu * kap + mf) * arr / om
        lead = (
            mu * np.log(mu)
            + mf * np.log(mf)
            + mu * np.log(1.0 + kap)
            - sc.gammaln(mu)
            - np.log(om)
            - mf * np.log(mu * kap + mf)
            + (mu - 1.0) * np.log(arr / om)
            - mu * (1.0 + kap) * arr / om
        )
        out = np.exp(lead + _ln_hyp1f1(mf, mu, w))
    elif isinstance(model, TWDP):
        flat = np.atleast_1d(arr)
        out = np.array([_twdp_pdf_scalar(u, model, tol) for u in flat]).reshape(
            arr.shape
        )
    else:
        raise TypeError(f"unsupported fading model {type(model).__name__}")
    return float(out) if np.ndim(x) == 0 else out


def _twdp_pdf_scalar(u: float, model: TWDP, tol: Tolerance) -> float:
    K, D, om = model.k_r, model.delta, model.omega_x
    if K == 0:
        return math.exp(-u / om) / om
    c = K * (1.0 + K) / om
    zmax = 2.0 * math.sqrt(c * u * (1.0 + D))

    def integrand(alpha: np.ndarray) -> np.ndarray:
        z = 2.0 * np.sqrt(c * u * (1.0 + D * np.cos(alpha)))
        return np.exp(-K * D * np.cos(alpha) + z - zmax) * sc.i0e(z)

    val, _ = integrate_finite(integrand, 0.0, 2.0 * math.pi, tol, periodic=True)
    ln_pdf = (
        math.log((1.0 + K) / (2.0 * math.pi * om))
        - (1.0 + K) * u / om
        - K
        + zmax
        + math.log(val)
    )
    return math.exp(ln_pdf) if ln_pdf > -745.0 else 0.0


# ---------------------------------------------------------------------------
# Generalized MGF phi^(p)(s) = E[X^p e^{sX}]
# ---------------------------------------------------------------------------

def gmgf_log(model: FadingModel, p, s, tol: Tolerance = DEFAULT_TOL):
    """ln phi^(p)(s) for p >= 0, s <= 0; vectorized over p and s, which
    broadcast together.

    Closed forms for every model except TWDP, which uses a single periodic
    integral at every order (the Laplace transform of the Bessel kernel in
    the integral-form PDF reduces the defining double integral to one over
    the phase angle); all (p, s) pairs share its phase grid.
    """
    p, arr = np.asarray(p, dtype=float), np.asarray(s, dtype=float)
    om = model.omega_x
    if isinstance(model, Rayleigh):
        out = sc.gammaln(p + 1.0) + p * math.log(om) - (p + 1.0) * np.log1p(-arr * om)
    elif isinstance(model, NakagamiM):
        mf = model.m_f
        out = (
            sc.gammaln(p + mf)
            - sc.gammaln(mf)
            + p * math.log(om)
            + mf * math.log(mf)
            - (p + mf) * np.log(mf - arr * om)
        )
    elif isinstance(model, Rician):
        K = model.k_r
        if K == 0:
            return gmgf_log(Rayleigh(om), p, s)
        den = 1.0 + K - arr * om
        out = (
            sc.gammaln(p + 1.0)
            + p * math.log(om)
            + math.log(1.0 + K)
            - K
            - (p + 1.0) * np.log(den)
            + _ln_hyp1f1(p + 1.0, 1.0, K * (1.0 + K) / den)
        )
    elif isinstance(model, KappaMu):
        kap, mu = model.kappa, model.mu
        if kap == 0:
            return gmgf_log(NakagamiM(mu, om), p, s)
        den = mu * (1.0 + kap) - arr * om
        out = (
            sc.gammaln(mu + p)
            - sc.gammaln(mu)
            + p * math.log(om)
            + mu * math.log(mu)
            + mu * math.log(1.0 + kap)
            - mu * kap
            - (mu + p) * np.log(den)
            + _ln_hyp1f1(mu + p, mu, mu * mu * kap * (1.0 + kap) / den)
        )
    elif isinstance(model, Hoyt):
        q = model.q
        den = q * q + 1.0 - 2.0 * arr * q * q * om
        out = (
            p * math.log(2.0)
            + (2.0 * p + 1.0) * math.log(q)
            + sc.gammaln(p + 1.0)
            + p * math.log(om)
            + math.log(q * q + 1.0)
            - (p + 1.0) * np.log(den)
            + _ln_hyp2f1(0.5, p + 1.0, 1.0, (1.0 - q**4) / den)
        )
    elif isinstance(model, EtaMu):
        eta, mu = model.eta, model.mu
        den = mu * (eta + 1.0) / eta - arr * om
        out = (
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
                mu * (1.0 - eta * eta) / (mu * (1.0 + eta) - arr * eta * om),
            )
        )
    elif isinstance(model, KappaMuShadowed):
        kap, mu, mf = model.kappa, model.mu, model.m_f
        if kap == 0:
            return gmgf_log(NakagamiM(mu, om), p, s)
        den = mu * (1.0 + kap) - arr * om
        out = (
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
    elif isinstance(model, TWDP):
        if model.k_r == 0:
            return gmgf_log(Rayleigh(om), p, s)
        out = _twdp_gmgf_log(p, arr, model, tol)
    else:
        raise TypeError(f"unsupported fading model {type(model).__name__}")
    return float(out) if out.ndim == 0 else out


def gmgf(model: FadingModel, p: float, s: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Generalized MGF phi^(p)(s) = E[X^p e^{sX}] for p >= 0, s <= 0."""
    if not p >= 0:
        raise ValueError(f"gmgf: p must be >= 0, got {p}")
    if not s <= 0:
        raise ValueError(f"gmgf: s must be <= 0, got {s}")
    ln_phi = gmgf_log(model, p, s, tol)
    if math.isnan(ln_phi):
        raise ConvergenceError(
            f"{type(model).__name__} GMGF lost all precision at p = {p}",
            estimate=math.nan, error_bound=math.inf,
        )
    return math.exp(ln_phi)


def _twdp_gmgf_log(p: np.ndarray, s: np.ndarray, model: TWDP,
                   tol: Tolerance) -> np.ndarray:
    """ln phi^(p)(s) for TWDP via one periodic integral per (p, s) pair of
    the broadcast p and s; the pairs share the phase grid."""
    K, D, om = model.k_r, model.delta, model.omega_x
    p, s = np.broadcast_arrays(p, s)
    den = 1.0 + K - s * om
    c = K * (1.0 + K) / den

    def integrand(alpha: np.ndarray) -> np.ndarray:
        cos = np.cos(alpha).reshape((-1,) + (1,) * p.ndim)
        return np.exp(-K * D * cos) * sc.hyp1f1(p + 1.0, 1.0, c * (1.0 + D * cos))

    val, _ = integrate_finite(integrand, 0.0, 2.0 * math.pi, tol, periodic=True)
    return (
        math.log(1.0 + K)
        - K
        + sc.gammaln(p + 1.0)
        - math.log(2.0 * math.pi)
        + p * math.log(om)
        - (p + 1.0) * np.log(den)
        + np.log(val)
    )


# ---------------------------------------------------------------------------
# Gamma mixtures
# ---------------------------------------------------------------------------

def gamma_mixture(model: FadingModel, tol: Tolerance = DEFAULT_TOL) -> GammaMixture:
    """Represent the power PDF as (prefactor * sum of weighted gamma PDFs).

    Single-term for Rayleigh/Nakagami; Poisson-weighted for Rician and
    kappa-mu; negative-binomial-weighted for kappa-mu shadowed;
    Bessel-weighted for TWDP. Hoyt and eta-mu have no published mixture.
    """
    om = model.omega_x
    if isinstance(model, Rayleigh):
        return GammaMixture((GammaTerm(1.0, 1.0, om),), 1.0, 0.0)
    if isinstance(model, NakagamiM):
        return GammaMixture((GammaTerm(1.0, model.m_f, om),), 1.0, 0.0)
    if isinstance(model, Rician):
        return _poisson_mixture(model.k_r, 1.0, model.k_r, om, tol)
    if isinstance(model, KappaMu):
        return _poisson_mixture(model.mu * model.kappa, model.mu, model.kappa, om, tol)
    if isinstance(model, KappaMuShadowed):
        return _nb_mixture(model, tol)
    if isinstance(model, TWDP):
        return _twdp_mixture(model, tol)
    raise ValueError(
        f"gamma_mixture: no mixture representation for {type(model).__name__}"
    )


def _mixture_cap(tol: Tolerance) -> float:
    return tol.rel_tol * 1e-2


def _poisson_mixture(rate: float, mu: float, kappa: float, om: float, tol: Tolerance) -> GammaMixture:
    # Rician is the mu = 1 case; component i has shape mu + i.
    if rate == 0:
        return GammaMixture((GammaTerm(1.0, mu, om),), 1.0, 0.0)
    prefactor = math.exp(-rate)
    scale = om / (mu * (1.0 + kappa))
    ln_rate = math.log(rate)
    terms = []
    mass = 0.0
    for i in range(5000):
        w = math.exp(i * ln_rate - sc.gammaln(i + 1.0))
        terms.append(GammaTerm(w, mu + i, (mu + i) * scale))
        mass += w
        resid = abs(1.0 - prefactor * mass)
        if i >= 9 and resid < _mixture_cap(tol):
            return GammaMixture(tuple(terms), prefactor, resid)
    raise ConvergenceError(
        "gamma mixture weights did not converge in 5000 terms",
        estimate=prefactor * mass,
        error_bound=abs(1.0 - prefactor * mass),
    )


def _nb_mixture(model: KappaMuShadowed, tol: Tolerance) -> GammaMixture:
    kap, mu, mf, om = model.kappa, model.mu, model.m_f, model.omega_x
    if kap == 0:
        return GammaMixture((GammaTerm(1.0, mu, om),), 1.0, 0.0)
    scale = om / (mu * (1.0 + kap))
    ln_ratio = math.log(mu * kap) - math.log(mu * kap + mf)
    base = mf * (math.log(mf) - math.log(mu * kap + mf))
    terms = []
    mass = 0.0
    for i in range(5000):
        w = math.exp(
            sc.gammaln(mf + i) - sc.gammaln(mf) - sc.gammaln(i + 1.0)
            + i * ln_ratio + base
        )
        terms.append(GammaTerm(w, mu + i, (mu + i) * scale))
        mass += w
        resid = abs(1.0 - mass)
        if i >= 9 and resid < _mixture_cap(tol):
            return GammaMixture(tuple(terms), 1.0, resid)
    raise ConvergenceError(
        "gamma mixture weights did not converge in 5000 terms",
        estimate=mass,
        error_bound=abs(1.0 - mass),
    )


def twdp_mixture_weight(j: int, K: float, D: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """j-th TWDP mixture weight (before the e^-K prefactor).

    The defining double Bessel sum alternates with exponentially growing
    terms, so it is evaluated in its positive-integrand phase-average form
    (from expanding the Bessel kernel of the integral-form PDF term by term):
    w_j = (2K)^j / j! * (1/2pi) integral e^{-K D cos a} ((1 + D cos a)/2)^j da.
    """
    quad_tol = Tolerance(rel_tol=min(tol.rel_tol, 1e-12), abs_tol=0.0,
                         max_terms=tol.max_terms,
                         max_subdivisions=tol.max_subdivisions)

    def integrand(alpha: np.ndarray) -> np.ndarray:
        base = 0.5 * (1.0 + D * np.cos(alpha))
        return np.exp(-K * D * np.cos(alpha)) * base**j

    val, _ = integrate_finite(integrand, 0.0, 2.0 * math.pi, quad_tol, periodic=True)
    return math.exp(
        j * math.log(2.0 * K) - sc.gammaln(j + 1.0)
    ) * val / (2.0 * math.pi)


def _twdp_mixture(model: TWDP, tol: Tolerance) -> GammaMixture:
    K, D, om = model.k_r, model.delta, model.omega_x
    if K == 0:
        return GammaMixture((GammaTerm(1.0, 1.0, om),), 1.0, 0.0)
    prefactor = math.exp(-K)
    terms = []
    mass = 0.0
    for j in range(5000):
        w = twdp_mixture_weight(j, K, D, tol)
        terms.append(GammaTerm(w, j + 1.0, (j + 1.0) * om / (K + 1.0)))
        mass += w
        resid = abs(1.0 - prefactor * mass)
        if j >= 9 and resid < _mixture_cap(tol):
            return GammaMixture(tuple(terms), prefactor, resid)
    raise ConvergenceError(
        "TWDP mixture weights did not converge in 5000 terms",
        estimate=prefactor * mass,
        error_bound=abs(1.0 - prefactor * mass),
    )


# ---------------------------------------------------------------------------
# Small-argument CDF power law
# ---------------------------------------------------------------------------

def tail_params(model: FadingModel) -> TailParams:
    """Power-law parameters of the PDF near the origin,
    f(x) ~ (alpha/omega_x) (x/omega_x)^beta, from the exact small-x limit of
    each model's PDF (Bessel I_nu(z) ~ (z/2)^nu / Gamma(nu+1), 1F1 -> 1)."""
    if isinstance(model, Rayleigh):
        return TailParams(1.0, 0.0)
    if isinstance(model, Rician):
        K = model.k_r
        return TailParams((1.0 + K) * math.exp(-K), 0.0)
    if isinstance(model, NakagamiM):
        mf = model.m_f
        return TailParams(math.exp(mf * math.log(mf) - sc.gammaln(mf)), mf - 1.0)
    if isinstance(model, Hoyt):
        q = model.q
        return TailParams((1.0 + q * q) / (2.0 * q), 0.0)
    if isinstance(model, KappaMu):
        kap, mu = model.kappa, model.mu
        return TailParams(
            math.exp(mu * math.log(mu * (1.0 + kap)) - mu * kap - sc.gammaln(mu)),
            mu - 1.0,
        )
    if isinstance(model, EtaMu):
        eta, mu = model.eta, model.mu
        h = (2.0 + 1.0 / eta + eta) / 4.0
        return TailParams(
            math.exp(2.0 * mu * math.log(2.0 * mu) + mu * math.log(h) - sc.gammaln(2.0 * mu)),
            2.0 * mu - 1.0,
        )
    if isinstance(model, KappaMuShadowed):
        kap, mu, mf = model.kappa, model.mu, model.m_f
        return TailParams(
            math.exp(
                mu * math.log(mu * (1.0 + kap)) + mf * math.log(mf)
                - sc.gammaln(mu) - mf * math.log(mu * kap + mf)
            ),
            mu - 1.0,
        )
    if isinstance(model, TWDP):
        K, D = model.k_r, model.delta
        return TailParams((1.0 + K) * math.exp(-K) * float(sc.i0(K * D)), 0.0)
    raise TypeError(f"unsupported fading model {type(model).__name__}")


# ---------------------------------------------------------------------------
# Samplers (physical constructions)
# ---------------------------------------------------------------------------

def twdp_specular_amplitudes(model: TWDP) -> tuple[float, float, float]:
    """Recover (V1, V2, sigma^2) from (K, delta, omega_x), with V1 >= V2."""
    K, D, om = model.k_r, model.delta, model.omega_x
    sigma2 = om / (2.0 * (1.0 + K))
    root = math.sqrt(max(0.0, 1.0 - D * D))
    v1 = math.sqrt(sigma2 * K * (1.0 + root))
    v2 = math.sqrt(sigma2 * K * (1.0 - root))
    return v1, v2, sigma2


def draw(model: FadingModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` power samples with an explicit generator."""
    om = model.omega_x
    if isinstance(model, Rayleigh):
        a = rng.normal(scale=math.sqrt(om / 2.0), size=count)
        b = rng.normal(scale=math.sqrt(om / 2.0), size=count)
        return a * a + b * b
    if isinstance(model, Rician):
        K = model.k_r
        sigma = math.sqrt(om / (2.0 * (1.0 + K)))
        v = math.sqrt(K * om / (1.0 + K))
        a = v + rng.normal(scale=sigma, size=count)
        b = rng.normal(scale=sigma, size=count)
        return a * a + b * b
    if isinstance(model, NakagamiM):
        return rng.gamma(shape=model.m_f, scale=om / model.m_f, size=count)
    if isinstance(model, Hoyt):
        q = model.q
        a = rng.normal(scale=math.sqrt(om / (1.0 + q * q)), size=count)
        b = rng.normal(scale=math.sqrt(q * q * om / (1.0 + q * q)), size=count)
        return a * a + b * b
    if isinstance(model, KappaMu):
        kap, mu = model.kappa, model.mu
        idx = rng.poisson(mu * kap, size=count) if kap > 0 else np.zeros(count)
        return rng.gamma(shape=mu + idx, scale=om / (mu * (1.0 + kap)), size=count)
    if isinstance(model, EtaMu):
        eta, mu = model.eta, model.mu
        g1 = rng.gamma(shape=mu, scale=eta * om / (mu * (1.0 + eta)), size=count)
        g2 = rng.gamma(shape=mu, scale=om / (mu * (1.0 + eta)), size=count)
        return g1 + g2
    if isinstance(model, KappaMuShadowed):
        kap, mu, mf = model.kappa, model.mu, model.m_f
        if kap > 0:
            idx = rng.negative_binomial(mf, mf / (mu * kap + mf), size=count)
        else:
            idx = np.zeros(count)
        return rng.gamma(shape=mu + idx, scale=om / (mu * (1.0 + kap)), size=count)
    if isinstance(model, TWDP):
        v1, v2, sigma2 = twdp_specular_amplitudes(model)
        sigma = math.sqrt(sigma2)
        phi1 = rng.uniform(0.0, 2.0 * math.pi, size=count)
        phi2 = rng.uniform(0.0, 2.0 * math.pi, size=count)
        re = v1 * np.cos(phi1) + v2 * np.cos(phi2) + rng.normal(scale=sigma, size=count)
        im = v1 * np.sin(phi1) + v2 * np.sin(phi2) + rng.normal(scale=sigma, size=count)
        return re * re + im * im
    raise ValueError(f"sample: unsupported fading model {type(model).__name__}")


def sample(model: FadingModel, count: int, seed: int) -> np.ndarray:
    """Deterministic power samples; identical streams per (seed, count)."""
    if count < 1:
        raise ValueError(f"sample: count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return draw(model, rng, count)
