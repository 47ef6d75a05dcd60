"""Candidate shadowing distributions: lognormal, gamma, inverse Gaussian, inverse gamma.

CDFs accept scalars or numpy arrays (the fitting objective evaluates them in
bulk). Every PDF and CDF is finite over y in [e^-745, e^709], the abscissae
`log_domain_cdf` maps to. The inverse-gamma family requires shape m > 1 so
that the mean exists; m <= 1 is rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.special as sc

from .numerics import _as_positive, _maybe_scalar

__all__ = [
    "Lognormal",
    "GammaShadowing",
    "InverseGaussian",
    "InverseGamma",
    "ShadowingModel",
    "cdf",
    "pdf",
    "log_domain_cdf",
    "sample_inverse_gamma",
]

# exp() saturation bounds for float64; used when mapping log-domain abscissae
_EXP_LO, _EXP_HI = -745.0, 709.0


class _Shadowing:
    """Argument handling shared by every shadowing law. A model supplies
    `_cdf(y)`, `_pdf(y)` and `_log_slope(y)`, the slope d ln g / d ln y of
    g = y f(y), on a float array of y > 0."""

    def cdf(self, y):
        """Model CDF at y > 0; vectorized over y."""
        out = self._cdf(_as_positive(y, "shadowing.cdf: y"))
        return _maybe_scalar(np.clip(out, 0.0, 1.0), y)

    def pdf(self, y):
        """Model PDF at y > 0; vectorized over y."""
        return _maybe_scalar(self._pdf(_as_positive(y, "shadowing.pdf: y")), y)


@dataclass(frozen=True)
class Lognormal(_Shadowing):
    """ln Y ~ Normal(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"Lognormal: sigma must be > 0, got {self.sigma}")

    def _cdf(self, y):
        return 0.5 + 0.5 * sc.erf((np.log(y) - self.mu) / np.sqrt(2.0 * self.sigma**2))

    def _pdf(self, y):
        z = (np.log(y) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / y / (self.sigma * np.sqrt(2.0 * np.pi))

    def _log_slope(self, y):
        return -(np.log(y) - self.mu) / self.sigma**2


@dataclass(frozen=True)
class GammaShadowing(_Shadowing):
    """Gamma with shape k and mean omega."""

    k: float
    omega: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"GammaShadowing: k must be > 0, got {self.k}")
        if not self.omega > 0:
            raise ValueError(f"GammaShadowing: omega must be > 0, got {self.omega}")

    def _cdf(self, y):
        with np.errstate(over="ignore"):
            return sc.gammainc(self.k, self.k * y / self.omega)

    def _pdf(self, y):
        k, om = self.k, self.omega
        with np.errstate(over="ignore"):
            return np.exp(k * np.log(k / om) + (k - 1.0) * np.log(y) - k * y / om - sc.gammaln(k))

    def _log_slope(self, y):
        return self.k - self.k * y / self.omega


@dataclass(frozen=True)
class InverseGaussian(_Shadowing):
    """Inverse Gaussian with mean mu_i and shape lam."""

    mu_i: float
    lam: float

    def __post_init__(self):
        if not self.mu_i > 0:
            raise ValueError(f"InverseGaussian: mu_i must be > 0, got {self.mu_i}")
        if not self.lam > 0:
            raise ValueError(f"InverseGaussian: lam must be > 0, got {self.lam}")

    def _cdf(self, y):
        # second term assembled in log space: exp(2 lam/mu) overflows long
        # before the Gaussian tail factor stops cancelling it
        with np.errstate(over="ignore"):
            root = np.sqrt(self.lam / y)
            ratio = y / self.mu_i
            return sc.ndtr(root * (ratio - 1.0)) + np.exp(
                2.0 * self.lam / self.mu_i + sc.log_ndtr(-root * (ratio + 1.0))
            )

    def _pdf(self, y):
        mu, lam = self.mu_i, self.lam
        # q is inf / inf only where (y - mu)^2 and 2 mu^2 y both overflow, far
        # past exp's range; y^-3/2 takes two steps, as y^3 underflows from
        # y = 1e-108, and overflows only where exp(-q) is 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = lam * (y - mu) ** 2 / (2.0 * mu**2 * y)
            tail = np.exp(-np.where(np.isnan(q), np.inf, q))
            return np.where(tail > 0, np.sqrt(lam / (2.0 * np.pi)) / y / np.sqrt(y) * tail, 0.0)

    def _log_slope(self, y):
        mu, lam = self.mu_i, self.lam
        return -0.5 - lam * y / (2.0 * mu**2) + lam / (2.0 * y)


@dataclass(frozen=True)
class InverseGamma(_Shadowing):
    """Inverse gamma with shape m > 1 and mean omega_i."""

    m: float
    omega_i: float

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError(f"InverseGamma: m must be > 1, got {self.m}")
        if not self.omega_i > 0:
            raise ValueError(f"InverseGamma: omega_i must be > 0, got {self.omega_i}")

    def _cdf(self, y):
        with np.errstate(over="ignore"):
            return sc.gammaincc(self.m, self.omega_i * (self.m - 1.0) / y)

    def _pdf(self, y):
        m, rate = self.m, self.omega_i * (self.m - 1.0)
        with np.errstate(over="ignore"):
            return np.exp(m * np.log(rate) - sc.gammaln(m) - (m + 1.0) * np.log(y) - rate / y)

    def _log_slope(self, y):
        return -self.m + self.omega_i * (self.m - 1.0) / y


ShadowingModel = Union[Lognormal, GammaShadowing, InverseGaussian, InverseGamma]


def cdf(model: ShadowingModel, y):
    """Model CDF at y > 0; vectorized over y."""
    return model.cdf(y)


def pdf(model: ShadowingModel, y):
    """Model PDF at y > 0; vectorized over y."""
    return model.pdf(y)


def log_domain_cdf(model: ShadowingModel, t):
    """Theoretical CDF against natural-log-scale abscissae: cdf(model, e^t)."""
    arr = np.asarray(t, dtype=float)
    y = np.exp(np.clip(arr, _EXP_LO, _EXP_HI))
    return _maybe_scalar(np.asarray(cdf(model, y)), t)


def sample_inverse_gamma(m: float, omega_i: float, count: int, seed: int) -> np.ndarray:
    """Draw inverse-gamma samples as reciprocals of gamma draws.

    1/Y is gamma distributed with shape m and rate omega_i (m - 1), so the
    returned samples have mean omega_i. Deterministic per (seed, count).
    """
    if not m > 1:
        raise ValueError(f"sample_inverse_gamma: m must be > 1, got {m}")
    if not omega_i > 0:
        raise ValueError(f"sample_inverse_gamma: omega_i must be > 0, got {omega_i}")
    if count < 1:
        raise ValueError(f"sample_inverse_gamma: count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.gamma(shape=m, scale=1.0 / (omega_i * (m - 1.0)), size=count)
    return 1.0 / g
