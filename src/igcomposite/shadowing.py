"""Candidate shadowing distributions: lognormal, gamma, inverse Gaussian, inverse gamma.

CDFs accept scalars or numpy arrays (the fitting objective evaluates them in
bulk). Every CDF, PDF f and density of ln Y, g = y f(y), is finite over y
in [e^-745, e^709], the abscissae `log_domain_cdf` maps to, wherever its
value fits a double: f = g / y is inf near e^-745 for a law that sits there.
The inverse-gamma family requires shape m > 1 so that the mean exists; m <= 1
is rejected everywhere.
"""

from __future__ import annotations

import math
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
    `_cdf(y)`, `_density(y, a)` = y^a f(y) (a = 0: the PDF; a = 1: g, the
    density of ln Y) and `_log_slope(y)`, the slope d ln g / d ln y, on a
    float array of y > 0."""

    def cdf(self, y):
        """Model CDF at y > 0; vectorized over y."""
        out = self._cdf(_as_positive(y, "shadowing.cdf: y"))
        return _maybe_scalar(np.clip(out, 0.0, 1.0), y)

    def pdf(self, y):
        """Model PDF at y > 0; vectorized over y."""
        return _maybe_scalar(self._density(_as_positive(y, "shadowing.pdf: y"), 0), y)


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

    def _density(self, y, a):
        z = (np.log(y) - self.mu) / self.sigma
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * z * z) / (1.0 if a else y) / (self.sigma * np.sqrt(2.0 * np.pi))

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

    def _density(self, y, a):
        k, om = self.k, self.omega
        # k / om overflows where the mean is subnormal
        lead = k * (np.log(k / om) if k / om < math.inf else np.log(k) - np.log(om))
        with np.errstate(over="ignore"):
            return np.exp(lead + (k - 1.0 + a) * np.log(y) - k * y / om - sc.gammaln(k))

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
        # before the Gaussian tail factor stops cancelling it. Where 2 lam/mu
        # itself overflows, that term is NaN and below 1e-150 of the first.
        with np.errstate(over="ignore", invalid="ignore"):
            root, ratio = np.sqrt(self.lam / y), y / self.mu_i
            # where lam / y underflows to 0, both arguments are sqrt(lam y) / mu
            near = np.sqrt(self.lam) * np.sqrt(y) / self.mu_i
            below = np.where(root > 0, root * (ratio - 1.0), near)
            above = np.where(root > 0, root * (ratio + 1.0), near)
            second = np.exp(2.0 * self.lam / self.mu_i + sc.log_ndtr(-above))
            return sc.ndtr(below) + np.where(np.isnan(second), 0.0, second)

    def _density(self, y, a):
        mu, lam = self.mu_i, self.lam
        # q is inf / inf or 0 / 0 where mu^2 and (y - mu)^2 leave the double
        # range together, and relative to mu it is not. y^-3/2 takes two steps,
        # as y^3 underflows from y = 1e-108, and overflows only where exp(-q) is 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q = lam * (y - mu) ** 2 / (2.0 * mu * mu * y)
            q = np.where(np.isnan(q), lam / (2.0 * y) * ((y - mu) / mu) ** 2, q)
            tail = np.exp(-q)
            lead = np.sqrt(lam / (2.0 * np.pi)) / (1.0 if a else y)
            return np.where(tail > 0, lead / np.sqrt(y) * tail, 0.0)

    def _log_slope(self, y):
        mu, lam = self.mu_i, self.lam
        return -0.5 - lam / (2.0 * mu) * (y / mu) + lam / (2.0 * y)


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

    def _density(self, y, a):
        m, rate = self.m, self.omega_i * (self.m - 1.0)
        with np.errstate(over="ignore"):
            return np.exp(m * np.log(rate) - sc.gammaln(m) - (m + 1.0 - a) * np.log(y) - rate / y)

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
