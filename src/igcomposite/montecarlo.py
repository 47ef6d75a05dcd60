"""Seeded sampling of composite models and empirical-CDF utilities.

Sampling uses the counter-based Philox generator; substreams for the
shadowing and fading factors are spawned per chunk from (seed, chunk), so
the stream is reproducible regardless of how chunks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fading, fitting
from .composite import CompositeModel

__all__ = [
    "EmpiricalCdf",
    "CompareResult",
    "sample_composite",
    "empirical_cdf",
    "compare",
]

_CHUNK = 1 << 19


@dataclass(frozen=True)
class EmpiricalCdf:
    """Step CDF: strictly increasing abscissae t with levels f in (0, 1]."""

    t: np.ndarray
    f: np.ndarray
    sample_count: int

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if t.ndim != 1 or t.size == 0 or t.shape != f.shape:
            raise ValueError("EmpiricalCdf: t and f must be matching nonempty 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
            raise ValueError("EmpiricalCdf: t and f must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("EmpiricalCdf: abscissae must be strictly increasing")
        if np.any(np.diff(f) < 0) or np.any(f < 0) or np.any(f > 1):
            raise ValueError("EmpiricalCdf: cdf values must be nondecreasing in [0, 1]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "f", f)

    def thin(self, max_points: int) -> "EmpiricalCdf":
        """Keep every k-th point (always including the last); the retained
        (t, f) pairs are exact values of the full step CDF."""
        if max_points < 1:
            raise ValueError(f"EmpiricalCdf.thin: max_points must be >= 1, got {max_points}")
        if self.t.size <= max_points:
            return self
        last = self.t.size - 1
        idx = np.unique(np.linspace(0, last, max_points).astype(int)) if max_points > 1 else [last]
        return EmpiricalCdf(self.t[idx], self.f[idx], self.sample_count)


@dataclass(frozen=True)
class CompareResult:
    sup_distance: float
    cvm_value: float


def _draw_streams(model: CompositeModel, count: int, seed: int):
    """Paired (shadowing, fading) streams from per-chunk Philox substreams."""
    xi_all = np.empty(count)
    x_all = np.empty(count)
    m = model.m
    pos = 0
    chunk_index = 0
    while pos < count:
        n = min(_CHUNK, count - pos)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
        xi_ss, x_ss = ss.spawn(2)
        rng_xi = np.random.Generator(np.random.Philox(xi_ss))
        rng_x = np.random.Generator(np.random.Philox(x_ss))
        xi_all[pos : pos + n] = 1.0 / rng_xi.gamma(
            shape=m, scale=1.0 / (m - 1.0), size=n
        )
        x_all[pos : pos + n] = fading.draw(model.baseline, rng_x, n)
        pos += n
        chunk_index += 1
    return xi_all, x_all


def sample_composite(model: CompositeModel, count: int, seed: int) -> np.ndarray:
    """Draw w_bar * xi_i * x_i with decorrelated shadowing/fading substreams."""
    if count < 1:
        raise ValueError(f"sample_composite: count must be >= 1, got {count}")
    xi, x = _draw_streams(model, count, seed)
    return model.w_bar * xi * x


def empirical_cdf(samples) -> EmpiricalCdf:
    """Step eCDF at the sorted sample points; duplicates collapse."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empirical_cdf: empty input")
    uniq, counts = np.unique(arr, return_counts=True)
    f = np.cumsum(counts) / arr.size
    return EmpiricalCdf(uniq, f, int(arr.size))


def compare(
    ecdf: EmpiricalCdf,
    theory: Callable[[np.ndarray], np.ndarray],
    support_pad: float = 0.0,
) -> CompareResult:
    """Kolmogorov sup-distance and Cramer-von Mises integral against a
    monotone theoretical CDF (vectorized callable), which is called once."""
    t = ecdf.t
    # left limits via a relative nudge so a theory that itself steps at the
    # abscissae (e.g. the eCDF's own interpolant) measures as zero distance
    gaps = np.diff(t, prepend=t[0] - (t[-1] - t[0] + 1.0))
    nudged = t - 1e-9 * gaps
    # keep positive-support theories evaluable at the first abscissa
    nudged = np.where(t > 0, np.maximum(nudged, t * (1.0 - 1e-9)), nudged)
    quad = fitting._CvmQuadrature(ecdf, support_pad)
    values = np.asarray(theory(np.concatenate((t, nudged, quad.nodes))), dtype=float)
    f_th, f_left, f_nodes = np.split(values, [t.size, 2 * t.size])
    prev = np.concatenate(([0.0], ecdf.f[:-1]))
    sup = float(np.max(np.maximum(np.abs(ecdf.f - f_th), np.abs(prev - f_left))))
    return CompareResult(sup, quad.evaluate(f_nodes))
