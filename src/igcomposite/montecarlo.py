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
        """Keep max_points of the n points, at the indices floor(i (n - 1) /
        (max_points - 1)), i = 0 .. max_points - 1 (only the last point for
        max_points = 1); the retained (t, f) pairs are exact values of the
        full step CDF."""
        if max_points < 1:
            raise ValueError(f"EmpiricalCdf.thin: max_points must be >= 1, got {max_points}")
        if self.t.size <= max_points:
            return self
        last = self.t.size - 1
        # n > max_points spaces the indices more than 1 apart: strictly increasing
        idx = np.linspace(0, last, max_points).astype(int) if max_points > 1 else [last]
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


# Cells of the eCDF wider than this in ln u take the theory at their Gauss
# nodes, not from the Hermite map: a cubic Hermite cell of width h misses F by
# up to h^4 max|F^(4)| / 384 (de Boor 1978), and the few wide cells of a heavy
# upper tail (0.05 to ~1 in ln u on 10^4 draws) would move the CvM by up to
# 2.5e-2 relative (NakagamiM(2.5), m = 2.5).
_WIDE_CELL = 0.05


def compare(
    ecdf: EmpiricalCdf,
    theory: Callable[[np.ndarray], np.ndarray],
    support_pad: float = 0.0,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CompareResult:
    """Kolmogorov sup-distance and Cramer-von Mises integral against a
    monotone theoretical CDF (vectorized callable).

    Without `density`, `theory` is called once, on 2 t.size points plus the
    CvM's Gauss nodes (4 per eCDF step, 2 past 4096 steps, 64 per pad): at
    the abscissae t, at their left limits (t nudged down by 1e-9 of a gap, so
    a theory that itself steps at the abscissae measures as zero distance),
    and at the Gauss nodes.

    `density`, the PDF of a continuous theory, is used when every abscissa
    and Gauss node is positive. Then F(t-) = F(t), and `theory` is called
    once, at t, then at the Gauss nodes of the cells wider than 0.05 in ln u
    (and of any cell ln u does not resolve), then at those of the pads,
    before `density` is called once at t. Step k's Gauss nodes lie in cell k
    of the knots ln t; the nodes of the other cells take F from the cubic
    Hermite interpolant in ln u of F and of its slope dF/d ln u = u f(u) at
    the cell's two abscissae.
    """
    t = ecdf.t
    prev = np.concatenate(([0.0], ecdf.f[:-1]))
    quad = fitting._CvmQuadrature(ecdf, support_pad)
    if density is None or not (t[0] > 0 and quad.nodes.min() > 0):
        # left limits via a relative nudge; a positive theory stays
        # evaluable at the first abscissa
        gaps = np.diff(t, prepend=t[0] - (t[-1] - t[0] + 1.0))
        nudged = t - 1e-9 * gaps
        nudged = np.where(t > 0, np.maximum(nudged, t * (1.0 - 1e-9)), nudged)
        values = np.asarray(theory(np.concatenate((t, nudged, quad.nodes))), dtype=float)
        f_th, f_left, f_nodes = np.split(values, [t.size, 2 * t.size])
    else:
        knots = np.log(t)
        h = np.diff(knots)
        direct = (h > _WIDE_CELL) | (h == 0.0)
        # step k's Gauss nodes lie in knot cell k
        cells = quad.cells
        direct_nodes = cells[direct]
        values = np.asarray(theory(np.concatenate(
            (t, direct_nodes.ravel(), quad.nodes[quad.steps:]))), dtype=float)
        f_th, f_direct, f_pads = np.split(values, [t.size, t.size + direct_nodes.size])
        f_left = f_th
        slope = t * np.asarray(density(t), dtype=float)
        # a zero-width cell is evaluated; a unit width keeps its tau finite
        h = np.where(h > 0.0, h, 1.0)[:, None]
        basis = fitting._hermite_basis((np.log(cells) - knots[:-1, None]) / h, h)
        f_cells = (basis[0] * f_th[:-1, None] + basis[1] * f_th[1:, None]
                   + basis[2] * slope[:-1, None] + basis[3] * slope[1:, None])
        f_cells[direct] = f_direct.reshape(direct_nodes.shape)
        f_nodes = np.concatenate((f_cells.ravel(), f_pads))
    sup = float(np.max(np.maximum(np.abs(ecdf.f - f_th), np.abs(prev - f_left))))
    return CompareResult(sup, quad.evaluate(f_nodes))
