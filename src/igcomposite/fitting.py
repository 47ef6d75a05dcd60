"""Cramer-von Mises fitting of shadowing families to empirical CDF data.

The statistic integrates |Fhat(t) - F(t)|^2 over the padded data support,
exploiting the step structure of Fhat: fixed Gauss-Legendre panels on each
step interval plus head/tail panels where Fhat is 0 and its final level.
Fits run a bounded Nelder-Mead simplex in log-transformed coordinates from
a deterministic multistart lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
import scipy.special as sc
from scipy.optimize import minimize, minimize_scalar

from . import shadowing

if TYPE_CHECKING:
    from .montecarlo import EmpiricalCdf

__all__ = [
    "FitResult",
    "FAMILIES",
    "cvm_statistic",
    "fit",
    "compare_families",
    "db_to_natural_log",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class FitResult:
    family: str
    params: shadowing.ShadowingModel
    cvm: float
    iterations: int
    converged: bool


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
        if support_pad < 0:
            raise ValueError(f"support_pad must be >= 0, got {support_pad}")
        t, f = ecdf.t, ecdf.f
        nodes = []
        weights = []
        levels = []
        if t.size > 1:
            lo, hi = t[:-1], t[1:]
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            # 2-point panels are exact through cubics; on the sub-1e-3-wide
            # steps of a large eCDF that is far below statistical noise
            gx, gw = self._GL2 if lo.size > 4096 else self._GL4
            nodes.append((mid[:, None] + half[:, None] * gx[None, :]).ravel())
            weights.append((half[:, None] * gw[None, :]).ravel())
            levels.append(np.repeat(f[:-1], gx.size))
        if support_pad > 0:
            gx, gw = self._GL64
            for a, b, level in (
                (t[0] - support_pad, t[0], 0.0),
                (t[-1], t[-1] + support_pad, f[-1]),
            ):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                nodes.append(mid + half * gx)
                weights.append(half * gw)
                levels.append(np.full(gx.size, level))
        if not nodes:
            raise ValueError(
                "cvm_statistic: single-point eCDF with zero padding has no support"
            )
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.levels = np.concatenate(levels)

    def evaluate(self, theory_at_nodes: np.ndarray) -> float:
        resid = self.levels - np.asarray(theory_at_nodes, dtype=float)
        return float(np.dot(self.weights, resid * resid))


def cvm_statistic(
    ecdf: EmpiricalCdf,
    theory: Callable[[np.ndarray], np.ndarray],
    support_pad: float = 5.0,
) -> float:
    """Integrated squared eCDF-vs-theory discrepancy over the padded support."""
    quad = _CvmQuadrature(ecdf, support_pad)
    return quad.evaluate(theory(quad.nodes))


# ---------------------------------------------------------------------------
# Family descriptors: log-ish coordinates with box bounds
# ---------------------------------------------------------------------------

_LN_MEAN_LO, _LN_MEAN_HI = math.log(1e-6), math.log(1e6)


def _make_lognormal(c):
    return shadowing.Lognormal(mu=c[0], sigma=math.exp(c[1]))


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
    bounds: tuple[tuple[float, float], tuple[float, float]]
    start: Callable  # (log-mean, log-var) -> coords


def _start_lognormal(m1, v):
    return (m1, math.log(math.sqrt(v)))


def _start_gamma(m1, v):
    k0 = min(max(1.0 / v, 0.06), 9e3)
    om0 = math.exp(m1 - sc.digamma(k0) + math.log(k0))
    return (math.log(k0), math.log(min(max(om0, 2e-6), 5e5)))


def _start_invgauss(m1, v):
    mu0 = min(max(math.exp(m1 + v / 2.0), 2e-6), 5e5)
    lam0 = min(max(mu0 / max(math.expm1(v), 1e-6), 2e-6), 5e5)
    return (math.log(mu0), math.log(lam0))


def _start_invgamma(m1, v):
    m0 = min(max(1.0 / v, 1.01), 9e3)
    om0 = min(max(math.exp(m1 + sc.digamma(m0)) / (m0 - 1.0 + 1e-12), 2e-6), 5e5)
    return (math.log(m0 - 1.0), math.log(om0))


FAMILIES: dict[str, _Family] = {
    "lognormal": _Family(
        "lognormal",
        _make_lognormal,
        ((_LN_MEAN_LO, _LN_MEAN_HI), (math.log(1e-3), math.log(5.0))),
        _start_lognormal,
    ),
    "gamma": _Family(
        "gamma",
        _make_gamma,
        ((math.log(0.05), math.log(1e4)), (_LN_MEAN_LO, _LN_MEAN_HI)),
        _start_gamma,
    ),
    "inverse_gaussian": _Family(
        "inverse_gaussian",
        _make_invgauss,
        ((_LN_MEAN_LO, _LN_MEAN_HI), (_LN_MEAN_LO, _LN_MEAN_HI)),
        _start_invgauss,
    ),
    "inverse_gamma": _Family(
        "inverse_gamma",
        _make_invgamma,
        ((math.log(1e-6), math.log(1e4)), (_LN_MEAN_LO, _LN_MEAN_HI)),
        _start_invgamma,
    ),
}

# multistart offsets in coordinate space, applied around the moment start
_LATTICE = [
    (0.0, 0.0),
    (1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5),
    (1.5, 1.5), (-1.5, -1.5), (1.5, -1.5), (-1.5, 1.5),
    (3.0, 0.0), (-3.0, 0.0), (0.0, 3.0), (0.0, -3.0),
]


def _log_moments(ecdf: EmpiricalCdf) -> tuple[float, float]:
    df = np.diff(np.concatenate(([0.0], ecdf.f)))
    m1 = float(np.dot(ecdf.t, df))
    v = float(np.dot(ecdf.t * ecdf.t, df)) - m1 * m1
    return m1, max(v, 1e-4)


def _clip_coords(c, bounds):
    return tuple(min(max(ci, lo + 1e-9), hi - 1e-9) for ci, (lo, hi) in zip(c, bounds))


def fit(
    family: str,
    ecdf: EmpiricalCdf,
    integer_m: bool = False,
    multistart: int = 8,
    support_pad: float = 5.0,
) -> FitResult:
    """Minimize the CvM statistic for one shadowing family on log-domain data.

    integer_m (inverse-gamma only) re-optimizes the mean for each integer
    shape in a bracket around the unconstrained optimum and keeps the best.
    """
    if family not in FAMILIES:
        raise ValueError(f"fit: unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if integer_m and family != "inverse_gamma":
        raise ValueError("fit: integer_m applies to the inverse_gamma family only")
    if ecdf.t.size < 2:
        raise ValueError("fit: degenerate data (fewer than two distinct abscissae)")
    if multistart < 1:
        raise ValueError(f"fit: multistart must be >= 1, got {multistart}")

    fam = FAMILIES[family]
    quad = _CvmQuadrature(ecdf, support_pad)

    def objective(coords) -> float:
        model = fam.make(coords)
        return quad.evaluate(shadowing.log_domain_cdf(model, quad.nodes))

    base = fam.start(*_log_moments(ecdf))
    starts = [
        _clip_coords((base[0] + dx, base[1] + dy), fam.bounds)
        for dx, dy in _LATTICE[:multistart]
    ]

    best = None
    iterations = 0
    converged = False
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=fam.bounds,
            options={"maxiter": 200, "xatol": 1e-5, "fatol": 1e-13},
        )
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
            converged = bool(res.success)

    family_tag = family
    params = fam.make(best.x)
    cvm = float(best.fun)

    if integer_m:
        family_tag = "inverse_gamma_integer"
        m_hat = params.m
        candidates = sorted({max(2, round(m_hat) + d) for d in (-2, -1, 0, 1, 2)})
        best_int = None
        for m_c in candidates:
            def obj_omega(c1: float) -> float:
                model = shadowing.InverseGamma(m=float(m_c), omega_i=math.exp(c1))
                return quad.evaluate(shadowing.log_domain_cdf(model, quad.nodes))

            res = minimize_scalar(
                obj_omega,
                bounds=(_LN_MEAN_LO, _LN_MEAN_HI),
                method="bounded",
                options={"xatol": 1e-6},
            )
            iterations += int(res.nfev)
            if best_int is None or res.fun < best_int[0]:
                best_int = (float(res.fun), m_c, math.exp(res.x))
        cvm, m_c, omega_c = best_int
        params = shadowing.InverseGamma(m=float(m_c), omega_i=omega_c)

    return FitResult(family_tag, params, cvm, iterations, converged)


def compare_families(
    ecdf: EmpiricalCdf,
    families: Sequence[str],
    integer_m: bool = False,
    multistart: int = 8,
    support_pad: float = 5.0,
) -> list[FitResult]:
    """Fit each family and rank ascending by the CvM statistic.

    Per-family failures are collected; if every requested fit fails the
    aggregated error is raised.
    """
    if not families:
        raise ValueError("compare_families: no families requested")
    results: list[FitResult] = []
    failures: list[str] = []
    for family in families:
        try:
            results.append(fit(family, ecdf, False, multistart, support_pad))
        except Exception as exc:  # aggregate and keep going
            failures.append(f"{family}: {exc}")
    if integer_m and "inverse_gamma" in families:
        try:
            results.append(fit("inverse_gamma", ecdf, True, multistart, support_pad))
        except Exception as exc:
            failures.append(f"inverse_gamma_integer: {exc}")
    if not results:
        raise RuntimeError("all family fits failed: " + "; ".join(failures))
    return sorted(results, key=lambda r: r.cvm)
