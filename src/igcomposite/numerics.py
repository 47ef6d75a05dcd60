"""Convergent series summation, one equally spaced quadrature rule
(periodic and, through a double-exponential map, semi-infinite), and the
1F2 series.

Everything here is a pure function of its arguments; no global mutable state.
The library's other special functions come from scipy.special directly.
Quadrature works in log space: callbacks take numpy arrays of nodes and
return ln f there, and the rule returns ln of the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "ConvergenceError",
    "hyp1f2",
    "integrate_finite",
    "integrate_semi_infinite",
    "sum_series",
    "sum_series_blocks",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy budget shared by series and quadrature routines. abs_tol
    applies to series only: a quadrature converges on rel_tol alone. It
    doubles its 16 points at most max_subdivisions times, so it evaluates
    at most 16 * 2^max_subdivisions nodes (2^21 at 17)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_terms: int = 10000
    max_subdivisions: int = 17

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.abs_tol < 0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if not 1 <= self.max_subdivisions <= 17:
            raise ValueError(
                f"max_subdivisions must be in 1..17, got {self.max_subdivisions}"
            )


DEFAULT_TOL = Tolerance()

# sum_series_blocks evaluates at most _SERIES_BLOCK_TERMS terms per
# step, and up to _SERIES_MIN_WIDTH of each series wherever that fits
_SERIES_BLOCK_TERMS = 4096
_SERIES_MIN_WIDTH = 16


class ConvergenceError(ArithmeticError):
    """Raised when a series or quadrature hits its budget before converging.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable (from a quadrature: ln of the integral,
    with the sum's last relative change as `error_bound`). From
    `sum_series_blocks`, `series` is the index of the failed series, else None.
    """

    def __init__(self, message: str, estimate: float, error_bound: float,
                 series: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.series = series


def _as_positive(x, name: str) -> np.ndarray:
    """x as a float array, or ValueError unless every element is finite and > 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0) & (arr < math.inf)):  # NaN fails both
        raise ValueError(f"{name} must be finite and > 0")
    return arr


def _maybe_scalar(out: np.ndarray, x):
    """out as a float when the argument x was a scalar."""
    return float(out) if np.ndim(x) == 0 else out


def _check_not_nonpositive_int(value: float, name: str, func: str) -> None:
    if value <= 0 and value == round(value):
        raise ValueError(f"{func}: parameter {name}={value} is a pole")


def hyp1f2(a: float, b: float, c: float, z: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Generalized confluent hypergeometric 1F2(a; b, c; z) by direct series.

    The term ratio z (a+k) / ((b+k)(c+k)(k+1)) decays like 1/k^2, so the
    series converges for every finite z; compensated summation keeps the
    partial sums accurate.
    """
    _check_not_nonpositive_int(b, "b", "hyp1f2")
    _check_not_nonpositive_int(c, "c", "hyp1f2")
    term = 1.0
    total = 1.0
    comp = 0.0
    for k in range(tol.max_terms):
        term *= z * (a + k) / ((b + k) * (c + k) * (k + 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= tol.rel_tol * abs(total) + tol.abs_tol:
            return total
    raise ConvergenceError(
        f"hyp1f2({a}, {b}, {c}, {z}) did not converge in {tol.max_terms} terms",
        estimate=total,
        error_bound=abs(term) * 2,
    )


def integrate_finite(
    ln_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """ln of the integral over [a, b] of f = exp(ln_f), f >= 0.

    Equally spaced rule from 16 points, doubled until two successive sums
    agree to tol.rel_tol: exponentially convergent for smooth f that is
    periodic or decays double-exponentially at both ends. ln_f may return
    an (n, ...) array for n nodes, one integrand per column, each summed
    in units of its largest f so far (so none overflows) until all agree;
    a sum still 0 has not converged. NaN or +inf in ln_f raises at once.
    """
    n, h = 16, (b - a) / 16
    nodes = a + h * np.arange(n)
    # the column maxima of ln f so far start finite: f below e^-1.8e308 is 0
    top, total = float(np.finfo(float).min), 0.0
    for level in range(tol.max_subdivisions + 1):
        if level:
            nodes = a + h * (np.arange(n) + 0.5)
            n, h = 2 * n, 0.5 * h
        g = np.asarray(ln_f(nodes), dtype=float)
        old, top = top, np.maximum(g.max(axis=0), top)
        if not (top < math.inf).all():
            raise ConvergenceError(f"quadrature sum is not finite on {n} points",
                                   estimate=math.nan, error_bound=math.inf)
        prev = total * np.exp(old - top) if level else 0.0
        total = 0.5 * prev + h * np.exp(g - top).sum(axis=0)
        if level and (abs(total - prev) <= tol.rel_tol * total).all() and total.all():
            return np.log(total) + top
    with np.errstate(divide="ignore", invalid="ignore"):
        raise ConvergenceError(f"quadrature did not converge on {n} points",
                               estimate=np.log(total) + top, error_bound=abs(total - prev) / total)


def integrate_semi_infinite(
    ln_f: Callable[[np.ndarray], np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """ln of the integral over [0, inf) of f = exp(ln_f), f integrable at 0
    and decaying exponentially, by `integrate_finite` after the
    double-exponential map x = exp(t - e^-t) (Takahasi & Mori 1974) over t
    in [-6.5, ln 1e17], i.e. x in [1e-292, 1e17]."""

    def mapped(t: np.ndarray) -> np.ndarray:
        e = np.exp(-t)
        return ln_f(np.exp(t - e)) + t - e + np.log1p(e)  # + ln x + ln(1 + e^-t)

    return integrate_finite(mapped, -6.5, math.log(1e17), tol)


def _tail_bound(last3) -> float:
    """A bound on what a series leaves out past its last three summed terms:
    last rho / (1 - rho), rho the last term ratio, when rho < 1 and, to
    rounding, no larger than the ratio before it (terms that keep falling at
    least geometrically); inf otherwise, as before a series' peak."""
    a, b, c = np.abs(last3)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, rho_prev = c / b, b / a
    if rho < 1 and rho <= rho_prev * (1 + 1e-12):
        return float(c * rho / (1 - rho))
    return math.inf


def sum_series(
    term: Callable[[int], float],
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, int]:
    """Sum term(0) + term(1) + ... with compensated (Kahan) accumulation.

    Stops once 3 consecutive terms each contribute relatively less than
    rel_tol; returns (partial sum, number of terms consumed).
    """
    total = 0.0
    comp = 0.0
    quiet = 0
    last3 = (math.nan,) * 3
    for k in range(tol.max_terms):
        t_k = term(k)
        last3 = (*last3[1:], t_k)
        y = t_k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(t_k) <= tol.rel_tol * abs(total) + tol.abs_tol:
            quiet += 1
            if quiet >= 3:
                return total, k + 1
        else:
            quiet = 0
    raise ConvergenceError(
        f"series did not converge in {tol.max_terms} terms",
        estimate=total,
        error_bound=_tail_bound(last3),
    )


def sum_series_blocks(
    term: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
    count: int = 1,
) -> tuple[np.ndarray, int]:
    """Sum `count` series side by side, a block of terms at a time.

    term(ks, idx) returns the terms ks (an index array) of the series idx,
    those not yet stopped, as a (len(idx), len(ks)) array. Each series stops
    by the rule of `sum_series`; a NaN term at or before its stop raises
    ConvergenceError, one past its stop is never summed. Returns (array of
    partial sums, terms consumed by the longest series).
    """
    # Each block is Kahan-added up to the term where the series stops. Past
    # _SERIES_MIN_WIDTH, block widths grow by at most doubling and aim at the
    # nearest predicted stop, so few terms are evaluated past a stop.
    total = np.zeros(count)
    comp = np.zeros(count)
    quiet = np.zeros(count, dtype=int)
    last3 = np.full((count, 3), math.nan)  # each series' last three terms
    idx = np.arange(count)
    k0 = longest = 0
    need = 1
    while idx.size:
        width = min(max(need, _SERIES_MIN_WIDTH), max(1, _SERIES_BLOCK_TERMS // idx.size),
                    tol.max_terms - k0)
        pos = np.arange(width)
        t = np.asarray(term(k0 + pos, idx), dtype=float).reshape(idx.size, width)
        running = total[idx, None] + np.cumsum(t, axis=1)
        small = np.abs(t) <= tol.rel_tol * np.abs(running) + tol.abs_tol
        # length of the run of small terms ending at each position
        last_big = np.maximum.accumulate(np.where(small, -1, pos), axis=1)
        streak = np.where(last_big < 0, quiet[idx, None] + pos + 1, pos - last_big)
        stop = streak >= 3
        done = stop.any(axis=1)
        last = np.where(done, stop.argmax(axis=1), width - 1)
        # a NaN term makes every later term of its row count as large, so
        # it lies before the stop only in a series that has not stopped
        lost = np.isnan(t) & (pos <= last[:, None])
        if lost.any():
            row, col = np.argwhere(lost)[0]
            raise ConvergenceError(
                f"series term {k0 + col} is NaN", estimate=math.nan, error_bound=math.inf,
                series=int(idx[row]),
            )
        y = np.where(pos <= last[:, None], t, 0.0).sum(axis=1) - comp[idx]
        s = total[idx] + y
        comp[idx] = (s - total[idx]) - y
        total[idx] = s
        quiet[idx] = streak[:, -1]
        if done.any():
            longest = max(longest, k0 + int(last[done].max()) + 1)
        idx, t = idx[~done], t[~done]
        last3[idx] = np.concatenate((last3[idx], t), axis=1)[:, -3:]
        k0 += width
        if idx.size and k0 >= tol.max_terms:
            raise ConvergenceError(
                f"series did not converge in {tol.max_terms} terms",
                estimate=float(total[idx[0]]),
                error_bound=_tail_bound(last3[idx[0]]),
                series=int(idx[0]),
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = last3[idx, 2] / last3[idx, 1]
            steps = np.log((tol.rel_tol * np.abs(total[idx]) + tol.abs_tol)
                           / np.abs(last3[idx, 2])) / np.log(ratio)
        falling = (ratio > 0) & (ratio < 1)
        # just past its peak a series' term ratio is near 1 and still
        # dropping, so its stop is nearer than predicted: aim half way
        ahead = np.where(falling, np.maximum(0.5 * steps, 0.0) + 3 - quiet[idx], k0)
        need = int(np.ceil(min(ahead.min(), k0))) if idx.size else 1
    return total, longest
