"""Independent oracles used across the test suite.

Everything here is written against scipy / mpmath directly, without calling
into igcomposite, so agreement tests compare two genuinely distinct routes:
hand-transcribed density formulas integrated with QUADPACK, and brute-force
compensated power series for the hypergeometric functions. The two
exceptions take the library's quadrature: `direct_cvm_objective`, the fit
search's CvM residuals with the model CDF evaluated at every quadrature node,
is the reference its Hermite-reduced residuals are checked against, and
`hermite_map_compare` rebuilds the density path of `montecarlo.compare` on the
fit's searching Hermite map.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc
import scipy.stats
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar


def series_1f1(a: float, b: float, z: float, terms: int = 600) -> float:
    total, comp, t = 1.0, 0.0, 1.0
    for k in range(terms):
        t *= (a + k) * z / ((b + k) * (k + 1))
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(t) < 1e-17 * abs(total):
            break
    return total


def series_2f1(a: float, b: float, c: float, z: float, terms: int = 4000) -> float:
    total, comp, t = 1.0, 0.0, 1.0
    for k in range(terms):
        t *= (a + k) * (b + k) * z / ((c + k) * (k + 1))
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(t) < 1e-17 * abs(total):
            break
    return total


def series_erf(x: float, terms: int = 200) -> float:
    # erf(x) = 2/sqrt(pi) * sum (-1)^k x^(2k+1) / (k! (2k+1))
    total, t = 0.0, x
    for k in range(terms):
        total += t / (2 * k + 1)
        t *= -x * x / (k + 1)
    return 2.0 / math.sqrt(math.pi) * total


def series_bessel_i(nu: float, x: float, terms: int = 300) -> float:
    t = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    total = t
    for k in range(terms):
        t *= (x * x / 4.0) / ((k + 1.0) * (nu + k + 1.0))
        total += t
        if abs(t) < 1e-18 * abs(total):
            break
    return total


# --- hand-transcribed power PDFs (mean power om) ---

def pdf_rayleigh(x, om=1.0):
    return np.exp(-x / om) / om


def pdf_rician(x, K, om=1.0):
    z = 2 * np.sqrt(K * (1 + K) * x / om)
    return (1 + K) / om * np.exp(-K - (1 + K) * x / om + z) * sc.i0e(z)


def pdf_nakagami(x, mf, om=1.0):
    return (mf / om) ** mf * x ** (mf - 1) * np.exp(-mf * x / om) / sc.gamma(mf)


def pdf_hoyt(x, q, om=1.0):
    z = (1 - q**4) * x / (4 * q * q * om)
    return (1 + q * q) / (2 * q * om) * np.exp(
        -((1 + q * q) ** 2) * x / (4 * q * q * om) + z
    ) * sc.i0e(z)


def ln_pdf_kappa_mu(x, kap, mu, om=1.0):
    """ln of the kappa-mu power PDF (Rician at mu = 1, kappa > 0) of mean
    om; vectorized. The Bessel factor is scaled (ive) and the exponentials
    stay in the exponent, so nothing overflows at a strong line of sight,
    where e^(mu kappa) leaves double range once mu kappa > 709."""
    y = np.asarray(x, dtype=float) / om
    z = 2 * mu * np.sqrt(kap * (1 + kap) * y)
    with np.errstate(divide="ignore"):  # ive underflows only where the density does
        ln_bessel = np.log(sc.ive(mu - 1, z))
    return (math.log(mu / om) + (mu + 1) / 2 * math.log1p(kap) - (mu - 1) / 2 * math.log(kap)
            - mu * kap + (mu - 1) / 2 * np.log(y) - mu * (1 + kap) * y + z + ln_bessel)


def pdf_kappa_mu(x, kap, mu, om=1.0):
    return np.exp(ln_pdf_kappa_mu(x, kap, mu, om))


def pdf_eta_mu(x, eta, mu, om=1.0):
    h = (2 + 1 / eta + eta) / 4
    big_h = (1 / eta - eta) / 4
    z = 2 * mu * big_h * x / om
    return (
        2 * np.sqrt(np.pi) * mu ** (mu + 0.5) * h**mu
        / (sc.gamma(mu) * big_h ** (mu - 0.5) * om ** (mu + 0.5))
        * x ** (mu - 0.5)
        * np.exp(-2 * mu * h * x / om + z)
        * sc.ive(mu - 0.5, z)
    )


def ln_pdf_kappa_mu_shadowed(x, kap, mu, mf, om=1.0):
    """ln of the kappa-mu shadowed power PDF of mean om; vectorized. From
    w = 100 on, 1F1(mf; mu; w) is taken by Kummer's transformation
    e^w 1F1(mu - mf; mu; -w), with e^w in the exponent: the direct 1F1
    overflows once w passes about 700."""
    y = np.asarray(x, dtype=float) / om
    w = mu * mu * kap * (1 + kap) / (mu * kap + mf) * y
    small = w < 100.0
    ln_hyp = np.where(small, np.log(sc.hyp1f1(mf, mu, np.where(small, w, 0.0))),
                      w + np.log(sc.hyp1f1(mu - mf, mu, -w)))
    return (mu * math.log(mu) + mf * math.log(mf) + mu * math.log1p(kap) - math.lgamma(mu)
            - math.log(om) - mf * math.log(mu * kap + mf) + (mu - 1) * np.log(y)
            - mu * (1 + kap) * y + ln_hyp)


def pdf_kappa_mu_shadowed(x, kap, mu, mf, om=1.0):
    return np.exp(ln_pdf_kappa_mu_shadowed(x, kap, mu, mf, om))


def _ln_gammaincc(a: float, y: float) -> float:
    """ln Q(a, y), by mpmath where Q leaves double range."""
    q = sc.gammaincc(a, y)
    if q > 1e-280:
        return math.log(q)
    import mpmath

    return float(mpmath.log(mpmath.gammainc(a, y, mpmath.inf, regularized=True)))


def ln_composite_cdf(ln_pdf, m: float, u: float) -> float:
    """ln F_W(u) = ln E[Q(m, (m-1) X / u)] for a unit-mean baseline power X
    with log-density `ln_pdf` under unit-mean inverse-gamma(m) shadowing,
    by QUADPACK in s = ln x. The integrand is divided by its largest value
    on a grid, so values far below double range keep their precision."""
    def ln_h(s):
        x = math.exp(s)
        return s + ln_pdf(x) + _ln_gammaincc(m, (m - 1) * x / u)

    grid = np.linspace(math.log(u) - 30.0, 3.0, 400)
    ln_grid = [ln_h(s) for s in grid]
    peak = int(np.argmax(ln_grid))
    top = ln_grid[peak]
    val, _ = quad(lambda s: math.exp(ln_h(s) - top), grid[0], grid[-1],
                  points=sorted({math.log(u), 0.0, grid[peak]}),
                  limit=500, epsabs=0.0, epsrel=1e-11)
    return top + math.log(val)


def pdf_twdp(x, K, D, om=1.0):
    def inner(alpha):
        z = 2 * math.sqrt(K * (1 + K) * x * (1 + D * math.cos(alpha)) / om)
        ln_t = -(1 + K) * x / om - K - K * D * math.cos(alpha) + z + math.log(sc.i0e(z))
        return math.exp(ln_t) if ln_t > -745.0 else 0.0

    val, _ = quad(inner, 0, 2 * math.pi, limit=200)
    return (1 + K) / (2 * math.pi * om) * val


def oracle_pdf(model) -> "callable":
    """Map an igcomposite fading model to its hand-transcribed oracle PDF."""
    from igcomposite import fading as fa

    om = model.omega_x
    if isinstance(model, fa.Rayleigh):
        return lambda x: pdf_rayleigh(x, om)
    if isinstance(model, fa.Rician):
        return lambda x: pdf_rician(x, model.k_r, om)
    if isinstance(model, fa.NakagamiM):
        return lambda x: pdf_nakagami(x, model.m_f, om)
    if isinstance(model, fa.Hoyt):
        return lambda x: pdf_hoyt(x, model.q, om)
    if isinstance(model, fa.KappaMu):
        return lambda x: pdf_kappa_mu(x, model.kappa, model.mu, om)
    if isinstance(model, fa.EtaMu):
        return lambda x: pdf_eta_mu(x, model.eta, model.mu, om)
    if isinstance(model, fa.KappaMuShadowed):
        return lambda x: pdf_kappa_mu_shadowed(x, model.kappa, model.mu, model.m_f, om)
    if isinstance(model, fa.TWDP):
        return lambda x: pdf_twdp(x, model.k_r, model.delta, om)
    raise TypeError(type(model).__name__)


def twdp_weight_bessel_sum(j: int, K: float, D: float) -> float:
    """TWDP mixture weight by the published double Bessel sum (stable only
    for small j; used to cross-check the phase-average evaluation)."""
    from math import comb, factorial

    s_j = 0.0
    for i in range(j + 1):
        inner = sum(comb(i, l) * sc.iv(2 * l - i, -K * D) for l in range(i + 1))
        s_j += comb(j, i) * (D / 2.0) ** i * inner
    return K**j / factorial(j) * s_j


def gmgf_quadrature(model, p: float, s: float) -> float:
    """Brute-force E[X^p e^{sX}] via QUADPACK over the oracle PDF."""
    f = oracle_pdf(model)
    val, _ = quad(lambda x: x**p * math.exp(s * x) * f(x), 0, np.inf, limit=400)
    return val


def step_theory(ecdf):
    """The eCDF's own right-continuous step interpolation as a callable."""

    def theory(t):
        idx = np.searchsorted(ecdf.t, np.asarray(t), side="right") - 1
        return np.where(idx < 0, 0.0, ecdf.f[np.clip(idx, 0, ecdf.f.size - 1)])

    return theory


# --- independent Cramer-von Mises fitter ---

def _shadowing_cdf(family: str, a: float, b: float, y: np.ndarray) -> np.ndarray:
    """Shadowing CDFs in natural parameters, transcribed from their textbook
    forms: lognormal (mu, sigma) of ln y, gamma (shape, mean), inverse
    Gaussian (mean, shape), inverse gamma (shape, mean)."""
    if family == "lognormal":
        return sc.ndtr((np.log(y) - a) / b)
    if family == "gamma":
        return sc.gammainc(a, a * y / b)
    if family == "inverse_gaussian":
        return scipy.stats.invgauss.cdf(y, a / b, scale=b)
    return sc.gammaincc(a, b * (a - 1.0) / y)


# search coordinates -> natural parameters
_FIT_NATURAL = {
    "lognormal": lambda c: (c[0], math.exp(c[1])),
    "gamma": lambda c: (math.exp(c[0]), math.exp(c[1])),
    "inverse_gaussian": lambda c: (math.exp(c[0]), math.exp(c[1])),
    "inverse_gamma": lambda c: (1.0 + math.exp(c[0]), math.exp(c[1])),
}


class CvmFitOracle:
    """Dense Nelder-Mead minimizer of the CvM gap between the eCDF of the
    log-domain samples `t` and a shadowing family, over the data support
    padded by `pad` log units. The integral is taken with 6-point
    Gauss-Legendre panels per eCDF step and 96-point panels on each pad."""

    def __init__(self, t, pad: float = 5.0):
        t_u, counts = np.unique(np.asarray(t, dtype=float), return_counts=True)
        f = np.cumsum(counts) / counts.sum()
        gx, gw = np.polynomial.legendre.leggauss(6)
        mid, half = 0.5 * (t_u[:-1] + t_u[1:]), 0.5 * np.diff(t_u)
        nodes = [(mid[:, None] + half[:, None] * gx).ravel()]
        weights = [(half[:, None] * gw).ravel()]
        levels = [np.repeat(f[:-1], gx.size)]
        px, pw = np.polynomial.legendre.leggauss(96)
        for a, b, level in ((t_u[0] - pad, t_u[0], 0.0), (t_u[-1], t_u[-1] + pad, f[-1])):
            nodes.append(0.5 * (a + b) + 0.5 * (b - a) * px)
            weights.append(0.5 * (b - a) * pw)
            levels.append(np.full(px.size, level))
        self.y = np.exp(np.concatenate(nodes))
        self.weights = np.concatenate(weights)
        self.levels = np.concatenate(levels)
        self.t, self.f = t_u, f

    def cvm(self, family: str, a: float, b: float) -> float:
        gap = self.levels - _shadowing_cdf(family, a, b, self.y)
        return float(np.sum(self.weights * gap * gap))

    def _center(self, family: str) -> np.ndarray:
        w = np.diff(np.concatenate(([0.0], self.f)))
        mean_t = float(np.sum(w * self.t))
        var_t = float(np.sum(w * (self.t - mean_t) ** 2))
        mean_y = float(np.sum(w * np.exp(self.t)))
        var_y = float(np.sum(w * (np.exp(self.t) - mean_y) ** 2))
        return np.array({
            "lognormal": (mean_t, 0.5 * math.log(var_t)),
            "gamma": (-math.log(var_t), math.log(mean_y)),
            "inverse_gaussian": (math.log(mean_y), math.log(mean_y**3 / var_y)),
            "inverse_gamma": (-math.log(var_t), math.log(mean_y)),
        }[family])

    def fit(self, family: str) -> tuple[tuple[float, float], float]:
        """(natural parameters, CvM) from a 9 x 9 lattice over +-3 around a
        moment center, Nelder-Mead from the 4 best points and a polish."""
        def objective(c):
            try:
                return self.cvm(family, *_FIT_NATURAL[family](c))
            except (OverflowError, ValueError):
                return math.inf

        c0 = self._center(family)
        offsets = np.linspace(-3.0, 3.0, 9)
        lattice = sorted((c0 + (dx, dy) for dx in offsets for dy in offsets), key=objective)
        opts = {"xatol": 1e-9, "fatol": 1e-18, "maxfev": 1500}
        best = min((minimize(objective, x0, method="Nelder-Mead", options=opts)
                    for x0 in lattice[:4]), key=lambda r: r.fun)
        best = minimize(objective, best.x, method="Nelder-Mead", options=opts)
        return _FIT_NATURAL[family](best.x), float(best.fun)

    def fit_integer_m(self, omega_hat: float, m_max: int = 12) -> tuple[tuple[float, float], float]:
        """Best inverse gamma with integer shape 2..m_max: for each shape a
        scan over ln omega within +-4 of ln omega_hat, then a Brent polish."""
        best = None
        for m in range(2, m_max + 1):
            def objective(c, m=m):
                return self.cvm("inverse_gamma", float(m), math.exp(c))

            scan = np.linspace(math.log(omega_hat) - 4.0, math.log(omega_hat) + 4.0, 161)
            c_best = scan[int(np.argmin([objective(c) for c in scan]))]
            res = minimize_scalar(objective, bounds=(c_best - 0.06, c_best + 0.06),
                                  method="bounded", options={"xatol": 1e-11})
            if best is None or res.fun < best[1]:
                best = ((float(m), math.exp(res.x)), float(res.fun))
        return best


def direct_cvm_objective(quad, make, bounds, scale):
    """The residuals sqrt(w) (Fhat - F) with `make(coords).cdf` at every node
    of `quad` (a fitting quadrature: nodes, weights, levels), and their
    Jacobian: exact along the `scale` direction, where dF/dd = -y f(y), and
    one forward difference along the other coordinate, stepped back into the
    box at an upper bound. Drop-in for the fit search's `_objective`."""
    root_w = np.sqrt(quad.weights)
    y = np.exp(np.clip(quad.nodes, -745.0, 709.0))
    hi = np.transpose(bounds)[1]
    basis = np.array(scale, dtype=float)[:, None]
    if basis.size == 2:
        axis = int(scale[0] != 0)
        basis = np.column_stack([basis, np.eye(2)[axis]])
    to_coords = np.linalg.inv(basis)

    def residuals(coords):
        return root_w * (quad.levels - make(coords).cdf(y))

    def jacobian(coords, r):
        cols = [root_w * y * make(coords).pdf(y)]
        if basis.shape[1] == 2:
            h = math.sqrt(np.finfo(float).eps) * max(1.0, abs(coords[axis]))
            stepped = np.array(coords, dtype=float)
            stepped[axis] += h if coords[axis] + h <= hi[axis] else -h
            cols.append((residuals(stepped) - r) / (stepped[axis] - coords[axis]))
        return np.column_stack(cols) @ to_coords

    return residuals, jacobian


def hermite_map_compare(ecdf, theory, density, wide_cell, support_pad=0.0):
    """(sup-distance, CvM) of `montecarlo.compare`'s density path, with the
    Gauss nodes' cells found by `fitting._HermiteMap`'s search over the knots
    ln t rather than from the eCDF's layout. The nodes of cells wider than
    `wide_cell` in ln u, and of the pads, take `theory` directly; the map
    interpolates the others from F and u f(u) at t."""
    from igcomposite import fitting

    quad = fitting._CvmQuadrature(ecdf, support_pad)
    t = ecdf.t
    knots = np.log(t)
    direct = np.ones(quad.nodes.size, dtype=bool)
    direct[:quad.steps] = np.repeat(np.diff(knots) > wide_cell, quad.cells.shape[1])
    # the map interpolates its leading nodes and takes the rest as given
    order = np.concatenate((np.flatnonzero(~direct), np.flatnonzero(direct)))
    interpolated = int(np.count_nonzero(~direct))
    reduced = fitting._HermiteMap(knots, np.log(quad.nodes[order]), interpolated,
                                  np.ones(quad.nodes.size))
    values = np.asarray(theory(np.concatenate((t, quad.nodes[direct]))), dtype=float)
    f_t = values[:t.size]
    f_nodes = np.empty(quad.nodes.size)
    f_nodes[order] = reduced.weighted(f_t, t * density(t), values[t.size:])
    prev = np.concatenate(([0.0], ecdf.f[:-1]))
    sup = float(np.max(np.maximum(np.abs(ecdf.f - f_t), np.abs(prev - f_t))))
    return sup, quad.evaluate(f_nodes)
