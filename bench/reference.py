"""Reference values for every case in the benchmark catalogue.

Run from the repository root (takes several minutes):

    PYTHONPATH=src python3 bench/reference.py

It writes bench/reference.json, which the benchmark loads to check every
op's output outside the timed region. No composite route of the library is
used here:

* curves and outage values average the baseline power PDF (the
  hand-transcribed oracles of tests/oracles.py) against the inverse-gamma
  law on fixed Gauss-Legendre panels in ln y; QUADPACK spot checks guard
  that rule;
* the outage asymptote uses the exact small-x limit of each PDF;
* validate cases draw their samples with the library's seeded sampler
  (the draws are the input, the CDF is under test) and compute the
  sup-distance and CvM statistics against the reference CDF;
* fits come from a dense multistart search on an independently written
  Cramer-von Mises objective.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import numpy as np
import scipy.special as sc
import scipy.stats
from scipy.integrate import cumulative_simpson, quad
from scipy.optimize import minimize, minimize_scalar

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
import catalog  # noqa: E402
import oracles  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Fixed Gauss-Legendre panels over s = ln y in [-46, 7]: the integrands below
# vary on scales >= 1/sqrt(m) >= 0.15 in s, so 16 nodes per 0.5-wide panel
# resolve them far below the 1e-6 check bound.
_GX, _GW = np.polynomial.legendre.leggauss(16)
_EDGES = np.arange(-46.0, 7.0, 0.5)
_S = (_EDGES[:, None] + 0.25 * (_GX + 1.0)[None, :]).ravel()
_WS = np.tile(0.25 * _GW, _EDGES.size)
_Y = np.exp(_S)


def _twdp_pdf(x, k, d, n_phase=256):
    # phase average of the Rician-like kernel by the periodic trapezoid rule
    # (geometric convergence for delta < 1); checked against oracles.pdf_twdp
    c = np.cos(2.0 * math.pi * np.arange(n_phase) / n_phase)[None, :]
    x = np.asarray(x, dtype=float)[:, None]
    z = 2.0 * np.sqrt(k * (1.0 + k) * x * (1.0 + d * c))
    ln_t = -(1.0 + k) * x - k - k * d * c + z + np.log(sc.i0e(z))
    return (1.0 + k) * np.exp(ln_t).mean(axis=1)


def baseline_pdf(fading: dict):
    f = dict(fading)
    kind = f.pop("type")
    return {
        "rayleigh": lambda x: oracles.pdf_rayleigh(x),
        "rician": lambda x: oracles.pdf_rician(x, f["k_r"]),
        "nakagami": lambda x: oracles.pdf_nakagami(x, f["m_f"]),
        "hoyt": lambda x: oracles.pdf_hoyt(x, f["q"]),
        "kappa-mu": lambda x: oracles.pdf_kappa_mu(x, f["kappa"], f["mu"]),
        "eta-mu": lambda x: oracles.pdf_eta_mu(x, f["eta"], f["mu"]),
        "kappa-mu-shadowed": lambda x: oracles.pdf_kappa_mu_shadowed(
            x, f["kappa"], f["mu"], f["m_f"]),
        "twdp": lambda x: _twdp_pdf(x, f["k_r"], f["delta"]),
    }[kind]


@functools.lru_cache(maxsize=None)
def _pdf_at_nodes(fading_key: str) -> np.ndarray:
    return np.asarray(baseline_pdf(json.loads(fading_key))(_Y), dtype=float)


def _nodes_pdf(fading: dict) -> np.ndarray:
    return _pdf_at_nodes(json.dumps(fading, sort_keys=True))


def ref_cdf(m: float, fading: dict, u) -> np.ndarray:
    """F_W(u) = E_X[Q(m, (m-1) X / u)] for unit mean power."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = _WS * _nodes_pdf(fading) * _Y
    out = np.empty(u.size)
    for i in range(0, u.size, 256):
        uu = u[i:i + 256, None]
        out[i:i + 256] = sc.gammaincc(m, (m - 1.0) * _Y[None, :] / uu) @ g
    return out


def ref_pdf(m: float, fading: dict, u) -> np.ndarray:
    """f_W(u) = integral of f_X(y) f_xi(u / y) dy / y over y."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = _WS * _nodes_pdf(fading)
    lnc = m * math.log(m - 1.0) - sc.gammaln(m)
    out = np.empty(u.size)
    for i in range(0, u.size, 256):
        z = u[i:i + 256, None] / _Y[None, :]
        out[i:i + 256] = np.exp(lnc - (m + 1.0) * np.log(z) - (m - 1.0) / z) @ g
    return out


def quad_cdf(m: float, fading: dict, u: float) -> float:
    """QUADPACK version of ref_cdf, for spot checks."""
    f = baseline_pdf(fading)

    def integrand(s):
        y = math.exp(s)
        return float(sc.gammaincc(m, (m - 1.0) * y / u)) * float(f(np.array([y]))[0]) * y

    val, _ = quad(integrand, -46.0, 7.0, points=[math.log(u)], limit=400,
                  epsabs=1e-14, epsrel=1e-12)
    return val


def tail_law(fading: dict) -> tuple[float, float]:
    """(alpha, beta) with f_X(x) ~ alpha x^beta as x -> 0."""
    beta = {
        "nakagami": lambda f: f["m_f"] - 1.0,
        "kappa-mu": lambda f: f["mu"] - 1.0,
        "eta-mu": lambda f: 2.0 * f["mu"] - 1.0,
        "kappa-mu-shadowed": lambda f: f["mu"] - 1.0,
    }.get(fading["type"], lambda f: 0.0)(fading)
    x0 = 1e-12
    return float(baseline_pdf(fading)(np.array([x0]))[0]) / x0**beta, beta


def ref_asymptote(m: float, fading: dict, gamma) -> np.ndarray:
    alpha, beta = tail_law(fading)
    scale = math.exp(sc.gammaln(beta + m + 1.0) - sc.gammaln(m) - (beta + 1.0) * math.log(m - 1.0))
    return scale * alpha / (beta + 1.0) * np.asarray(gamma) ** (beta + 1.0)


# --- validate -------------------------------------------------------------

def ref_validate(params: dict) -> dict:
    """The statistics `simulate --validate` prints, against the reference CDF."""
    from igcomposite import cli, montecarlo

    m, fading, count = params["m"], params["fading"], params["count"]
    model = cli.parse_model_config(catalog.model_config(m, fading))
    samples = montecarlo.sample_composite(model, count, params["seed"])
    uniq, counts = np.unique(samples, return_counts=True)
    f = np.cumsum(counts) / samples.size
    if uniq.size > 4096:
        idx = np.unique(np.linspace(0, uniq.size - 1, 4096).astype(int))
        uniq, f = uniq[idx], f[idx]
    t = uniq
    gaps = np.diff(t, prepend=t[0] - (t[-1] - t[0] + 1.0))
    nudged = np.maximum(t - 1e-9 * gaps, t * (1.0 - 1e-9))
    prev = np.concatenate(([0.0], f[:-1]))
    sup = max(np.max(np.abs(f - ref_cdf(m, fading, t))),
              np.max(np.abs(prev - ref_cdf(m, fading, nudged))))
    sup_bound = float(sup) + math.ceil(count / 4096) / count
    # CvM: 4-point Gauss panels on each eCDF step, no padding
    gx, gw = np.polynomial.legendre.leggauss(4)
    mid, half = 0.5 * (t[:-1] + t[1:]), 0.5 * (t[1:] - t[:-1])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    resid = np.repeat(f[:-1], 4) - ref_cdf(m, fading, nodes)
    guard = 0.003 * math.sqrt(1e6 / count)
    return {
        "sup_distance": sup_bound,
        "cvm": float(weights @ (resid * resid)),
        # |cvm - cvm_ref| when the CDF under test is within 1e-6 of the reference
        "cvm_tol": float(2e-6 * (weights @ np.abs(resid)) + 1e-12 * (t[-1] - t[0])),
        "guard": guard,
        "passes": sup_bound < guard,
    }


# --- fit ------------------------------------------------------------------

def _family_cdf(family: str, theta, t: np.ndarray) -> np.ndarray:
    y = np.exp(np.clip(t, -745.0, 709.0))
    a, b = theta
    if family == "lognormal":
        return sc.ndtr((t - a) / b)
    if family == "gamma":
        return sc.gammainc(a, a * y / b)
    if family == "inverse_gaussian":
        return scipy.stats.invgauss.cdf(y, a / b, scale=b)
    return sc.gammaincc(a, b * (a - 1.0) / y)


_NATURAL = {  # fit coordinates -> (first, second) natural parameter
    "lognormal": lambda c: (c[0], math.exp(c[1])),
    "gamma": lambda c: (math.exp(c[0]), math.exp(c[1])),
    "inverse_gaussian": lambda c: (math.exp(c[0]), math.exp(c[1])),
    "inverse_gamma": lambda c: (1.0 + math.exp(c[0]), math.exp(c[1])),
}
_NAMES = {
    "lognormal": ("mu", "sigma"),
    "gamma": ("k", "omega"),
    "inverse_gaussian": ("mu_i", "lam"),
    "inverse_gamma": ("m", "omega_i"),
}


class _Cvm:
    """Integrated squared eCDF-vs-theory gap over the data support padded by
    5 log units: 4-point Gauss panels per step, 64-point on each pad."""

    def __init__(self, t_data: np.ndarray, pad: float = 5.0):
        t, counts = np.unique(t_data, return_counts=True)
        f = np.cumsum(counts) / t_data.size
        gx, gw = np.polynomial.legendre.leggauss(2 if t.size - 1 > 4096 else 4)
        mid, half = 0.5 * (t[:-1] + t[1:]), 0.5 * (t[1:] - t[:-1])
        nodes = [(mid[:, None] + half[:, None] * gx[None, :]).ravel()]
        weights = [(half[:, None] * gw[None, :]).ravel()]
        levels = [np.repeat(f[:-1], gx.size)]
        px, pw = np.polynomial.legendre.leggauss(64)
        for a, b, level in ((t[0] - pad, t[0], 0.0), (t[-1], t[-1] + pad, f[-1])):
            nodes.append(0.5 * (a + b) + 0.5 * (b - a) * px)
            weights.append(0.5 * (b - a) * pw)
            levels.append(np.full(px.size, level))
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.levels = np.concatenate(levels)
        self.t, self.f = t, f

    def __call__(self, family: str, theta) -> float:
        resid = self.levels - _family_cdf(family, theta, self.nodes)
        return float(self.weights @ (resid * resid))


def _center(family: str, cvm: _Cvm) -> tuple[float, float]:
    w = np.diff(np.concatenate(([0.0], cvm.f)))
    mean_t = float(w @ cvm.t)
    var_t = float(w @ (cvm.t - mean_t) ** 2)
    mean_y = float(w @ np.exp(cvm.t))
    var_y = float(w @ (np.exp(cvm.t) - mean_y) ** 2)
    if family == "lognormal":
        return mean_t, 0.5 * math.log(var_t)
    if family == "gamma":
        return -math.log(var_t), math.log(mean_y)
    if family == "inverse_gaussian":
        return math.log(mean_y), math.log(mean_y**3 / var_y)
    return -math.log(var_t), math.log(mean_y)


def _dense_fit(family: str, cvm: _Cvm):
    """Lattice of 13 x 13 starts over +-3 around a moment center; Nelder-Mead
    from the 6 best, then a polish from the winner."""
    def objective(c):
        try:
            return cvm(family, _NATURAL[family](c))
        except (OverflowError, ValueError):
            return math.inf

    c0 = np.array(_center(family, cvm))
    offsets = np.linspace(-3.0, 3.0, 13)
    lattice = [c0 + (dx, dy) for dx in offsets for dy in offsets]
    scored = sorted(lattice, key=objective)[:6]
    opts = {"xatol": 1e-10, "fatol": 1e-18, "maxiter": 4000, "maxfev": 8000}
    best = min((minimize(objective, x0, method="Nelder-Mead", options=opts) for x0 in scored),
               key=lambda r: r.fun)
    best = minimize(objective, best.x, method="Nelder-Mead", options=opts)
    return _NATURAL[family](best.x), float(best.fun)


def _integer_m_fit(cvm: _Cvm, m_hat: float, omega_hat: float):
    """Best integer shape: every m from 2 to max(12, 3 m_hat), each with a
    dense scan over ln omega and a Brent polish."""
    best = None
    c_hat = math.log(omega_hat)
    for m in range(2, max(12, 3 * math.ceil(m_hat)) + 1):
        def obj(c, m=m):
            return cvm("inverse_gamma", (float(m), math.exp(c)))

        scan = np.linspace(c_hat - 4.0, c_hat + 4.0, 321)
        c_best = scan[int(np.argmin([obj(c) for c in scan]))]
        res = minimize_scalar(obj, bounds=(c_best - 0.03, c_best + 0.03), method="bounded",
                              options={"xatol": 1e-12})
        if best is None or res.fun < best[2]:
            best = (float(m), math.exp(res.x), float(res.fun))
    return best


def ref_fit_dataset(spec: dict) -> dict:
    values = catalog.dataset_values(spec)
    t = values if spec["scale"] == "ln" else np.log(values)
    cvm = _Cvm(t)
    out = {}
    for family, names in _NAMES.items():
        theta, value = _dense_fit(family, cvm)
        out[family] = {"params": dict(zip(names, theta)), "cvm": value}
    ig = out["inverse_gamma"]["params"]
    m, omega, value = _integer_m_fit(cvm, ig["m"], ig["omega_i"])
    out["inverse_gamma_integer"] = {"params": {"m": m, "omega_i": omega}, "cvm": value}
    return out


# --- driver ---------------------------------------------------------------

def _self_check() -> None:
    for fading in (v for fs in catalog.FADING.values() for v in fs):
        if fading["type"] == "twdp":
            x = np.array([1e-6, 0.05, 0.7, 3.0])
            want = [oracles.pdf_twdp(xi, fading["k_r"], fading["delta"]) for xi in x]
            assert np.allclose(_twdp_pdf(x, fading["k_r"], fading["delta"]), want,
                               rtol=1e-9, atol=0), fading
        for m in (1.5, 41.0):
            for u in (1e-6, 1e-4, 0.3, 20.0, 3e3):
                a, b = ref_cdf(m, fading, [u])[0], quad_cdf(m, fading, u)
                assert abs(a - b) < 1e-10, (fading, m, u, a, b)
        # the PDF rule must integrate to the CDF rule
        u = np.linspace(1e-3, 6.0, 6001)
        cum = ref_cdf(2.5, fading, [1e-3])[0] + cumulative_simpson(
            ref_pdf(2.5, fading, u), x=u, initial=0.0)
        assert np.max(np.abs(cum - ref_cdf(2.5, fading, u))) < 1e-6, fading


def _fmt(x: float) -> float:
    return float(f"{x:.14g}")


def build() -> dict:
    cases = {}
    fit_refs = {}
    for case in catalog.all_cases():
        p = case.params
        if case.command == "eval":
            x = np.array(catalog.grid_points(p["grid"]))
            if p["quantity"] == "pdf":
                value = ref_pdf(p["m"], p["fading"], x)
            else:
                value = ref_cdf(p["m"], p["fading"], x * x if p["quantity"] == "amp-cdf" else x)
            ref = {"value": [_fmt(v) for v in value]}
        elif case.command == "outage":
            db = np.array(catalog.grid_points(p["grid_db"]))
            ratio = 10.0 ** (db / 10.0)
            ref = {"exact": [_fmt(v) for v in ref_cdf(p["m"], p["fading"], ratio)],
                   "asymptote": [_fmt(v) for v in ref_asymptote(p["m"], p["fading"], ratio)]}
        elif case.command == "simulate":
            ref = ref_validate(p)
            # a correct library passes every validate case
            assert ref["passes"], (case.id, ref)
        else:
            name = catalog.dataset_name(p["dataset"])
            if name not in fit_refs:
                fit_refs[name] = ref_fit_dataset(p["dataset"])
                print(f"fit reference {name} done", file=sys.stderr, flush=True)
            tags = [p["family"]] + (["inverse_gamma_integer"] if p["integer_m"] else [])
            ref = {tag: fit_refs[name][tag] for tag in tags}
        cases[case.id] = ref
    return cases


def main() -> int:
    _self_check()
    print("reference rules agree with QUADPACK and the TWDP oracle", file=sys.stderr)
    cases = build()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"cases": cases}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(cases)} references to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
