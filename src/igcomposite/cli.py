"""Command-line front end: evaluate curves to CSV, fit measurement files,
run seeded Monte Carlo validation, and query baseline generalized MGFs.

Exit codes: 0 success; 2 invalid config or malformed input CSV; 3 numeric
non-convergence; 4 all requested fits failed; 5 Monte Carlo validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import composite, fading, fitting, montecarlo
from .numerics import ConvergenceError, Tolerance, integrate_semi_infinite

_FADING_TYPES = {
    "rayleigh": fading.Rayleigh,
    "rician": fading.Rician,
    "nakagami": fading.NakagamiM,
    "hoyt": fading.Hoyt,
    "kappa-mu": fading.KappaMu,
    "eta-mu": fading.EtaMu,
    "kappa-mu-shadowed": fading.KappaMuShadowed,
    "twdp": fading.TWDP,
}

_STRATEGIES = {s.value: s for s in composite.Strategy}


class ConfigError(ValueError):
    pass


def _load_document(text: str) -> dict:
    """Accept an inline JSON document or a path to one."""
    candidate = text.strip()
    if not candidate.startswith("{"):
        if not os.path.exists(candidate):
            raise ConfigError(f"config: no such file {candidate!r}")
        with open(candidate) as fh:
            candidate = fh.read()
    try:
        doc = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: top-level document must be an object")
    return doc


def _parse_fading(doc: dict) -> fading.FadingModel:
    if not isinstance(doc, dict):
        raise ConfigError("fading: must be an object")
    if "type" not in doc:
        raise ConfigError("fading: missing required key 'type'")
    kind = doc["type"]
    if kind not in _FADING_TYPES:
        raise ConfigError(
            f"fading.type: unknown type {kind!r}; choose from {sorted(_FADING_TYPES)}"
        )
    cls = _FADING_TYPES[kind]
    # the model's fields are its keys; those without a default are required
    fields = dataclasses.fields(cls)
    allowed = {"type"} | {f.name for f in fields}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"fading: unknown key {key!r} for type {kind!r}")
    kwargs = {}
    for f in fields:
        if f.name in doc:
            kwargs[f.name] = _as_number(doc[f.name], f"fading.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"fading.{f.name}: required for type {kind!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"fading: {exc}") from exc


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond double range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return number


def parse_model_config(text: str) -> composite.CompositeModel:
    doc = _load_document(text)
    for key in doc:
        if key not in ("shadowing", "fading", "mean_power"):
            raise ConfigError(f"config: unknown key {key!r}")
    if "shadowing" not in doc or "fading" not in doc:
        raise ConfigError("config: requires 'shadowing' and 'fading' sections")
    shadow = doc["shadowing"]
    if not isinstance(shadow, dict) or set(shadow) != {"m"}:
        raise ConfigError("shadowing: must be an object with the single key 'm'")
    m = _as_number(shadow["m"], "shadowing.m")
    mean_power = _as_number(doc.get("mean_power", 1.0), "mean_power")
    baseline = _parse_fading(doc["fading"])
    try:
        return composite.CompositeModel(m=m, w_bar=mean_power, baseline=baseline)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, step, stop = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid: expected start:step:stop, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, step, stop))):
        raise ConfigError(f"grid: start, step and stop must be finite, got {spec!r}")
    if step <= 0:
        raise ConfigError(f"grid: step must be > 0, got {step}")
    if stop < start:
        raise ConfigError(f"grid: stop {stop} precedes start {start}")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_rows(path: str | None, header: list[str], rows) -> None:
    if path is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)
        raise


def _cmd_eval(args) -> int:
    model = parse_model_config(args.config)
    grid = _parse_grid(args.grid)
    strategy = _STRATEGIES[args.strategy]
    quantity = {
        "pdf": composite.composite_pdf,
        "cdf": composite.composite_cdf,
        "amp-pdf": composite.amplitude_pdf,
        "amp-cdf": composite.amplitude_cdf,
    }[args.quantity]
    values = np.asarray(quantity(model, grid, strategy))
    rows = [(_fmt(u), _fmt(v)) for u, v in zip(grid, values)]
    _write_rows(args.out, ["u", "value"], rows)
    return 0


def _cmd_outage(args) -> int:
    model = parse_model_config(args.config)
    grid_db = _parse_grid(args.grid_db)
    strategy = _STRATEGIES[args.strategy]
    ratios = 10.0 ** (grid_db / 10.0)
    exact = composite.outage(model, ratios, 1.0, strategy)
    if args.asymptotic:
        asym = composite.outage_asymptotic(model, ratios, 1.0)
        rows = [
            (_fmt(db), _fmt(e), _fmt(a)) for db, e, a in zip(grid_db, exact, asym)
        ]
        _write_rows(args.out, ["gamma_th_db", "exact", "asymptote"], rows)
    else:
        rows = [(_fmt(db), _fmt(e)) for db, e in zip(grid_db, exact)]
        _write_rows(args.out, ["gamma_th_db", "exact"], rows)
    return 0


def _read_fit_csv(path: str) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Returns ("samples", values, None) or ("ecdf", t, cdf)."""
    if not os.path.exists(path):
        raise ConfigError(f"data: no such file {path!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("data: empty file") from None
        header = [h.strip().lower() for h in header]
        if header == ["value"]:
            kind, ncol = "samples", 1
        elif header == ["t", "cdf"]:
            kind, ncol = "ecdf", 2
        else:
            raise ConfigError(
                f"data: line 1: expected header 'value' or 't,cdf', got {header}"
            )
        cols: list[list[float]] = [[] for _ in range(ncol)]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncol:
                raise ConfigError(f"data: line {lineno}: expected {ncol} column(s)")
            for j, tok in enumerate(row):
                try:
                    v = float(tok)
                except ValueError:
                    raise ConfigError(
                        f"data: line {lineno}: not a number: {tok!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ConfigError(f"data: line {lineno}: not a finite number: {tok!r}")
                cols[j].append(v)
    if not cols[0]:
        raise ConfigError("data: no rows")
    if kind == "samples":
        return kind, np.asarray(cols[0]), None
    t = np.asarray(cols[0])
    f = np.asarray(cols[1])
    if np.any(np.diff(t) <= 0):
        raise ConfigError("data: t column must be strictly increasing")
    if np.any(np.diff(f) < 0) or np.any(f < 0) or np.any(f > 1):
        raise ConfigError("data: cdf column must be nondecreasing within [0, 1]")
    return kind, t, f


def _to_log_domain(values: np.ndarray, scale: str, direction: str) -> np.ndarray:
    if scale == "db":
        return np.asarray(fitting.db_to_natural_log(values, direction))
    if scale == "ln":
        return values
    if scale == "linear":
        if np.any(values <= 0):
            raise ConfigError("data: linear-scale values must be positive")
        return np.log(values)
    raise ConfigError(f"scale: unknown scale {scale!r}")


def _cmd_fit(args) -> int:
    kind, a, b = _read_fit_csv(args.data)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for fam in families:
        if fam not in fitting.FAMILIES:
            raise ConfigError(
                f"families: unknown family {fam!r}; choose from {sorted(fitting.FAMILIES)}"
            )
    if kind == "samples":
        ecdf = montecarlo.empirical_cdf(_to_log_domain(a, args.scale, args.db_direction))
    else:
        t = _to_log_domain(a, args.scale, args.db_direction)
        ecdf = montecarlo.EmpiricalCdf(t, b, sample_count=len(t))
    try:
        results = fitting.compare_families(
            ecdf,
            families,
            integer_m=args.integer_m,
            multistart=args.multistart,
            support_pad=args.pad,
        )
    except RuntimeError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 4
    rows = []
    for r in results:
        params = ";".join(
            f"{k}={_fmt(v)}" for k, v in vars(r.params).items()
        )
        rows.append((r.family, params, _fmt(r.cvm), str(r.converged), str(r.iterations)))
    _write_rows(args.out, ["family", "params", "cvm", "converged", "iterations"], rows)
    return 0


def _cmd_simulate(args) -> int:
    model = parse_model_config(args.config)
    if args.count < 1:
        raise ConfigError(f"count: must be >= 1, got {args.count}")
    if args.validate and args.count < 2:
        raise ConfigError(f"count: --validate needs at least 2 samples, got {args.count}")
    samples = montecarlo.sample_composite(model, args.count, args.seed)
    if args.emit_samples:
        _write_rows(args.emit_samples, ["value"], [(_fmt(v),) for v in samples])
    if args.validate:
        ecdf = montecarlo.empirical_cdf(samples).thin(4096)
        thin_margin = math.ceil(args.count / 4096) / args.count
        result = montecarlo.compare(
            ecdf, lambda t: composite.composite_cdf(model, t)
        )
        guard = 0.003 * math.sqrt(1e6 / args.count)
        sup_bound = result.sup_distance + thin_margin
        print(f"sup_distance {_fmt(sup_bound)}")
        print(f"cvm {_fmt(result.cvm_value)}")
        print(f"guard {_fmt(guard)}")
        if not sup_bound < guard:
            print("validation FAILED", file=sys.stderr)
            return 5
        print("validation passed")
    return 0


def _cmd_gmgf(args) -> int:
    doc = _load_document(args.fading)
    model = _parse_fading(doc)
    if args.p < 0:
        raise ConfigError(f"p: must be >= 0, got {args.p}")
    if args.s > 0:
        raise ConfigError(f"s: must be <= 0, got {args.s}")
    value = fading.gmgf(model, args.p, args.s)
    print(f"gmgf {_fmt(value)}")
    if args.check:
        def integrand(x: np.ndarray) -> np.ndarray:
            # in log space: x**p overflows where the density has long underflowed
            with np.errstate(divide="ignore"):
                return np.exp(args.p * np.log(x) + args.s * x + np.log(fading.pdf(model, x)))

        # relative only: a GMGF can be far below any absolute floor
        numeric, _ = integrate_semi_infinite(integrand, Tolerance(abs_tol=0.0))
        rel = (abs(value - numeric) / abs(numeric) if numeric
               else 0.0 if value == 0 else math.inf)
        print(f"numeric {_fmt(numeric)}")
        print(f"rel_diff {_fmt(rel)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igcomposite",
        description="Inverse-gamma composite fading models: curves, fits, and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate composite pdf/cdf curves to CSV")
    p_eval.add_argument("--config", required=True, help="model config (inline JSON or path)")
    p_eval.add_argument("--quantity", required=True, choices=["pdf", "cdf", "amp-pdf", "amp-cdf"])
    p_eval.add_argument("--grid", required=True, help="start:step:stop")
    p_eval.add_argument("--strategy", default="auto", choices=sorted(_STRATEGIES))
    p_eval.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
    p_eval.set_defaults(func=_cmd_eval)

    p_out = sub.add_parser("outage", help="outage probability vs threshold in dB")
    p_out.add_argument("--config", required=True)
    p_out.add_argument("--grid-db", required=True, help="start:step:stop in dB relative to mean SNR")
    p_out.add_argument("--asymptotic", action="store_true", help="add the power-law asymptote column")
    p_out.add_argument("--strategy", default="auto", choices=sorted(_STRATEGIES))
    p_out.add_argument("--out", default=None)
    p_out.set_defaults(func=_cmd_outage)

    p_fit = sub.add_parser("fit", help="fit shadowing families to a CSV of samples or eCDF pairs")
    p_fit.add_argument("--data", required=True, help="CSV with header 'value' or 't,cdf'")
    p_fit.add_argument("--scale", required=True, choices=["db", "ln", "linear"])
    p_fit.add_argument("--db-direction", default="paper", choices=["paper", "conventional"])
    p_fit.add_argument("--families", default="lognormal,gamma,inverse_gaussian,inverse_gamma")
    p_fit.add_argument("--integer-m", action="store_true")
    p_fit.add_argument("--multistart", type=int, default=8,
                       help="starts per family, from a 13-point lattice (1 to 13)")
    p_fit.add_argument("--pad", type=float, default=5.0, help="support padding in log units")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="draw seeded composite samples; optionally validate")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--count", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--emit-samples", default=None, help="write samples to this CSV")
    p_sim.add_argument("--validate", action="store_true",
                       help="compare the eCDF against the analytic CDF")
    p_sim.set_defaults(func=_cmd_simulate)

    p_gmgf = sub.add_parser("gmgf", help="print a baseline generalized MGF value")
    p_gmgf.add_argument("--fading", required=True, help="fading config (inline JSON or path)")
    p_gmgf.add_argument("--p", type=float, required=True)
    p_gmgf.add_argument("--s", type=float, required=True)
    p_gmgf.add_argument("--check", action="store_true",
                        help="cross-check against numeric integration")
    p_gmgf.set_defaults(func=_cmd_gmgf)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
