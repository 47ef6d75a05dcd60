"""Output checks: compare one op's result with its committed reference.

`check` returns the list of reasons the op failed, empty when it passed.
Bounds: curve and outage values 1e-6 absolute (the acceptance-suite bound);
the outage asymptote 1e-2 relative against the exact small-x law (the
acceptance suite holds the asymptote to 2%, and the library's numeric tail
fit is known to be off by up to ~3e-3); fit parameters 1e-3 relative and
CvM values 1e-6 relative; validate statistics 1e-6 absolute on the
sup-distance and, on the CvM value, the change a 1e-6 CDF error can cause.
"""

from __future__ import annotations

import csv
import io
import math

import catalog

CURVE_ABS = 1e-6
ASYMPTOTE_REL = 1e-2
FIT_PARAM_REL = 1e-3
FIT_CVM_REL = 1e-6
UNCHECKED = ("no reference", "unparsable output")  # reasons that mean no check ran


def _off(value: float, ref: float, tol: float) -> bool:
    return not abs(value - ref) <= tol  # NaN counts as off


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _column_check(label: str, got: list[float], want: list[float], tol_of) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if _off(g, w, tol_of(w))]
    if not bad:
        return []
    i = max(bad, key=lambda j: abs(got[j] - want[j]) if math.isfinite(got[j]) else math.inf)
    return [f"{label}: {len(bad)} value(s) miss the reference, worst row {i}: "
            f"{got[i]:.12g} vs {want[i]:.12g}"]


def _check_eval(case: catalog.Case, ref: dict, out: str) -> list[str]:
    rows = _rows(out)
    if not rows or rows[0] != ["u", "value"]:
        return ["eval: bad CSV header"]
    x = [float(r[0]) for r in rows[1:]]
    grid = catalog.grid_points(case.params["grid"])
    reasons = _column_check("abscissa", x, grid, lambda w: 1e-9 * max(1.0, abs(w)))
    return reasons + _column_check("value", [float(r[1]) for r in rows[1:]], ref["value"],
                                   lambda w: CURVE_ABS)


def _check_outage(case: catalog.Case, ref: dict, out: str) -> list[str]:
    rows = _rows(out)
    if not rows or rows[0] != ["gamma_th_db", "exact", "asymptote"]:
        return ["outage: bad CSV header"]
    body = rows[1:]
    return (
        _column_check("exact", [float(r[1]) for r in body], ref["exact"], lambda w: CURVE_ABS)
        + _column_check("asymptote", [float(r[2]) for r in body], ref["asymptote"],
                        lambda w: ASYMPTOTE_REL * abs(w))
    )


def _check_simulate(case: catalog.Case, ref: dict, stdout: str) -> list[str]:
    printed = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("sup_distance", "cvm", "guard"):
            printed[key] = float(value)
    if set(printed) != {"sup_distance", "cvm", "guard"}:
        return ["simulate: missing statistics in output"]
    reasons = []
    if _off(printed["sup_distance"], ref["sup_distance"], CURVE_ABS):
        reasons.append(f"sup_distance {printed['sup_distance']:.12g} vs {ref['sup_distance']:.12g}")
    if _off(printed["cvm"], ref["cvm"], ref["cvm_tol"] + 1e-9 * ref["cvm"]):
        reasons.append(f"cvm {printed['cvm']:.12g} vs {ref['cvm']:.12g}")
    if _off(printed["guard"], ref["guard"], 1e-9 * ref["guard"]):
        reasons.append(f"guard {printed['guard']:.12g} vs {ref['guard']:.12g}")
    return reasons


def _check_fit(case: catalog.Case, ref: dict, out: str) -> list[str]:
    rows = _rows(out)
    if not rows or rows[0] != ["family", "params", "cvm", "converged", "iterations"]:
        return ["fit: bad CSV header"]
    got = {r[0]: r for r in rows[1:]}
    if set(got) != set(ref):
        return [f"fit: families {sorted(got)}, reference has {sorted(ref)}"]
    reasons = []
    for tag, want in ref.items():
        params = dict(kv.split("=") for kv in got[tag][1].split(";"))
        for name, value in want["params"].items():
            if _off(float(params.get(name, "nan")), value, FIT_PARAM_REL * abs(value)):
                reasons.append(f"{tag}.{name} {params.get(name)} vs {value:.12g}")
        if _off(float(got[tag][2]), want["cvm"], FIT_CVM_REL * abs(want["cvm"])):
            reasons.append(f"{tag}.cvm {got[tag][2]} vs {want['cvm']:.12g}")
    return reasons


def check(case: catalog.Case, ref: dict | None, rc, error: str | None,
          stdout: str, out: str | None) -> list[str]:
    """Reasons the op failed: it raised, exited non-zero, or missed its reference."""
    if error is not None:
        return [f"raised {error}"]
    if ref is None:
        return [f"{UNCHECKED[0]} for this case"]
    if rc != 0:
        return [f"exit {rc}"]
    try:
        if case.command == "simulate":
            return _check_simulate(case, ref, stdout)
        if out is None:
            return ["no output file"]
        return {"eval": _check_eval, "outage": _check_outage, "fit": _check_fit}[
            case.command](case, ref, out)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{UNCHECKED[1]}: {exc!r}"]
