"""Span tracing of igcomposite's seven layers, from outside the program.

`Tracer.install()` replaces public functions with timing wrappers at the
module attributes their callers look up at call time (`composite.sum_series`
is numerics' `sum_series` as composite imported it, `fading.hyp1f2` the same
for fading). Each call records a span (name, start, end, parent span, op id,
an input size and a result count) in flat arrays that live until the run
ends; `layer_metrics` then derives the per-layer numbers. Nothing in the
library changes, and `uninstall()` restores every attribute.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "shadowing", "fading", "composite", "montecarlo", "fitting", "cli")


def _size_arg(i):
    return lambda args, kwargs: float(np.size(args[i])) if len(args) > i else 0.0


def _count_arg(i):
    return lambda args, kwargs: float(args[i]) if len(args) > i else 0.0


# (module, attribute, span name, input size, result count)
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "integrate_semi_infinite", "numerics.integrate_semi_infinite", None, None),
    ("composite", "composite_pdf", "composite.composite_pdf", _size_arg(1), None),
    ("composite", "composite_cdf", "composite.composite_cdf", _size_arg(1), None),
    ("composite", "amplitude_pdf", "composite.amplitude_pdf", _size_arg(1), None),
    ("composite", "amplitude_cdf", "composite.amplitude_cdf", _size_arg(1), None),
    ("composite", "outage", "composite.outage", None, None),
    ("composite", "outage_asymptotic", "composite.outage_asymptotic", None, None),
    ("composite", "mixture_of_f", "composite.mixture_of_f", None, lambda r: float(len(r.terms))),
    ("composite", "f_pdf", "composite.f_pdf", _size_arg(1), None),
    ("composite", "f_cdf", "composite.f_cdf", _size_arg(1), None),
    ("composite", "sum_series", "numerics.sum_series", None, lambda r: float(r[1])),
    ("composite", "integrate_semi_infinite", "numerics.integrate_semi_infinite", None, None),
    ("fading", "gmgf_log", "fading.gmgf_log", None, None),
    ("fading", "gmgf", "fading.gmgf", None, None),
    ("fading", "pdf", "fading.pdf", _size_arg(1), None),
    ("fading", "gamma_mixture", "fading.gamma_mixture", None, lambda r: float(len(r.terms))),
    ("fading", "tail_params", "fading.tail_params", None, None),
    ("fading", "draw", "fading.draw", _count_arg(2), None),
    ("fading", "hyp1f2", "numerics.hyp1f2", None, None),
    ("fading", "integrate_finite", "numerics.integrate_finite", None, None),
    ("numerics", "integrate_finite", "numerics.integrate_finite", None, None),
    ("montecarlo", "sample_composite", "montecarlo.sample_composite", _count_arg(1), None),
    ("montecarlo", "empirical_cdf", "montecarlo.empirical_cdf", _size_arg(0), None),
    ("montecarlo", "compare", "montecarlo.compare", None, None),
    ("fitting", "compare_families", "fitting.compare_families", None, None),
    ("fitting", "fit", "fitting.fit", None, lambda r: float(r.iterations)),
    ("fitting", "cvm_statistic", "fitting.cvm_statistic", None, None),
    ("shadowing", "log_domain_cdf", "shadowing.log_domain_cdf", _size_arg(1), None),
    ("shadowing", "cdf", "shadowing.cdf", _size_arg(1), None),
]
QUAD = ("numerics.integrate_finite", "numerics.integrate_semi_infinite")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("d")
        self.count = array("d")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, span: str, size_of, count_of):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        name, parent, op, size, count = self.name, self.parent, self.op, self.size, self.count
        failed, start, end, stack = self.failed, self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            size.append(size_of(args, kwargs) if size_of else 0.0)
            count.append(0.0)
            failed.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count_of:
                count[i] = count_of(result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, span, size_of, count_of in TARGETS:
            mod = importlib.import_module(f"igcomposite.{module}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span, size_of, count_of))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "size": np.array(self.size),
            "count": np.array(self.count),
            "failed": np.array(self.failed, dtype=bool),
            "dur": np.array(self.end) - np.array(self.start),
        }


def _under(parent: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """True where some ancestor of the span has `flag` set (parents precede
    their children in the arrays)."""
    flag = flag.tolist()
    below = [False] * len(flag)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            below[i] = flag[p] or below[p]
    return np.array(below, dtype=bool)


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer counts, busy times and failures over the traced ops."""
    s = tracer.spans()
    names = np.array(tracer.names + [""])  # index -1: no parent
    layers = np.array([n.split(".")[0] for n in names])
    dur, size, count, parent = s["dur"], s["size"], s["count"], s["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    span, layer = names[s["name"]], layers[s["name"]]
    parent_span = names[np.where(has_parent, s["name"][np.maximum(parent, 0)], -1)]

    def sel(n):
        return span == n

    def per_op(x):
        return float(x) / n_ops

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    gm, ser, h12 = sel("fading.gmgf_log"), sel("numerics.sum_series"), sel("numerics.hyp1f2")
    quad = np.isin(span, QUAD) & ~np.isin(parent_span, QUAD)
    mix, cdf, pdf = sel("composite.mixture_of_f"), sel("composite.composite_cdf"), sel("composite.composite_pdf")
    fcdf, fit, sh = sel("composite.f_cdf"), sel("fitting.fit"), sel("shadowing.cdf")
    sample, draw = sel("montecarlo.sample_composite"), sel("fading.draw")
    objective = sel("shadowing.log_domain_cdf") & _under(parent, fit)
    theory = cdf & _under(parent, sel("montecarlo.compare"))
    out = {
        "fading.gmgf_log_calls_per_op": per_op(gm.sum()),
        "fading.gmgf_log_us_per_call": 1e6 * ratio(dur[gm].sum(), gm.sum()),
        "numerics.series_calls_per_op": per_op(ser.sum()),
        "numerics.series_terms_per_call": ratio(count[ser].sum(), (ser & ~s["failed"]).sum()),
        "numerics.series_ms_per_op": 1e3 * per_op(dur[ser].sum()),
        "numerics.hyp1f2_calls_per_op": per_op(h12.sum()),
        "numerics.hyp1f2_ms_per_op": 1e3 * per_op(dur[h12].sum()),
        "numerics.series_failures": float((ser & s["failed"]).sum()),
        "numerics.quad_failures": float((quad & s["failed"]).sum()),
        "numerics.quad_calls_per_op": per_op(quad.sum()),
        "numerics.quad_ms_per_op": 1e3 * per_op(dur[quad].sum()),
        "composite.mixture_builds_per_op": per_op(mix.sum()),
        "composite.mixture_ms_per_op": 1e3 * per_op(dur[mix].sum()),
        "composite.mixture_components": ratio(count[mix].sum(), mix.sum()),
        "fading.gamma_mixture_ms_per_op": 1e3 * per_op(dur[sel("fading.gamma_mixture")].sum()),
        "fading.tail_params_calls_per_op": per_op(sel("fading.tail_params").sum()),
        "fading.tail_params_ms_per_op": 1e3 * per_op(dur[sel("fading.tail_params")].sum()),
        "composite.asymptote_ms_per_op": 1e3 * per_op(dur[sel("composite.outage_asymptotic")].sum()),
        "cli.lib_calls_per_op": per_op((parent_span == "cli.main").sum()),
        "composite.cdf_points_per_op": per_op(size[cdf].sum()),
        "composite.pdf_points_per_op": per_op(size[pdf].sum()),
        "composite.us_per_point": 1e6 * ratio(dur[cdf | pdf].sum(), size[cdf | pdf].sum()),
        "composite.f_cdf_points_per_op": per_op(size[fcdf].sum()),
        "composite.f_cdf_ns_per_point": 1e9 * ratio(dur[fcdf].sum(), size[fcdf].sum()),
        "montecarlo.sample_ns_per_sample": 1e9 * ratio(dur[sample].sum(), size[sample].sum()),
        "fading.draw_ns_per_sample": 1e9 * ratio(dur[draw].sum(), size[draw].sum()),
        "montecarlo.ecdf_ms_per_op": 1e3 * per_op(dur[sel("montecarlo.empirical_cdf")].sum()),
        "montecarlo.compare_ms_per_op": 1e3 * per_op(dur[sel("montecarlo.compare")].sum()),
        "montecarlo.theory_points_per_op": per_op(size[theory].sum()),
        "fitting.objective_evals_per_fit": ratio(objective.sum(), fit.sum()),
        "fitting.nodes_per_eval": ratio(size[objective].sum(), objective.sum()),
        "fitting.iterations_per_fit": ratio(count[fit].sum(), fit.sum()),
        "shadowing.cdf_points_per_op": per_op(size[sh].sum()),
        "shadowing.cdf_ns_per_point": 1e9 * ratio(dur[sh].sum(), size[sh].sum()),
        "shadowing.cdf_share": ratio(dur[sh].sum(), op_seconds),
        "trace.spans_per_op": per_op(span.size),
    }
    for name in LAYERS:
        out[f"{name}.self_ms_per_op"] = 1e3 * per_op(self_time[layer == name].sum())
    return out
