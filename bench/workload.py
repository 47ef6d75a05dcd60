"""Run one benchmark workload in a closed loop and print what it measured.

bench/run.py starts this in a fresh process per workload, with BLAS and
OpenMP pinned to one thread and `src/` on PYTHONPATH:

    python3 bench/workload.py --workload outage --seed 1 --seconds 24 --trace 0

One client calls `igcomposite.cli.main(argv)` in-process; the next op starts
when the previous one has returned. Ops run in whole seeded blocks (every
variant of every stratum, see `catalog.blocks`), stopping at the block end
nearest to `--seconds` of op time. Each op's output is checked against
reference.json right after it returns, outside its timed region; an op that
raises, exits non-zero or misses its reference counts as failed and the
loop goes on. The run is correct when every op was checked and every failed
op lies in one of `catalog.KNOWN_DEFECTS`.

With --trace 1 the loop runs untraced for half the time (stopping after any
op, not at a block end), then replays the same ops with the layer tracer
installed; per-layer metrics come from the replay, and the tracing overhead
is the difference of the two medians.

The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np
from scipy.special import betainc

import catalog
import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
HARD_STOP = 4.0  # stop mid-block past this many times --seconds of op time


def load_references() -> dict:
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)["cases"]


def run_op(cli, case: catalog.Case, tmp: str):
    """Time one CLI call; returns (latency s, exit code, error, stdout, output file)."""
    out_path = os.path.join(tmp, "out.csv")
    if os.path.exists(out_path):
        os.unlink(out_path)
    argv = case.argv(out_path, tmp)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    out = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            out = fh.read()
    return latency, rc, error, stdout.getvalue(), out


def closed_loop(cli, refs: dict, plan, seconds: float, tmp: str, tracer=None) -> list[dict]:
    """Run the blocks of `plan` and stop at the block end nearest to `seconds`
    of op time (always after at least one block)."""
    records = []
    busy = 0.0
    for done, block in enumerate(plan, start=1):
        for case in block:
            if busy >= HARD_STOP * seconds > 0:
                return records
            if tracer is not None:
                tracer.op_id = len(records)
            latency, rc, error, stdout, out = run_op(cli, case, tmp)
            busy += latency
            records.append({
                "case": case,
                "latency": latency,
                "failed": checks.check(case, refs.get(case.id), rc, error, stdout, out),
            })
        if busy + 0.5 * busy / done >= seconds:
            return records
    return records


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted average of
    all order statistics, steadier than any single one within a smooth run
    of latencies."""
    n = len(sorted_values)
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.asarray(sorted_values))


def summarize(records: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics. The tail is the latency of the op ranked n - 10:
    the highest percentile with at least 10 of the run's n ops beyond it.
    A single order statistic, not a weighted one, because on `outage` the
    tenth-slowest op sits next to a tenfold latency step."""
    lat = sorted(r["latency"] for r in records)
    n = len(lat)
    failed = sum(1 for r in records if r["failed"])
    tail_rank = max(n - 11, (n - 1) // 2)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * quantile(lat, 0.5),
        "op_tail_ms": 1e3 * lat[tail_rank],
        "ok_op_ratio": 1.0 - failed / n,
    }
    info = {
        "op_count": n,
        "op_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "failed_op_ratio": failed / n,
    }
    return metrics, info


def failure_table(records: list[dict]) -> dict[str, int]:
    table: dict[str, int] = {}
    for r in records:
        for reason in r["failed"]:
            known = " (known defect)" if r["case"].stratum in catalog.KNOWN_DEFECTS else ""
            key = f"{r['case'].stratum}{known} | {reason.split(':')[0]}"
            table[key] = table.get(key, 0) + 1
    return dict(sorted(table.items()))


def correct(records: list[dict]) -> bool:
    """Every op was checked, and every op that failed lies in a known-defect
    stratum: one wrong value anywhere else makes the run incorrect."""
    return all(not r["failed"] or (
        r["case"].stratum in catalog.KNOWN_DEFECTS
        and not any(f.startswith(checks.UNCHECKED) for f in r["failed"]))
        for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import scipy

    from igcomposite import cli

    refs = load_references()
    plan = catalog.blocks(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".tmp-") as tmp:
        if args.workload == "fit":
            for specs in catalog.DATASETS.values():
                for spec in specs:
                    catalog.write_dataset(spec, tmp)
        if args.trace:
            from layertrace import Tracer, layer_metrics

            # per-layer numbers need no whole blocks: stop after any op
            ops = ([case] for block in plan for case in block)
            plain = closed_loop(cli, refs, ops, args.seconds / 2, tmp)
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(cli, refs, [[r["case"] for r in plain]], 0.0, tmp, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced), sum(r["latency"] for r in traced))
            traced_metrics, info = summarize(traced)
            metrics["trace.overhead_ms"] = (
                traced_metrics["op_p50_ms"] - summarize(plain)[0]["op_p50_ms"])
            records = traced
            ok = correct(plain) and correct(traced)
        else:
            records = closed_loop(cli, refs, plan, args.seconds, tmp)
            metrics, info = summarize(records)
            ok = correct(records)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info.update({
        "failures": failure_table(records),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    })
    print(json.dumps({
        "correct": ok,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": metrics,
        "info": info,
        "ops": [[r["case"].id, round(1e3 * r["latency"], 3), r["failed"]] for r in records],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
