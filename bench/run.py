"""igcomposite benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload outage --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Run it from a checkout of the repository; it needs only `src/` and this
directory, and builds nothing. Each workload runs in its own fresh
interpreter (bench/workload.py) with BLAS/OpenMP pinned to one thread.
`setup_s` times fresh interpreters that import igcomposite.cli and build
its parser, the start-up every CLI call pays: the median of 4 timed before
the workload and 4 after it.

Output: human-readable lines, a context line (commit, CPU, versions, src
line count) and, last, one JSON object per workload with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones, with the units
BENCHMARK.json gives them. `correct` is true when every op's output was
checked against its reference and every op that failed lies in a known-defect
stratum (catalog.KNOWN_DEFECTS); all failed ops are counted in `failed`
(failed_op_ratio = failed / attempted).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("transform", "outage", "validate", "fit")
SETUP_CODE = "import igcomposite.cli as c; c._build_parser()"
SETUP_REPEATS = 4  # timed before and again after the workload: 8 in all
CHILD_TIMEOUT_S = 150


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), BENCH])
    return env


def setup_times(env: dict) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def context() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "src_lines": src_lines,
        "threads": "BLAS/OpenMP pinned to 1",
    }


def run_workload(workload: str, args, env: dict) -> dict:
    if not args.trace:
        setup = setup_times(env)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "workload.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} run failed (exit {proc.returncode}):\n{proc.stderr}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:  # timings on both sides of the run even out slow swings in load;
        # the median ignores the slow first one of a fresh checkout, which byte-compiles src/
        child["metrics"]["setup_s"] = statistics.median(setup + setup_times(env))
    return child


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="igcomposite benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record, per op, to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "igcomposite", "cli.py")):
        print(f"error: no igcomposite sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = pinned_env()
    units = metric_units(args.trace)
    ctx = context()
    record = {"context": ctx, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            child = run_workload(workload, args, env)
        except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["workloads"][workload] = child
        info = child["info"]
        ctx.update({k: info[k] for k in ("python", "numpy", "scipy")})
        metrics = {k: {"value": child["metrics"][k], "unit": units[k]} for k in sorted(units)}
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"{workload} failed_op_ratio {info['failed_op_ratio']:.6g} ratio "
              f"({child['failed']} of {child['attempted']} ops)")
        print(f"{workload} op_tail_ms is the p{info['op_tail_percentile']:.2f} latency "
              f"over {info['op_count']} ops")
        for key, n in info["failures"].items():
            print(f"{workload} failures {n:4d}  {key}")
        results.append({
            "correct": child["correct"],
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": metrics,
        })
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"context": ctx}))
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
