"""Benchmark of the dpnets networks: one workload per call.

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 25 --trace 0

Runs the workload in WORKERS fresh single-threaded processes, one after
the other, each timing its share of ``--seconds``; pools their operation
times and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from span wrappers (see spans.py).  Results and span files are
written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact-cold", "exact-small", "fptas-warm", "co-oneshot")
WORKERS = 3
DEFAULT_SEED = 1
TIME_LIMIT_S = 170
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def end_to_end(results) -> dict:
    """The gated metrics: set-up time, fastest operation, peak memory."""
    op_ms = [ns / 1e6 for r in results for ns in r["op_ns"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "solve_min_ms": (min(op_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def ungated_times(results) -> dict:
    """Median, 90th percentile and throughput of the operation times, for the result file.

    Not gated: on a shared host they follow the share of slow time in the run.
    """
    op_ms = sorted(ns / 1e6 for r in results for ns in r["op_ns"])
    return {
        "solve_p50_ms": statistics.median(op_ms),
        "solve_p90_ms": op_ms[math.ceil(0.9 * len(op_ms)) - 1],
        "solves_per_s": len(op_ms) / (sum(op_ms) / 1e3),
    }


def per_layer(results) -> dict:
    pooled = {}
    for r in results:
        for name, samples in r["layers"].items():
            pooled.setdefault(name, []).extend(samples)
    return spans.reduce_samples(pooled)


def run_workers(args, deadline: float) -> list:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREAD)
    OUT.mkdir(exist_ok=True)
    results = []
    for index in range(WORKERS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", str(args.trace), "--index", str(index), "--workers", str(WORKERS)]
        if args.trace:
            name = f"spans-{args.workload}-seed{args.seed}-w{index}.jsonl"
            cmd += ["--trace-file", str(OUT / name)]
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "dpnets" / "__init__.py").is_file():
        print(f"error: no dpnets package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        results = run_workers(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [e for r in results for e in r["setup_errors"] + r["errors"]]
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved = dict(summary, ungated=ungated_times(results))
    (OUT / name).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
