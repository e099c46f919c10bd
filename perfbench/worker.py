"""One benchmark process: set up one workload, run it closed-loop, report.

Started by ``run.py`` in a fresh interpreter with numeric thread pools
pinned to one thread.  Prints one JSON object as its last line of
standard output.  ``setup_s`` runs from ``--spawn-ns`` (the parent's
CLOCK_MONOTONIC reading just before it started this process) to the
first timed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import dpnets from this checkout's src/; returns the import time in seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import dpnets

    elapsed = time.perf_counter() - start
    if Path(dpnets.__file__).resolve().parent != src / "dpnets":
        raise ImportError(f"dpnets imported from {dpnets.__file__}, not from {src}")
    return elapsed


def measure(workload, seconds: float, tracer=None, index: int = 0, workers: int = 1,
            start_ns: int | None = None, import_s: float = 0.0) -> dict:
    """Set up `workload`, then time operations index, index + workers, ...

    Runs until `seconds` of wall time have passed and this process has
    done its share of ``workload.min_ops``.  Garbage is collected before
    each operation, outside the timed interval; every output is checked
    after it, also outside.
    """
    if start_ns is None:
        start_ns = time.monotonic_ns()
    if tracer is not None:
        tracer.op = "setup"
    setup_errors = []
    err = workload.setup()
    if err:
        setup_errors.append(f"setup: {err}")
    if tracer is not None:
        tracer.op = "warmup"
    warm = workload.warmup_input()
    err = workload.check(warm, workload.run(warm))
    if err:
        setup_errors.append(f"warm-up: {err}")
    gc.collect()
    gc.freeze()

    min_ops = -(-workload.min_ops // workers)
    op_ns = []
    failed = 0
    errors = []
    setup_s = None
    loop_start = time.monotonic()
    while len(op_ns) < min_ops or time.monotonic() - loop_start < seconds:
        j = index + workers * len(op_ns)
        inp = workload.input(j)
        gc.collect()
        if setup_s is None:
            setup_s = (time.monotonic_ns() - start_ns) / 1e9
        try:
            if tracer is None:
                t0 = time.perf_counter_ns()
                out = workload.run(inp)
                t1 = time.perf_counter_ns()
            else:
                span, t0 = tracer.open_op(j)
                try:
                    out = workload.run(inp)
                finally:
                    tracer.close_op(span, t0)
                t1 = tracer.spans[-1][5]
        except Exception as exc:  # a refused or crashed operation counts as failed
            t1 = time.perf_counter_ns()
            out, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = workload.check(inp, out)
        op_ns.append(t1 - t0)
        if err:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {j}: {err}")
    gc.unfreeze()

    return {
        "workload": workload.name,
        "setup_errors": setup_errors,
        "setup_s": setup_s,
        "import_s": import_s,
        "op_ns": op_ns,
        "attempted": len(op_ns),
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--spawn-ns", type=int, default=None)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import_s = import_package()
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, tracer, args.index, args.workers,
                     args.spawn_ns, import_s)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_samples(tracer.spans, import_s, workload.cell())
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
