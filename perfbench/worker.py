"""The measured process: set-up, one warm-up op, then whole passes of ops.

Started by run.py in a fresh interpreter whose environment holds BLAS and
OpenMP to one thread. It prints `ready` once set-up and the warm-up op are
done; with `--setup-only` it exits there. Otherwise it runs whole passes until
`--seconds` have elapsed, checks every result outside the timed region, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    in_process = args.workload != "cli-cold"
    tracer = spans.Tracer() if args.trace else None
    # documented failures of the program count as failed ops
    op_failures = (workloads.OpFailed,)
    if in_process:
        # the whole package, as the CLI loads it
        start = time.perf_counter()
        importlib.import_module("ncusp.cli")
        op_failures += (importlib.import_module("ncusp.errors").NcuspError,)
        if tracer is not None:
            tracer.op = "setup"
            tracer.add("cli.import", start, time.perf_counter())
            spans.install(tracer)

    checks = workloads.Checks()
    load = workloads.WORKLOADS[args.workload](args.seed, checks, args.work, tracer)
    if tracer is not None:
        tracer.op = "setup"
    load.setup()
    if tracer is not None:
        tracer.op = None
    warm_name, warm_out = load.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    load.check(warm_name, warm_out)
    del warm_out

    ops = load.pass_ops()
    times, attempted, failed, passes = [], 0, 0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for k, (name, fn) in enumerate(ops):
            attempted += 1
            if tracer is not None:
                tracer.op = f"p{passes}.{k}"
            t0 = time.perf_counter()
            try:
                out = fn()
            except op_failures as exc:
                failed += 1
                print(f"op {name} failed: {exc}", file=sys.stderr, flush=True)
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            times.append(time.perf_counter() - t0)
            load.check(name, out)
            del out
        passes += 1
    load.finish()
    if not times:
        print("every op failed", file=sys.stderr)
        return 1

    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"correct": not checks.failures, "attempted": attempted, "failed": failed}
    if tracer is not None:
        result["metrics"] = spans.per_layer_metrics(tracer, passes)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text("\n".join(json.dumps(s) for s in tracer.spans) + "\n")
        # reported apart from the metrics, to gauge the tracing overhead
        print(f"traced op_s.p50 {statistics.median(times)!r} over {len(times)} ops",
              file=sys.stderr)
    else:
        result["metrics"] = {
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "op_s.p90": {"value": _p90(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps(result), flush=True)
    return 0 if not checks.failures else 1


def _p90(times):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


if __name__ == "__main__":
    sys.exit(main())
