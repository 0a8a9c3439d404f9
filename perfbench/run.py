"""Benchmark of the ncusp package: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
Each call starts the measured process (worker.py) in a fresh interpreter with
BLAS and OpenMP held to one thread, runs one workload in it and nothing else
alongside. With `--trace 0` it prints the end-to-end metrics: `setup_s` is the
median of SETUP_SAMPLES fresh starts (two set-up-only processes and the
measured one), each timed from process start to the end of its warm-up op.
With `--trace 1` it prints the per-layer metrics of one traced run and writes
its spans to `perfbench/_out/`. Exit code 0 only when every output check held.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-ref", "solve-matrix", "trace-suite", "cli-cold")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _read_line(proc, deadline: float) -> str:
    """Next stdout line of proc, or BenchError once the deadline passes."""
    left = deadline - time.monotonic()
    if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
        raise BenchError("time limit reached")
    # unbuffered pipe: select() sees every byte readline() has not taken
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited with code {proc.wait()} before finishing")
    return line.decode().rstrip("\n")


def _worker(argv, env, deadline, setup_only):
    """Start one worker; return (setup seconds, its last stdout line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # own process group, so a worker cut at the time limit takes its CLI children along
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0,
                            start_new_session=True)
    try:
        if _read_line(proc, deadline) != "ready":
            raise BenchError("worker did not report ready")
        setup_s = time.perf_counter() - start
        last = None
        if not setup_only:
            last = _read_line(proc, deadline)
        if proc.wait(timeout=max(0.1, deadline - time.monotonic())) != 0 and last is None:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup_s, last
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # a terminated run still unwinds, so the worker group is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ncusp" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ncusp'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    if args.trace:
        argv += ["--spans-out",
                 str(HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(argv, env, deadline, setup_only=True)[0])
        setup_s, last = _worker(argv, env, deadline, setup_only=False)
        setups.append(setup_s)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(last)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    out = HERE / "_out" / "results.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "setups_s": setups, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
