"""Run-to-run spread of the end-to-end metrics, the figure behind each bound.

    python3 perfbench/spread.py --runs 10 [--workloads solve-ref,...] [--first-seed 1]

Runs run.py once per seed, one run at a time, with the run length from
BENCHMARK.json. For each workload and metric it prints the median of the runs
and the spread: the distance between the first and third quartiles of the
values (statistics.quantiles, n=4) as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {name:12s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}  min {min(vals):.6g}  max {max(vals):.6g}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
