#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 perfbench/spread.py --workload basic_exchange --seeds 10 [--first-seed 100]

Runs run.py once per seed (each with another seed), then prints each
metric's median and the distance between its first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound. Exits 1 when a run fails or a spread other than setup_s exceeds
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        ok = ok and proc.returncode == 0 and result["correct"]
        for name in values:
            if result.get("metrics", {}).get(name):
                values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items() if v),
              flush=True)
    for name, v in values.items():
        if len(v) < 2:
            continue
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        over = spread > bounds[name] and name != "setup_s"
        ok = ok and not over
        print(f"{name:20s} median={med:<12.6g} spread={spread:.4f} bound={bounds[name]}"
              f"{'  OVER' if over else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
