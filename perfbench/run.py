#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload, prints metrics.

    python3 perfbench/run.py --workload group_alltoall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # every workload at 2 nodes x 4 ranks

Run from anywhere; the repository root is this file's parent directory. The
program is built with CMake under $CARGO_TARGET_DIR (default .bench_build)
in the repository root. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones; the last line of stdout is always one JSON object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero when an op
failed, an output was wrong, or the virtual-identity digests disagree.
perfbench/README.md describes workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("group_alltoall", "basic_exchange", "mpi_alltoall")
SMOKE_SCALE = ("--smoke",)
RUN_TIMEOUT_S = 170
# The host-speed probe's median time (a 50000-step chase over 256 KiB) on a
# 4-vCPU Intel Xeon KVM guest: host times are reported at this speed.
PROBE_NOMINAL_S = 3.0e-4
PROBE_WINDOW = 10  # probes nearest a stretch of host time give its speed
# How far the program's host time moves for a given move of the probe's, as
# a power: fitted over 5-seed sets of basic_exchange and group_alltoall on
# that guest, where a power of 1 left 3-8% spread and 1.5 left 2-4%.
PROBE_SENSITIVITY = 1.5


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the program; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "world.h")):
        die(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = sys.stderr
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log, timeout=300).returncode:
                die("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log, timeout=850).returncode:
            die("build failed")
    return os.path.join(out, "perfbench")


def run_program(binary, args):
    """Runs perfbench once; returns (exit code, parsed report or None)."""
    try:
        proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, None
    try:
        return proc.returncode, json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(f"perfbench: unreadable output (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def metric(value, unit):
    return {"value": value, "unit": unit}


def at_nominal_speed(episodes):
    """Scales each episode's setup and timed iterations to the probe's nominal
    speed; returns (setup times, iteration times), one list per episode.

    A shared host slows the program down for seconds at a time. The probe,
    timed between every two stretches, slows down with it; each stretch is
    multiplied by PROBE_NOMINAL_S over the median of the PROBE_WINDOW probes
    nearest to it, to the power PROBE_SENSITIVITY. A run's probes form one
    sequence: setup sits between an episode's first two probes, timed
    iteration k between probes k + 1 and k + 2."""
    probes = [t for e in episodes for t in e["probe_s"]]
    width = min(PROBE_WINDOW, len(probes))

    def scale(t, i):  # a stretch between probes i and i + 1
        lo = max(0, min(i + 1 - width // 2, len(probes) - width))
        speed = PROBE_NOMINAL_S / statistics.median(probes[lo:lo + width])
        return t * speed ** PROBE_SENSITIVITY

    setups, iters, first = [], [], 0
    for e in episodes:
        setups.append(scale(e["construct_s"] + e["warmup_s"], first))
        iters.append([scale(t, first + 1 + k) for k, t in enumerate(e["iter_s"])])
        first += len(e["probe_s"])
    return setups, iters


def first_percentile(values):
    """The host time a stretch takes when the host is quiet (nearest rank).
    Contention only ever adds time, and a run holds thousands of timed
    iterations of a few milliseconds each, so its fastest hundredth lies in
    the host's quiet moments even when the host is busy for most of the run;
    a median would follow how busy the host was. Over fewer than 100 values
    (setups) it is the minimum."""
    values = sorted(values)
    return values[len(values) // 100]


def host_times(rep, traced):
    """(setup_s, wall_s) of the traced or the untraced episodes at nominal
    speed: the first percentile over episodes and over every timed
    iteration."""
    setups, iters = at_nominal_speed(rep["episodes"])
    pick = [i for i, e in enumerate(rep["episodes"]) if e["traced"] == traced]
    return (first_percentile(setups[i] for i in pick),
            first_percentile(t for i in pick for t in iters[i]))


def end_to_end(rep):
    setup, wall = host_times(rep, False)
    m = {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MiB"),
    }
    m.update(rep["virtual"])
    return m


def per_layer(rep):
    plain = [e for e in rep["episodes"] if not e["traced"]]
    traced = [e for e in rep["episodes"] if e["traced"]]
    wall = host_times(rep, False)[1]
    events = plain[0]["timed_events"]
    m = dict(rep["layers"])
    m["sim.ns_per_event"] = metric(
        wall * rep["timed_iters"] * 1e9 / events if events else 0.0, "ns")
    m["trace.overhead_pct"] = metric(100.0 * (host_times(rep, True)[1] / wall - 1.0), "%")
    for phase in ("construct_s", "warmup_s", "timed_s"):
        m["host." + phase] = metric(statistics.median(e[phase] for e in traced), "s")
    return m


def report(rep, trace, metrics, failed_ratio):
    build_info = rep["build"]
    eps = rep["episodes"]
    print(f"perfbench {rep['workload']} seed={rep['seed']} ranks={rep['ranks']} "
          f"timed_iters={rep['timed_iters']} episodes={len(eps)} "
          f"({'traced run: per-layer metrics' if trace else 'untraced run: end-to-end metrics'})")
    print(f"host: nproc={os.cpu_count()} cpu=\"{cpu_model()}\" compiler=\"{build_info['compiler']}\" "
          f"build={build_info['build_type']}")
    if not build_info["optimized"]:
        print("WARNING: unoptimised build; host times do not describe a release build")
    plain = [e for e in eps if not e["traced"]]
    raw = statistics.median(t for e in plain for t in e["iter_s"])
    probe = statistics.median(t for e in plain for t in e["probe_s"])
    print(f"host speed: probe median {probe * 1e6:.1f} us, nominal {PROBE_NOMINAL_S * 1e6:.1f} us; "
          f"raw median iteration {raw:.4g} s (host times below are at nominal speed)")
    print(f"virt_digest={eps[0]['digest']} gate_digest={rep['gate_digest']} "
          f"samples={rep['samples']} (virtual *_us metrics and counts are model output, "
          f"not hardware-validated)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_op_ratio':32s} {failed_ratio:>16.6g} ratio")
    for err in rep["errors"]:
        print(f"ERROR: {err}")


def run_one(binary, workload, seed, seconds, trace, scale=()):
    """Runs one workload and prints its report; returns (correct, report or None)."""
    prog_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), *scale]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        prog_args += ["--spans", os.path.join(spans_dir, f"{workload}.csv")]
    code, rep = run_program(binary, prog_args)
    if rep is None:
        return False, None
    e2e_units, layer_units = declared_metrics()
    declared = layer_units if trace else e2e_units
    try:
        metrics = per_layer(rep) if trace else end_to_end(rep)
    except (KeyError, statistics.StatisticsError):
        metrics = {}
        rep["errors"].append("the run failed before every metric was measured")
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        rep["errors"].append("emitted metrics differ from BENCHMARK.json")
    metrics = {k: metrics[k] for k in declared if k in metrics}
    attempted, failed = rep["attempted"], rep["failed"]
    report(rep, trace, metrics, failed / max(attempted, 1))
    correct = code == 0 and not rep["errors"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct, rep


def smoke(binary, seed):
    """Every workload at 2 nodes x 4 ranks, untraced and traced: the gate, both
    metric sets, and the same virt_digest with and without recording."""
    ok, attempted, failed = True, 0, 0
    for w in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            correct, rep = run_one(binary, w, seed, 0, trace, SMOKE_SCALE)
            ok = ok and correct
            if rep is not None:
                attempted += rep["attempted"]
                failed += rep["failed"]
                digests[trace] = next((e["digest"] for e in rep["episodes"]
                                       if e["traced"] == bool(trace)), None)
        same = len(digests) == 2 and digests[0] == digests[1] is not None
        ok = ok and same
        print(f"smoke {w}: virt_digest untraced={digests.get(0)} traced={digests.get(1)}"
              f"{'' if same else ' DIFFER'}")
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {}}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="2 nodes x 4 ranks; without --workload, every workload and both modes")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    if args.smoke and args.workload is None:
        return smoke(binary, args.seed)
    correct, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                         SMOKE_SCALE if args.smoke else ())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
