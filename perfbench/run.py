#!/usr/bin/env python3
"""End-to-end benchmark of the Hermes sub-trajectory clustering system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 20 --trace 0

Builds the driver (perfbench/CMakeLists.txt, optimized) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints the driver's JSON result as the last line of stdout.
Build output and progress go to stderr.

Two more modes help keep the benchmark honest:

    --steadiness N     rerun the workload N times with seeds seed..seed+N-1
                       and print each metric's median, quartiles and spread
                       next to its bound from BENCHMARK.json
    --holdout          run the workload on --seed and on the hold-out seed
                       and check both give the same metric set, no failures

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A gain claimed on seeds chosen while a change was written must also hold
# on this seed, which no tuning of the benchmark used.
HOLDOUT_SEED = 9001
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    bdir = os.path.join(target_dir(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "hermes_perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One driver run; returns its parsed JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(target_dir(), "perfbench-traces")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def load_bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(binary, args):
    bounds = load_bounds()
    seeds = [s for s in range(args.seed, args.seed + args.steadiness + 1)
             if s != HOLDOUT_SEED][:args.steadiness]
    values, failed = {}, 0
    for seed in seeds:
        r = run_once(binary, args.workload, seed, args.seconds, args.trace)
        failed += r["failed"]
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))))
    print("%-34s %12s %12s %12s %8s %7s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    worst = 0.0
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
            if name != "setup_s":
                worst = max(worst, spread / bound)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %7s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, verdict))
    print("runs %d, failed checks %d, worst spread/bound %.2f" % (
        len(seeds), failed, worst))
    return 0 if failed == 0 else 1


def holdout(binary, args):
    a = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    b = run_once(binary, args.workload, HOLDOUT_SEED, args.seconds, args.trace)
    same = set(a["metrics"]) == set(b["metrics"])
    print("seed %d: failed %d; hold-out seed %d: failed %d; same metric set: %s"
          % (args.seed, a["failed"], HOLDOUT_SEED, b["failed"], same))
    return 0 if same and a["failed"] == 0 and b["failed"] == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["analytics", "ingest", "serving"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N")
    p.add_argument("--holdout", action="store_true")
    args = p.parse_args()
    try:
        binary = build()
        if args.steadiness > 0:
            return steadiness(binary, args)
        if args.holdout:
            return holdout(binary, args)
        result = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("benchmark failed: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
