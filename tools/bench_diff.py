#!/usr/bin/env python3
"""Diff two BENCH_*.json files (perf-trajectory tracking) with a gate.

Usage: bench_diff.py OLD.json NEW.json [--key f1,f2] [--warn-threshold R]
                     [--fail-threshold R | --no-fail] [--min-ms MS]

Runs are matched by the --key fields (default: flights,threads — pass
"mode,threads" for BENCH_ingest.json) and compared on wall_ms plus every
other *_ms field present in both records, so new phase splits are picked
up without editing this script.

Two thresholds:
  --warn-threshold (default 1.25x): regressions beyond it are printed as
    GitHub Actions ::warning:: lines.
  --fail-threshold (default 4.0x): regressions beyond it are printed as
    ::error:: lines and the exit code is 1 — the gate. The default budget
    is deliberately generous until runner variance is characterized;
    tighten it per-repo via the CLI. --no-fail restores the historical
    warn-only behavior.

A phase where both values are under --min-ms (default 1.0) is timer noise
and is skipped; a new value is judged against at least that floor. A bench
whose every point is sub-millisecond (the QUT window probes) passes a
lower floor, and must write its *_ms fields with enough digits for it.
"""

import argparse
import json
import sys

# Default --min-ms: below this, ratios are timer noise, not signal.
MIN_MS = 1.0


def load_runs(path, key_fields):
    with open(path) as f:
        data = json.load(f)
    runs = {}
    for r in data.get("runs", []):
        if any(k not in r for k in key_fields):
            continue
        runs[tuple(r[k] for k in key_fields)] = r
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--key", default="flights,threads",
                        help="comma-separated fields identifying a run "
                             "(default: flights,threads)")
    parser.add_argument("--warn-threshold", type=float, default=1.25,
                        help="warn when new > old * R (default 1.25)")
    parser.add_argument("--fail-threshold", type=float, default=4.0,
                        help="fail (exit 1) when new > old * R "
                             "(default 4.0)")
    parser.add_argument("--no-fail", action="store_true",
                        help="never exit non-zero (warn-only mode)")
    parser.add_argument("--min-ms", type=float, default=MIN_MS,
                        help="skip a phase where both values are below "
                             "this, and judge new values against at least "
                             f"it (default {MIN_MS})")
    args = parser.parse_args()
    key_fields = [k.strip() for k in args.key.split(",") if k.strip()]

    try:
        old_runs = load_runs(args.old, key_fields)
        new_runs = load_runs(args.new, key_fields)
    except (OSError, ValueError, KeyError) as e:
        # In gating mode an unreadable input must not silently pass the
        # gate; callers that tolerate a missing baseline should test for
        # the file before invoking (as CI does) or pass --no-fail.
        if args.no_fail:
            print(f"bench_diff: cannot compare ({e}); skipping")
            return 0
        print(f"::error title=bench_diff cannot compare::{e}")
        return 1

    floor = args.min_ms
    warned = 0
    failed = 0
    compared = 0
    skipped = 0
    for key in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[key], new_runs[key]
        point = " ".join(f"{k}={v}" for k, v in zip(key_fields, key))
        phases = sorted(k for k in old
                        if k.endswith("_ms") and k in new)
        for phase in phases:
            o, n = float(old[phase]), float(new[phase])
            if o < floor and n < floor:
                skipped += 1
                continue
            compared += 1
            ratio = n / max(o, 1e-9)
            if n > max(o, floor) * args.fail_threshold and not args.no_fail:
                print(f"::error title=bench regression over budget::"
                      f"{point} {phase}: {o:.3f}ms -> {n:.3f}ms "
                      f"({ratio:.2f}x > {args.fail_threshold:.2f}x budget)")
                failed += 1
            elif n > max(o, floor) * args.warn_threshold:
                print(f"::warning title=bench regression::"
                      f"{point} {phase}: {o:.3f}ms -> {n:.3f}ms "
                      f"({ratio:.2f}x)")
                warned += 1
    only_old = sorted(set(old_runs) - set(new_runs))
    only_new = sorted(set(new_runs) - set(old_runs))
    if only_old:
        print(f"bench_diff: points dropped since previous run: {only_old}")
    if only_new:
        print(f"bench_diff: new points (no baseline): {only_new}")
    print(f"bench_diff: compared {compared} phase totals over "
          f"{len(set(old_runs) & set(new_runs))} matching points "
          f"({skipped} under the {floor:g} ms floor skipped); "
          f"{warned} warning(s), {failed} over the fail budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
