#!/usr/bin/env python3
"""Benchmark regression gate.

Compares current benchmark JSON files (google-benchmark format for
BENCH_sim.json, the bench_scale format for BENCH_scale.json, the bench_verify
format for BENCH_verify.json) against the committed baseline
bench/BENCH_baseline.json and fails on a >25% per-cycle regression.

Raw nanoseconds are machine-dependent, so by default every current/baseline
ratio is normalized by the median ratio across all matched entries: the
median captures the overall speed difference between the baseline machine and
the current one, and a regression is a benchmark that got slower *relative to
everything else*. Use --absolute for same-machine comparisons. Only time
metrics are gated; the machine-independent kernel-speedup floor is enforced
separately by `bench_scale --check`.

Usage:
  check_bench_regression.py --baseline bench/BENCH_baseline.json \
      --current build/BENCH_sim.json --current build/BENCH_scale.json \
      [--threshold 0.25] [--absolute]
"""

import argparse
import json
import statistics
import sys

# Gated metrics, all lower-is-better. event_vs_sweep speedup ratios are
# intentionally not gated here (see module docstring).
METRICS = ("ns_per_cycle", "real_time", "cpu_time")

# Must mirror make_bench_baseline.py: reported-but-ungated benchmarks whose
# measurement windows are too noise-prone for a 25% threshold. The sharded
# single-netlist tier ("/shardsN") is multi-thread wall-clock — machine- and
# core-count-dependent, so reported only (bit-identity is gated separately by
# `bench_scale --check` and the sharded-kernel test label).
UNGATED_SUBSTRINGS = ("/n100000/", "/shards", "/workers")

# Median normalization needs enough matched entries to be meaningful: with one
# or two matches the "median" is a single noisy ratio (or the mean of two) and
# normalizing by it silently cancels exactly the regression being measured.
MIN_NORMALIZATION_MATCHES = 3


class DuplicateName(Exception):
    pass


def add_entry(entries, origin, name, value, path):
    """entries[name] = value, refusing a name already loaded from any file:
    a silent last-one-wins would gate against whichever copy came last."""
    if name in entries:
        raise DuplicateName(f"{name} (in {origin[name]} and {path})")
    entries[name] = value
    origin[name] = path


def load_entries(paths):
    """name -> (metric, value) over all `paths`; google-benchmark aggregates
    are skipped. Raises DuplicateName when a name appears twice, within one
    file or across files."""
    entries = {}
    origin = {}
    for path in paths:
        load_file(path, entries, origin)
    return entries


def load_file(path, entries, origin):
    with open(path) as f:
        data = json.load(f)
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        if any(s in bench["name"] for s in UNGATED_SUBSTRINGS):
            continue
        for metric in METRICS:
            if metric in bench:
                add_entry(entries, origin, bench["name"],
                          (metric, float(bench[metric])), path)
                break
    # bench_verify format: one model-checking instance with frontier
    # wall-clock per worker count. Only the serial run is gated — multi-worker
    # wall-clock is core-count-dependent (same policy as the "/shards" tiers,
    # via the "/workers" ungated substring).
    if "instance" in data and "runs" in data:
        for run in data["runs"]:
            workers = int(run["workers"])
            suffix = "serial" if workers == 1 else f"workers{workers}"
            name = f"verify/{data['instance']}/{suffix}"
            if any(s in name for s in UNGATED_SUBSTRINGS):
                continue
            add_entry(entries, origin, name, ("seconds", float(run["seconds"])),
                      path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", action="append", required=True)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="maximum tolerated per-benchmark regression (0.25 = 25%%)")
    ap.add_argument("--absolute", action="store_true",
                    help="skip median normalization (same-machine comparison)")
    ap.add_argument("--allow-new-entries", action="store_true",
                    help="report benchmarks missing from the baseline as NEW "
                         "(ungated) instead of failing; for feeds like "
                         "BENCH_verify.json that gain entries before the "
                         "baseline refresh lands")
    args = ap.parse_args()

    try:
        baseline = load_entries([args.baseline])
        current = load_entries(args.current)
    except DuplicateName as e:
        print(f"FAIL: duplicate benchmark name {e}; every gated name must be "
              "unique across the baseline and across the current files "
              "(rename it where the bench produces it)")
        return 1

    missing = sorted(set(baseline) - set(current))
    if missing:
        print("FAIL: baseline benchmarks missing from current run "
              "(renamed? refresh bench/BENCH_baseline.json):")
        for name in missing:
            print(f"  {name}")
        return 1

    unbaselined = sorted(set(current) - set(baseline))
    if unbaselined:
        if args.allow_new_entries:
            print("NEW (ungated until bench/BENCH_baseline.json is refreshed "
                  "via scripts/make_bench_baseline.py):")
            for name in unbaselined:
                print(f"  {name}")
                del current[name]
        else:
            print("FAIL: benchmarks not present in bench/BENCH_baseline.json — "
                  "they would never be gated; refresh the baseline "
                  "(scripts/make_bench_baseline.py) in the same change:")
            for name in unbaselined:
                print(f"  {name}")
            return 1

    # Regression ratio per entry: >1 means worse than baseline.
    ratios = {}
    for name, (metric, base) in sorted(baseline.items()):
        cur_metric, cur = current[name]
        if cur_metric != metric:
            print(f"FAIL: {name}: metric changed {metric} -> {cur_metric}; "
                  "refresh the baseline")
            return 1
        if base <= 0:
            continue
        ratios[name] = cur / base

    if not ratios:
        if args.allow_new_entries:
            # Every current entry was NEW (e.g. a freshly added benchmark feed
            # before its baseline refresh lands): nothing is gated this run,
            # which is exactly what --allow-new-entries promises.
            print("OK: no baseline-matched benchmarks to gate "
                  f"({len(unbaselined)} new entries reported above)")
            return 0
        print("FAIL: no comparable benchmarks found")
        return 1

    norm = 1.0
    if not args.absolute:
        if len(ratios) < MIN_NORMALIZATION_MATCHES:
            print(f"WARNING: only {len(ratios)} matched benchmark(s) — "
                  f"median normalization needs at least "
                  f"{MIN_NORMALIZATION_MATCHES}; comparing absolute ratios "
                  "(machine speed differences will show through)")
        else:
            norm = statistics.median(ratios.values())
            print(f"machine-speed normalization: median time ratio {norm:.3f}")

    failed = []
    for name, ratio in sorted(ratios.items()):
        effective = ratio / norm
        status = "OK"
        if effective > 1.0 + args.threshold:
            status = "REGRESSION"
            failed.append(name)
        print(f"  {status:>10}  x{effective:6.3f}  {name}")

    if failed:
        print(f"FAIL: {len(failed)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} vs bench/BENCH_baseline.json")
        return 1
    print(f"OK: {len(ratios)} benchmarks within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
