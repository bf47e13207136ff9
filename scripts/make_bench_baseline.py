#!/usr/bin/env python3
"""Refreshes bench/BENCH_baseline.json from a local bench run.

Run `cmake --build build --target bench` first, then this script from the
repository root. Keeps only (name, headline metric) per benchmark so the
committed baseline stays small and diff-friendly.
"""

import json
import sys

# Speedup ratios (event_vs_sweep) are deliberately NOT committed: they vary
# too much across CPUs for a 25% gate, and the machine-independent floor is
# enforced by `bench_scale --check` in CI instead. The regression gate runs
# on the per-cycle times, median-normalized for machine speed.
METRICS = ("ns_per_cycle", "real_time", "cpu_time")

# The 100k-node tier is reported (table, JSON artifact, README) but not
# gated: its multi-second sweep windows see >50% ambient run-to-run noise on
# shared/cgroup-throttled machines, far beyond the 25% threshold. The
# 1k/10k tiers measure the same kernels with stable (<10%) dispersion.
# The sharded tier ("/shardsN") is likewise reported-not-gated: parallel
# wall-clock depends on the runner's core count.
UNGATED_SUBSTRINGS = ("/n100000/", "/shards")


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "build"
    out = []
    origin = {}
    for path in (f"{build}/BENCH_sim.json", f"{build}/BENCH_scale.json"):
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type", "iteration") == "aggregate":
                continue
            if any(s in bench["name"] for s in UNGATED_SUBSTRINGS):
                continue
            for metric in METRICS:
                if metric in bench:
                    name = bench["name"]
                    if name in origin:
                        # The gate could only ever compare against one copy.
                        print(f"error: duplicate benchmark name {name} (in "
                              f"{origin[name]} and {path}); rename it where "
                              "the bench produces it", file=sys.stderr)
                        return 1
                    origin[name] = path
                    out.append({"name": name,
                                metric: round(float(bench[metric]), 3)})
                    break
    with open("bench/BENCH_baseline.json", "w") as f:
        json.dump({"note": ("Committed perf baseline for CI's bench-regression "
                            "gate; refresh with: cmake --build build --target "
                            "bench && python3 scripts/make_bench_baseline.py"),
                   "benchmarks": out}, f, indent=1)
        f.write("\n")
    print(f"wrote bench/BENCH_baseline.json ({len(out)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
