#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the per-run records the benchmark writes
(`.bench_results/<workload>-seed<n>-trace0.json`). For every workload and
end-to-end metric it prints each side's median and quartiles, the median
change, and a verdict:

  within bound   the change's median is no worse than the base's by more
                 than the metric's bound
  REGRESSION     worse by more than the bound
  unresolved     either side's quartile spread exceeds the bound, and not
                 every change run beats every base run

It also applies the gain rule: runs are paired by seed, and a gain is
claimed only when the change wins at least 9/10 of at least 10 pairs (ties
count for neither side) and the medians differ by more than the base's own
quartile distance. Results from different host classes or settings (run
fingerprint) are refused.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Fingerprint fields that must match for two result sets to be comparable.
HOST_KEYS = ("nproc", "server_cf_num_threads", "simd", "cf_simd_env",
             "compiler", "build_type", "cpu", "seconds")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            record = json.load(f)
        fp = record["fingerprint"]
        runs.setdefault(fp["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host(record):
    return {k: record["fingerprint"].get(k) for k in HOST_KEYS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)
    hosts = {json.dumps(host(r), sort_keys=True)
             for runs in list(base.values()) + list(change.values()) for r in runs}
    if len(hosts) > 1:
        print("refusing to compare results from different host classes or settings:")
        for h in sorted(hosts):
            print("  " + h)
        return 3

    status = 0
    for workload in sorted(set(base) & set(change)):
        print(f"== {workload}  (base {len(base[workload])} runs, "
              f"change {len(change[workload])} runs)")
        print(f"  {'metric':22s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s}"
              f" {'change':>8s}  verdict")
        by_seed_base = {r["fingerprint"]["seed"]: r for r in base[workload]}
        by_seed_change = {r["fingerprint"]["seed"]: r for r in change[workload]}
        seeds = sorted(set(by_seed_base) & set(by_seed_change))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            a = [r["result"]["metrics"][name]["value"] for r in base[workload]]
            b = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            qa, qb = quartiles(a), quartiles(b)
            med_a, med_b = qa[1], qb[1]
            rel = (med_b - med_a) / med_a if med_a else 0.0
            worse = rel if lower else -rel
            spread_a = (qa[2] - qa[0]) / med_a if med_a else 0.0
            spread_b = (qb[2] - qb[0]) / med_b if med_b else 0.0
            better_all = (max(b) < min(a)) if lower else (min(b) > max(a))
            if name != "setup_s" and max(spread_a, spread_b) > bound and not better_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                status = 1
            else:
                verdict = "within bound"
            wins = 0
            for seed in seeds:
                x = by_seed_base[seed]["result"]["metrics"][name]["value"]
                y = by_seed_change[seed]["result"]["metrics"][name]["value"]
                wins += (y < x) if lower else (y > x)
            improvement = (med_a - med_b) if lower else (med_b - med_a)
            gain = (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
                    and improvement > qa[2] - qa[0])
            if gain:
                verdict += f"; gain claimed ({wins}/{len(seeds)} pairs)"
            elif seeds:
                verdict += f"; no gain claim ({wins}/{len(seeds)} pairs)"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:22s} {fmt.format(*qa):>32s} {fmt.format(*qb):>32s}"
                  f" {rel:+8.1%}  {verdict}")
    missing = set(base) ^ set(change)
    if missing:
        print("workloads present on one side only: " + ", ".join(sorted(missing)))
    return status


if __name__ == "__main__":
    sys.exit(main())
