#!/usr/bin/env python3
"""Compare two fitree_bench BENCH_results.json files and flag regressions.

Records are matched by (experiment, params); for each match the ratio
current/baseline of the chosen ns/op statistic is computed. A record
regresses when its ratio exceeds --threshold, improves when it drops below
1/threshold. Exit status is 1 when any record regresses (0 under
--warn-only), 2 on malformed input; records present on only one side are
reported but never fail the gate (experiments come and go across PRs).
Pairing keys on (experiment, string-valued params) only — fields the
exporter grows later (perf blocks, telemetry annotations) are ignored, so
schema additions cannot break an existing baseline comparison.

Typical use:

  tools/bench_diff.py baseline.json current.json --threshold 1.10
  tools/bench_diff.py bench/baseline/BENCH_smoke_baseline.json \
      "$RUNNER_TEMP/BENCH_smoke.json" --threshold 3.0   # CI smoke gate

The default statistic is `min` (the least-disturbed repetition — the most
noise-robust point of comparison on shared runners); --metric switches to
p50/mean/p99.
"""

import argparse
import sys

from fitree_results import die, load_json


def load_results(path):
    """Returns {(experiment, params-tuple): record} for one results file."""
    doc = load_json(path)
    if not isinstance(doc, dict) or "results" not in doc:
        die(f"{path} is not a BENCH_results.json document")
    records = {}
    for record in doc["results"]:
        if not isinstance(record, dict):
            continue  # tolerate foreign entries rather than fail the gate
        params = record.get("params")
        if not isinstance(params, dict):
            params = {}
        # Pair on string-valued params only: exporter additions (perf
        # blocks, numeric annotations, nested objects) land in records as
        # new non-string fields over time, and an unknown field must never
        # change how existing records pair or sort.
        key = (
            str(record.get("experiment", "?")),
            tuple(sorted((k, v) for k, v in params.items()
                         if isinstance(v, str))),
        )
        records[key] = record
    return records


def fmt_key(key):
    experiment, params = key
    if not params:
        return experiment
    return experiment + "[" + ",".join(f"{k}={v}" for k, v in params) + "]"


def main():
    parser = argparse.ArgumentParser(
        description="Diff two fitree_bench JSON result files."
    )
    parser.add_argument("baseline", help="baseline BENCH_results.json")
    parser.add_argument("current", help="current BENCH_results.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.10,
        help="fail when current/baseline exceeds this ratio (default 1.10; "
        "CI smoke uses 3.0 to absorb runner noise)",
    )
    parser.add_argument(
        "--metric",
        choices=["min", "p50", "mean", "p99"],
        default="min",
        help="ns/op statistic to compare (default min)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args()
    if args.threshold <= 1.0:
        die("--threshold must be > 1.0")

    baseline = load_results(args.baseline)
    current = load_results(args.current)

    # One pass computes every (base, cur, ratio); the regression list and
    # the per-experiment summary both derive from it, so they cannot
    # disagree about what was compared.
    regressions = []
    improvements = []
    per_experiment = {}
    compared = 0
    skipped = []
    for key in sorted(set(baseline) & set(current), key=fmt_key):
        base_stats = baseline[key].get("ns_per_op")
        cur_stats = current[key].get("ns_per_op")
        base = (base_stats or {}).get(args.metric, 0.0)
        cur = (cur_stats or {}).get(args.metric, 0.0)
        if base <= 0.0 or cur <= 0.0:
            skipped.append(key)  # metrics-only records (e.g. file shapes)
            continue
        compared += 1
        ratio = cur / base
        experiment = key[0]
        if ratio > per_experiment.get(experiment, 0.0):
            per_experiment[experiment] = ratio
        line = (key, base, cur, ratio)
        if ratio > args.threshold:
            regressions.append(line)
        elif ratio < 1.0 / args.threshold:
            improvements.append(line)

    only_baseline = sorted(set(baseline) - set(current), key=fmt_key)
    only_current = sorted(set(current) - set(baseline), key=fmt_key)

    print(
        f"bench_diff: {compared} records compared "
        f"(metric={args.metric}, threshold={args.threshold:g}x)"
    )
    if per_experiment:
        print("\nworst current/baseline ratio per experiment:")
        width = max(len(e) for e in per_experiment)
        for experiment in sorted(per_experiment):
            ratio = per_experiment[experiment]
            flag = " <-- REGRESSION" if ratio > args.threshold else ""
            print(f"  {experiment:<{width}}  {ratio:6.3f}x{flag}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) past {args.threshold:g}x:")
        for key, base, cur, ratio in regressions:
            print(
                f"  {fmt_key(key)}: {base:.1f} -> {cur:.1f} ns/op "
                f"({ratio:.2f}x)"
            )
    if improvements:
        print(f"\n{len(improvements)} improvement(s) past {args.threshold:g}x:")
        for key, base, cur, ratio in improvements:
            print(
                f"  {fmt_key(key)}: {base:.1f} -> {cur:.1f} ns/op "
                f"({ratio:.2f}x)"
            )
    if skipped:
        print(f"\n{len(skipped)} record(s) without comparable timing skipped")
    if only_baseline:
        print(f"\n{len(only_baseline)} record(s) only in baseline, e.g. "
              f"{fmt_key(only_baseline[0])}")
    if only_current:
        print(f"\n{len(only_current)} record(s) only in current, e.g. "
              f"{fmt_key(only_current[0])}")

    if regressions and not args.warn_only:
        print("\nbench_diff: FAIL")
        return 1
    print("\nbench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
