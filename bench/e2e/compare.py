#!/usr/bin/env python3
"""Compare two sets of end-to-end runs, each workload against its own bounds.

    python3 bench/e2e/compare.py --base PARENT.json ... --head CHANGE.json ...

Each file is a results document written by run.py (its "runs" list of
run records); several files per side are pooled. Only untraced records
are compared. The metrics are BENCHMARK.json's end-to-end ones plus the
extra ones bench/e2e/bounds.json names (read from a run's diagnostics);
each (workload, metric) has the bound bounds.json gives it, never looser
than BENCHMARK.json's.

Runs pair by seed: per workload both sides must hold one run for each of
the same seeds (run.py --seed S --runs N on both, alternating sides). The
change is the median of the per-pair relative changes, and the spread is
their quartile distance over sqrt(2): one side's run-to-run spread with
the seed's own effect paired out, so a size that depends only on the seed
has spread 0. Per (workload, metric):

  - "regressed" when the change is worse than the bound, or when the
    spread exceeds the bound and every head run is worse than every base
    run;
  - "unresolved" when the spread exceeds the bound, unless every head run
    beats every base run, or every one is worse;
  - "improved" only with at least 10 pairs, the head winning at least 9
    in 10 of them (ties count for neither side), and the change larger
    than the spread;
  - "ok" otherwise.

A head side that fails a larger share of its operations than the base
regresses whatever its speed. Prints one row per workload; each metric
shows base -> head medians, the change (positive = head better), the
spread and the bound. Exit codes: 0 every metric ok or improved, 1 a
regression, 3 no regression but an unresolved metric, 2 malformed input.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def schema_error(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        schema_error(f"{path}: {e}")


def gated_metrics(spec, bounds):
    """{workload: [(metric, bound)]}, checked against BENCHMARK.json."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    extra = {m["name"]: m for m in bounds.get("extra_metrics", [])}
    table = bounds.get("bounds")
    if not isinstance(table, dict):
        schema_error("bounds.json: no 'bounds' table")
    gated = {}
    for w in (w["name"] for w in spec["workloads"]):
        row = table.get(w)
        if not isinstance(row, dict):
            schema_error(f"bounds.json: no bounds for {w}")
        missing = set(end_to_end) - set(row)
        if missing:
            schema_error(f"bounds.json: {w} lacks {sorted(missing)}")
        gated[w] = []
        for name, bound in row.items():
            metric = end_to_end.get(name) or extra.get(name)
            if metric is None:
                schema_error(f"bounds.json: {w} {name} is not a metric")
            if not isinstance(bound, (int, float)) or not 0 < bound <= \
                    metric.get("bound", bound):
                schema_error(f"bounds.json: {w} {name} bound {bound} outside "
                             f"(0, BENCHMARK.json's]")
            gated[w].append((metric, bound))
    return gated


def value(run, name):
    return (run["metrics"].get(name) or run["diagnostics"][name])["value"]


def load_runs(paths, gated):
    runs = []
    for path in paths:
        doc = load_json(path)
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            schema_error(f"{path}: no 'runs' list")
        for r in doc["runs"]:
            for key in ("workload", "seed", "trace", "attempted", "failed",
                        "metrics", "diagnostics"):
                if key not in r:
                    schema_error(f"{path}: run record without '{key}'")
            if r["workload"] not in gated:
                schema_error(f"{path}: unknown workload {r['workload']}")
            if r["trace"]:
                continue
            for metric, _ in gated[r["workload"]]:
                name = metric["name"]
                m = r["metrics"].get(name) or r["diagnostics"].get(name)
                if m is None or m.get("unit") != metric["unit"] or \
                        not isinstance(m.get("value"), (int, float)) or \
                        m["value"] == 0:
                    schema_error(f"{path}: {r['workload']} {name} missing, "
                                 f"zero or not in {metric['unit']}")
            runs.append(r)
    return runs


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pairs(workload, base, head):
    """(base, head) run pairs, one per seed; both sides need the same seeds."""
    by_seed = {r["seed"]: r for r in base}
    seeds = [r["seed"] for r in head]
    if len(by_seed) != len(base) or len(set(seeds)) != len(seeds) or \
            set(seeds) != set(by_seed):
        schema_error(f"{workload}: runs do not pair by seed; run both sides "
                     f"with the same --seed and --runs")
    return [(by_seed[h["seed"]], h) for h in head]


def verdict(metric, bound, ps):
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b = [value(rb, name) for rb, _ in ps]
    h = [value(rh, name) for _, rh in ps]
    mb, mh = statistics.median(b), statistics.median(h)
    # Per-pair relative changes, positive = head worse.
    change = [sign * (y / x - 1) for x, y in zip(b, h)]
    worse = statistics.median(change)
    spread = quartile_distance(change) / math.sqrt(2)
    detail = (f"{mb:.4g}->{mh:.4g} {-worse:+.1%} spread {spread:.1%} "
              f"bound {bound:.0%}")
    all_better = all(sign * (x - y) < 0 for x in h for y in b)
    all_worse = all(sign * (x - y) > 0 for x in h for y in b)
    if spread > bound:
        if all_worse:
            return "regressed", detail
        if not all_better:
            return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    wins = sum(1 for c in change if c < 0)
    if len(ps) >= MIN_PAIRS and wins >= WIN_SHARE * len(ps) and \
            -worse > spread:
        return "improved", f"{detail} wins {wins}/{len(ps)}"
    return "ok", detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()
    spec = load_json(ROOT / "BENCHMARK.json")
    gated = gated_metrics(spec, load_json(Path(__file__).parent /
                                          "bounds.json"))
    base = load_runs(args.base, gated)
    head = load_runs(args.head, gated)

    statuses = set()
    for w, metrics in gated.items():
        bw = [r for r in base if r["workload"] == w]
        hw = [r for r in head if r["workload"] == w]
        if not bw or not hw:
            print(f"{w}: no runs on {'base' if not bw else 'head'} side")
            statuses.add("unresolved")
            continue
        cells = [f"runs {len(bw)}/{len(hw)}"]
        bf = sum(r["failed"] for r in bw) / sum(r["attempted"] for r in bw)
        hf = sum(r["failed"] for r in hw) / sum(r["attempted"] for r in hw)
        if hf > bf:
            statuses.add("regressed")
            cells.append(f"failed_ops regressed {bf:.2e}->{hf:.2e}")
        ps = pairs(w, bw, hw)
        for metric, bound in metrics:
            status, detail = verdict(metric, bound, ps)
            statuses.add(status)
            cells.append(f"{metric['name']} {status} ({detail})")
        print(f"{w}: " + "; ".join(cells))
    sys.exit(1 if "regressed" in statuses else
             3 if "unresolved" in statuses else 0)


if __name__ == "__main__":
    main()
