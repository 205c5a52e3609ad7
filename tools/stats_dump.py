#!/usr/bin/env python3
"""Pretty-print the telemetry section of a fitree_bench BENCH_results.json.

Renders the process-wide telemetry snapshot captured at the end of a bench
run (schema in EXPERIMENTS.md, "Telemetry"): the per-(engine, op) count +
sampled-latency grid, the named counters and gauges, and — when the run had
FITREE_TRACE=1 — a summary of the merged trace ring dump (per-thread and
per-op breakdowns, plus the first/last records with --trace).

Exit status: 0 on success, 2 on malformed input (missing file, invalid
JSON, or a document without a "telemetry" member) — CI uses this as a
smoke check that the exporter and this parser agree on the schema.

--delta A.json B.json compares two runs' cumulative snapshots the way
RegistrySnapshot::DeltaSince does: op/phase counts, sample counts, and
counters print as true differences (B - A); gauges are levels, so the
later run's value prints as-is; latency percentiles come from the later
snapshot unchanged — the export carries percentiles, not raw buckets, so
interval percentiles are not derivable and are labeled cumulative.

Typical use:

  tools/stats_dump.py BENCH_results.json
  tools/stats_dump.py BENCH_results.json --trace --trace-limit 20
  tools/stats_dump.py --delta before.json after.json
"""

import argparse
import sys

from fitree_results import (PHASE_HEADER, die, fmt_count, load_object,
                            phase_rows, render_table)


def load_telemetry(path):
    telemetry = load_object(path).get("telemetry")
    if not isinstance(telemetry, dict) or "enabled" not in telemetry:
        die(f"{path}: no telemetry section (document predates the "
            "telemetry exporter, or the schema changed)")
    return telemetry


def print_ops(telemetry):
    ops = telemetry.get("ops", [])
    if not isinstance(ops, list):
        die('"ops" is not an array')
    print(f"== per-(engine, op) latency grid "
          f"(sample_period={telemetry.get('sample_period', '?')}) ==")
    if not ops:
        print("(no operations recorded)")
        return
    rows = []
    for cell in ops:
        if not isinstance(cell, dict):
            die('"ops" entry is not an object')
        for key in ("engine", "op", "count", "samples"):
            if key not in cell:
                die(f'"ops" entry missing "{key}"')
        timed = cell["samples"] > 0
        rows.append([
            str(cell["engine"]),
            str(cell["op"]),
            fmt_count(cell["count"]),
            fmt_count(cell["samples"]),
            fmt_count(cell["p50_ns"]) if timed else "-",
            fmt_count(cell["p99_ns"]) if timed else "-",
            fmt_count(cell["p999_ns"]) if timed else "-",
            fmt_count(cell["max_ns"]) if timed else "-",
            f"{cell['mean_ns']:.1f}" if timed else "-",
        ])
    print(render_table(rows, ["engine", "op", "count", "samples", "p50_ns",
                              "p99_ns", "p999_ns", "max_ns", "mean_ns"]))


def print_phases(telemetry):
    phases = telemetry.get("phases")
    if phases is None:
        return  # document predates phase spans
    rows = phase_rows(phases)
    print("\n== per-(engine, phase) span grid (self time, sampled) ==")
    if not rows:
        print("(no phase spans recorded)")
        return
    print(render_table(rows, PHASE_HEADER))


def print_scalars(telemetry):
    for section in ("counters", "gauges"):
        values = telemetry.get(section, {})
        if not isinstance(values, dict):
            die(f'"{section}" is not an object')
        print(f"\n== {section} ==")
        if not values:
            print("(none)")
            continue
        width = max(len(name) for name in values)
        for name, value in values.items():
            print(f"{name.ljust(width)}  {fmt_count(value)}")


def print_trace(telemetry, show_records, record_limit):
    trace = telemetry.get("trace")
    if not isinstance(trace, dict):
        die('"trace" is missing or not an object')
    print("\n== trace ==")
    if not trace.get("enabled"):
        print("tracing was off (set FITREE_TRACE=1 to capture)")
        return
    records = trace.get("records", [])
    if not isinstance(records, list):
        die('"trace.records" is not an array')
    print(f"threads={trace.get('threads', 0)} "
          f"emitted={fmt_count(trace.get('emitted', 0))} "
          f"dropped={fmt_count(trace.get('dropped', 0))} "
          f"retained={fmt_count(len(records))}")

    by_op = {}
    for record in records:
        if not isinstance(record, dict) or "op" not in record:
            die("trace record missing \"op\"")
        key = (record.get("engine", "?"), record["op"])
        by_op[key] = by_op.get(key, 0) + 1
    if by_op:
        print("retained records by (engine, op):")
        for (engine, op), n in sorted(by_op.items()):
            print(f"  {engine}/{op}: {fmt_count(n)}")

    if show_records and records:
        shown = records[:record_limit]
        rows = [[fmt_count(r.get("t_ns", 0)), str(r.get("tid", "?")),
                 str(r.get("engine", "?")), str(r.get("op", "?")),
                 fmt_count(r.get("arg_ns", 0))] for r in shown]
        print(f"first {len(shown)} record(s):")
        print(render_table(rows, ["t_ns", "tid", "engine", "op", "arg_ns"]))


def grid_by_key(telemetry, section, key_fields):
    """{(engine, op-or-phase): cell} for one grid section."""
    cells = telemetry.get(section, [])
    if not isinstance(cells, list):
        die(f'"{section}" is not an array')
    out = {}
    for cell in cells:
        if not isinstance(cell, dict):
            die(f'"{section}" entry is not an object')
        out[tuple(str(cell.get(k, "?")) for k in key_fields)] = cell
    return out


def print_grid_delta(before, after, section, key_label):
    """B - A for one grid: count deltas exact, latencies cumulative-from-B
    (mirrors RegistrySnapshot::DeltaSince, which subtracts histograms
    bucket-wise — buckets are not exported, so percentiles stay B's)."""
    b = grid_by_key(before, section, ("engine", key_label))
    a = grid_by_key(after, section, ("engine", key_label))
    count_key = "count" if section == "ops" else "samples"
    rows = []
    for key in sorted(set(a) | set(b)):
        after_cell = a.get(key, {})
        before_cell = b.get(key, {})
        d_count = after_cell.get(count_key, 0) - before_cell.get(count_key, 0)
        d_samples = (after_cell.get("samples", 0) -
                     before_cell.get("samples", 0))
        if d_count == 0 and d_samples == 0:
            continue
        mean = after_cell.get("mean_ns")
        rows.append([
            key[0], key[1], fmt_count(d_count), fmt_count(d_samples),
            f"{mean:.1f}" if isinstance(mean, (int, float)) else "-",
        ])
    print(f"\n== {section} delta (B - A; mean_ns cumulative from B) ==")
    if not rows:
        print("(no change)")
        return
    print(render_table(
        rows, ["engine", key_label, "d_count", "d_samples", "B_mean_ns"]))


def print_delta(before, after):
    print_grid_delta(before, after, "ops", "op")
    if "phases" in after or "phases" in before:
        print_grid_delta(before, after, "phases", "phase")

    before_counters = before.get("counters", {})
    after_counters = after.get("counters", {})
    if not isinstance(before_counters, dict) or \
            not isinstance(after_counters, dict):
        die('"counters" is not an object')
    print("\n== counters delta (B - A) ==")
    rows = []
    for name in sorted(set(after_counters) | set(before_counters)):
        d = after_counters.get(name, 0) - before_counters.get(name, 0)
        if d != 0:
            rows.append([name, fmt_count(d)])
    if rows:
        print(render_table(rows, ["counter", "delta"]))
    else:
        print("(no change)")

    # Gauges are levels, not rates: a delta of two levels is another level
    # change, but the later absolute value is what operators act on.
    gauges = after.get("gauges", {})
    if not isinstance(gauges, dict):
        die('"gauges" is not an object')
    print("\n== gauges (level from B) ==")
    if gauges:
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            print(f"{name.ljust(width)}  {fmt_count(value)}")
    else:
        print("(none)")


def main():
    parser = argparse.ArgumentParser(
        description="pretty-print BENCH_results.json telemetry")
    parser.add_argument("results", nargs="?",
                        help="path to BENCH_results.json")
    parser.add_argument("--trace", action="store_true",
                        help="also print individual trace records")
    parser.add_argument("--trace-limit", type=int, default=10,
                        help="max trace records to print (default 10)")
    parser.add_argument("--delta", nargs=2, metavar=("A", "B"),
                        help="print the telemetry difference of two runs "
                             "(A before, B after)")
    args = parser.parse_args()

    if args.delta:
        if args.results:
            die("--delta takes exactly two files; drop the positional one")
        before = load_telemetry(args.delta[0])
        after = load_telemetry(args.delta[1])
        if not before["enabled"] or not after["enabled"]:
            print("telemetry disabled in at least one input "
                  "(built with -DFITREE_NO_TELEMETRY=ON)")
            return
        print_delta(before, after)
        return

    if not args.results:
        die("missing results file (or use --delta A B)")
    telemetry = load_telemetry(args.results)
    if not telemetry["enabled"]:
        print("telemetry disabled (built with -DFITREE_NO_TELEMETRY=ON)")
        return
    print_ops(telemetry)
    print_phases(telemetry)
    print_scalars(telemetry)
    print_trace(telemetry, args.trace, max(0, args.trace_limit))


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Output piped into head/less that exited early — not an error.
        sys.exit(0)
