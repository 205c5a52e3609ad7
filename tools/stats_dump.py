#!/usr/bin/env python3
"""Render the telemetry and PMU view of a fitree_bench BENCH_results.json.

Prints, from one document (schema in EXPERIMENTS.md, "Telemetry" and
"Profiling"):

  1. the per-(engine, op) count + sampled-latency grid;
  2. the per-(engine, phase) span grid — sampled span counts and self-time
     latency percentiles (children excluded, so one op's phases sum to
     roughly its inclusive latency);
  3. the named counters and gauges;
  4. the PMU table: every result record's "perf" block — status plus the
     derived per-op rates (IPC, cycles/op, LLC-misses/op, ...). Records
     whose counters were unavailable print their status verbatim; that is
     the expected rendering on CI containers without perf access.

--folded FILE additionally writes collapsed stacks ("engine;phase N", one
per line, N = mean self ns x sampled spans) from the phase grid for
flamegraph tooling (https://github.com/brendangregg/FlameGraph:
flamegraph.pl FILE).

Exit status: 0 on success, 2 on malformed input — missing file, invalid
JSON, wrong schema_version, or a document without results/telemetry — so
CI uses this as a smoke check that the exporter and this parser agree on
the schema.

--delta A.json B.json compares two runs' cumulative snapshots the way
RegistrySnapshot::DeltaSince does: op/phase counts, sample counts, and
counters print as true differences (B - A); gauges are levels, so the
later run's value prints as-is; latency percentiles come from the later
snapshot unchanged — the export carries percentiles, not raw buckets, so
interval percentiles are not derivable and are labeled cumulative.

Typical use:

  tools/stats_dump.py BENCH_results.json
  tools/stats_dump.py BENCH_results.json --folded stacks.folded
  tools/stats_dump.py --delta before.json after.json
"""

import argparse
import sys

from fitree_results import die, fmt_count, load_object, render_table


def load_doc(path):
    doc = load_object(path)
    if doc.get("schema_version") != 1:
        die(f"{path}: unsupported schema_version "
            f"{doc.get('schema_version')!r} (this tool understands 1)")
    if not isinstance(doc.get("results"), list):
        die(f"{path}: no results array")
    if not isinstance(doc.get("telemetry"), dict):
        die(f"{path}: no telemetry section")
    return doc


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


PHASE_HEADER = ["engine", "phase", "samples", "p50_ns", "p95_ns", "p99_ns",
                "max_ns", "mean_ns"]


def phase_rows(phases):
    """Table rows (PHASE_HEADER columns) for telemetry.phases; dies on a
    malformed grid."""
    if not isinstance(phases, list):
        die('"phases" is not an array')
    rows = []
    for cell in phases:
        if not isinstance(cell, dict):
            die('"phases" entry is not an object')
        for key in ("engine", "phase", "samples"):
            if key not in cell:
                die(f'"phases" entry missing "{key}"')
        timed = "mean_ns" in cell
        rows.append([
            str(cell["engine"]),
            str(cell["phase"]),
            fmt_count(cell["samples"]),
            fmt_count(cell["p50_ns"]) if timed else "-",
            fmt_count(cell["p95_ns"]) if timed else "-",
            fmt_count(cell["p99_ns"]) if timed else "-",
            fmt_count(cell["max_ns"]) if timed else "-",
            f"{cell['mean_ns']:.1f}" if timed else "-",
        ])
    return rows


def print_phases(telemetry):
    rows = phase_rows(telemetry.get("phases", []))
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


def fmt_params(params):
    if not isinstance(params, dict) or not params:
        return "-"
    return ",".join(f"{k}={v}" for k, v in params.items())


def print_pmu(results):
    print("\n== hardware counters per result record ==")
    rows = []
    statuses = {}
    for record in results:
        if not isinstance(record, dict):
            die("results entry is not an object")
        perf = record.get("perf")
        if not isinstance(perf, dict):
            die(f"record {record.get('experiment', '?')} has no perf block")
        status = str(perf.get("status", "?"))
        statuses[status] = statuses.get(status, 0) + 1
        derived = perf.get("derived", {})
        if not derived:
            continue  # nothing counted; summarized by status below

        def rate(key):
            value = derived.get(key)
            return f"{value:,.2f}" if isinstance(value, (int, float)) else "-"

        rows.append([
            str(record.get("experiment", "?")),
            fmt_params(record.get("params")),
            rate("ipc"),
            rate("cycles_per_op"),
            rate("instructions_per_op"),
            rate("llc_load_misses_per_op"),
            rate("branch_misses_per_op"),
            rate("dtlb_load_misses_per_op"),
        ])
    for status, n in sorted(statuses.items()):
        print(f"{n} record(s) with status: {status}")
    if rows:
        print(render_table(rows, ["experiment", "params", "ipc", "cyc/op",
                                  "ins/op", "llc/op", "br/op", "dtlb/op"]))
    else:
        print("(no counter data in any record — see statuses above)")


def write_folded(telemetry, path):
    """Two-frame collapsed stacks ("engine;phase N") from the phase grid,
    N = sample-weighted mean self time."""
    phases = telemetry.get("phases", [])
    phase_rows(phases)  # dies on a malformed grid
    stacks = {}
    for cell in phases:
        key = f"{cell['engine']};{cell['phase']}"
        total = cell.get("mean_ns", 0) * cell["samples"]
        stacks[key] = stacks.get(key, 0) + int(total)
    try:
        with open(path, "w", encoding="utf-8") as f:
            for key in sorted(stacks):
                f.write(f"{key} {stacks[key]}\n")
    except OSError as e:
        die(f"cannot write {path}: {e}")
    print(f"\nwrote {len(stacks)} folded stack(s) to {path}")


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
        description="render telemetry, phase spans and PMU counters from "
                    "BENCH_results.json")
    parser.add_argument("results", nargs="?",
                        help="path to BENCH_results.json")
    parser.add_argument("--folded", metavar="FILE",
                        help="also write collapsed stacks for flamegraph "
                             "tooling")
    parser.add_argument("--delta", nargs=2, metavar=("A", "B"),
                        help="print the telemetry difference of two runs "
                             "(A before, B after)")
    args = parser.parse_args()

    if args.delta:
        if args.results or args.folded:
            die("--delta takes exactly two files and no other argument")
        before = load_doc(args.delta[0])["telemetry"]
        after = load_doc(args.delta[1])["telemetry"]
        print_delta(before, after)
        return

    if not args.results:
        die("missing results file (or use --delta A B)")
    doc = load_doc(args.results)
    telemetry = doc["telemetry"]
    print_ops(telemetry)
    print_phases(telemetry)
    print_scalars(telemetry)
    print_pmu(doc["results"])
    if args.folded:
        write_folded(telemetry, args.folded)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # Output piped into head/less that exited early — not an error.
        sys.exit(0)
