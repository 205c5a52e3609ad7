#!/usr/bin/env python3
"""Render the profiling view of a fitree_bench BENCH_results.json.

Three sections, all fed by the same document (schema in EXPERIMENTS.md,
"Profiling"):

  1. The per-(engine, phase) span grid from telemetry.phases — sampled
     span counts and self-time latency percentiles (children excluded, so
     one op's phases sum to roughly its inclusive latency).
  2. The PMU table: every result record's "perf" block — status plus the
     derived per-op rates (IPC, cycles/op, LLC-misses/op, ...). Records
     whose counters were unavailable print their status verbatim; that is
     the expected rendering on CI containers without perf access.
  3. The micro_phase_breakdown decomposition: per-engine lookup ns/op by
     phase, with the off/sampled/full overhead A/B alongside.

--folded FILE additionally writes collapsed stacks ("engine;op;phase N",
one per line, N = summed ns) for flamegraph tooling
(https://github.com/brendangregg/FlameGraph: flamegraph.pl FILE). Stacks
come from the trace ring dump when the run had FITREE_TRACE=1, else from
the phase grid (two-frame stacks, sample-weighted mean self time).

Exit status: 0 on success (including telemetry-disabled documents, which
still carry PMU blocks), 2 on malformed input — missing file, invalid
JSON, wrong schema_version, or a document without results/telemetry — so
CI can use this parser as a schema smoke check.

Typical use:

  tools/profile_report.py BENCH_results.json
  tools/profile_report.py BENCH_results.json --folded stacks.folded
"""

import argparse
import sys

from fitree_results import (PHASE_HEADER, die, load_object, phase_rows,
                            render_table)


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


def fmt_params(params):
    if not isinstance(params, dict) or not params:
        return "-"
    return ",".join(f"{k}={v}" for k, v in params.items())


def print_phase_grid(telemetry):
    print("== per-(engine, phase) span grid (self time, sampled) ==")
    rows = phase_rows(telemetry.get("phases", []))
    if not rows:
        print("(no phase spans recorded)")
        return
    print(render_table(rows, PHASE_HEADER))


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


def print_breakdown(results):
    records = [r for r in results
               if r.get("experiment") == "micro_phase_breakdown"]
    if not records:
        return
    print("\n== micro_phase_breakdown: lookup ns/op by phase ==")
    rows = []
    for record in records:
        params = record.get("params", {})
        stats = record.get("ns_per_op", {})
        ns_op = stats.get("p50")
        metrics = record.get("metrics", {})
        shares = ", ".join(
            f"{key[:-len('_pct')]} {value:.1f}%"
            for key, value in metrics.items() if key.endswith("_pct"))
        rows.append([
            str(params.get("engine", "?")),
            str(params.get("mode", "?")),
            f"{ns_op:,.1f}" if isinstance(ns_op, (int, float)) else "-",
            shares if shares else "-",
        ])
    print(render_table(rows, ["engine", "mode", "ns_op_p50", "phase shares"]))


def write_folded(doc, path):
    """Collapsed stacks: trace records when available, else the grid."""
    stacks = {}
    trace = doc["telemetry"].get("trace", {})
    records = trace.get("records", []) if trace.get("enabled") else []
    if records:
        for record in records:
            frames = [str(record.get("engine", "?")),
                      str(record.get("op", "?"))]
            if "phase" in record:
                frames.append(str(record["phase"]))
            key = ";".join(frames)
            stacks[key] = stacks.get(key, 0) + int(record.get("arg_ns", 0))
        # An op-level record's arg_ns is inclusive of its phase children;
        # folded-stack values must be self time or the flamegraph double
        # counts, so subtract each stack's children from it.
        for key in list(stacks):
            children = sum(v for k, v in stacks.items()
                           if k.startswith(key + ";"))
            if children:
                stacks[key] = max(0, stacks[key] - children)
        source = f"{len(records)} trace records"
    else:
        for cell in doc["telemetry"].get("phases", []):
            key = f"{cell.get('engine', '?')};{cell.get('phase', '?')}"
            total = cell.get("mean_ns", 0) * cell.get("samples", 0)
            stacks[key] = stacks.get(key, 0) + int(total)
        source = "phase grid (run with FITREE_TRACE=1 for per-op stacks)"
    try:
        with open(path, "w", encoding="utf-8") as f:
            for key in sorted(stacks):
                f.write(f"{key} {stacks[key]}\n")
    except OSError as e:
        die(f"cannot write {path}: {e}")
    print(f"\nwrote {len(stacks)} folded stack(s) to {path} from {source}")


def main():
    parser = argparse.ArgumentParser(
        description="render phase spans + PMU counters from "
                    "BENCH_results.json")
    parser.add_argument("results", help="path to BENCH_results.json")
    parser.add_argument("--folded", metavar="FILE",
                        help="also write collapsed stacks for flamegraph "
                             "tooling")
    args = parser.parse_args()

    doc = load_doc(args.results)
    telemetry = doc["telemetry"]
    if telemetry.get("enabled"):
        print_phase_grid(telemetry)
    else:
        print("telemetry disabled (built with -DFITREE_NO_TELEMETRY=ON); "
              "no phase grid — PMU blocks below are still live")
    print_pmu(doc["results"])
    print_breakdown(doc["results"])
    if args.folded:
        write_folded(doc, args.folded)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        sys.exit(0)
