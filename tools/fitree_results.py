"""Shared reading and rendering for the fitree_bench result tools.

bench_diff.py and stats_dump.py both read the BENCH_results.json document
the bench harness exports (schema in EXPERIMENTS.md). This module holds
the malformed-input exit and the JSON loaders they share, and the
column-aligned table renderer. Both tools exit 2 on malformed input, so CI
can use each one as a schema check.
"""

import json
import os
import sys


def die(message):
    """Malformed input or usage error: prints "<tool>: message" to stderr
    and exits 2 (bench_diff reserves 1 for regressions)."""
    tool = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    print(f"{tool}: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    """The parsed JSON document at `path`; dies when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")


def load_object(path):
    """load_json for documents whose top level must be an object."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        die(f"{path}: top-level JSON value is not an object")
    return doc


def fmt_count(n):
    return f"{n:,}"


def render_table(rows, header):
    """Column-aligned plain-text table (same style as fitree_bench)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
