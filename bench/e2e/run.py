#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench/e2e/README.md).

One run of one workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload lookup_mem --seed 42 --seconds 10 --trace 0

prints `workload metric value unit` rows, then as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Every workload, each in its own process (so peak_rss_mb is one workload's):

    python3 bench/e2e/run.py --seed 42 [--trace 1] [--runs N] [--out FILE]

runs seeds seed..seed+N-1 and writes all run records to one JSON file
(default .bench_build/e2e/results.json), the input compare.py reads.
With --trajectory CHANGE it instead runs each workload 3 times at --seed
and prints, last, the line to append to bench/e2e/trajectory.jsonl.

    python3 bench/e2e/run.py --smoke

runs every workload at a tiny size in both modes and checks that every
metric BENCHMARK.json names is printed with its unit and that every answer
was right.

The benchmark builds itself from the checkout's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build) and writes nothing outside it.
Exit codes: 0 ok, 1 build or usage failure, 2 a wrong answer or I/O
error, 3 the output disagrees with BENCHMARK.json.
"""

import argparse
import fcntl
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(1, f"cannot read BENCHMARK.json: {e}")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configures (once) and builds fitree_e2e; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "core").is_dir():
        fail(1, f"no library sources under {ROOT}; nothing to build")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                          str(out), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", "4"])
        for step in steps:
            p = subprocess.run(step, capture_output=True, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
                fail(1, "build failed")
    return out / "fitree_e2e"


def run_binary(binary, workload, seed, seconds, trace, smoke=False,
               ladder=False):
    """One workload in its own process; returns (record, exit code)."""
    data = build_dir() / "data"
    data.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--data-dir={data}"]
    if smoke:
        cmd.append("--smoke")
    if ladder:
        cmd.append("--ladder")
    # The library reads FITREE_* knobs from the environment; the benchmark
    # pins every setting itself, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FITREE_")}
    started = time.time()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
    timed_out = False
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        p.kill()
        out, err = p.communicate()
    except BaseException:  # interrupted (see main): never orphan the run
        p.kill()
        p.wait()
        raise
    finally:
        # A run that did not end normally leaves its index files behind;
        # they carry its process id.
        for leftover in data.glob(f"*-{p.pid}.fit*"):
            leftover.unlink()
    sys.stderr.write(err)
    if timed_out:
        fail(1, f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if p.returncode not in (0, 2) or not lines:
        fail(1, f"{workload} exited with code {p.returncode}")
    record = json.loads(lines[-1])
    record["started"] = started
    record["wall_s"] = time.time() - started
    return record, p.returncode


def check_metrics(spec, record):
    """Problems with a record against the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    got = record["metrics"]
    problems = []
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            problems.append(f"{record['workload']}: missing {m['name']}")
        elif v["unit"] != m["unit"]:
            problems.append(f"{record['workload']}: {m['name']} unit "
                            f"{v['unit']} != {m['unit']}")
        elif not isinstance(v["value"], (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{record['workload']}: {m['name']} not measured")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{record['workload']}: unlisted {sorted(extra)}")
    return problems


def print_rows(record):
    w = record["workload"]
    for name, v in record["metrics"].items():
        print(f"{w} {name} {v['value']:.6g} {v['unit']}")
    for name, v in record["diagnostics"].items():
        print(f"# {w} {name} {v['value']:.6g} {v['unit']}".rstrip())


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() or None if p.returncode == 0 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def trajectory_point(args, runs, seconds, records):
    """One trajectory.jsonl line: per-workload medians of every metric."""
    medians = {}
    for r in records:
        for name, m in r["metrics"].items():
            medians.setdefault(r["workload"], {}).setdefault(name, []).append(
                m["value"])
    return {"date": time.strftime("%Y-%m-%d"), "git_head": git_commit(),
            "change": args.trajectory, "seed": args.seed, "runs": runs,
            "run_seconds": seconds, "trace": args.trace,
            "host": {"cpus": os.cpu_count(), "cpu": cpu_model()},
            "medians": {w: {n: statistics.median(v) for n, v in ms.items()}
                        for w, ms in medians.items()}}


def main():
    # SIGTERM unwinds like Ctrl-C, so run_binary can stop its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--ladder", action="store_true",
                    help="serve_disk_mixed: also search the highest rate "
                         "meeting the latency limit (diagnostic)")
    ap.add_argument("--trajectory", metavar="CHANGE",
                    help="run every workload 3 times at --seed and print "
                         "one trajectory.jsonl line of medians for CHANGE")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(1, f"unknown workload {args.workload}; one of {names}")
    seconds = args.seconds or spec["run_seconds"]
    binary = build()

    if args.smoke:
        t0 = time.time()
        problems = []
        for w in names:
            for trace in (0, 1):
                record, _ = run_binary(binary, w, args.seed, 0.6, trace,
                                       smoke=True)
                problems += check_metrics(spec, record)
                if record["failed"]:
                    problems.append(f"{w}: {record['failed']} failed ops")
        for p in problems:
            print(p, file=sys.stderr)
        print(f"smoke: {len(names)} workloads x 2 modes in "
              f"{time.time() - t0:.1f} s: {'FAIL' if problems else 'ok'}")
        sys.exit(3 if problems else 0)

    if args.workload is not None:
        record, code = run_binary(binary, args.workload, args.seed, seconds,
                                  args.trace, ladder=args.ladder)
        problems = check_metrics(spec, record)
        print_rows(record)
        if problems:
            fail(3, "; ".join(problems))
        print(json.dumps({k: record[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        sys.exit(code)

    records, worst = [], 0
    runs = 3 if args.trajectory else args.runs
    for k in range(runs):
        seed = args.seed if args.trajectory else args.seed + k
        for w in names:
            record, code = run_binary(binary, w, seed, seconds,
                                      args.trace, ladder=args.ladder)
            print_rows(record)
            problems = check_metrics(spec, record)
            for p in problems:
                print(p, file=sys.stderr)
            worst = max(worst, 3 if problems else 0, code)
            records.append(record)
    out = Path(args.out) if args.out else build_dir() / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"commit": git_commit(), "seconds": seconds,
                   "runs": records}, f, indent=1)
    print(f"wrote {len(records)} run records to {out}")
    if args.trajectory:
        print(json.dumps(trajectory_point(args, runs, seconds, records)))
    sys.exit(worst)


if __name__ == "__main__":
    main()
