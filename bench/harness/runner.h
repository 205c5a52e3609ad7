// Benchmark runner: repetitions, warmup, result records, table rendering,
// dataset/workload memoization, and environment capture.
//
// An experiment body (see registry.h) receives a Runner and, for every
// parameter point it measures, calls CollectReps() with a closure that runs
// ONE timed repetition and returns its ns/op; the runner handles warmup and
// repetition, turns the per-rep samples into outlier-robust Stats
// (stats.h), and Report() appends a ResultRecord carrying the full
// parameter point plus any extra metrics (index sizes, hit rates, ...).
// main.cc renders each experiment's records as the paper-style table and
// serializes all of them — with captured environment metadata — into one
// machine-readable BENCH_results.json (schema in EXPERIMENTS.md).

#ifndef FITREE_BENCH_HARNESS_RUNNER_H_
#define FITREE_BENCH_HARNESS_RUNNER_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness/json_writer.h"
#include "bench/harness/stats.h"
#include "common/env.h"
#include "common/sink.h"
#include "common/timer.h"
#include "telemetry/perf_counters.h"
#include "workloads/workloads.h"

namespace fitree::bench {

// One measured (or analytic) cell: the experiment it belongs to, the full
// parameter point, ns/op statistics across repetitions, and extra metrics.
// `perf` carries the hardware-counter deltas captured around the timed
// repetitions (status "not measured" for analytic records) and `perf_ops`
// the estimated operation count inside that window, for per-op rates.
// Neither participates in operator== — equality is the bench_diff pairing
// notion, and PMU readings are never reproducible across runs.
struct ResultRecord {
  std::string experiment;
  std::vector<std::pair<std::string, std::string>> params;
  Stats ns_per_op;
  std::vector<std::pair<std::string, double>> metrics;
  telemetry::PerfSample perf;
  double perf_ops = 0.0;

  bool operator==(const ResultRecord& other) const;
};

// Process-wide PerfRegion shared by every Runner: opened once (fd setup is
// not free), started/stopped around each CollectReps measurement window.
// Defined in runner.cc.
void PerfCaptureStart();
telemetry::PerfSample PerfCaptureStop();

class Runner {
 public:
  Runner(std::string experiment, int reps)
      : experiment_(std::move(experiment)), reps_(reps < 1 ? 1 : reps) {}

  const std::string& experiment() const { return experiment_; }
  int reps() const { return reps_; }

  // Runs `rep_fn` (one full timed repetition returning its ns/op) reps()
  // times and aggregates the samples. When `warmup` is true and reps > 1,
  // one extra untimed repetition runs first and is discarded — read-mostly
  // experiments use it to populate caches; mutating experiments that
  // rebuild their structure every rep pass warmup=false (a discarded
  // rebuild would only add runtime, not fidelity).
  Stats CollectReps(const std::function<double()>& rep_fn,
                    bool warmup = true) {
    if (warmup && reps_ > 1) (void)rep_fn();
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(reps_));
    // PMU counters bracket the timed repetitions (warmup excluded). The
    // operation count inside the window is reconstructed from each rep's
    // wall time divided by its reported ns/op — rep_fn only returns the
    // ratio, but wall/ratio recovers ops well enough for per-op rates.
    double est_ops = 0.0;
    PerfCaptureStart();
    for (int r = 0; r < reps_; ++r) {
      Timer rep_timer;
      const double ns_op = rep_fn();
      const double wall_ns = static_cast<double>(rep_timer.ElapsedNs());
      if (ns_op > 0.0) est_ops += wall_ns / ns_op;
      samples.push_back(ns_op);
    }
    pending_perf_ = PerfCaptureStop();
    pending_perf_ops_ = est_ops;
    has_pending_perf_ = true;
    return Stats::From(samples);
  }

  // Appends one result record for this experiment. The most recent
  // CollectReps PMU capture (if any, not yet consumed) rides along;
  // analytic records reported without a measurement keep the default
  // "not measured" sample.
  void Report(std::vector<std::pair<std::string, std::string>> params,
              Stats stats,
              std::vector<std::pair<std::string, double>> metrics = {}) {
    ResultRecord record{experiment_, std::move(params), stats,
                        std::move(metrics), {}, 0.0};
    if (has_pending_perf_) {
      record.perf = pending_perf_;
      record.perf_ops = pending_perf_ops_;
      has_pending_perf_ = false;
    }
    records_.push_back(std::move(record));
  }

  const std::vector<ResultRecord>& records() const { return records_; }

  // Renders this experiment's records as one column-aligned table: the
  // union of parameter keys, the ns/op statistics, then the union of
  // metric keys — the paper-figure tables re-expressed as views over the
  // same records that go to JSON.
  void RenderTable(std::ostream& os) const;

 private:
  std::string experiment_;
  int reps_;
  std::vector<ResultRecord> records_;
  telemetry::PerfSample pending_perf_;
  double pending_perf_ops_ = 0.0;
  bool has_pending_perf_ = false;
};

// --- measurement loops ----------------------------------------------------

// Average latency of `body(i)` over `ops` calls, in ns/op. `body` must
// return a value, which is accumulated into the process-wide sink
// (common/sink.h) to defeat dead-code elimination.
template <typename Body>
double TimedLoopNsPerOp(size_t ops, Body body) {
  uint64_t sink = 0;
  Timer timer;
  for (size_t i = 0; i < ops; ++i) {
    sink += static_cast<uint64_t>(body(i));
  }
  const double ns = static_cast<double>(timer.ElapsedNs());
  SinkValue(sink);
  return ops > 0 ? ns / static_cast<double>(ops) : 0.0;
}

// Per-thread average latency when `threads` workers issue `ops` operations
// in total against shared read-only state (the paper's Figure 6 reports
// "latency per thread"). Falls back to the single-threaded loop for
// threads <= 1.
double TimedLoopNsPerOpParallel(size_t ops, int threads,
                                const std::function<uint64_t(size_t)>& body);

// Million operations per second, derived from ns/op.
inline double MopsFromNsPerOp(double ns_per_op) {
  return ns_per_op > 0.0 ? 1e3 / ns_per_op : 0.0;
}

// --- sizing and failure ---------------------------------------------------

// Base element count scaled by the FITREE_BENCH_SCALE environment variable
// (values below 1 clamp to 1).
inline size_t ScaledN(size_t base) {
  const int64_t scale = GetEnvInt64("FITREE_BENCH_SCALE", 1);
  return base * static_cast<size_t>(scale < 1 ? 1 : scale);
}

// Aborts the whole bench run: a benchmark that measures wrong answers
// measures nothing, so oracle-validation failures are fatal.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "fitree_bench: %s\n", message.c_str());
  std::exit(2);
}

// Compact human/table formatting for metric values, e.g. "12.35", "3e+06".
std::string FmtMetric(double value);

// --- dataset / workload memoization ---------------------------------------

// Returns the vector built by `make`, cached process-wide under `key` so
// experiments sharing a dataset or probe set (same generator, n, seed)
// build it once. The cache is bounded by FITREE_BENCH_MEMO_BYTES (default
// 1 GiB), evicting least-recently-inserted entries; shared_ptr ownership
// keeps a caller's vector alive across eviction.
std::shared_ptr<const std::vector<int64_t>> MemoKeys(
    const std::string& key, const std::function<std::vector<int64_t>()>& make);

// Memoized workloads::MakeLookupProbes over a memoized dataset.
// `dataset_key` is the key the dataset was memoized under (it namespaces
// the probe cache entry).
std::shared_ptr<const std::vector<int64_t>> MemoProbes(
    const std::string& dataset_key, const std::vector<int64_t>& keys,
    size_t count, workloads::Access access, double absent_fraction,
    uint64_t seed);

// Memoized workloads::MakeInserts over a memoized dataset.
std::shared_ptr<const std::vector<int64_t>> MemoInserts(
    const std::string& dataset_key, const std::vector<int64_t>& keys,
    size_t count, uint64_t seed);

// --- JSON schema ----------------------------------------------------------

Json StatsToJson(const Stats& stats);
Json ResultRecordToJson(const ResultRecord& record);
std::optional<ResultRecord> ResultRecordFromJson(const Json& json);

// Captures the run environment: git SHA (+dirty flag), compiler, flags,
// build type, CPU model, hardware threads, UTC timestamp, and every
// FITREE_* environment knob that is set.
Json CaptureEnvironment();

// Snapshot of the process-wide telemetry registry as one JSON object (the
// "telemetry" member of BENCH_results.json; schema in EXPERIMENTS.md):
// per-(engine, op) counts + sampled latency percentiles, the
// per-(engine, phase) span grid, and the named counters and gauges.
Json TelemetryToJson();

// Assembles the top-level BENCH_results.json document.
Json MakeResultsDocument(const Json& environment, int reps,
                         const std::vector<ResultRecord>& records);

// Assembles the slim committed-baseline document: only what the
// tools/bench_diff.py gate pairs and compares — experiment, params, and
// the ns_per_op statistics — plus the environment header for provenance.
// No metrics, no perf block, no telemetry snapshot: those would balloon
// the committed baseline while never participating in the diff.
Json MakeBaselineDocument(const Json& environment, int reps,
                          const std::vector<ResultRecord>& records);

}  // namespace fitree::bench

#endif  // FITREE_BENCH_HARNESS_RUNNER_H_
