// micro_phase_breakdown: Fig-13-style lookup decomposition, but from live
// phase spans (telemetry/phase.h) instead of the hand-threaded
// ContainsWithBreakdown plumbing — all four engines, one mechanism.
//
// Per engine, the same single-threaded lookup loop runs at three sample
// periods:
//   off     — period 65536: spans effectively never arm (the baseline;
//             bounded, not 2^62, so the thread's sample countdown recovers
//             for experiments that run after this one)
//   sampled — the default sample period, 64 (production cost)
//   full    — period 1: every op sampled, every span timed
// The off/sampled/full ns/op columns are the same-process overhead A/B
// quoted in EXPERIMENTS.md; the full-mode registry delta yields the
// per-phase grid: ns/op attributed to each phase (self time, children
// excluded) plus its percentage share.
//
// The buffered/concurrent/disk trees are pre-seeded with inserts so the
// buffer_probe / delta_probe phases exercise non-empty structures, and the
// disk cache is deliberately undersized so page_io shows up.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "workloads/workloads.h"

namespace fitree::bench {
namespace {

#ifndef FITREE_NO_TELEMETRY

namespace tm = fitree::telemetry;

using storage::DiskFitingTree;

constexpr double kError = 128.0;

// Runs `body` (one lookup per call) through the off/sampled/full period
// sweep and reports one record per mode; the full-mode registry delta is
// decomposed into per-phase metrics for `engine`.
void MeasureEngine(Runner& runner, tm::Engine engine, size_t ops,
                   const std::function<uint64_t(size_t)>& body) {
  const char* engine_name = tm::EngineName(engine);
  const uint64_t saved_period = tm::SamplePeriod();

  const auto run_mode = [&](uint64_t period) {
    tm::SetSamplePeriodForTest(period);
    return runner.CollectReps([&] { return TimedLoopNsPerOp(ops, body); });
  };

  runner.Report({{"engine", engine_name}, {"mode", "off"}}, run_mode(65536));
  runner.Report({{"engine", engine_name}, {"mode", "sampled"}},
                run_mode(saved_period));

  // Full attribution: bracket the measurement with registry snapshots so
  // the decomposition covers exactly this mode's ops (warmup included on
  // both sides of the division).
  const tm::RegistrySnapshot before = tm::Registry::Get().Snapshot();
  const Stats full = run_mode(1);
  const tm::RegistrySnapshot delta =
      tm::Registry::Get().Snapshot().DeltaSince(before);

  const size_t e = static_cast<size_t>(engine);
  const uint64_t op_count =
      delta.ops[e][static_cast<size_t>(tm::Op::kLookup)].count;
  std::vector<std::pair<std::string, double>> metrics;
  double total_ns_op = 0.0;
  if (op_count > 0) {
    for (size_t p = 0; p < tm::kNumPhases; ++p) {
      const auto& cell = delta.phases[e][p];
      if (cell.count == 0 || cell.latency.empty()) continue;
      // Every op is sampled at period 1, so samples ~= spans over the
      // measured ops; mean self time * spans / ops is the phase's ns/op.
      const double ns_op = cell.latency.MeanNs() *
                           static_cast<double>(cell.count) /
                           static_cast<double>(op_count);
      metrics.emplace_back(
          std::string(tm::PhaseName(static_cast<tm::Phase>(p))) + "_ns_op",
          ns_op);
      total_ns_op += ns_op;
    }
    if (total_ns_op > 0.0) {
      const size_t named = metrics.size();
      for (size_t i = 0; i < named; ++i) {
        std::string key = metrics[i].first;  // "<phase>_ns_op"
        key.replace(key.size() - 6, 6, "_pct");
        metrics.emplace_back(std::move(key),
                             100.0 * metrics[i].second / total_ns_op);
      }
    }
  }
  runner.Report({{"engine", engine_name}, {"mode", "full"}}, full,
                std::move(metrics));

  tm::SetSamplePeriodForTest(saved_period);
}

void RunPhaseBreakdown(Runner& runner) {
  const size_t n = ScaledN(200'000);
  const size_t probes_n = ScaledN(100'000);
  const std::string dataset_key = "real/Weblogs/" + std::to_string(n) + "/7";
  const auto keys =
      MemoKeys(dataset_key, [&] { return datasets::Weblogs(n, 7); });
  const auto probes = MemoProbes(dataset_key, *keys, probes_n,
                                 workloads::Access::kUniform,
                                 /*absent_fraction=*/0.1, 8);
  // ~5 pending inserts per segment buffer: buffer_probe/delta_probe walk
  // non-empty structures without triggering wholesale merges.
  const auto inserts = MemoInserts(dataset_key, *keys, n / 40, 9);

  {
    FitingTreeConfig config;
    config.error = kError;
    config.buffer_size = 256;
    auto tree = FitingTree<int64_t>::Create(*keys, config);
    for (size_t i = 0; i < inserts->size(); ++i) {
      tree->Insert((*inserts)[i], static_cast<uint64_t>(i));
    }
    MeasureEngine(runner, tm::Engine::kBuffered, probes->size(),
                  [&](size_t i) {
                    return tree->Contains((*probes)[i]) ? uint64_t{1} : 0;
                  });
  }

  {
    auto tree = StaticFitingTree<int64_t>::Create(*keys, kError);
    MeasureEngine(runner, tm::Engine::kStatic, probes->size(),
                  [&](size_t i) {
                    return tree->Contains((*probes)[i]) ? uint64_t{1} : 0;
                  });
  }

  {
    ConcurrentFitingTreeConfig config;
    config.error = kError;
    auto tree = ConcurrentFitingTree<int64_t>::Create(*keys, config);
    for (size_t i = 0; i < inserts->size(); ++i) {
      tree->Insert((*inserts)[i], static_cast<uint64_t>(i));
    }
    MeasureEngine(runner, tm::Engine::kConcurrent, probes->size(),
                  [&](size_t i) {
                    return tree->Contains((*probes)[i]) ? uint64_t{1} : 0;
                  });
  }

  {
    const char* path_env = std::getenv("FITREE_BENCH_DISK_PATH");
    const std::string path = (path_env != nullptr && *path_env != '\0')
                                 ? std::string(path_env) + ".phases"
                                 : "bench_phase_breakdown.fit";
    const auto oracle = StaticFitingTree<int64_t>::Create(*keys, kError);
    if (!storage::WriteIndexFile(path, *oracle,
                                 storage::SegmentFileOptions{})) {
      Die("phase_breakdown: failed to write " + path);
    }
    DiskFitingTree<int64_t>::Options options;
    // Undersized cache: page_io must appear in the grid, not just the
    // compute phases.
    const size_t leaf_cap =
        storage::LeafCapacity<int64_t>(storage::kDefaultPageBytes);
    const uint64_t leaf_pages = (keys->size() + leaf_cap - 1) / leaf_cap;
    options.cache_pages = std::max<uint64_t>(4, leaf_pages / 8);
    auto disk = DiskFitingTree<int64_t>::Open(path, options);
    if (disk == nullptr) Die("phase_breakdown: cannot open " + path);
    for (size_t i = 0; i < inserts->size(); ++i) {
      disk->Insert((*inserts)[i], static_cast<uint64_t>(i));
    }
    MeasureEngine(runner, tm::Engine::kDisk, probes->size(), [&](size_t i) {
      return disk->Lookup((*probes)[i]).value_or(0);
    });
    if (disk->io_error()) Die("phase_breakdown: I/O error on " + path);
    disk.reset();
    std::remove(path.c_str());
  }
}

#else  // FITREE_NO_TELEMETRY

// Without telemetry there are no spans to decompose; the experiment
// registers (the name stays valid in --list) but reports nothing.
void RunPhaseBreakdown(Runner&) {}

#endif  // FITREE_NO_TELEMETRY

FITREE_REGISTER_EXPERIMENT(
    "micro_phase_breakdown",
    "Phase decomposition from live spans: per-engine lookup ns/op by phase",
    RunPhaseBreakdown);

}  // namespace
}  // namespace fitree::bench
