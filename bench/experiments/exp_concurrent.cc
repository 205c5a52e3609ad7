// Multi-threaded YCSB-style benchmark for the concurrent FITing-Tree
// (concurrency/concurrent_fiting_tree.h).
//
// Sweep: workload mix (A 50r/50i, B 95r/5i, C 100r, E 95scan/5i) ×
// access skew (uniform, Zipfian theta=0.99) × thread count (powers of two
// up to FITREE_BENCH_MAX_THREADS). Each cell runs two structures:
//   concurrent — epoch-protected reads, per-segment insert latches
//   single     — plain FitingTree, 1 thread only (the no-sync floor)
// The record's ns/op is aggregate wall time per operation (Mops/s rides
// along as a metric), with sampled p50/p99 op latency from the last rep.
// Each repetition rebuilds the tree and replays the identical per-thread
// op streams, and EVERY rep is validated against a std::set reference
// built from the same logs — size, sampled membership, and exact
// range-scan contents. Any mismatch aborts the bench.
//
// Env knobs (see EXPERIMENTS.md): FITREE_BENCH_SCALE scales sizes,
// FITREE_BENCH_MAX_THREADS caps the sweep (default 8),
// FITREE_BENCH_N / FITREE_BENCH_OPS absolute overrides,
// FITREE_BENCH_BG_MERGE=1 routes merges to the background worker.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "datasets/datasets.h"
#include "telemetry/registry.h"
#include "workloads/workloads.h"

namespace fitree::bench {
namespace {

using workloads::Access;
using workloads::Op;
using workloads::OpMix;
using workloads::OpType;

using Key = int64_t;
using Streams = std::vector<std::vector<Op<Key>>>;

constexpr uint64_t kBaseSeed = 0xF17EE5EEDull;
constexpr double kScanSelectivity = 0.0001;
constexpr int kLatencySampleEvery = 16;

struct RunResult {
  double ns_per_op = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

// Drives `streams[t]` on thread t against `index`, timing the whole run for
// aggregate throughput and sampling every kLatencySampleEvery-th op for the
// latency percentiles.
template <typename Index>
RunResult DriveThreads(Index& index, const Streams& streams) {
  const int threads = static_cast<int>(streams.size());
  std::vector<std::vector<int64_t>> samples(streams.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(streams.size());
  Timer wall;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<Op<Key>>& ops = streams[static_cast<size_t>(t)];
      std::vector<int64_t>& lat = samples[static_cast<size_t>(t)];
      lat.reserve(ops.size() / kLatencySampleEvery + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      uint64_t sink = 0;
      Timer op_timer;
      for (size_t i = 0; i < ops.size(); ++i) {
        const Op<Key>& op = ops[i];
        // Only sampled ops pay for clock reads; a timer on every op would
        // add a fixed ~20-30 ns to sub-200 ns operations.
        const bool sampled = i % kLatencySampleEvery == 0;
        if (sampled) op_timer.Reset();
        switch (op.type) {
          case OpType::kRead:
            sink += index.Contains(op.key) ? 1 : 0;
            break;
          case OpType::kInsert:
            index.Insert(op.key, op.value);
            break;
          case OpType::kUpdate:
            sink += index.Update(op.key, op.value) ? 1 : 0;
            break;
          case OpType::kDelete:
            sink += index.Delete(op.key) ? 1 : 0;
            break;
          case OpType::kScan: {
            uint64_t acc = 0;
            index.ScanRange(op.key, op.hi, [&](Key k) {
              acc += static_cast<uint64_t>(k);
            });
            sink += acc;
            break;
          }
        }
        if (sampled) lat.push_back(op_timer.ElapsedNs());
      }
      SinkValue(sink);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  wall.Reset();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double ns = static_cast<double>(wall.ElapsedNs());

  size_t total_ops = 0;
  for (const auto& s : streams) total_ops += s.size();
  std::vector<int64_t> merged;
  for (auto& s : samples) {
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end());
  RunResult r;
  r.ns_per_op = total_ops > 0 ? ns / static_cast<double>(total_ops) : 0.0;
  if (!merged.empty()) {
    r.p50_ns = static_cast<double>(merged[merged.size() / 2]);
    r.p99_ns = static_cast<double>(merged[merged.size() * 99 / 100]);
  }
  return r;
}

// Issued-op totals of a set of streams, bucketed by telemetry op id.
struct IssuedOps {
  uint64_t lookups = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
};

IssuedOps CountIssuedOps(const Streams& streams) {
  IssuedOps issued;
  for (const auto& stream : streams) {
    for (const Op<Key>& op : stream) {
      switch (op.type) {
        case OpType::kRead: ++issued.lookups; break;
        case OpType::kInsert: ++issued.inserts; break;
        case OpType::kUpdate: ++issued.updates; break;
        case OpType::kDelete: ++issued.deletes; break;
        case OpType::kScan: ++issued.scans; break;
      }
    }
  }
  return issued;
}

// Point-in-time read of the concurrent engine's registry op counters.
IssuedOps ConcurrentOpCounts() {
  namespace tel = fitree::telemetry;
  auto& reg = tel::Registry::Get();
  const auto load = [&](tel::Op op) {
    return reg.op_count(tel::Engine::kConcurrent, op).Load();
  };
  IssuedOps c;
  c.lookups = load(tel::Op::kLookup);
  c.inserts = load(tel::Op::kInsert);
  c.updates = load(tel::Op::kUpdate);
  c.deletes = load(tel::Op::kDelete);
  c.scans = load(tel::Op::kScan);
  return c;
}

// Telemetry exactness check (acceptance criterion): after the drive
// quiesces — threads joined, background merges drained — the registry's
// per-op deltas for the concurrent engine must equal the driver's issued
// totals EXACTLY (op counters count calls, so rejected duplicate inserts
// still count). Runs before Validate(), whose extra Contains/ScanRange
// probes would land on the same counters. Any mismatch aborts the bench.
void ValidateTelemetryCounts(const IssuedOps& before, const IssuedOps& after,
                             const IssuedOps& issued) {
  const auto check = [](const char* op, uint64_t got, uint64_t want) {
    if (got != want) {
      Die(std::string("concurrent: telemetry ") + op + " count " +
          std::to_string(got) + " != issued " + std::to_string(want));
    }
  };
  check("lookup", after.lookups - before.lookups, issued.lookups);
  check("insert", after.inserts - before.inserts, issued.inserts);
  check("update", after.updates - before.updates, issued.updates);
  check("delete", after.deletes - before.deletes, issued.deletes);
  check("scan", after.scans - before.scans, issued.scans);
}

// Reference final state: base keys plus every insert in the op log (set
// semantics make the result schedule-independent).
std::set<Key> ReferenceSet(const std::vector<Key>& keys,
                           const Streams& streams) {
  std::set<Key> ref(keys.begin(), keys.end());
  for (const auto& stream : streams) {
    for (const Op<Key>& op : stream) {
      if (op.type == OpType::kInsert) ref.insert(op.key);
    }
  }
  return ref;
}

// Post-run validation of a quiesced index against the reference set.
template <typename Index>
void Validate(Index& index, const std::set<Key>& ref, const char* label) {
  if (index.size() != ref.size()) {
    Die(std::string("concurrent: ") + label + ": size " +
        std::to_string(index.size()) + " != reference " +
        std::to_string(ref.size()));
  }
  std::mt19937_64 rng(kBaseSeed ^ 0xABCD);
  std::vector<Key> ref_keys(ref.begin(), ref.end());
  for (int i = 0; i < 2000; ++i) {
    const Key probe = i % 2 == 0
                          ? ref_keys[rng() % ref_keys.size()]
                          : static_cast<Key>(rng() % (ref_keys.back() + 2));
    if (index.Contains(probe) != (ref.count(probe) > 0)) {
      Die(std::string("concurrent: ") + label +
          ": membership mismatch at key " + std::to_string(probe));
    }
  }
  for (int i = 0; i < 10; ++i) {
    const size_t start = rng() % ref_keys.size();
    const size_t end =
        std::min(ref_keys.size() - 1, start + ref_keys.size() / 100);
    std::vector<Key> got;
    index.ScanRange(ref_keys[start], ref_keys[end],
                    [&](Key k) { got.push_back(k); });
    const auto lo = ref.lower_bound(ref_keys[start]);
    const auto hi = ref.upper_bound(ref_keys[end]);
    if (!std::equal(got.begin(), got.end(), lo, hi)) {
      Die(std::string("concurrent: ") + label +
          ": range scan mismatch at query " + std::to_string(i));
    }
  }
}

void RunConcurrent(Runner& runner) {
  // FITREE_BENCH_N / FITREE_BENCH_OPS override the scaled defaults — the
  // TSan CI smoke uses them to stay inside sanitizer time budgets.
  const size_t n = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_N", static_cast<int64_t>(ScaledN(400'000))));
  const size_t ops_per_thread = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_OPS", static_cast<int64_t>(ScaledN(120'000))));
  const int max_threads =
      std::max(1, GetEnvInt("FITREE_BENCH_MAX_THREADS", 8));
  const bool bg_merge = GetEnvInt("FITREE_BENCH_BG_MERGE", 0) != 0;
  const double error = 128.0;

  const auto keys = MemoKeys("real/Weblogs/" + std::to_string(n) + "/11",
                             [&] { return datasets::Weblogs(n, 11); });
  std::printf(
      "concurrent: %zu keys, %zu ops/thread, error=%.0f, max_threads=%d, "
      "bg_merge=%d, hw_threads=%u\n",
      keys->size(), ops_per_thread, error, max_threads,
      static_cast<int>(bg_merge), std::thread::hardware_concurrency());

  const struct {
    const char* name;
    OpMix mix;
  } mixes[] = {
      {"A(50r/50i)", {.read = 0.5, .insert = 0.5, .scan = 0.0}},
      {"B(95r/5i)", {.read = 0.95, .insert = 0.05, .scan = 0.0}},
      {"C(100r)", {.read = 1.0, .insert = 0.0, .scan = 0.0}},
      {"E(95s/5i)", {.read = 0.0, .insert = 0.05, .scan = 0.95}},
  };
  const Access accesses[] = {Access::kUniform, Access::kZipfian};

  for (const auto& mix : mixes) {
    for (const Access access : accesses) {
      for (int threads = 1; threads <= max_threads; threads *= 2) {
        const auto streams = workloads::MakeThreadOpStreams<Key>(
            *keys, threads, ops_per_thread, mix.mix, access, kScanSelectivity,
            kBaseSeed);
        const std::set<Key> ref = ReferenceSet(*keys, streams);
        const char* access_name =
            access == Access::kUniform ? "uniform" : "zipfian";

        const auto report = [&](const char* structure, const Stats& stats,
                                const RunResult& last, double segments,
                                double merges) {
          runner.Report({{"mix", mix.name},
                         {"access", access_name},
                         {"threads", std::to_string(threads)},
                         {"structure", structure}},
                        stats,
                        {{"Mops", MopsFromNsPerOp(stats.p50)},
                         {"p50_ns", last.p50_ns},
                         {"p99_ns", last.p99_ns},
                         {"segments", segments},
                         {"merges", merges}});
        };

        {
          RunResult last;
          double segments = 0.0, merges = 0.0;
          IssuedOps telem_delta;
          const IssuedOps issued = CountIssuedOps(streams);
          const Stats stats = runner.CollectReps([&] {
            ConcurrentFitingTreeConfig config;
            config.error = error;
            config.background_merge = bg_merge;
            auto tree = ConcurrentFitingTree<Key>::Create(*keys, config);
            const IssuedOps telem_before = ConcurrentOpCounts();
            last = DriveThreads(*tree, streams);
            tree->QuiesceMerges();
            const IssuedOps telem_after = ConcurrentOpCounts();
            ValidateTelemetryCounts(telem_before, telem_after, issued);
            telem_delta = {telem_after.lookups - telem_before.lookups,
                           telem_after.inserts - telem_before.inserts,
                           telem_after.updates - telem_before.updates,
                           telem_after.deletes - telem_before.deletes,
                           telem_after.scans - telem_before.scans};
            Validate(*tree, ref, "concurrent");
            segments = static_cast<double>(tree->SegmentCount());
            merges = static_cast<double>(tree->stats().segment_merges);
            return last.ns_per_op;
          }, /*warmup=*/false);
          runner.Report(
              {{"mix", mix.name},
               {"access", access_name},
               {"threads", std::to_string(threads)},
               {"structure", "concurrent"}},
              stats,
              {{"Mops", MopsFromNsPerOp(stats.p50)},
               {"p50_ns", last.p50_ns},
               {"p99_ns", last.p99_ns},
               {"segments", segments},
               {"merges", merges},
               // Registry-observed op counts for the last rep (validated
               // above to equal the issued totals exactly).
               {"telem_lookups", static_cast<double>(telem_delta.lookups)},
               {"telem_inserts", static_cast<double>(telem_delta.inserts)},
               {"telem_scans", static_cast<double>(telem_delta.scans)}});
        }

        if (threads == 1) {
          RunResult last;
          double segments = 0.0;
          const Stats stats = runner.CollectReps([&] {
            FitingTreeConfig config;
            config.error = error;
            auto tree = FitingTree<Key>::Create(*keys, config);
            last = DriveThreads(*tree, streams);
            Validate(*tree, ref, "single");
            segments = static_cast<double>(tree->SegmentCount());
            return last.ns_per_op;
          }, /*warmup=*/false);
          report("single", stats, last, segments, 0.0);
        }
      }
    }
  }
}

FITREE_REGISTER_EXPERIMENT(
    "concurrent",
    "YCSB A/B/C/E sweep: concurrent vs single (validated)",
    RunConcurrent);

}  // namespace
}  // namespace fitree::bench
