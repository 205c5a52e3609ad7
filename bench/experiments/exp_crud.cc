// CRUD benchmark: YCSB-style update/delete mixes driven through all three
// engines — the buffered in-memory FitingTree ("single"), the
// ConcurrentFitingTree ("concurrent", 1 thread: what the CRUD path costs
// with its latches and epoch guards on), and the writable DiskFitingTree
// ("disk", every base probe through the buffer pool, mutations into the
// delta overlay).
//
// Sweep: mix (U 50r/50u, M 60r/15i/15u/10d, C 20r/40i/40d) × access skew
// (uniform, Zipfian theta=0.99). Every repetition rebuilds the structure,
// replays the identical op stream, and is validated against a std::map
// oracle replayed from the same stream — size, exact full-scan contents
// (keys AND payloads), and sampled absent probes. A mismatch aborts the
// bench (Die): a benchmark that measures wrong answers measures nothing.
//
// Disk cells additionally report pages-read/op, hit rate, the overlay size
// at the end of the run, and the cost of the explicit Compact() that folds
// the overlay back into the file (validated again afterwards).
//
// Env knobs (see EXPERIMENTS.md): FITREE_BENCH_SCALE scales sizes,
// FITREE_BENCH_N / FITREE_BENCH_OPS absolute overrides,
// FITREE_BENCH_PAGE_BYTES / FITREE_BENCH_CACHE_PAGES /
// FITREE_BENCH_DISK_PATH for the disk engine.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "common/io_stats.h"
#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "workloads/workloads.h"

namespace fitree::bench {
namespace {

using workloads::Access;
using workloads::Op;
using workloads::OpMix;
using workloads::OpType;

using Key = int64_t;
using Oracle = std::map<Key, uint64_t>;

constexpr uint64_t kBaseSeed = 0xC4DD5EEDull;
constexpr double kScanSelectivity = 0.0001;
constexpr double kError = 128.0;

// Payload convention for the bulk load: scrambled rank, so an update to
// any key observably changes the stored value.
uint64_t LoadValue(size_t rank) {
  return 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(rank + 1);
}

// Replays the op stream over the initial load, yielding the exact expected
// final contents (single-threaded streams make this schedule-free).
Oracle ReplayOracle(const std::vector<Key>& keys,
                    const std::vector<Op<Key>>& ops) {
  Oracle oracle;
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = LoadValue(i);
  for (const Op<Key>& op : ops) {
    switch (op.type) {
      case OpType::kInsert:
        oracle.emplace(op.key, op.value);
        break;
      case OpType::kUpdate: {
        const auto it = oracle.find(op.key);
        if (it != oracle.end()) it->second = op.value;
        break;
      }
      case OpType::kDelete:
        oracle.erase(op.key);
        break;
      case OpType::kRead:
      case OpType::kScan:
        break;
    }
  }
  return oracle;
}

// One timed pass of the op stream. Returns ns/op.
template <typename Index>
double DriveOps(Index& index, const std::vector<Op<Key>>& ops) {
  uint64_t sink = 0;
  Timer timer;
  for (const Op<Key>& op : ops) {
    switch (op.type) {
      case OpType::kRead:
        sink += index.Lookup(op.key).value_or(0);
        break;
      case OpType::kInsert:
        sink += index.Insert(op.key, op.value) ? 1 : 0;
        break;
      case OpType::kUpdate:
        sink += index.Update(op.key, op.value) ? 1 : 0;
        break;
      case OpType::kDelete:
        sink += index.Delete(op.key) ? 1 : 0;
        break;
      case OpType::kScan: {
        uint64_t acc = 0;
        index.ScanRange(op.key, op.hi,
                        [&](Key, uint64_t v) { acc += v; });
        sink += acc;
        break;
      }
    }
  }
  const double ns = static_cast<double>(timer.ElapsedNs());
  SinkValue(sink);
  return ops.empty() ? 0.0 : ns / static_cast<double>(ops.size());
}

// Exact post-run validation: size, full scan (keys and payloads), and
// sampled absent probes against the replayed oracle.
template <typename Index>
void ValidateCrud(Index& index, const Oracle& oracle, const char* label) {
  if (index.size() != oracle.size()) {
    Die(std::string("crud: ") + label + ": size " +
        std::to_string(index.size()) + " != oracle " +
        std::to_string(oracle.size()));
  }
  auto it = oracle.begin();
  bool ok = true;
  size_t scanned = 0;
  if (!oracle.empty()) {
    index.ScanRange(oracle.begin()->first, oracle.rbegin()->first,
                    [&](Key k, uint64_t v) {
                      ok = ok && it != oracle.end() && it->first == k &&
                           it->second == v;
                      if (it != oracle.end()) ++it;
                      ++scanned;
                    });
  }
  if (!ok || scanned != oracle.size()) {
    Die(std::string("crud: ") + label + ": full scan disagrees with oracle");
  }
  std::mt19937_64 rng(kBaseSeed ^ 0x5A5A);
  for (int i = 0; i < 2000 && !oracle.empty(); ++i) {
    const Key probe = static_cast<Key>(
        rng() % static_cast<uint64_t>(oracle.rbegin()->first + 2));
    const auto want = oracle.find(probe);
    const auto got = index.Lookup(probe);
    const bool match = want == oracle.end()
                           ? !got.has_value()
                           : (got.has_value() && *got == want->second);
    if (!match) {
      Die(std::string("crud: ") + label + ": lookup mismatch at key " +
          std::to_string(probe));
    }
  }
}

void RunCrud(Runner& runner) {
  const size_t n = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_N", static_cast<int64_t>(ScaledN(200'000))));
  const size_t ops_n = static_cast<size_t>(GetEnvInt64(
      "FITREE_BENCH_OPS", static_cast<int64_t>(ScaledN(100'000))));
  const size_t page_bytes = static_cast<size_t>(
      GetEnvInt64("FITREE_BENCH_PAGE_BYTES",
                  static_cast<int64_t>(storage::kDefaultPageBytes)));
  const size_t cache_override =
      static_cast<size_t>(GetEnvInt64("FITREE_BENCH_CACHE_PAGES", 0));
  const char* path_env = std::getenv("FITREE_BENCH_DISK_PATH");
  const std::string path = (path_env != nullptr && *path_env != '\0')
                               ? std::string(path_env) + ".crud"
                               : "bench_crud_index.fit";

  const auto keys = MemoKeys("real/Weblogs/" + std::to_string(n) + "/11",
                             [&] { return datasets::Weblogs(n, 11); });
  std::vector<uint64_t> values(keys->size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = LoadValue(i);

  const size_t leaf_cap = storage::LeafCapacity<Key>(page_bytes);
  const uint64_t leaf_pages = (keys->size() + leaf_cap - 1) / leaf_cap;
  const size_t cache_pages =
      cache_override > 0
          ? cache_override
          : std::max<size_t>(16, static_cast<size_t>(leaf_pages / 10));
  std::printf("crud: %zu keys, %zu ops, error=%.0f, cache_pages=%zu\n",
              keys->size(), ops_n, kError, cache_pages);

  const struct {
    const char* name;
    OpMix mix;
  } mixes[] = {
      {"U(50r/50u)", {.read = 0.5, .update = 0.5}},
      {"M(60r/15i/15u/10d)",
       {.read = 0.6, .insert = 0.15, .update = 0.15, .del = 0.10}},
      {"C(20r/40i/40d)", {.read = 0.2, .insert = 0.4, .del = 0.4}},
  };
  const Access accesses[] = {Access::kUniform, Access::kZipfian};

  for (const auto& mix : mixes) {
    for (const Access access : accesses) {
      const auto ops = workloads::MakeOpStream<Key>(
          *keys, ops_n, mix.mix, access, kScanSelectivity, kBaseSeed);
      const Oracle oracle = ReplayOracle(*keys, ops);
      const char* access_name =
          access == Access::kUniform ? "uniform" : "zipfian";

      const auto report = [&](const char* structure, const Stats& stats,
                              std::vector<std::pair<std::string, double>>
                                  metrics) {
        metrics.insert(metrics.begin(),
                       {"Mops", MopsFromNsPerOp(stats.p50)});
        runner.Report({{"mix", mix.name},
                       {"access", access_name},
                       {"structure", structure}},
                      stats, std::move(metrics));
      };

      {
        double merges = 0.0, segments = 0.0;
        const Stats stats = runner.CollectReps([&] {
          FitingTreeConfig config;
          config.error = kError;
          auto tree = FitingTree<Key>::Create(*keys, values, config);
          const double ns = DriveOps(*tree, ops);
          ValidateCrud(*tree, oracle, "single");
          merges = static_cast<double>(tree->stats().segment_merges);
          segments = static_cast<double>(tree->SegmentCount());
          return ns;
        }, /*warmup=*/false);
        report("single", stats, {{"segments", segments}, {"merges", merges}});
      }

      {
        double merges = 0.0, segments = 0.0;
        const Stats stats = runner.CollectReps([&] {
          ConcurrentFitingTreeConfig config;
          config.error = kError;
          auto tree = ConcurrentFitingTree<Key>::Create(*keys, values, config);
          const double ns = DriveOps(*tree, ops);
          tree->QuiesceMerges();
          ValidateCrud(*tree, oracle, "concurrent");
          merges = static_cast<double>(tree->stats().segment_merges);
          segments = static_cast<double>(tree->SegmentCount());
          return ns;
        }, /*warmup=*/false);
        report("concurrent", stats,
               {{"segments", segments}, {"merges", merges}});
      }

      {
        // Disk: serialize once per rep (fresh overlay), mutate through the
        // delta, validate, then compact and validate again.
        double pages_per_op = 0.0, hit_rate = 0.0, delta_entries = 0.0;
        double compact_ms = 0.0, compact_pages = 0.0;
        const Stats stats = runner.CollectReps([&] {
          const auto base =
              StaticFitingTree<Key>::Create(*keys, values, kError);
          if (!storage::WriteIndexFile(path, *base,
                                       storage::SegmentFileOptions{
                                           page_bytes})) {
            Die("crud: failed to write " + path);
          }
          typename storage::DiskFitingTree<Key>::Options options;
          options.cache_pages = cache_pages;
          auto disk = storage::DiskFitingTree<Key>::Open(path, options);
          if (disk == nullptr) Die("crud: cannot open " + path);
          disk->ResetIoStats();
          const double ns = DriveOps(*disk, ops);
          const IoStats io = disk->io();
          pages_per_op = static_cast<double>(io.pages_read) /
                         static_cast<double>(ops.size());
          hit_rate = io.HitRate();
          delta_entries = static_cast<double>(disk->DeltaEntries());
          ValidateCrud(*disk, oracle, "disk");
          Timer compact_timer;
          if (!disk->Compact()) Die("crud: Compact() failed");
          compact_ms =
              static_cast<double>(compact_timer.ElapsedNs()) / 1e6;
          compact_pages = static_cast<double>(disk->CompactPagesRewritten());
          if (disk->DeltaEntries() != 0) {
            Die("crud: overlay not empty after Compact()");
          }
          ValidateCrud(*disk, oracle, "disk+compact");
          if (disk->io_error()) Die("crud: disk I/O error");
          return ns;
        }, /*warmup=*/false);
        report("disk", stats,
               {{"pages_read_per_op", pages_per_op},
                {"hit_rate", hit_rate},
                {"delta_entries", delta_entries},
                {"compact_ms", compact_ms},
                {"compact_pages", compact_pages}});
      }
    }
  }
  std::remove(path.c_str());
}

FITREE_REGISTER_EXPERIMENT(
    "crud",
    "CRUD mixes (update/delete) on single/concurrent/disk (validated)",
    RunCrud);

}  // namespace
}  // namespace fitree::bench
