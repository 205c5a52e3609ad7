// Micro-benchmarks of the core operations (the former google-benchmark
// bench_micro, re-hosted on the shared harness so the numbers land in the
// same BENCH_results.json): point lookups for every index structure,
// inserts, segmentation throughput and B+ tree primitives.

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/binary_search_index.h"
#include "baselines/full_index.h"
#include "baselines/paged_index.h"
#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "btree/btree_map.h"
#include "core/fiting_tree.h"
#include "core/flat_directory.h"
#include "core/optimal_segmentation.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "datasets/datasets.h"

namespace fitree::bench {
namespace {

constexpr size_t kProbeMask = (1 << 16) - 1;  // probe count is a power of two

struct MicroData {
  std::string dataset_key;  // the memo namespace, shared by all workloads
  std::shared_ptr<const std::vector<int64_t>> keys;
  std::shared_ptr<const std::vector<int64_t>> probes;
};

MicroData LoadData() {
  const size_t n = ScaledN(1000000);
  const std::string dataset_key = "real/Weblogs/" + std::to_string(n) + "/1";
  MicroData data;
  data.dataset_key = dataset_key;
  data.keys = MemoKeys(dataset_key, [&] { return datasets::Weblogs(n, 1); });
  data.probes = MemoProbes(dataset_key, *data.keys, kProbeMask + 1,
                           workloads::Access::kUniform, 0.0, 2);
  return data;
}

void RunMicroLookup(Runner& runner) {
  const MicroData data = LoadData();
  const size_t ops = ScaledN(1 << 20);

  const auto measure = [&](auto& index) {
    return runner.CollectReps([&] {
      return TimedLoopNsPerOp(ops, [&](size_t i) {
        return index.Contains((*data.probes)[i & kProbeMask]) ? uint64_t{1}
                                                              : uint64_t{0};
      });
    });
  };

  for (double error : {16.0, 256.0, 4096.0, 65536.0}) {
    FitingTreeConfig config;
    config.error = error;
    config.buffer_size = 0;
    auto tree = FitingTree<int64_t>::Create(*data.keys, config);
    runner.Report(
        {{"structure", "FITing-Tree"},
         {"param", "e=" + std::to_string(static_cast<int>(error))}},
        measure(*tree),
        {{"segments", static_cast<double>(tree->SegmentCount())},
         {"index_bytes", static_cast<double>(tree->IndexSizeBytes())}});
  }
  for (size_t page : {16u, 256u, 4096u, 65536u}) {
    PagedIndexConfig config;
    config.page_size = page;
    config.buffer_size = 0;
    auto index = PagedIndex<int64_t>::Create(*data.keys, config);
    runner.Report(
        {{"structure", "Paged"}, {"param", "page=" + std::to_string(page)}},
        measure(*index),
        {{"index_bytes", static_cast<double>(index->IndexSizeBytes())}});
  }
  {
    FullIndex<int64_t> index{std::span<const int64_t>(*data.keys)};
    runner.Report(
        {{"structure", "Full"}, {"param", "-"}}, measure(index),
        {{"index_bytes", static_cast<double>(index.IndexSizeBytes())}});
  }
  {
    BinarySearchIndex<int64_t> index{std::span<const int64_t>(*data.keys)};
    runner.Report({{"structure", "Binary"}, {"param", "-"}}, measure(index));
  }
}

void RunMicroInsert(Runner& runner) {
  const MicroData data = LoadData();
  // The stream is exactly ops long: replaying a wrapped stream would time
  // the duplicate-insert no-op path instead of fresh inserts.
  const size_t ops = ScaledN(1 << 19);
  const auto inserts = MemoInserts(data.dataset_key, *data.keys, ops, 3);

  for (double error : {64.0, 1024.0}) {
    const Stats stats = runner.CollectReps([&] {
      FitingTreeConfig config;
      config.error = error;
      auto tree = FitingTree<int64_t>::Create(*data.keys, config);
      return TimedLoopNsPerOp(ops, [&](size_t i) {
        tree->Insert((*inserts)[i]);
        return uint64_t{1};
      });
    }, /*warmup=*/false);
    runner.Report({{"structure", "FITing-Tree"},
                   {"param", "e=" + std::to_string(static_cast<int>(error))}},
                  stats, {{"insert_Mops", MopsFromNsPerOp(stats.p50)}});
  }
}

void RunMicroSegmentation(Runner& runner) {
  const MicroData data = LoadData();

  {
    const Stats stats = runner.CollectReps([&] {
      Timer timer;
      const auto segments = SegmentShrinkingCone<int64_t>(*data.keys, 100.0);
      SinkValue(segments.size());
      return static_cast<double>(timer.ElapsedNs()) /
             static_cast<double>(data.keys->size());
    });
    runner.Report({{"algorithm", "shrinking_cone"},
                   {"n", std::to_string(data.keys->size())}},
                  stats);
  }
  for (size_t sample_n : {10000u, 50000u}) {
    const std::vector<int64_t> sample(data.keys->begin(),
                                      data.keys->begin() + sample_n);
    const Stats stats = runner.CollectReps([&] {
      Timer timer;
      SinkValue(OptimalSegmentCount<int64_t>(sample, 100.0));
      return static_cast<double>(timer.ElapsedNs()) /
             static_cast<double>(sample.size());
    });
    runner.Report(
        {{"algorithm", "optimal_dp"}, {"n", std::to_string(sample_n)}}, stats);
  }
}

void RunMicroBtree(Runner& runner) {
  const size_t n = ScaledN(1000000);

  {
    const Stats stats = runner.CollectReps([&] {
      btree::BTreeMap<int64_t, int64_t> tree;
      return TimedLoopNsPerOp(n, [&](size_t i) {
        tree.Insert(static_cast<int64_t>(i), static_cast<int64_t>(i));
        return uint64_t{1};
      });
    }, /*warmup=*/false);
    runner.Report({{"op", "insert_sequential"}, {"n", std::to_string(n)}},
                  stats);
  }
  {
    btree::BTreeMap<int64_t, int64_t> tree;
    std::vector<std::pair<int64_t, int64_t>> items;
    items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back(static_cast<int64_t>(i) * 7,
                         static_cast<int64_t>(i));
    }
    tree.BulkLoad(std::move(items));
    const Stats stats = runner.CollectReps([&] {
      return TimedLoopNsPerOp(ScaledN(1 << 20), [&](size_t i) {
        const auto probe = static_cast<int64_t>(i * 977 % n) * 7;
        return tree.Find(probe) != nullptr ? uint64_t{1} : uint64_t{0};
      });
    });
    runner.Report({{"op", "find_random"}, {"n", std::to_string(n)}}, stats);
  }
}

// Ablation of the hot-path microarchitecture pass: (a) the in-window
// lower-bound policies (binary / linear / exponential / simd) across error
// window sizes, probed with model-style hints (right answer +/- jitter);
// (b) segment-directory descent over the same key set's shrinking-cone
// segments: the paper's B+ tree against the flat interpolation+SIMD array
// every engine now descends.
void RunMicroSearchPolicy(Runner& runner) {
  const MicroData data = LoadData();
  const auto& keys = *data.keys;
  const size_t n = keys.size();
  const size_t ops = ScaledN(1 << 18);
  constexpr size_t kMask = (1 << 12) - 1;

  struct Probe {
    size_t begin = 0;
    size_t end = 0;
    size_t hint = 0;
    int64_t key = 0;
  };

  for (const size_t window :
       {size_t{16}, size_t{64}, size_t{128}, size_t{512}, size_t{4096}}) {
    const size_t w = std::min(window, n);
    // Pre-generate windows that contain their answer, with the hint
    // wandering +/- w/4 around it — the regime the segment models produce.
    std::vector<Probe> probes(kMask + 1);
    std::mt19937_64 rng(0x5EA4C4 + window);
    std::uniform_int_distribution<size_t> pick(0, n - 1);
    std::uniform_int_distribution<size_t> off(0, w - 1);
    std::uniform_int_distribution<long> jitter(-static_cast<long>(w / 4),
                                               static_cast<long>(w / 4));
    for (Probe& p : probes) {
      const size_t t = pick(rng);
      size_t begin = t - std::min(t, off(rng));
      if (begin + w > n) begin = n - w;
      const long h = static_cast<long>(t) + jitter(rng);
      p.begin = begin;
      p.end = begin + w;
      p.hint = std::clamp(static_cast<size_t>(std::max(h, 0L)), begin,
                          begin + w - 1);
      p.key = keys[t];
    }
    for (const SearchPolicy policy :
         {SearchPolicy::kBinary, SearchPolicy::kLinear,
          SearchPolicy::kExponential, SearchPolicy::kSimd}) {
      const Stats stats = runner.CollectReps([&] {
        return TimedLoopNsPerOp(ops, [&](size_t i) {
          const Probe& p = probes[i & kMask];
          return static_cast<uint64_t>(detail::BoundedLowerBound(
              keys.data(), p.begin, p.end, p.hint, p.key, policy));
        });
      });
      runner.Report({{"policy", SearchPolicyName(policy)},
                     {"window", std::to_string(window)}},
                    stats);
    }
  }

  // Directory descent over the segment first keys (error=64 keeps the
  // directory big enough that descent cost is visible).
  const auto segments = SegmentShrinkingCone<int64_t>(keys, 64.0);
  std::vector<int64_t> first_keys;
  std::vector<std::pair<int64_t, uint32_t>> entries;
  first_keys.reserve(segments.size());
  entries.reserve(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    first_keys.push_back(segments[i].first_key);
    entries.emplace_back(segments[i].first_key, static_cast<uint32_t>(i));
  }
  btree::BTreeMap<int64_t, uint32_t, 16, 16> btree_dir;
  btree_dir.BulkLoad(std::move(entries));
  const FlatKeyIndex<int64_t> flat_dir(first_keys);
  const auto& descent_probes = *data.probes;
  const double seg_count = static_cast<double>(segments.size());
  {
    const Stats stats = runner.CollectReps([&] {
      return TimedLoopNsPerOp(ops, [&](size_t i) {
        const uint32_t* id = btree_dir.FindFloor(descent_probes[i & kProbeMask]);
        return id == nullptr ? uint64_t{0} : static_cast<uint64_t>(*id);
      });
    });
    runner.Report({{"policy", "directory-btree"}, {"window", "-"}}, stats,
                  {{"segments", seg_count}});
  }
  {
    const Stats stats = runner.CollectReps([&] {
      return TimedLoopNsPerOp(ops, [&](size_t i) {
        return static_cast<uint64_t>(
            flat_dir.FloorIndex(descent_probes[i & kProbeMask]));
      });
    });
    runner.Report({{"policy", "directory-flat"}, {"window", "-"}}, stats,
                  {{"segments", seg_count}});
  }
}

FITREE_REGISTER_EXPERIMENT(
    "micro_lookup", "Micro: point lookups across index structures",
    RunMicroLookup);
FITREE_REGISTER_EXPERIMENT(
    "micro_search_policy",
    "Micro: in-window search policy x window-size sweep, plus "
    "btree-vs-flat directory descent",
    RunMicroSearchPolicy);
FITREE_REGISTER_EXPERIMENT(
    "micro_insert", "Micro: FITing-Tree insert throughput", RunMicroInsert);
FITREE_REGISTER_EXPERIMENT(
    "micro_segmentation",
    "Micro: ShrinkingCone and optimal-DP segmentation throughput",
    RunMicroSegmentation);
FITREE_REGISTER_EXPERIMENT(
    "micro_btree", "Micro: B+ tree insert/find primitives", RunMicroBtree);

}  // namespace
}  // namespace fitree::bench
