// Ablation sweeps for the design choices DESIGN.md calls out, registered
// as four separately filterable experiments (--filter=ablation runs all):
//   ablation_fanout      node slots of a B+ tree over segment first keys
//                        (the paper's directory, Sec 4.1; the engines
//                        descend a flat array instead)
//   ablation_search      in-window search policy (paper Sec 4.1.2)
//   ablation_feasibility endpoint line vs PGM-style cone
//   ablation_buffer      buffer sizing policy (generalizes Figure 12)

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "btree/btree_map.h"
#include "common/table_printer.h"
#include "core/fiting_tree.h"
#include "core/shrinking_cone.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"

namespace fitree::bench {
namespace {

struct AblationData {
  std::shared_ptr<const std::vector<int64_t>> keys;
  std::shared_ptr<const std::vector<int64_t>> probes;
  std::shared_ptr<const std::vector<int64_t>> inserts;
};

AblationData LoadData() {
  const size_t n = ScaledN(1000000);
  const std::string dataset_key = "real/Weblogs/" + std::to_string(n) + "/1";
  AblationData data;
  data.keys = MemoKeys(dataset_key, [&] { return datasets::Weblogs(n, 1); });
  data.probes = MemoProbes(dataset_key, *data.keys, ScaledN(200000),
                           workloads::Access::kUniform, 0.0, 2);
  data.inserts = MemoInserts(dataset_key, *data.keys, ScaledN(200000), 3);
  return data;
}

template <typename Tree>
Stats MeasureLookups(Runner& runner, Tree& tree,
                     const std::vector<int64_t>& probes) {
  return runner.CollectReps([&] {
    return TimedLoopNsPerOp(probes.size(), [&](size_t i) {
      return tree.Contains(probes[i]) ? uint64_t{1} : uint64_t{0};
    });
  });
}

// Times the paper's directory on its own: a B+ tree with kSlots-entry
// nodes mapping each segment's first key to its id, probed with FindFloor.
template <int kSlots>
void FanoutPoint(Runner& runner, const StaticFitingTree<int64_t>& tree,
                 const std::vector<int64_t>& probes) {
  std::vector<std::pair<int64_t, uint32_t>> entries;
  entries.reserve(tree.SegmentCount());
  for (const auto& seg : tree.segments()) {
    entries.emplace_back(seg.first_key, static_cast<uint32_t>(entries.size()));
  }
  btree::BTreeMap<int64_t, uint32_t, kSlots, kSlots> directory;
  directory.BulkLoad(std::move(entries));
  const Stats stats = runner.CollectReps([&] {
    return TimedLoopNsPerOp(probes.size(), [&](size_t i) {
      const uint32_t* id = directory.FindFloor(probes[i]);
      return id == nullptr ? uint64_t{0} : uint64_t{*id};
    });
  });
  runner.Report(
      {{"node_slots", std::to_string(kSlots)}}, stats,
      {{"height", static_cast<double>(directory.Height())},
       {"index_KB", static_cast<double>(directory.MemoryBytes()) / 1024.0}});
}

void RunFanout(Runner& runner) {
  const AblationData data = LoadData();
  const auto tree = StaticFitingTree<int64_t>::Create(*data.keys, 256.0);
  FanoutPoint<8>(runner, *tree, *data.probes);
  FanoutPoint<16>(runner, *tree, *data.probes);
  FanoutPoint<32>(runner, *tree, *data.probes);
  FanoutPoint<64>(runner, *tree, *data.probes);
  FanoutPoint<128>(runner, *tree, *data.probes);
}

void RunSearchPolicy(Runner& runner) {
  const AblationData data = LoadData();
  const struct {
    SearchPolicy policy;
    const char* name;
  } policies[] = {{SearchPolicy::kBinary, "binary"},
                  {SearchPolicy::kLinear, "linear"},
                  {SearchPolicy::kExponential, "exponential"},
                  {SearchPolicy::kSimd, "simd"}};
  for (double error : {64.0, 1024.0, 16384.0}) {
    for (const auto& p : policies) {
      FitingTreeConfig config;
      config.error = error;
      config.buffer_size = 0;
      config.search_policy = p.policy;
      auto tree = FitingTree<int64_t>::Create(*data.keys, config);
      runner.Report({{"error", TablePrinter::Fmt(error, 0)},
                     {"policy", p.name}},
                    MeasureLookups(runner, *tree, *data.probes));
    }
  }
}

void RunFeasibility(Runner& runner) {
  const AblationData data = LoadData();
  const struct {
    Feasibility mode;
    const char* name;
  } modes[] = {{Feasibility::kEndpointLine, "endpoint"},
               {Feasibility::kCone, "cone"}};
  for (double error : {64.0, 256.0, 1024.0}) {
    for (const auto& m : modes) {
      FitingTreeConfig config;
      config.error = error;
      config.buffer_size = 0;
      config.feasibility = m.mode;
      auto tree = FitingTree<int64_t>::Create(*data.keys, config);
      const Stats stats = MeasureLookups(runner, *tree, *data.probes);
      runner.Report({{"error", TablePrinter::Fmt(error, 0)},
                     {"feasibility", m.name}},
                    stats,
                    {{"segments", static_cast<double>(tree->SegmentCount())}});
    }
  }
}

void RunBufferPolicy(Runner& runner) {
  const AblationData data = LoadData();
  const double error = 1024.0;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // A zero buffer merges a whole segment on every insert (that is the
    // point); fewer inserts keep that cell from dominating the run.
    const size_t ops =
        frac == 0.0 ? data.inserts->size() / 50 : data.inserts->size();
    std::unique_ptr<FitingTree<int64_t>> tree;
    const Stats stats = runner.CollectReps([&] {
      FitingTreeConfig config;
      config.error = error;
      config.buffer_size = static_cast<size_t>(error * frac);
      tree = FitingTree<int64_t>::Create(*data.keys, config);
      return TimedLoopNsPerOp(ops, [&](size_t i) {
        tree->Insert((*data.inserts)[i]);
        return uint64_t{1};
      });
    }, /*warmup=*/false);
    const double lookup_ns =
        TimedLoopNsPerOp(data.probes->size(), [&](size_t i) {
          return tree->Contains((*data.probes)[i]) ? uint64_t{1} : uint64_t{0};
        });
    runner.Report(
        {{"buffer_fraction", TablePrinter::Fmt(frac, 2)}}, stats,
        {{"insert_Mops", MopsFromNsPerOp(stats.p50)},
         {"lookup_ns", lookup_ns},
         {"merges", static_cast<double>(tree->stats().segment_merges)}});
  }
}

FITREE_REGISTER_EXPERIMENT(
    "ablation_fanout",
    "Ablation (a): B+ tree directory node slots, FindFloor over segment "
    "first keys (error=256)",
    RunFanout);
FITREE_REGISTER_EXPERIMENT(
    "ablation_search", "Ablation (b): in-window search policy",
    RunSearchPolicy);
FITREE_REGISTER_EXPERIMENT(
    "ablation_feasibility",
    "Ablation (c): endpoint-line (paper) vs PGM-style cone feasibility",
    RunFeasibility);
FITREE_REGISTER_EXPERIMENT(
    "ablation_buffer",
    "Ablation (d): buffer fraction of error (error=1024)", RunBufferPolicy);

}  // namespace
}  // namespace fitree::bench
