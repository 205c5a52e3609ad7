// Figure 13 (appendix): lookup time breakdown — tree descent vs. in-page
// search — for FITing-Tree and the fixed-paging baseline across error /
// page-size scales.
//
// The timed body replays the probe set through ContainsWithBreakdown; the
// record's ns/op is the summed (tree + page) time per probe, and the
// tree%/page% split is reported from the last repetition.
//
// "Tree" time is each method's directory descent. For FITing-Tree that is
// the flat interpolation array over segment first keys
// (core/flat_directory.h), not the paper's B+ tree; for Fixed it is the
// B+ tree over page first keys (baselines/paged_index.h).
//
// Expected shape: at small errors descent dominates both methods, but
// FITing-Tree's directory is much smaller (fewer entries), so its tree
// share shrinks faster; at huge errors nearly all time goes to the
// in-segment search for both.

#include <string>

#include "baselines/paged_index.h"
#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "common/table_printer.h"
#include "core/fiting_tree.h"
#include "datasets/datasets.h"

namespace fitree::bench {
namespace {

void RunFig13(Runner& runner) {
  const size_t n = ScaledN(1000000);
  const size_t probes_n = ScaledN(100000);
  const std::string dataset_key = "real/Weblogs/" + std::to_string(n) + "/1";
  const auto keys =
      MemoKeys(dataset_key, [&] { return datasets::Weblogs(n, 1); });
  const auto probes = MemoProbes(dataset_key, *keys, probes_n,
                                 workloads::Access::kUniform, 0.0, 2);

  for (double scale : {10.0, 100.0, 1000.0, 10000.0, 100000.0}) {
    const auto measure = [&](auto& index, const char* method) {
      int64_t tree_ns = 0, page_ns = 0;
      const Stats stats = runner.CollectReps([&] {
        tree_ns = 0;
        page_ns = 0;
        for (size_t i = 0; i < probes->size(); ++i) {
          index.ContainsWithBreakdown((*probes)[i], &tree_ns, &page_ns);
        }
        return static_cast<double>(tree_ns + page_ns) /
               static_cast<double>(probes->size());
      });
      const double total = static_cast<double>(tree_ns + page_ns);
      runner.Report(
          {{"method", method},
           {"error_or_page", TablePrinter::Fmt(scale, 0)}},
          stats,
          {{"tree_pct", 100.0 * static_cast<double>(tree_ns) / total},
           {"page_pct", 100.0 * static_cast<double>(page_ns) / total}});
    };

    FitingTreeConfig fconfig;
    fconfig.error = scale;
    fconfig.buffer_size = 0;
    auto fiting = FitingTree<int64_t>::Create(*keys, fconfig);
    measure(*fiting, "FITing-Tree");

    PagedIndexConfig pconfig;
    pconfig.page_size = static_cast<size_t>(scale);
    pconfig.buffer_size = 0;
    auto paged = PagedIndex<int64_t>::Create(*keys, pconfig);
    measure(*paged, "Fixed");
  }
}

FITREE_REGISTER_EXPERIMENT(
    "fig13_breakdown",
    "Fig 13: lookup breakdown, tree descent vs in-page search", RunFig13);

}  // namespace
}  // namespace fitree::bench
