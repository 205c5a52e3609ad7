// Disk-resident FITing-Tree vs fixed paging, through the buffer pool.
//
// Builds the index file on disk (storage/segment_file.h), then serves
// point lookups and range scans entirely through the buffer-pool cache
// while counting page I/O. Sweeps (a) the error bound and (b) the cache
// size as a fraction of the leaf pages, under uniform and Zipfian probe
// skew; the fixed-paging baseline (one data-blind segment per page) rides
// the same read path.
//
// Every configuration is first validated against the in-memory
// StaticFitingTree oracle: lookups (present and absent) must return the
// oracle's rank payload and range scans must emit the oracle's keys. A
// mismatch aborts the whole bench (Die): a bench that measures wrong
// answers measures nothing.
//
// Expected shape: pages-read/op falls toward 0 as the cache fraction
// approaches 1, and at any partial cache Zipfian skew buys a higher hit
// rate than uniform. Larger errors read more pages per lookup but shrink
// the in-memory segment table (the paper's Fig 6 contrast, restated in
// I/O).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/harness/registry.h"
#include "bench/harness/runner.h"
#include "common/io_stats.h"
#include "common/table_printer.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "workloads/workloads.h"

namespace fitree::bench {
namespace {

using storage::DiskFitingTree;
using workloads::Access;

struct ProbeSet {
  Access access;
  const char* name;
  std::shared_ptr<const std::vector<int64_t>> probes;
};

// Checks the disk tree against the in-memory oracle on a probe prefix and
// a handful of range scans.
void ValidateOrDie(DiskFitingTree<int64_t>& disk,
                   const StaticFitingTree<int64_t>& oracle,
                   std::span<const int64_t> probes, const std::string& label) {
  const size_t checks = std::min<size_t>(probes.size(), 2000);
  for (size_t i = 0; i < checks; ++i) {
    const int64_t key = probes[i];
    const auto got = disk.Lookup(key);
    const auto want = oracle.Find(key);
    const bool match = want.has_value() ? (got.has_value() && *got == *want)
                                        : !got.has_value();
    if (!match || disk.LowerBound(key) != oracle.LowerBound(key)) {
      Die("disk: " + label + ": mismatch vs oracle at key " +
          std::to_string(key));
    }
  }
  const auto ranges = workloads::MakeRangeQueries<int64_t>(
      oracle.data(), 32, /*selectivity=*/0.001, /*seed=*/77);
  for (const auto& q : ranges) {
    std::vector<int64_t> got;
    disk.ScanRange(q.lo, q.hi, [&](int64_t k, uint64_t) { got.push_back(k); });
    std::vector<int64_t> want;
    oracle.ScanRange(q.lo, q.hi, [&](int64_t k) { want.push_back(k); });
    if (got != want) Die("disk: " + label + ": range scan mismatch");
  }
  if (disk.io_error()) {
    Die("disk: " + label + ": I/O error during validation");
  }
}

void BenchConfig(Runner& runner, const std::string& method,
                 const std::string& param, const std::string& path,
                 const StaticFitingTree<int64_t>& oracle,
                 std::span<const ProbeSet> probe_sets,
                 std::span<const double> cache_fractions,
                 size_t cache_override, uint64_t leaf_pages) {
  for (const double fraction : cache_fractions) {
    for (const ProbeSet& set : probe_sets) {
      DiskFitingTree<int64_t>::Options options;
      options.cache_pages =
          cache_override > 0
              ? cache_override
              : std::max<uint64_t>(
                    4, static_cast<uint64_t>(
                           fraction * static_cast<double>(leaf_pages)));
      const std::string frac_cell =
          cache_override > 0 ? "env" : TablePrinter::Fmt(fraction, 2);
      auto disk = DiskFitingTree<int64_t>::Open(path, options);
      if (disk == nullptr) Die("disk: cannot open " + path);
      const std::string label = method + " " + param;
      ValidateOrDie(*disk, oracle, *set.probes, label);

      // Validation doubles as cache warmup; every rep then measures the
      // same steady-state pool.
      const size_t ops = set.probes->size();
      IoStats io{};
      const Stats stats = runner.CollectReps([&] {
        disk->ResetIoStats();
        const double ns = TimedLoopNsPerOp(ops, [&](size_t i) {
          return disk->Lookup((*set.probes)[i]).value_or(0);
        });
        io = disk->io();
        return ns;
      }, /*warmup=*/false);
      const double pages_per_op =
          static_cast<double>(io.pages_read) / static_cast<double>(ops);
      runner.Report(
          {{"op", "lookup"},
           {"method", method},
           {"param", param},
           {"access", set.name},
           {"cache_frac", frac_cell}},
          stats,
          {{"cache_pages", static_cast<double>(options.cache_pages)},
           {"pages_read_per_op", pages_per_op},
           {"hit_rate", io.HitRate()},
           {"io_per_sec", stats.mean > 0.0
                              ? pages_per_op / stats.mean * 1e9
                              : 0.0}});

      // Range scans: uniform starts only (skew matters less once a scan
      // streams pages), at the same cache point.
      if (set.access == Access::kUniform) {
        const auto ranges = workloads::MakeRangeQueries<int64_t>(
            oracle.data(), 512, /*selectivity=*/0.0005, /*seed=*/99);
        IoStats rio{};
        const Stats range_stats = runner.CollectReps([&] {
          disk->ResetIoStats();
          const double ns = TimedLoopNsPerOp(ranges.size(), [&](size_t i) {
            uint64_t sum = 0;
            disk->ScanRange(ranges[i].lo, ranges[i].hi,
                            [&](int64_t, uint64_t v) { sum += v; });
            return sum;
          });
          rio = disk->io();
          return ns;
        }, /*warmup=*/false);
        runner.Report(
            {{"op", "range"},
             {"method", method},
             {"param", param},
             {"access", set.name},
             {"cache_frac", frac_cell}},
            range_stats,
            {{"cache_pages", static_cast<double>(options.cache_pages)},
             {"pages_read_per_op", static_cast<double>(rio.pages_read) /
                                       static_cast<double>(ranges.size())},
             {"hit_rate", rio.HitRate()}});
      }
      if (disk->io_error()) {
        Die("disk: I/O error while measuring " + label);
      }
    }
  }
}

// Multiget cells, run at cache fractions far below 1 where nearly every
// probe faults: identical 64-key batches served two ways, a serial Lookup
// loop (one predicted-page fault at a time) vs LookupBatch (which
// overlaps all of a batch's misses in one submission). IOPS here is data
// pages actually read per second of wall time, so a mode that reads MORE
// pages but stalls less shows up honestly on both axes.
void BenchAsyncReads(Runner& runner, const std::string& method,
                     const std::string& param, const std::string& path,
                     const StaticFitingTree<int64_t>& oracle,
                     const ProbeSet& set,
                     std::span<const double> cache_fractions,
                     uint64_t leaf_pages) {
  constexpr size_t kBatch = 64;
  for (const double fraction : cache_fractions) {
    const size_t cache_pages = std::max<uint64_t>(
        4, static_cast<uint64_t>(fraction * static_cast<double>(leaf_pages)));
    const std::string frac_cell = TablePrinter::Fmt(fraction, 2);

    // Both modes attempt O_DIRECT: on a freshly written file every
    // buffered read is a warm page-cache hit, which measures syscall +
    // checksum CPU rather than I/O — the axis the async path exists for.
    // Falls back to buffered (and says so in io_mode) where the
    // filesystem or page size refuses direct reads.
    for (const bool batched : {false, true}) {
      DiskFitingTree<int64_t>::Options options;
      options.cache_pages = cache_pages;
      options.io_direct = true;
      auto disk = DiskFitingTree<int64_t>::Open(path, options);
      if (disk == nullptr) Die("disk: cannot open " + path);
      const std::string label = method + " " + param +
                                (batched ? " multiget=batch" : " multiget=sync");
      ValidateOrDie(*disk, oracle, *set.probes, label);
      const std::vector<int64_t>& probes = *set.probes;
      const size_t batches = probes.size() / kBatch;
      if (batches == 0) break;
      const size_t ops = batches * kBatch;
      std::vector<std::optional<uint64_t>> out(kBatch);
      IoStats io{};
      const Stats stats = runner.CollectReps([&] {
        disk->ResetIoStats();
        const double ns_per_batch = TimedLoopNsPerOp(batches, [&](size_t b) {
          const int64_t* chunk = probes.data() + b * kBatch;
          uint64_t sum = 0;
          if (batched) {
            disk->LookupBatch(chunk, kBatch, out.data());
            for (const auto& v : out) sum += v.value_or(0);
          } else {
            for (size_t i = 0; i < kBatch; ++i) {
              sum += disk->Lookup(chunk[i]).value_or(0);
            }
          }
          return sum;
        });
        io = disk->io();
        return ns_per_batch / static_cast<double>(kBatch);  // ns per key
      }, /*warmup=*/false);
      const double pages_per_op =
          static_cast<double>(io.pages_read) / static_cast<double>(ops);
      runner.Report({{"op", "multiget"},
                     {"method", method},
                     {"param", param},
                     {"access", set.name},
                     {"cache_frac", frac_cell},
                     {"mode", batched ? "batch" : "sync"},
                     {"io", batched ? disk->IoBackendName() : "sync"},
                     {"io_mode", disk->DirectIo() ? "direct" : "buffered"}},
                    stats,
                    {{"pages_read_per_op", pages_per_op},
                     {"hit_rate", io.HitRate()},
                     {"io_per_sec", stats.mean > 0.0
                                        ? pages_per_op / stats.mean * 1e9
                                        : 0.0}});
      if (disk->io_error()) Die("disk: I/O error in " + label);
    }
  }
}

void ReportFileShape(Runner& runner, const std::string& method,
                     const std::string& param, const std::string& path) {
  auto disk = DiskFitingTree<int64_t>::Open(path);
  if (disk == nullptr) return;
  runner.Report(
      {{"op", "file"}, {"method", method}, {"param", param}},
      Stats{},
      {{"segments", static_cast<double>(disk->SegmentCount())},
       {"index_KB", static_cast<double>(disk->IndexSizeBytes()) / 1024.0},
       {"leaf_pages", static_cast<double>(disk->LeafPageCount())},
       {"file_MB",
        static_cast<double>(disk->FileBytes()) / (1024.0 * 1024.0)}});
}

void RunDisk(Runner& runner) {
  const size_t n = ScaledN(400'000);
  const size_t probes_n = ScaledN(100'000);
  const size_t page_bytes = static_cast<size_t>(
      GetEnvInt64("FITREE_BENCH_PAGE_BYTES",
                  static_cast<int64_t>(storage::kDefaultPageBytes)));
  const size_t cache_override =
      static_cast<size_t>(GetEnvInt64("FITREE_BENCH_CACHE_PAGES", 0));
  const char* path_env = std::getenv("FITREE_BENCH_DISK_PATH");
  const std::string path = (path_env != nullptr && *path_env != '\0')
                               ? path_env
                               : "bench_disk_index.fit";

  const std::string dataset_key = "real/Weblogs/" + std::to_string(n) + "/42";
  const auto keys = MemoKeys(dataset_key, [&] {
    return datasets::Generate(datasets::RealWorld::kWeblogs, n, 42);
  });
  const size_t leaf_cap = storage::LeafCapacity<int64_t>(page_bytes);
  const uint64_t leaf_pages = (keys->size() + leaf_cap - 1) / leaf_cap;

  std::vector<ProbeSet> probe_sets;
  for (const Access access : {Access::kUniform, Access::kZipfian}) {
    probe_sets.push_back(
        {access, access == Access::kUniform ? "uniform" : "zipfian",
         MemoProbes(dataset_key, *keys, probes_n, access,
                    /*absent_fraction=*/0.1, 43)});
  }
  // FITREE_BENCH_CACHE_PAGES pins the pool to one absolute frame count, so
  // the fraction sweep collapses to a single point.
  const std::vector<double> cache_fractions =
      cache_override > 0 ? std::vector<double>{0.0}
                         : std::vector<double>{0.02, 0.10, 1.00};

  const storage::SegmentFileOptions file_options{page_bytes};
  for (const double error : {16.0, 128.0, 1024.0}) {
    const auto oracle = StaticFitingTree<int64_t>::Create(*keys, error);
    if (!storage::WriteIndexFile(path, *oracle, file_options)) {
      Die("disk: failed to write " + path);
    }
    const std::string param = "e=" + std::to_string(static_cast<int>(error));
    ReportFileShape(runner, "FITing-Tree", param, path);
    BenchConfig(runner, "FITing-Tree", param, path, *oracle, probe_sets,
                cache_fractions, cache_override, leaf_pages);
    // The async-read cells live where the cache is far smaller than the
    // data (fractions << 1); one error point keeps the sweep bounded.
    if (error == 128.0 && cache_override == 0) {
      const std::vector<double> cold_fractions{0.02, 0.10};
      BenchAsyncReads(runner, "FITing-Tree", param, path, *oracle,
                      probe_sets[0], cold_fractions, leaf_pages);
    }
  }

  // Fixed paging: one data-blind segment per leaf page; the stored error
  // (= keys per page) makes the lookup window exactly that page.
  {
    const auto oracle = StaticFitingTree<int64_t>::Create(*keys, 64.0);
    const auto fixed_segments =
        storage::MakeFixedSegments(std::span<const int64_t>(*keys), leaf_cap);
    if (!storage::WriteSegmentFile<int64_t>(
            path, *keys, {},
            std::span<const PackedSegment<int64_t>>(fixed_segments),
            static_cast<double>(leaf_cap), file_options)) {
      Die("disk: failed to write " + path);
    }
    const std::string param = "page=" + std::to_string(leaf_cap);
    ReportFileShape(runner, "Fixed", param, path);
    BenchConfig(runner, "Fixed", param, path, *oracle, probe_sets,
                cache_fractions, cache_override, leaf_pages);
  }

  std::remove(path.c_str());
}

FITREE_REGISTER_EXPERIMENT(
    "disk",
    "Sec 5 in I/O: disk-resident lookups/ranges through the buffer pool",
    RunDisk);

}  // namespace
}  // namespace fitree::bench
