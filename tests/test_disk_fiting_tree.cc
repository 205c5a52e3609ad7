// DiskFitingTree end-to-end tests: a serialized tree answers every query
// identically to its in-memory StaticFitingTree counterpart, under caches
// smaller than the file, across error bounds, and in fixed-paging mode —
// plus the write path: the delta overlay (inserts/updates/tombstones),
// Compact(), and the shared randomized differential driver.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/io_stats.h"
#include "core/delta_buffer.h"
#include "core/shrinking_cone.h"
#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "tests/oracle.h"
#include "workloads/workloads.h"

namespace {

using fitree::IoStats;
using fitree::StaticFitingTree;
using fitree::storage::DiskFitingTree;
using fitree::storage::LeafCapacity;
using fitree::storage::MakeFixedSegments;
using fitree::storage::SegmentFileOptions;
using fitree::storage::SegmentFileReader;
using fitree::testing::CrudOptions;
using fitree::testing::MakeInitialLoad;
using fitree::testing::PropertyOps;
using fitree::testing::RunCrudDifferential;

constexpr size_t kPageBytes = 256;  // 15 entries/page: tiny data, many pages

// Per-process suffix: ctest registers this binary twice (full suite and
// the `property`-labelled *CrudProperty* filter) and runs them in parallel,
// so shared fixture filenames would race.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// Irregular gaps (IoT's day/night jumps) exercise long and short segments.
std::vector<int64_t> TestKeys(size_t n) {
  return fitree::datasets::Iot(n, /*seed=*/7);
}

struct Fixture {
  std::vector<int64_t> keys;
  std::unique_ptr<StaticFitingTree<int64_t>> oracle;
  std::unique_ptr<DiskFitingTree<int64_t>> disk;
  std::string path;

  Fixture(size_t n, double error, size_t cache_pages,
          const std::string& name, size_t page_bytes = kPageBytes) {
    keys = TestKeys(n);
    oracle = StaticFitingTree<int64_t>::Create(keys, error);
    path = TempPath(name + ".fit");
    EXPECT_TRUE(fitree::storage::WriteIndexFile(
        path, *oracle, SegmentFileOptions{page_bytes}));
    DiskFitingTree<int64_t>::Options options;
    options.cache_pages = cache_pages;
    disk = DiskFitingTree<int64_t>::Open(path, options);
    EXPECT_NE(disk, nullptr);
  }

  ~Fixture() { std::remove(path.c_str()); }
};

void ExpectMatchesOracle(Fixture& fx) {
  ASSERT_NE(fx.disk, nullptr);
  EXPECT_EQ(fx.disk->size(), fx.oracle->size());
  EXPECT_EQ(fx.disk->SegmentCount(), fx.oracle->SegmentCount());
  for (size_t i = 0; i < fx.keys.size(); ++i) {
    const auto payload = fx.disk->Lookup(fx.keys[i]);
    ASSERT_TRUE(payload.has_value()) << "key rank " << i;
    EXPECT_EQ(*payload, i);
    EXPECT_EQ(fx.disk->LowerBound(fx.keys[i]), i);
  }
  // Absent probes: strictly inside gaps, before the first and after the
  // last key.
  std::mt19937_64 rng(99);
  for (int t = 0; t < 2000; ++t) {
    const int64_t probe = fitree::workloads::detail::AbsentKey(fx.keys, rng);
    EXPECT_EQ(fx.disk->LowerBound(probe), fx.oracle->LowerBound(probe));
    EXPECT_EQ(fx.disk->Lookup(probe).has_value(),
              fx.oracle->Contains(probe));
  }
  EXPECT_EQ(fx.disk->LowerBound(fx.keys.front() - 5), 0u);
  EXPECT_FALSE(fx.disk->Lookup(fx.keys.front() - 5).has_value());
  EXPECT_EQ(fx.disk->LowerBound(fx.keys.back() + 5), fx.keys.size());
  EXPECT_FALSE(fx.disk->Lookup(fx.keys.back() + 5).has_value());
  EXPECT_FALSE(fx.disk->io_error());
}

TEST(DiskFitingTree, MatchesOracleAcrossErrorBounds) {
  for (const double error : {4.0, 32.0, 256.0}) {
    Fixture fx(3000, error, /*cache_pages=*/8,
               "match_e" + std::to_string(static_cast<int>(error)));
    ExpectMatchesOracle(fx);
  }
}

using Oracle = std::map<int64_t, uint64_t>;
using Pairs = std::vector<std::pair<int64_t, uint64_t>>;

void ExpectScanMatches(const DiskFitingTree<int64_t>& disk,
                       const Oracle& oracle, int64_t lo, int64_t hi) {
  Pairs got;
  const size_t emitted = disk.ScanRange(
      lo, hi, [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  ASSERT_EQ(got, Pairs(oracle.lower_bound(lo), oracle.upper_bound(hi)))
      << "[" << lo << ", " << hi << "]";
  EXPECT_EQ(emitted, got.size());
}

// The whole keyspace, then ranges that start and end on, just below and
// just above each probe, each spanning twenty live keys (over a page).
void ExpectOverlayScansMatch(const DiskFitingTree<int64_t>& disk,
                             const Oracle& oracle,
                             const std::vector<int64_t>& probes) {
  ASSERT_NO_FATAL_FAILURE(
      ExpectScanMatches(disk, oracle, INT64_MIN, INT64_MAX));
  EXPECT_EQ(disk.size(), oracle.size());
  for (const int64_t p : probes) {
    const auto it = oracle.find(p);
    EXPECT_EQ(disk.Lookup(p), it == oracle.end()
                                  ? std::nullopt
                                  : std::optional<uint64_t>(it->second));
    auto up = oracle.lower_bound(p);
    for (int i = 0; i < 20 && up != oracle.end(); ++i) ++up;
    const int64_t far_hi = up == oracle.end() ? INT64_MAX : up->first;
    auto down = oracle.lower_bound(p);
    for (int i = 0; i < 20 && down != oracle.begin(); ++i) --down;
    const int64_t far_lo = down == oracle.end() ? INT64_MIN : down->first;
    for (const int64_t d : {-1, 0, 1}) {
      ASSERT_NO_FATAL_FAILURE(ExpectScanMatches(disk, oracle, p + d, far_hi));
      ASSERT_NO_FATAL_FAILURE(ExpectScanMatches(disk, oracle, far_lo, p + d));
    }
  }
}

TEST(DiskFitingTree, RangeScansMatchOracle) {
  Fixture fx(2500, 16.0, /*cache_pages=*/8, "ranges");
  const auto queries = fitree::workloads::MakeRangeQueries<int64_t>(
      fx.keys, 200, /*selectivity=*/0.01, /*seed=*/5);
  for (const auto& q : queries) {
    std::vector<int64_t> got;
    std::vector<uint64_t> got_values;
    fx.disk->ScanRange(q.lo, q.hi, [&](int64_t k, uint64_t v) {
      got.push_back(k);
      got_values.push_back(v);
    });
    std::vector<int64_t> want;
    fx.oracle->ScanRange(q.lo, q.hi, [&](int64_t k) { want.push_back(k); });
    ASSERT_EQ(got, want);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got_values[i], fx.oracle->LowerBound(got[i]));
    }
    EXPECT_EQ(fx.disk->RangeCount(q.lo, q.hi),
              fx.oracle->RangeCount(q.lo, q.hi));
  }
  // Empty and inverted ranges.
  EXPECT_EQ(fx.disk->RangeCount(fx.keys.back() + 1, fx.keys.back() + 100), 0u);
  EXPECT_EQ(fx.disk->RangeCount(fx.keys[10], fx.keys[5]), 0u);

  // Overlay entries where the slot-by-slot merge has edges: below the first
  // segment, on segment first keys, on page first and last keys, in the
  // gap past a segment's last key, and past the last key. Checked before
  // and after compacting the first, last and a middle segment. Error 1
  // cuts these keys into 13 segments.
  Fixture ofx(2500, 1.0, /*cache_pages=*/8, "ranges_overlay");
  ASSERT_NE(ofx.disk, nullptr);
  Oracle oracle;
  for (size_t i = 0; i < ofx.keys.size(); ++i) oracle[ofx.keys[i]] = i;
  DiskFitingTree<int64_t>& disk = *ofx.disk;
  std::vector<int64_t> probes;
  uint64_t payload = 1000000;
  const auto insert = [&](int64_t k) {
    ++payload;
    ASSERT_EQ(disk.Insert(k, payload), oracle.emplace(k, payload).second);
    probes.push_back(k);
  };
  const auto update = [&](int64_t k) {
    const auto it = oracle.find(k);
    ASSERT_EQ(disk.Update(k, ++payload), it != oracle.end());
    if (it != oracle.end()) it->second = payload;
    probes.push_back(k);
  };
  const auto erase = [&](int64_t k) {
    ASSERT_EQ(disk.Delete(k), oracle.erase(k) > 0);
    probes.push_back(k);
  };
  const auto table = ofx.oracle->ExportSegmentTable();
  ASSERT_GT(table.size(), 4u);
  const size_t cap = LeafCapacity<int64_t>(kPageBytes);
  for (int64_t d = 1; d <= 5; ++d) insert(ofx.keys.front() - 3 * d);
  for (size_t s = 0; s < table.size(); ++s) {
    const size_t start = table[s].start;
    const size_t end = start + table[s].length;
    if (s % 3 == 0) update(table[s].first_key);
    if (s % 3 == 1) erase(table[s].first_key);
    for (size_t p = start; p < end; p += cap) {
      const int64_t first = ofx.keys[p];
      const int64_t last = ofx.keys[std::min(end, p + cap) - 1];
      if ((p - start) / cap % 2 == 0) {
        update(first);
        erase(last);
      } else {
        erase(first);
        update(last);
      }
    }
    if (s + 1 < table.size() && ofx.keys[end - 1] + 1 < ofx.keys[end]) {
      insert(ofx.keys[end - 1] + 1);  // between two segments
    }
  }
  for (int64_t d = 1; d <= 5; ++d) insert(ofx.keys.back() + 2 * d);
  ASSERT_NO_FATAL_FAILURE(ExpectOverlayScansMatch(disk, oracle, probes));
  for (int step = 0; step < 3; ++step) {
    const size_t last = disk.SegmentCount() - 1;
    const size_t slot = step == 0 ? 0 : step == 1 ? last : last / 2;
    const size_t before = disk.DeltaEntries();
    ASSERT_TRUE(disk.CompactSegment(slot)) << slot;
    EXPECT_LT(disk.DeltaEntries(), before);
    ASSERT_NO_FATAL_FAILURE(ExpectOverlayScansMatch(disk, oracle, probes));
  }
  EXPECT_FALSE(disk.io_error());
}

// The same merge over an empty base file, whose one slot holds the whole
// keyspace.
TEST(DiskFitingTree, RangeScansOverAnEmptyBaseMatchOracle) {
  const auto empty =
      StaticFitingTree<int64_t>::Create(std::vector<int64_t>{}, 16.0);
  const std::string path = TempPath("ranges_empty.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(path, *empty,
                                              SegmentFileOptions{kPageBytes}));
  auto disk = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(disk, nullptr);
  Oracle oracle;
  std::vector<int64_t> probes;
  for (int64_t k = -40; k <= 40; k += 4) {
    ASSERT_TRUE(disk->Insert(k, static_cast<uint64_t>(k + 100)));
    oracle[k] = static_cast<uint64_t>(k + 100);
    probes.push_back(k);
  }
  for (int64_t k = -40; k <= 40; k += 12) {
    ASSERT_TRUE(disk->Update(k, 7));
    oracle[k] = 7;
    ASSERT_TRUE(disk->Delete(k + 4));
    oracle.erase(k + 4);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectOverlayScansMatch(*disk, oracle, probes));
  // The overlay becomes the file's first segments.
  ASSERT_TRUE(disk->CompactSegment(0));
  EXPECT_EQ(disk->DeltaEntries(), 0u);
  EXPECT_EQ(disk->base_size(), oracle.size());
  ASSERT_NO_FATAL_FAILURE(ExpectOverlayScansMatch(*disk, oracle, probes));
  ASSERT_TRUE(disk->Compact());
  EXPECT_EQ(disk->DeltaEntries(), 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectOverlayScansMatch(*disk, oracle, probes));
  std::remove(path.c_str());
}

TEST(DiskFitingTree, CacheSmallerThanFileEvictsButStaysCorrect) {
  // 2500 keys at 15/page is ~167 leaf pages; 4 frames forces constant
  // eviction on uniform probes.
  Fixture fx(2500, 16.0, /*cache_pages=*/4, "small_cache");
  ExpectMatchesOracle(fx);
  const IoStats io = fx.disk->io();
  EXPECT_GT(io.pages_read, fx.disk->LeafPageCount());  // many re-reads
  EXPECT_GT(io.cache_hits, 0u);  // windows within a page still hit
}

TEST(DiskFitingTree, FullyResidentCacheStopsReadingAfterWarmup) {
  Fixture fx(2000, 16.0, /*cache_pages=*/4096, "resident");
  for (const int64_t key : fx.keys) fx.disk->Lookup(key);  // warmup
  const uint64_t warm_reads = fx.disk->io().pages_read;
  EXPECT_LE(warm_reads, fx.disk->LeafPageCount());
  for (const int64_t key : fx.keys) fx.disk->Lookup(key);
  EXPECT_EQ(fx.disk->io().pages_read, warm_reads);  // all hits, no I/O
  EXPECT_GT(fx.disk->io().HitRate(), 0.5);
}

TEST(DiskFitingTree, IoStatsDeltaGivesPerPhaseCounts) {
  Fixture fx(2000, 16.0, /*cache_pages=*/8, "stats");
  for (size_t i = 0; i < 100; ++i) fx.disk->Lookup(fx.keys[i]);
  const IoStats before = fx.disk->io();
  for (size_t i = 100; i < 200; ++i) fx.disk->Lookup(fx.keys[i]);
  const IoStats delta = fx.disk->io() - before;
  EXPECT_GT(delta.accesses(), 0u);
  EXPECT_EQ(delta.bytes_read, delta.pages_read * kPageBytes);
  fx.disk->ResetIoStats();
  EXPECT_EQ(fx.disk->io(), IoStats{});
}

// The index charges what a lookup reads: one first key per segment in the
// flat directory plus the segment table (the overlay is empty after Open),
// plus what the overlay's delta buffers hold allocated.
TEST(DiskFitingTree, IndexSizeChargesFlatDirectoryAndSegmentTable) {
  Fixture fx(3000, 2.0, /*cache_pages=*/8, "index_size");
  ASSERT_NE(fx.disk, nullptr);
  ASSERT_GT(fx.disk->SegmentCount(), 3u);
  EXPECT_EQ(fx.disk->DeltaEntries(), 0u);
  const size_t base = fx.disk->SegmentCount() *
                      (sizeof(int64_t) +
                       sizeof(fitree::storage::SegmentRecord<int64_t>));
  EXPECT_EQ(fx.disk->IndexSizeBytes(), base);

  // One entry in each of three slots: a first allocation holds exactly one.
  constexpr size_t kEntry =
      sizeof(fitree::detail::BufferEntry<int64_t, uint64_t>);
  const auto table = fx.oracle->ExportSegmentTable();
  for (size_t s = 1; s <= 3; ++s) {
    ASSERT_TRUE(fx.disk->Update(table[s].first_key, 5));
  }
  EXPECT_EQ(fx.disk->IndexSizeBytes(), base + 3 * kEntry);

  // Capacity, not size: five inserts below the first key, four of them
  // deleted again, leave slot 0 holding room for at least five.
  for (int64_t d = 1; d <= 5; ++d) {
    ASSERT_TRUE(fx.disk->Insert(fx.keys.front() - d, 1));
  }
  for (int64_t d = 1; d <= 4; ++d) {
    ASSERT_TRUE(fx.disk->Delete(fx.keys.front() - d));
  }
  EXPECT_EQ(fx.disk->DeltaEntries(), 4u);
  const size_t charged = fx.disk->IndexSizeBytes();
  EXPECT_GE(charged, base + (3 + 5) * kEntry);
  EXPECT_EQ((charged - base) % kEntry, 0u);

  // Compacting a slot releases its buffer.
  ASSERT_TRUE(fx.disk->CompactSegment(1));
  EXPECT_EQ(fx.disk->DeltaEntries(), 3u);
  EXPECT_EQ(fx.disk->IndexSizeBytes(),
            charged - kEntry +
                (fx.disk->SegmentCount() - table.size()) *
                    (sizeof(int64_t) +
                     sizeof(fitree::storage::SegmentRecord<int64_t>)));
}

TEST(DiskFitingTree, FixedPagingLayoutMatchesOracle) {
  const auto keys = TestKeys(2000);
  const auto oracle = StaticFitingTree<int64_t>::Create(keys, 16.0);
  const size_t cap = LeafCapacity<int64_t>(kPageBytes);
  const auto segments = MakeFixedSegments(std::span<const int64_t>(keys), cap);
  const std::string path = TempPath("fixed.fit");
  ASSERT_TRUE(fitree::storage::WriteSegmentFile<int64_t>(
      path, keys, {}, segments, static_cast<double>(cap),
      SegmentFileOptions{kPageBytes}));
  DiskFitingTree<int64_t>::Options options;
  options.cache_pages = 8;
  auto disk = DiskFitingTree<int64_t>::Open(path, options);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->SegmentCount(), (keys.size() + cap - 1) / cap);
  disk->ResetIoStats();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(disk->Lookup(keys[i]).value_or(UINT64_MAX), i);
  }
  // One segment == one leaf page, so each lookup pins exactly one page,
  // once: the payload is read from the pin the window search holds.
  // Rank-ordered probing faults each page once.
  EXPECT_EQ(disk->io().accesses(), keys.size());
  EXPECT_EQ(disk->io().pages_read, disk->LeafPageCount());
  std::mt19937_64 rng(3);
  for (int t = 0; t < 500; ++t) {
    const int64_t probe = fitree::workloads::detail::AbsentKey(keys, rng);
    EXPECT_EQ(disk->LowerBound(probe), oracle->LowerBound(probe));
  }
  std::remove(path.c_str());
}

// A one-frame pool, so io() deltas count every pin, over pages small
// enough that error windows straddle page edges (the window, at most
// 2 * error + 4 ranks, must fit one page). The paged search must agree
// with the oracle at every page and segment edge while pinning the
// predicted page first: a present key in its predicted page costs exactly
// one pin, a lookup never pins more than the two pages its window spans,
// and a key past its segment's end never touches the next segment's pages.
void CheckPageEdgeProbes(size_t page_bytes, size_t n, double error) {
  const size_t cap = LeafCapacity<int64_t>(page_bytes);
  ASSERT_LE(2.0 * error + 4.0, static_cast<double>(cap));
  Fixture fx(n, error, /*cache_pages=*/1,
             "page_edges_" + std::to_string(page_bytes), page_bytes);
  ASSERT_NE(fx.disk, nullptr);
  const std::vector<int64_t>& keys = fx.keys;
  const auto segs = fx.oracle->ExportSegmentTable();
  ASSERT_GT(segs.size(), 1u);

  // Every present key, and each key's absent neighbours: these include
  // the gaps between the last key of page p and the first key of page
  // p+1, the gaps past each segment's last key, and the key below all.
  std::vector<int64_t> probes = keys;
  for (const int64_t k : keys) {
    for (const int64_t p : {k - 1, k + 1}) {
      if (!std::binary_search(keys.begin(), keys.end(), p)) {
        probes.push_back(p);
      }
    }
  }

  size_t in_predicted = 0, neighbour = 0, between_pages = 0, below_slice = 0,
         past_end = 0;
  for (const int64_t probe : probes) {
    const size_t rank = fx.oracle->LowerBound(probe);
    const std::optional<size_t> want = fx.oracle->Find(probe);
    const IoStats before = fx.disk->io();
    const std::optional<uint64_t> got = fx.disk->Lookup(probe);
    const uint64_t pins = (fx.disk->io() - before).accesses();
    ASSERT_EQ(got.has_value(), want.has_value()) << probe;
    if (want.has_value()) {
      ASSERT_EQ(*got, *want) << probe;
    }
    ASSERT_EQ(fx.disk->LowerBound(probe), rank) << probe;
    ASSERT_LE(pins, 2u) << probe;

    // The probe's directory floor, the clamped predicted rank's page, and
    // the first rank of that page's slice of the error window.
    const auto upper = std::upper_bound(
        segs.begin(), segs.end(), probe,
        [](int64_t k, const auto& seg) { return k < seg.first_key; });
    if (upper == segs.begin()) {
      EXPECT_EQ(pins, 0u) << probe;  // sorts before every key: no window
      continue;
    }
    const auto& seg = *std::prev(upper);
    const size_t start = seg.start;
    const size_t end = seg.start + seg.length;
    const double pred = seg.Predict(probe);
    const size_t predicted =
        pred <= static_cast<double>(start)
            ? start
            : std::min(end - 1, static_cast<size_t>(pred));
    const size_t page_first = start + (predicted - start) / cap * cap;
    const size_t window_begin =
        fitree::ErrorWindow(pred, error, start, end).first;
    const size_t slice_begin = std::max(window_begin, page_first);

    if (want.has_value()) {
      if (rank >= page_first && rank < page_first + cap) {
        EXPECT_EQ(pins, 1u) << probe;
        ++in_predicted;
      } else {
        EXPECT_EQ(pins, 2u) << probe;
        ++neighbour;
      }
      continue;
    }
    if (rank > start && rank < end && (rank - start) % cap == 0) {
      ++between_pages;
    }
    if (rank <= slice_begin && slice_begin > window_begin) {
      EXPECT_EQ(pins, 2u) << probe;  // had to walk into the page below
      ++below_slice;
    }
    if (rank == end && end < keys.size() && pins > 0) {
      // The last page pinned was one of this segment's, so with one frame
      // looking up the next segment's first key has to fault its page.
      // (A window predicted wholly past the segment pins nothing.)
      const IoStats pre = fx.disk->io();
      ASSERT_TRUE(fx.disk->Lookup(keys[end]).has_value());
      const IoStats next = fx.disk->io() - pre;
      EXPECT_EQ(next.accesses(), 1u) << probe;
      EXPECT_EQ(next.cache_misses, 1u) << probe;
      ++past_end;
    }
  }
  EXPECT_GT(in_predicted, 0u);
  EXPECT_GT(neighbour, 0u);
  EXPECT_GT(between_pages, 0u);
  EXPECT_GT(below_slice, 0u);
  EXPECT_GT(past_end, 0u);
  EXPECT_FALSE(fx.disk->io_error());
}

TEST(DiskFitingTree, PageEdgeProbesMatchOracleAndPinThePredictedPageFirst) {
  // 15 entries a page: the in-page search is the vector count alone.
  CheckPageEdgeProbes(kPageBytes, 3000, 4.0);
  // 255 entries a page: slices wider than the vector window take the
  // branchless narrow first, and FITREE_IO_DIRECT=1 reads these pages
  // with O_DIRECT.
  CheckPageEdgeProbes(fitree::storage::kDefaultPageBytes, 20000, 64.0);
}

// The share of paged searches that needed a second page is the model's
// page-level miss rate against the error window; with the error well under
// a page, most present keys resolve in their predicted page.
TEST(DiskFitingTree, SecondPageShareStaysLowWhenTheWindowFitsAPage) {
  const size_t cap = LeafCapacity<int64_t>(kPageBytes);
  const double error = 3.0;
  ASSERT_LT(error, static_cast<double>(cap) / 4.0);
  Fixture fx(3000, error, /*cache_pages=*/8, "second_page");
  ASSERT_NE(fx.disk, nullptr);
  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      fx.keys, 5000, fitree::workloads::Access::kUniform,
      /*absent_fraction=*/0.0, 11);
  for (const int64_t p : probes) ASSERT_TRUE(fx.disk->Lookup(p).has_value());
  const auto stats = fx.disk->Stats();
  const double second = stats.Get("second_page_lookups", -1.0);
  EXPECT_GT(second, 0.0);
  EXPECT_DOUBLE_EQ(stats.Get("second_page_share", -1.0),
                   second / static_cast<double>(probes.size()));
  EXPECT_LT(stats.Get("second_page_share", 1.0), 0.5);
}

TEST(DiskFitingTree, TinyTreesRoundTrip) {
  for (const size_t n : {1u, 2u, 3u}) {
    const std::vector<int64_t> keys = [&] {
      std::vector<int64_t> k;
      for (size_t i = 0; i < n; ++i) k.push_back(10 * static_cast<int64_t>(i));
      return k;
    }();
    const auto oracle = StaticFitingTree<int64_t>::Create(keys, 4.0);
    const std::string path = TempPath("tiny" + std::to_string(n) + ".fit");
    ASSERT_TRUE(fitree::storage::WriteIndexFile(
        path, *oracle, SegmentFileOptions{kPageBytes}));
    auto disk = DiskFitingTree<int64_t>::Open(path);
    ASSERT_NE(disk, nullptr);
    EXPECT_EQ(disk->size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(disk->Lookup(keys[i]).value_or(UINT64_MAX), i);
    }
    EXPECT_FALSE(disk->Lookup(5).has_value());
    EXPECT_FALSE(disk->Lookup(-1).has_value());
    std::remove(path.c_str());
  }
}

TEST(DiskFitingTree, ExtremeUnsignedKeysClampPredictionBeforeCast) {
  // UINT64_MAX predicts a position past 2^64, where a bare double->size_t
  // cast is undefined.
  std::vector<uint64_t> keys(1000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const auto oracle = StaticFitingTree<uint64_t>::Create(keys, 16.0);
  const std::string path = TempPath("extreme_u64.fit");
  ASSERT_TRUE(fitree::storage::WriteIndexFile(
      path, *oracle, SegmentFileOptions{kPageBytes}));
  auto disk = DiskFitingTree<uint64_t>::Open(path);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->LowerBound(UINT64_MAX), keys.size());
  EXPECT_FALSE(disk->Contains(UINT64_MAX));
  EXPECT_EQ(disk->Lookup(UINT64_MAX), std::nullopt);
  EXPECT_EQ(disk->LowerBound(0), 0u);
  EXPECT_TRUE(disk->Contains(0));
  EXPECT_EQ(disk->Lookup(0), 0u);
  EXPECT_FALSE(disk->io_error());
  std::remove(path.c_str());
}

TEST(DiskFitingTree, ReopenIsDeterministic) {
  Fixture fx(1500, 8.0, /*cache_pages=*/16, "reopen");
  auto second = DiskFitingTree<int64_t>::Open(fx.path);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->size(), fx.disk->size());
  EXPECT_EQ(second->SegmentCount(), fx.disk->SegmentCount());
  EXPECT_EQ(second->LeafPageCount(), fx.disk->LeafPageCount());
  EXPECT_DOUBLE_EQ(second->error(), fx.disk->error());
  for (size_t i = 0; i < fx.keys.size(); i += 97) {
    EXPECT_EQ(second->Lookup(fx.keys[i]), fx.disk->Lookup(fx.keys[i]));
  }
}

// ---- Write path: delta overlay + Compact ----

// Serializes `keys`/`values` and opens the result as a writable tree.
std::unique_ptr<DiskFitingTree<int64_t>> OpenWritable(
    const std::vector<int64_t>& keys, const std::vector<uint64_t>& values,
    double error, size_t cache_pages, const std::string& name,
    std::string* path_out, size_t compact_threshold_pct = 0,
    size_t page_bytes = kPageBytes) {
  const auto base = StaticFitingTree<int64_t>::Create(keys, values, error);
  *path_out = TempPath(name + ".fit");
  EXPECT_TRUE(fitree::storage::WriteIndexFile(
      *path_out, *base, SegmentFileOptions{page_bytes}));
  DiskFitingTree<int64_t>::Options options;
  options.cache_pages = cache_pages;
  options.compact_threshold_pct = compact_threshold_pct;
  return DiskFitingTree<int64_t>::Open(*path_out, options);
}

// Folds every overlay slot into the file with CompactSegment, last slot
// first so a split never shifts a slot still to come.
void FoldEveryOverlay(DiskFitingTree<int64_t>& disk) {
  for (size_t s = disk.SegmentCount(); s-- > 0;) {
    ASSERT_TRUE(disk.CompactSegment(s)) << "slot " << s;
  }
  ASSERT_EQ(disk.DeltaEntries(), 0u);
}

// A reopened copy of `path` must hold exactly `oracle`.
void ExpectReopenedFileMatches(const std::string& path,
                               const std::map<int64_t, uint64_t>& oracle) {
  auto reopened = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), oracle.size());
  std::vector<std::pair<int64_t, uint64_t>> got;
  reopened->ScanRange(std::numeric_limits<int64_t>::lowest(),
                      std::numeric_limits<int64_t>::max(),
                      [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  const std::vector<std::pair<int64_t, uint64_t>> want(oracle.begin(),
                                                       oracle.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(reopened->io_error());
}

TEST(DiskFitingTree, InsertUpdateDeleteThroughOverlay) {
  const std::vector<int64_t> keys{10, 20, 30, 40, 50};
  const std::vector<uint64_t> values{100, 200, 300, 400, 500};
  std::string path;
  auto disk = OpenWritable(keys, values, 4.0, 8, "overlay", &path);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->Lookup(30), std::optional<uint64_t>(300));

  // Insert: new key, duplicate of paged key, duplicate of overlay key.
  EXPECT_TRUE(disk->Insert(25, 7));
  EXPECT_FALSE(disk->Insert(25, 8));
  EXPECT_FALSE(disk->Insert(30, 8));
  EXPECT_EQ(disk->Lookup(25), std::optional<uint64_t>(7));
  EXPECT_EQ(disk->size(), 6u);
  EXPECT_EQ(disk->base_size(), 5u);

  // Update: paged key (override), overlay-only key, absent key.
  EXPECT_TRUE(disk->Update(30, 999));
  EXPECT_EQ(disk->Lookup(30), std::optional<uint64_t>(999));
  EXPECT_TRUE(disk->Update(25, 9));
  EXPECT_EQ(disk->Lookup(25), std::optional<uint64_t>(9));
  EXPECT_FALSE(disk->Update(26, 1));

  // Delete: overlay-only key drops, paged key tombstones, repeat fails.
  EXPECT_TRUE(disk->Delete(25));
  EXPECT_FALSE(disk->Delete(25));
  EXPECT_TRUE(disk->Delete(10));  // the leftmost segment's first_key
  EXPECT_FALSE(disk->Contains(10));
  EXPECT_EQ(disk->size(), 4u);

  // Scans merge the overlay: 20 (paged), 30 (override), 40, 50 (paged).
  std::vector<std::pair<int64_t, uint64_t>> got;
  disk->ScanRange(0, 100, [&](int64_t k, uint64_t v) {
    got.emplace_back(k, v);
  });
  const std::vector<std::pair<int64_t, uint64_t>> want{
      {20, 200}, {30, 999}, {40, 400}, {50, 500}};
  EXPECT_EQ(got, want);
  EXPECT_FALSE(disk->io_error());
  std::remove(path.c_str());
}

TEST(DiskFitingTree, DeleteThenReinsertPagedKey) {
  const std::vector<int64_t> keys{10, 20, 30};
  std::string path;
  auto disk = OpenWritable(keys, {}, 4.0, 8, "reinsert", &path);
  ASSERT_NE(disk, nullptr);
  EXPECT_TRUE(disk->Delete(20));
  EXPECT_EQ(disk->Lookup(20), std::nullopt);
  EXPECT_TRUE(disk->Insert(20, 77));  // tombstone resurrects as override
  EXPECT_EQ(disk->Lookup(20), std::optional<uint64_t>(77));
  EXPECT_EQ(disk->size(), 3u);
  std::remove(path.c_str());
}

TEST(DiskFitingTree, CompactFoldsOverlayAndPersists) {
  const auto keys = TestKeys(2000);
  std::string path;
  auto disk = OpenWritable(keys, {}, 16.0, 8, "compact", &path);
  ASSERT_NE(disk, nullptr);
  std::map<int64_t, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    oracle[keys[i]] = static_cast<uint64_t>(i);  // serializer's rank default
  }
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    const int64_t absent = fitree::workloads::detail::AbsentKey(keys, rng);
    if (oracle.emplace(absent, 1u).second) {
      ASSERT_TRUE(disk->Insert(absent, 1));
    }
    const int64_t victim = keys[rng() % keys.size()];
    ASSERT_EQ(disk->Delete(victim), oracle.erase(victim) > 0);
  }
  const size_t live = oracle.size();
  EXPECT_GT(disk->DeltaEntries(), 0u);

  ASSERT_TRUE(disk->Compact());
  EXPECT_EQ(disk->DeltaEntries(), 0u);     // overlay folded into the file
  EXPECT_EQ(disk->size(), live);
  EXPECT_EQ(disk->base_size(), live);      // deltas became paged keys
  EXPECT_EQ(disk->Compactions(), 1u);
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(disk->Lookup(k), std::optional<uint64_t>(v)) << k;
  }

  // The compacted file is a valid index on its own: a fresh reader serves
  // the same contents with an empty overlay.
  auto reopened = DiskFitingTree<int64_t>::Open(path);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), live);
  std::vector<std::pair<int64_t, uint64_t>> got;
  reopened->ScanRange(oracle.begin()->first, oracle.rbegin()->first,
                      [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  const std::vector<std::pair<int64_t, uint64_t>> want(oracle.begin(),
                                                       oracle.end());
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

TEST(DiskFitingTree, EmptyFileBootstrapsThroughOverlay) {
  std::string path;
  auto disk = OpenWritable({}, {}, 8.0, 4, "empty_boot", &path);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->size(), 0u);
  EXPECT_EQ(disk->Lookup(5), std::nullopt);
  EXPECT_EQ(disk->RangeCount(-100, 100), 0u);
  EXPECT_TRUE(disk->Insert(5, 50));
  EXPECT_TRUE(disk->Insert(1, 10));
  EXPECT_TRUE(disk->Insert(9, 90));
  EXPECT_TRUE(disk->Delete(5));
  EXPECT_EQ(disk->size(), 2u);
  ASSERT_TRUE(disk->Compact());
  EXPECT_EQ(disk->base_size(), 2u);
  EXPECT_EQ(disk->Lookup(1), std::optional<uint64_t>(10));
  EXPECT_EQ(disk->Lookup(9), std::optional<uint64_t>(90));
  EXPECT_EQ(disk->Lookup(5), std::nullopt);
  std::remove(path.c_str());
}

// An empty base file grows through incremental compaction: slot 0's
// overlay becomes the first segments and later overlays fold into theirs,
// so the overlay stays a small fraction of the inserts instead of one
// sorted vector holding them all.
TEST(DiskFitingTree, EmptyFileBootstrapsThroughIncrementalCompaction) {
  constexpr size_t kInserts = 100000;
  std::string path;
  auto disk = OpenWritable({}, {}, 64.0, 64, "bootstrap", &path,
                           /*compact_threshold_pct=*/5, /*page_bytes=*/4096);
  ASSERT_NE(disk, nullptr);
  std::map<int64_t, uint64_t> oracle;
  std::mt19937_64 rng(0xB007);
  for (size_t i = 0; i < kInserts; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 1'000'000'000'000ull);
    const uint64_t value = rng();
    ASSERT_EQ(disk->Insert(key, value), oracle.emplace(key, value).second);
    // Republishes orphan the pages they replace; the threshold's full
    // rewrite keeps the file within 4x the 16-byte entries inserted so far.
    if (i % 4096 == 4095) {
      ASSERT_LE(disk->FileBytes(), 64 * (i + 1)) << i;
    }
  }
  EXPECT_GT(disk->IncrementalCompactions(), 0u);
  EXPECT_GT(disk->SegmentCount(), 1u);
  EXPECT_LT(disk->DeltaEntries(), kInserts / 20);
  EXPECT_EQ(disk->size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(disk->Lookup(k), std::optional<uint64_t>(v)) << k;
    ASSERT_EQ(disk->Contains(k + 1), oracle.contains(k + 1)) << k + 1;
  }
  std::vector<std::pair<int64_t, uint64_t>> got;
  disk->ScanRange(std::numeric_limits<int64_t>::lowest(),
                  std::numeric_limits<int64_t>::max(),
                  [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  const std::vector<std::pair<int64_t, uint64_t>> want(oracle.begin(),
                                                       oracle.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(disk->io_error());
  ASSERT_NO_FATAL_FAILURE(FoldEveryOverlay(*disk));
  disk.reset();
  ASSERT_NO_FATAL_FAILURE(ExpectReopenedFileMatches(path, oracle));
  std::remove(path.c_str());
}

TEST(DiskFitingTree, DeleteEverythingCompactsToEmptyFile) {
  const std::vector<int64_t> keys{10, 20, 30, 40};
  std::string path;
  auto disk = OpenWritable(keys, {}, 4.0, 4, "empty_compact", &path);
  ASSERT_NE(disk, nullptr);
  for (const int64_t k : keys) ASSERT_TRUE(disk->Delete(k));
  EXPECT_EQ(disk->size(), 0u);
  ASSERT_TRUE(disk->Compact());
  EXPECT_EQ(disk->base_size(), 0u);
  EXPECT_EQ(disk->size(), 0u);
  for (const int64_t k : keys) EXPECT_FALSE(disk->Contains(k));
  // And it bootstraps back up.
  EXPECT_TRUE(disk->Insert(15, 1));
  EXPECT_EQ(disk->Lookup(15), std::optional<uint64_t>(1));
  std::remove(path.c_str());
}

// The shared randomized differential driver, with Compact() folding the
// overlay at every checkpoint — the disk engine's whole CRUD surface
// (overlay reads, overrides, tombstones, compaction, post-compaction
// reads) against the same std::map oracle as the other two engines.
TEST(DiskCrudProperty, DifferentialVsMapOracleWithCompaction) {
  CrudOptions opt;
  opt.seed = 0xD15C;
  opt.ops = PropertyOps(30000);
  opt.key_space = 8000;
  std::map<int64_t, uint64_t> oracle;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  MakeInitialLoad(opt, /*load_every=*/2, &keys, &values, &oracle);
  std::string path;
  auto disk = OpenWritable(keys, values, 16.0, 16, "differential", &path);
  ASSERT_NE(disk, nullptr);
  opt.checkpoint = [&] { ASSERT_TRUE(disk->Compact()); };
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*disk, oracle, opt));
  EXPECT_GT(disk->Compactions(), 0u);
  EXPECT_FALSE(disk->io_error());
  std::remove(path.c_str());
}

// The same driver with no Compact() checkpoint: the threshold trigger
// alone folds overlays back, through append-and-republish and the drain's
// full rewrite once dead pages reach the live ones, at a page size small
// enough for many pages and at 4 KiB, where FITREE_IO_DIRECT=1 reads the
// appended pages with O_DIRECT.
TEST(DiskCrudProperty, DifferentialWithIncrementalCompaction) {
  for (const size_t page_bytes : {kPageBytes, size_t{4096}}) {
    SCOPED_TRACE("page_bytes=" + std::to_string(page_bytes));
    CrudOptions opt;
    opt.seed = 0x1C0C;
    opt.ops = PropertyOps(30000);
    opt.key_space = 8000;
    std::map<int64_t, uint64_t> oracle;
    std::vector<int64_t> keys;
    std::vector<uint64_t> values;
    MakeInitialLoad(opt, /*load_every=*/2, &keys, &values, &oracle);
    std::string path;
    auto disk = OpenWritable(keys, values, 16.0, 16, "differential_incr",
                             &path, /*compact_threshold_pct=*/5, page_bytes);
    ASSERT_NE(disk, nullptr);
    // The checkpoint bounds the file: until the next compaction the dead pages
    // stay below the live ones (two meta slots, a table no larger than the
    // leaves, the leaves), and one republish adds at most as many again.
    opt.checkpoint = [&] {
      EXPECT_LE(disk->FileBytes(),
                6 * page_bytes * (disk->LeafPageCount() + 2));
    };
    ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*disk, oracle, opt));
    EXPECT_GT(disk->IncrementalCompactions(), 0u);
    EXPECT_FALSE(disk->io_error());
    ASSERT_NO_FATAL_FAILURE(FoldEveryOverlay(*disk));
    disk.reset();
    ASSERT_NO_FATAL_FAILURE(ExpectReopenedFileMatches(path, oracle));
    std::remove(path.c_str());
  }
}

// Flips one bit of the byte at `offset` in `path`; a second call undoes it.
void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, f);
  ASSERT_EQ(std::fclose(f), 0);
}

// A write whose base-file read fails must not change the tree: a page that
// cannot be read proves neither presence nor absence. One frame, so every
// probe of the corrupted leaf faults it again; 4 KiB pages, so a run with
// FITREE_IO_DIRECT=1 reads through the aligned O_DIRECT frames.
TEST(DiskFitingTree, WriteWhoseBaseReadFailsChangesNothing) {
  constexpr size_t kBigPage = 4096;
  const size_t cap = LeafCapacity<int64_t>(kBigPage);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  for (size_t i = 0; i < 3000; ++i) {
    keys.push_back(static_cast<int64_t>(3 * i));
    values.push_back(7 * i + 3);
  }
  ASSERT_GT(keys.size(), 2 * cap);
  std::string path;
  auto disk = OpenWritable(keys, values, 16.0, /*cache_pages=*/1,
                           "failed_base_read", &path, 0, kBigPage);
  ASSERT_NE(disk, nullptr);
  // Linear keys make one segment with exact predictions, so rank r lives
  // on leaf r / cap and a mid-page key's window stays on its page.
  ASSERT_EQ(disk->SegmentCount(), 1u);
  const size_t mid = cap + cap / 2;  // leaf 1
  const int64_t paged = keys[mid];
  const int64_t other = keys[mid + 3];
  const int64_t gap = keys[mid + 6] + 1;  // absent from the file
  ASSERT_TRUE(disk->Insert(gap, 5));      // overlay entry over leaf 1
  ASSERT_EQ(disk->Lookup(keys[0]), std::optional<uint64_t>(values[0]));

  // Leaf 1 is no longer resident (the one frame holds leaf 0): corrupt it.
  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error_message();
  const long offset =
      static_cast<long>(reader.LeafPageId(1) * kBigPage + kBigPage / 2);
  reader.Close();
  ASSERT_NO_FATAL_FAILURE(FlipByteAt(path, offset));

  EXPECT_FALSE(disk->Insert(paged, 777));
  EXPECT_FALSE(disk->Insert(gap + 1, 6));
  EXPECT_FALSE(disk->Update(paged, 778));
  EXPECT_FALSE(disk->Delete(other));
  EXPECT_FALSE(disk->Delete(gap));  // overlay-only or paged: unknowable
  EXPECT_TRUE(disk->io_error());
  EXPECT_EQ(disk->size(), keys.size() + 1);
  EXPECT_EQ(disk->DeltaEntries(), 1u);
  EXPECT_NE(disk->Lookup(paged), std::optional<uint64_t>(777));
  EXPECT_EQ(disk->Lookup(gap), std::optional<uint64_t>(5));

  // Repaired, the page is read again (a failed read caches nothing) and
  // the tree holds exactly what it held before the failed writes.
  ASSERT_NO_FATAL_FAILURE(FlipByteAt(path, offset));
  std::vector<std::pair<int64_t, uint64_t>> want;
  for (size_t i = 0; i < keys.size(); ++i) {
    want.emplace_back(keys[i], values[i]);
    if (keys[i] + 1 == gap) want.emplace_back(gap, 5);
  }
  std::vector<std::pair<int64_t, uint64_t>> got;
  disk->ScanRange(std::numeric_limits<int64_t>::lowest(),
                  std::numeric_limits<int64_t>::max(),
                  [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(disk->Lookup(paged), std::optional<uint64_t>(values[mid]));
  EXPECT_FALSE(disk->Contains(gap + 1));
  std::remove(path.c_str());
}

std::vector<char> FileBytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char chunk[4096];
  for (size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) != 0;) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

// Compact() decides on whether its own scan read every page. While a leaf
// is corrupt it refuses and leaves the file as it was; once the page reads
// again, a rewrite succeeds even though an earlier read failed.
TEST(DiskFitingTree, CompactAfterTransientReadFailureSucceeds) {
  constexpr size_t kBigPage = 4096;
  const size_t cap = LeafCapacity<int64_t>(kBigPage);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::map<int64_t, uint64_t> oracle;
  for (size_t i = 0; i < 3000; ++i) {
    keys.push_back(static_cast<int64_t>(3 * i));
    values.push_back(7 * i + 3);
    oracle[keys.back()] = values.back();
  }
  ASSERT_GT(keys.size(), 2 * cap);
  std::string path;
  auto disk = OpenWritable(keys, values, 16.0, /*cache_pages=*/1,
                           "transient_read", &path, 0, kBigPage);
  ASSERT_NE(disk, nullptr);
  ASSERT_EQ(disk->SegmentCount(), 1u);  // rank r lives on leaf r / cap
  const int64_t paged = keys[cap + cap / 2];  // leaf 1
  ASSERT_EQ(disk->Lookup(keys[0]), std::optional<uint64_t>(values[0]));

  SegmentFileReader<int64_t> reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error_message();
  const long offset =
      static_cast<long>(reader.LeafPageId(1) * kBigPage + kBigPage / 2);
  reader.Close();
  ASSERT_NO_FATAL_FAILURE(FlipByteAt(path, offset));
  EXPECT_EQ(disk->Lookup(paged), std::nullopt);
  EXPECT_TRUE(disk->io_error());

  const std::vector<char> corrupt = FileBytes(path);
  EXPECT_FALSE(disk->Compact());
  EXPECT_EQ(FileBytes(path), corrupt);
  EXPECT_EQ(disk->Compactions(), 0u);

  ASSERT_NO_FATAL_FAILURE(FlipByteAt(path, offset));
  const int64_t gap = paged + 1;
  ASSERT_TRUE(disk->Insert(gap, 5));
  oracle[gap] = 5;
  ASSERT_TRUE(disk->Compact());
  EXPECT_EQ(disk->Compactions(), 1u);
  EXPECT_EQ(disk->DeltaEntries(), 0u);
  EXPECT_EQ(disk->base_size(), oracle.size());
  std::vector<std::pair<int64_t, uint64_t>> got;
  disk->ScanRange(std::numeric_limits<int64_t>::lowest(),
                  std::numeric_limits<int64_t>::max(),
                  [&](int64_t k, uint64_t v) { got.emplace_back(k, v); });
  const std::vector<std::pair<int64_t, uint64_t>> want(oracle.begin(),
                                                       oracle.end());
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

TEST(DiskFitingTree, ZipfianProbesRaiseHitRateOverUniform) {
  // ~200 leaf pages; 64 frames hold the Zipfian hot set (each hot key
  // needs its 2-3 window pages resident) but only a third of the file.
  Fixture fx(3000, 16.0, /*cache_pages=*/64, "zipf");
  const auto run = [&](fitree::workloads::Access access) {
    const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
        fx.keys, 20000, access, /*absent_fraction=*/0.0, 17);
    fx.disk->ResetIoStats();
    for (const int64_t p : probes) fx.disk->Lookup(p);
    return fx.disk->io().HitRate();
  };
  const double uniform = run(fitree::workloads::Access::kUniform);
  const double zipfian = run(fitree::workloads::Access::kZipfian);
  EXPECT_GT(zipfian, uniform + 0.1);
}

}  // namespace
