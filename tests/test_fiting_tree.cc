#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "concurrency/concurrent_fiting_tree.h"
#include "core/delta_buffer.h"
#include "core/fiting_tree.h"
#include "datasets/datasets.h"
#include "tests/oracle.h"
#include "workloads/workloads.h"

namespace {

using fitree::Feasibility;
using fitree::FitingTree;
using fitree::FitingTreeConfig;
using fitree::SearchPolicy;
using fitree::SegmentArena;
using fitree::testing::CrudOptions;
using fitree::testing::MakeInitialLoad;
using fitree::testing::PropertyOps;
using fitree::testing::RunCrudDifferential;

TEST(FitingTree, LookupMatchesOracleReadOnly) {
  const auto keys = fitree::datasets::Weblogs(30000, 1);
  const std::set<int64_t> oracle(keys.begin(), keys.end());
  for (const double error : {16.0, 256.0, 16384.0}) {
    FitingTreeConfig config;
    config.error = error;
    config.buffer_size = 0;
    auto tree = FitingTree<int64_t>::Create(keys, config);
    EXPECT_EQ(tree->size(), keys.size());
    const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
        keys, 3000, fitree::workloads::Access::kUniform, 0.4, 5);
    for (const int64_t probe : probes) {
      ASSERT_EQ(tree->Contains(probe), oracle.count(probe) > 0)
          << "probe " << probe << " error " << error;
    }
  }
}

// The ISSUE's headline dynamic test: interleaved inserts with a tiny buffer
// force merge-and-resegment splits, and every lookup must stay correct.
TEST(FitingTree, InsertWithBufferSplitsMatchesOracle) {
  const auto keys = fitree::datasets::Iot(8000, 3);
  std::set<int64_t> oracle(keys.begin(), keys.end());
  FitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 4;  // tiny: every few inserts merges a segment
  auto tree = FitingTree<int64_t>::Create(keys, config);

  const auto inserts = fitree::workloads::MakeInserts<int64_t>(keys, 4000, 4);
  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      keys, 4000, fitree::workloads::Access::kUniform, 0.3, 6);
  for (size_t i = 0; i < inserts.size(); ++i) {
    tree->Insert(inserts[i]);
    oracle.insert(inserts[i]);
    // Interleave lookups with the insert stream.
    const int64_t probe = probes[i % probes.size()];
    ASSERT_EQ(tree->Contains(probe), oracle.count(probe) > 0)
        << "after insert " << i;
    ASSERT_TRUE(tree->Contains(inserts[i]));
    ASSERT_EQ(tree->Lookup(inserts[i]), std::optional<uint64_t>(0));
  }
  EXPECT_EQ(tree->size(), oracle.size());
  EXPECT_GT(tree->stats().segment_merges, 0u);
  // Re-check the whole key set after the dust settles.
  for (const int64_t key : oracle) {
    ASSERT_TRUE(tree->Contains(key)) << "key " << key;
  }
}

TEST(FitingTree, ZeroBufferMergesEveryInsert) {
  const auto keys = fitree::datasets::Weblogs(2000, 7);
  FitingTreeConfig config;
  config.error = 128.0;
  config.buffer_size = 0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  const auto inserts = fitree::workloads::MakeInserts<int64_t>(keys, 50, 8);
  uint64_t merges = 0;
  for (const int64_t key : inserts) {
    tree->Insert(key);
    ASSERT_TRUE(tree->Contains(key));
    ASSERT_GT(tree->stats().segment_merges, merges);
    merges = tree->stats().segment_merges;
  }
}

TEST(FitingTree, DuplicateInsertsAreIgnored) {
  const auto keys = fitree::datasets::Maps(5000, 9);
  FitingTreeConfig config;
  config.error = 64.0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  const size_t before = tree->size();
  tree->Insert(keys[123]);
  tree->Insert(keys[4567]);
  EXPECT_EQ(tree->size(), before);
  const int64_t fresh = keys[0] - 10;
  tree->Insert(fresh);
  tree->Insert(fresh);
  EXPECT_EQ(tree->size(), before + 1);
  EXPECT_TRUE(tree->Contains(fresh));
}

TEST(FitingTree, ScanRangeMergesBuffersInOrder) {
  const auto keys = fitree::datasets::Weblogs(10000, 11);
  std::set<int64_t> oracle(keys.begin(), keys.end());
  FitingTreeConfig config;
  config.error = 256.0;
  config.buffer_size = 64;  // keep keys sitting in buffers during the scan
  auto tree = FitingTree<int64_t>::Create(keys, config);
  for (const int64_t key :
       fitree::workloads::MakeInserts<int64_t>(keys, 2000, 12)) {
    tree->Insert(key);
    oracle.insert(key);
  }
  const auto queries =
      fitree::workloads::MakeRangeQueries<int64_t>(keys, 200, 0.02, 13);
  for (const auto& q : queries) {
    std::vector<int64_t> expected;
    for (auto it = oracle.lower_bound(q.lo);
         it != oracle.end() && *it <= q.hi; ++it) {
      expected.push_back(*it);
    }
    std::vector<int64_t> scanned;
    tree->ScanRange(q.lo, q.hi, [&](int64_t key) { scanned.push_back(key); });
    ASSERT_EQ(scanned, expected) << "range [" << q.lo << ", " << q.hi << "]";
  }
}

TEST(FitingTree, SearchPoliciesAgree) {
  const auto keys = fitree::datasets::Iot(20000, 15);
  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      keys, 2000, fitree::workloads::Access::kUniform, 0.5, 16);
  std::vector<bool> expected;
  for (const auto policy :
       {SearchPolicy::kBinary, SearchPolicy::kLinear,
        SearchPolicy::kExponential, SearchPolicy::kSimd}) {
    FitingTreeConfig config;
    config.error = 512.0;
    config.buffer_size = 0;
    config.search_policy = policy;
    auto tree = FitingTree<int64_t>::Create(keys, config);
    if (expected.empty()) {
      for (const int64_t probe : probes) {
        expected.push_back(tree->Contains(probe));
      }
    } else {
      for (size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(tree->Contains(probes[i]), expected[i]) << "probe " << i;
      }
    }
  }
}

TEST(FitingTree, ConeFeasibilityNeedsNoMoreSegments) {
  const auto keys = fitree::datasets::Weblogs(20000, 17);
  FitingTreeConfig endpoint;
  endpoint.error = 64.0;
  endpoint.buffer_size = 0;
  FitingTreeConfig cone = endpoint;
  cone.feasibility = Feasibility::kCone;
  auto a = FitingTree<int64_t>::Create(keys, endpoint);
  auto b = FitingTree<int64_t>::Create(keys, cone);
  EXPECT_LE(b->SegmentCount(), a->SegmentCount());
  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      keys, 1000, fitree::workloads::Access::kUniform, 0.3, 18);
  for (const int64_t probe : probes) {
    ASSERT_EQ(a->Contains(probe), b->Contains(probe));
  }
}

TEST(FitingTree, BreakdownCountsAllProbes) {
  const auto keys = fitree::datasets::Weblogs(5000, 21);
  FitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  int64_t tree_ns = 0, page_ns = 0;
  for (size_t i = 0; i < keys.size(); i += 10) {
    ASSERT_TRUE(tree->ContainsWithBreakdown(keys[i], &tree_ns, &page_ns));
  }
  EXPECT_GT(tree_ns, 0);
  EXPECT_GT(page_ns, 0);
}

TEST(FitingTree, ProbesFarOutsideKeyRange) {
  // A key far below the leftmost segment routes there via the floor
  // fallback and predicts a hugely negative position; the window clamp
  // must not wrap (regression: negative double -> size_t cast).
  const auto keys = fitree::datasets::Weblogs(5000, 23);
  FitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  EXPECT_FALSE(tree->Contains(keys.front() - 1'000'000));
  EXPECT_FALSE(tree->Contains(-1'000'000'000));
  EXPECT_FALSE(tree->Contains(keys.back() + 1'000'000));
  tree->Insert(keys.front() - 1'000'000);
  EXPECT_TRUE(tree->Contains(keys.front() - 1'000'000));
}

TEST(FitingTree, ExtremeUnsignedKeysClampPredictionBeforeCast) {
  // A probe of UINT64_MAX predicts a position past 2^64; casting that to
  // size_t is undefined (the sanitizer build traps on it), so every site
  // clamps first.
  std::vector<uint64_t> keys(1000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  FitingTreeConfig config;
  config.error = 16.0;
  auto tree = FitingTree<uint64_t>::Create(keys, keys, config);
  EXPECT_EQ(tree->Lookup(UINT64_MAX), std::nullopt);
  EXPECT_FALSE(tree->Contains(UINT64_MAX));
  EXPECT_FALSE(tree->Update(UINT64_MAX, 1));
  EXPECT_FALSE(tree->Delete(UINT64_MAX));
  EXPECT_EQ(tree->Lookup(0), 0u);
  EXPECT_TRUE(tree->Contains(0));
  EXPECT_EQ(tree->Lookup(999), 999u);
  EXPECT_TRUE(tree->Insert(UINT64_MAX, 7));
  EXPECT_EQ(tree->Lookup(UINT64_MAX), 7u);
}

// The lookup prefetches lines around the prediction and the payloads of
// the gallop bracket; neither may change an answer. Lookups and updates
// under both sync policies and every search policy, against a std::map,
// over pages of every size down to one key: every key, the first and last
// key of every page, the gaps beside them, and keys outside the range.
template <typename Tree>
void CheckPrefetchKeepsAnswers() {
  const auto keys = fitree::datasets::Iot(6000, 41);
  for (const double error : {1.0, 4.0, 64.0, 1024.0}) {
    for (const auto policy :
         {SearchPolicy::kBinary, SearchPolicy::kLinear,
          SearchPolicy::kExponential, SearchPolicy::kSimd}) {
      SCOPED_TRACE(::testing::Message()
                   << "error " << error << " policy "
                   << fitree::SearchPolicyName(policy));
      std::vector<uint64_t> values(keys.size());
      std::map<int64_t, uint64_t> oracle;
      for (size_t i = 0; i < keys.size(); ++i) {
        values[i] = i * 3 + 1;
        oracle[keys[i]] = values[i];
      }
      typename Tree::Config config;
      config.error = error;
      config.search_policy = policy;
      auto tree = Tree::Create(keys, values, config);

      std::vector<int64_t> probes(keys.begin(), keys.end());
      size_t small_pages = 0;
      for (size_t s = 0; s < tree->SegmentCount(); ++s) {
        const auto page = tree->PageKeys(s);
        small_pages += page.size() < 8 ? 1 : 0;
        for (const int64_t edge : {page.front(), page.back()}) {
          probes.insert(probes.end(), {edge - 1, edge, edge + 1});
        }
      }
      if (error == 1.0) {
        EXPECT_GT(small_pages, 0u);
      }
      for (const int64_t far :
           {keys.front() - 1'000'000, keys.back() + 1'000'000,
            std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max()}) {
        probes.push_back(far);
      }

      const auto check = [&] {
        for (const int64_t probe : probes) {
          const auto it = oracle.find(probe);
          ASSERT_EQ(tree->Lookup(probe),
                    it == oracle.end() ? std::nullopt
                                       : std::optional<uint64_t>(it->second))
              << "probe " << probe;
        }
      };
      check();
      for (size_t i = 0; i < probes.size(); i += 3) {
        const auto it = oracle.find(probes[i]);
        ASSERT_EQ(tree->Update(probes[i], i), it != oracle.end())
            << "update " << probes[i];
        if (it != oracle.end()) it->second = i;
      }
      check();
    }
  }
}

TEST(FitingTree, PrefetchNeverChangesAnAnswer) {
  CheckPrefetchKeepsAnswers<FitingTree<int64_t>>();
}

TEST(FitingTree, PrefetchNeverChangesAnAnswerConcurrentPolicy) {
  CheckPrefetchKeepsAnswers<fitree::ConcurrentFitingTree<int64_t>>();
}

// ---- CRUD: payloads, updates, deletes ----

TEST(FitingTree, InsertReturnsWhetherKeyWasNew) {
  const auto keys = fitree::datasets::Maps(5000, 9);
  FitingTreeConfig config;
  config.error = 64.0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  EXPECT_FALSE(tree->Insert(keys[123], 7));   // already paged
  const int64_t fresh = keys[0] - 10;
  EXPECT_TRUE(tree->Insert(fresh, 1));
  EXPECT_FALSE(tree->Insert(fresh, 2));       // already buffered
  EXPECT_EQ(tree->Lookup(fresh), std::optional<uint64_t>(1));  // first wins
}

TEST(FitingTree, LookupAndUpdatePayloads) {
  const std::vector<int64_t> keys{10, 20, 30, 40, 50};
  const std::vector<uint64_t> values{100, 200, 300, 400, 500};
  FitingTreeConfig config;
  config.error = 4.0;
  auto tree = FitingTree<int64_t>::Create(keys, values, config);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tree->Lookup(keys[i]), std::optional<uint64_t>(values[i]));
  }
  EXPECT_EQ(tree->Lookup(25), std::nullopt);
  EXPECT_TRUE(tree->Update(30, 999));   // paged key: in-place
  EXPECT_EQ(tree->Lookup(30), std::optional<uint64_t>(999));
  EXPECT_FALSE(tree->Update(25, 1));    // absent
  ASSERT_TRUE(tree->Insert(25, 7));
  EXPECT_TRUE(tree->Update(25, 8));     // key living only in the buffer
  EXPECT_EQ(tree->Lookup(25), std::optional<uint64_t>(8));
  EXPECT_EQ(tree->stats().updates, 2u);
}

TEST(FitingTree, DeleteThenReinsert) {
  const std::vector<int64_t> keys{10, 20, 30, 40, 50};
  FitingTreeConfig config;
  config.error = 4.0;
  config.buffer_size = 16;  // keep tombstones resident, no merge
  auto tree = FitingTree<int64_t>::Create(keys, config);
  EXPECT_TRUE(tree->Delete(30));
  EXPECT_FALSE(tree->Delete(30));  // already tombstoned
  EXPECT_FALSE(tree->Contains(30));
  EXPECT_EQ(tree->size(), 4u);
  std::vector<int64_t> scanned;
  tree->ScanRange(0, 100, [&](int64_t k) { scanned.push_back(k); });
  EXPECT_EQ(scanned, (std::vector<int64_t>{10, 20, 40, 50}));
  // Reinsert flips the tombstone and carries the new payload.
  EXPECT_TRUE(tree->Insert(30, 77));
  EXPECT_EQ(tree->Lookup(30), std::optional<uint64_t>(77));
  EXPECT_EQ(tree->size(), 5u);
  // Buffered (never paged) keys are dropped outright on delete.
  ASSERT_TRUE(tree->Insert(35, 1));
  EXPECT_TRUE(tree->Delete(35));
  EXPECT_FALSE(tree->Contains(35));
  EXPECT_EQ(tree->size(), 5u);
}

TEST(FitingTree, TombstoneHeavyBufferTriggersMergeAndDropsKeys) {
  const auto keys = fitree::datasets::Iot(4000, 3);
  FitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 4;  // tiny: a burst of deletes overflows the buffer
  auto tree = FitingTree<int64_t>::Create(keys, config);
  std::set<int64_t> oracle(keys.begin(), keys.end());
  std::mt19937_64 rng(17);
  const uint64_t merges_before = tree->stats().segment_merges;
  for (int i = 0; i < 1000; ++i) {
    const int64_t victim = keys[rng() % keys.size()];
    ASSERT_EQ(tree->Delete(victim), oracle.erase(victim) > 0);
  }
  EXPECT_GT(tree->stats().segment_merges, merges_before);
  EXPECT_GT(tree->stats().tombstones_cleared, 0u);
  EXPECT_EQ(tree->size(), oracle.size());
  std::vector<int64_t> scanned;
  tree->ScanRange(keys.front(), keys.back(),
                  [&](int64_t k) { scanned.push_back(k); });
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), oracle.begin(),
                         oracle.end()));
}

TEST(FitingTree, DeleteSegmentFirstKeySurvivesMerge) {
  const auto keys = fitree::datasets::Weblogs(6000, 13);
  FitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 2;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  std::set<int64_t> oracle(keys.begin(), keys.end());
  // The global first key is also the first segment's first_key: deleting it
  // exercises the directory-erase + resegment path at the left edge.
  ASSERT_TRUE(tree->Delete(keys.front()));
  oracle.erase(keys.front());
  // Force merges around the tombstone by churning nearby inserts.
  for (int64_t d = 1; d <= 8; ++d) {
    const int64_t k = keys.front() + d;
    if (oracle.insert(k).second) {
      ASSERT_TRUE(tree->Insert(k, static_cast<uint64_t>(d)));
    }
  }
  EXPECT_FALSE(tree->Contains(keys.front()));
  EXPECT_EQ(tree->size(), oracle.size());
  for (const int64_t k : oracle) ASSERT_TRUE(tree->Contains(k)) << k;
}

TEST(FitingTree, DeleteEverythingThenBootstrapFromEmpty) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 300; ++i) keys.push_back(i * 7);
  FitingTreeConfig config;
  config.error = 16.0;
  config.buffer_size = 3;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  for (const int64_t k : keys) ASSERT_TRUE(tree->Delete(k));
  EXPECT_EQ(tree->size(), 0u);
  for (const int64_t k : keys) EXPECT_FALSE(tree->Contains(k));
  std::vector<int64_t> scanned;
  tree->ScanRange(-100, 10000, [&](int64_t k) { scanned.push_back(k); });
  EXPECT_TRUE(scanned.empty());
  // A fully deleted tree bootstraps again like a fresh empty one.
  EXPECT_TRUE(tree->Insert(42, 6));
  EXPECT_EQ(tree->Lookup(42), std::optional<uint64_t>(6));
  EXPECT_EQ(tree->size(), 1u);
}

// The shared randomized differential driver (tests/oracle.h), seeded from
// a bulk load. FITREE_PROPERTY_OPS cranks the op count in CI's sanitizer
// jobs (ctest -L property).
TEST(FitingTreeCrudProperty, DifferentialVsMapOracle) {
  CrudOptions opt;
  opt.seed = 0xC0FFEE;
  opt.ops = PropertyOps(60000);
  std::map<int64_t, uint64_t> oracle;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  MakeInitialLoad(opt, /*load_every=*/2, &keys, &values, &oracle);
  FitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 8;  // merge-heavy
  auto tree = FitingTree<int64_t>::Create(keys, values, config);
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*tree, oracle, opt));
  EXPECT_GT(tree->stats().segment_merges, 0u);
}

TEST(FitingTreeCrudProperty, DifferentialFromEmptyTree) {
  CrudOptions opt;
  opt.seed = 0xBEEF;
  opt.ops = PropertyOps(30000);
  opt.key_space = 5000;
  std::map<int64_t, uint64_t> oracle;
  FitingTreeConfig config;
  config.error = 16.0;
  config.buffer_size = 4;
  auto tree = FitingTree<int64_t>::Create({}, config);
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*tree, oracle, opt));
}

TEST(FitingTree, EmptyAndSingleton) {
  const std::vector<int64_t> empty;
  FitingTreeConfig config;
  config.error = 16.0;
  auto tree = FitingTree<int64_t>::Create(empty, config);
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_FALSE(tree->Contains(5));
  tree->Insert(5);
  EXPECT_TRUE(tree->Contains(5));
  EXPECT_EQ(tree->size(), 1u);
  tree->Insert(3);  // smaller than every existing key
  tree->Insert(9);
  EXPECT_TRUE(tree->Contains(3));
  EXPECT_TRUE(tree->Contains(9));
  std::vector<int64_t> scanned;
  tree->ScanRange(0, 100, [&](int64_t key) { scanned.push_back(key); });
  EXPECT_EQ(scanned, (std::vector<int64_t>{3, 5, 9}));
}

// ---- Merge edge cases ------------------------------------------------------

double ArenaStat(const FitingTree<int64_t>& tree, const char* name) {
  return tree.Stats().Get(name);
}

// Every oracle key looks up with its payload, a neighbour of each that the
// oracle lacks looks up absent, and a full scan yields the oracle in order.
void ExpectMatchesOracle(const FitingTree<int64_t>& tree,
                         const std::map<int64_t, uint64_t>& oracle) {
  ASSERT_EQ(tree.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(tree.Lookup(k), std::optional<uint64_t>(v)) << k;
    if (oracle.count(k + 1) == 0) {
      ASSERT_FALSE(tree.Contains(k + 1)) << k + 1;
    }
  }
  if (oracle.empty()) return;
  auto expect = oracle.begin();
  const size_t emitted = tree.ScanRange(
      oracle.begin()->first - 1000, oracle.rbegin()->first + 1000,
      [&](int64_t k, uint64_t v) {
        ASSERT_NE(expect, oracle.end());
        EXPECT_EQ(k, expect->first);
        EXPECT_EQ(v, expect->second);
        ++expect;
      });
  EXPECT_EQ(emitted, oracle.size());
  EXPECT_EQ(expect, oracle.end());
}

// Arena bytes the live pages of `tree` hold: one block per segment of n
// int64 keys, then n uint64 payloads behind the ASan gap.
double LivePageBytes(const FitingTree<int64_t>& tree) {
  double bytes = 0;
  for (size_t i = 0; i < tree.SegmentCount(); ++i) {
    const size_t n = tree.PageKeys(i).size();
    const size_t block = n * (sizeof(int64_t) + sizeof(uint64_t)) +
                         SegmentArena::kRedzoneBytes;
    bytes += static_cast<double>(SegmentArena::SpanOf(block));
  }
  return bytes;
}

// `n` keys 0, step, 2 step, ...: one segment at any error.
std::vector<int64_t> LinearKeys(size_t n, int64_t step) {
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i) * step;
  return keys;
}

std::unique_ptr<FitingTree<int64_t>> LoadWithPayloads(
    const std::vector<int64_t>& keys, const FitingTreeConfig& config,
    std::map<int64_t, uint64_t>* oracle) {
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    values[i] = static_cast<uint64_t>(i) * 7 + 1;
    oracle->emplace(keys[i], values[i]);
  }
  return FitingTree<int64_t>::Create(keys, values, config);
}

// Buffered keys below the tree's first key sit in segment 0's buffer ahead
// of its whole page; keys past a segment's last page key sit behind it.
TEST(FitingTreeMerge, BufferEntriesOutsideThePage) {
  const auto keys = fitree::datasets::Weblogs(20000, 31);
  FitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 4;
  std::map<int64_t, uint64_t> oracle;
  auto tree = LoadWithPayloads(keys, config, &oracle);
  ASSERT_GT(tree->SegmentCount(), 2u);
  uint64_t payload = 1000;
  for (int64_t d = 1; d <= 9; ++d) {  // below segment 0's first key
    ASSERT_TRUE(tree->Insert(keys.front() - 3 * d, ++payload));
    oracle.emplace(keys.front() - 3 * d, payload);
  }
  for (int64_t d = 1; d <= 9; ++d) {  // above the last page key
    ASSERT_TRUE(tree->Insert(keys.back() + 5 * d, ++payload));
    oracle.emplace(keys.back() + 5 * d, payload);
  }
  // Past the last page key of an interior segment, before the next one.
  const int64_t last = tree->PageKeys(1).back();
  const int64_t next = tree->PageKeys(2).front();
  for (int64_t k = last + 1; k < next && k <= last + 9; ++k) {
    ASSERT_TRUE(tree->Insert(k, ++payload));
    oracle.emplace(k, payload);
  }
  EXPECT_GE(tree->stats().segment_merges, 2u);
  ExpectMatchesOracle(*tree, oracle);
}

TEST(FitingTreeMerge, TombstonesOnAPagesFirstAndLastKey) {
  const auto keys = fitree::datasets::Weblogs(20000, 32);
  FitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 2;
  std::map<int64_t, uint64_t> oracle;
  auto tree = LoadWithPayloads(keys, config, &oracle);
  ASSERT_GT(tree->SegmentCount(), 4u);
  const size_t merges = tree->stats().segment_merges;
  // Both ends of an interior page and of the tree's first and last pages.
  for (const size_t s : {size_t{0}, tree->SegmentCount() / 2,
                         tree->SegmentCount() - 1}) {
    const std::span<const int64_t> page = tree->PageKeys(s);
    ASSERT_GT(page.size(), 3u);
    // The third tombstone overflows the buffer and merges the page.
    for (const int64_t k : {page.front(), page.back(), page[1]}) {
      ASSERT_TRUE(tree->Delete(k));
      oracle.erase(k);
    }
  }
  EXPECT_EQ(tree->stats().segment_merges, merges + 3);
  EXPECT_EQ(tree->stats().tombstones_cleared, 9u);
  ExpectMatchesOracle(*tree, oracle);
}

TEST(FitingTreeMerge, SeveralInsertsBetweenTwoPageKeys) {
  const auto keys = LinearKeys(2000, 1000);
  FitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 8;
  std::map<int64_t, uint64_t> oracle;
  auto tree = LoadWithPayloads(keys, config, &oracle);
  ASSERT_EQ(tree->SegmentCount(), 1u);
  // Nine keys between page keys 500000 and 501000: the ninth overflows the
  // buffer, and one merge folds all nine into the same gap.
  for (int64_t k = 500100; k <= 500900; k += 100) {
    ASSERT_TRUE(tree->Insert(k, static_cast<uint64_t>(k)));
    oracle.emplace(k, static_cast<uint64_t>(k));
  }
  EXPECT_EQ(tree->stats().segment_merges, 1u);
  EXPECT_EQ(tree->SegmentCount(), 1u);
  ExpectMatchesOracle(*tree, oracle);
  EXPECT_EQ(LivePageBytes(*tree), ArenaStat(*tree, "arena_live_bytes"));
}

// A dense burst into one gap of a linear page breaks the line: the merge
// splits the segment, copies each model's range into a block of its own
// and frees the block it merged into.
TEST(FitingTreeMerge, SplittingMergeFreesItsMergeBlock) {
  const auto keys = LinearKeys(4000, 100);
  FitingTreeConfig config;
  config.error = 4.0;
  config.buffer_size = 32;
  std::map<int64_t, uint64_t> oracle;
  auto tree = LoadWithPayloads(keys, config, &oracle);
  ASSERT_EQ(tree->SegmentCount(), 1u);
  ASSERT_TRUE(tree->Delete(0));  // a tombstone rides along
  oracle.erase(0);
  for (int64_t k = 200001; k <= 200032; ++k) {
    ASSERT_TRUE(tree->Insert(k, static_cast<uint64_t>(k)));
    oracle.emplace(k, static_cast<uint64_t>(k));
  }
  EXPECT_EQ(tree->stats().segment_merges, 1u);
  EXPECT_GE(tree->SegmentCount(), 2u);
  EXPECT_EQ(tree->stats().segments_created, tree->SegmentCount());
  ExpectMatchesOracle(*tree, oracle);
  EXPECT_EQ(LivePageBytes(*tree), ArenaStat(*tree, "arena_live_bytes"));
}

// ---- The shared delta-buffer kernels (core/delta_buffer.h) ---------------

using Entry = fitree::detail::BufferEntry<int64_t, uint64_t>;
using Pairs = std::vector<std::pair<int64_t, uint64_t>>;

Pairs EmitPairs(const std::vector<int64_t>& keys,
                const std::vector<uint64_t>& values,
                const std::vector<Entry>& buffer, int64_t lo, int64_t hi) {
  Pairs got;
  auto fn = [&](const int64_t& k, const uint64_t& v) {
    got.emplace_back(k, v);
  };
  const size_t emitted = fitree::detail::EmitMergedRange<int64_t, uint64_t>(
      keys.data(), values.data(), keys.size(), buffer, lo, hi, fn);
  EXPECT_EQ(emitted, got.size());
  return got;
}

// Page 10..50 with every kind of entry: a live key below the page, a
// tombstone on its first key, an insert between two page keys, a payload
// override, a tombstone on its last key and a live key past it.
TEST(FitingTreeMerge, EmitMergedRangeAppliesEveryEntryKind) {
  const std::vector<int64_t> keys{10, 20, 30, 40, 50};
  const std::vector<uint64_t> values{1, 2, 3, 4, 5};
  const std::vector<Entry> buffer{{5, 50, false},   {10, 0, true},
                                  {25, 250, false}, {30, 300, false},
                                  {50, 0, true},    {60, 600, false}};
  EXPECT_EQ(EmitPairs(keys, values, buffer, INT64_MIN, INT64_MAX),
            (Pairs{{5, 50}, {20, 2}, {25, 250}, {30, 300}, {40, 4},
                   {60, 600}}));
  EXPECT_EQ(EmitPairs(keys, values, buffer, 20, 40),
            (Pairs{{20, 2}, {25, 250}, {30, 300}, {40, 4}}));
  EXPECT_EQ(EmitPairs(keys, values, buffer, 30, 30), (Pairs{{30, 300}}));
  EXPECT_EQ(EmitPairs(keys, values, buffer, 11, 24), (Pairs{{20, 2}}));
  EXPECT_EQ(EmitPairs(keys, values, buffer, 10, 10), Pairs{});
  EXPECT_EQ(EmitPairs(keys, values, buffer, 45, 55), Pairs{});
  EXPECT_EQ(EmitPairs(keys, values, buffer, 55, 70), (Pairs{{60, 600}}));
  // No page: the buffer's live entries alone.
  EXPECT_EQ(EmitPairs({}, {}, buffer, 0, 100),
            (Pairs{{5, 50}, {25, 250}, {30, 300}, {60, 600}}));
  // No buffer: the page alone.
  EXPECT_EQ(EmitPairs(keys, values, {}, 15, 45),
            (Pairs{{20, 2}, {30, 3}, {40, 4}}));
}

// The two kernels agree with a std::map that applies the same buffer, on
// random pages, buffers and ranges; the merge writes what a full-range
// scan emits.
TEST(FitingTreeMerge, ScanAndMergeKernelsMatchMapOracle) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 300; ++round) {
    std::map<int64_t, uint64_t> page;
    const size_t n = rng() % 40;
    while (page.size() < n) {
      page.emplace(static_cast<int64_t>(rng() % 200), rng() % 1000);
    }
    std::vector<int64_t> keys;
    std::vector<uint64_t> values;
    for (const auto& [k, v] : page) {
      keys.push_back(k);
      values.push_back(v);
    }
    std::map<int64_t, uint64_t> oracle = page;
    std::map<int64_t, Entry> entries;
    for (size_t i = rng() % 20; i > 0; --i) {
      const auto k = static_cast<int64_t>(rng() % 200);
      const bool tombstone = page.count(k) > 0 && rng() % 2 == 0;
      entries[k] = Entry{k, rng() % 1000, tombstone};
    }
    std::vector<Entry> buffer;
    for (const auto& [k, e] : entries) {
      buffer.push_back(e);
      if (e.tombstone) {
        oracle.erase(k);
      } else {
        oracle[k] = e.value;
      }
    }
    for (int q = 0; q < 10; ++q) {
      const auto lo = static_cast<int64_t>(rng() % 220) - 10;
      const int64_t hi = lo + static_cast<int64_t>(rng() % 80);
      const Pairs want(oracle.lower_bound(lo), oracle.upper_bound(hi));
      ASSERT_EQ(EmitPairs(keys, values, buffer, lo, hi), want)
          << "round " << round << " [" << lo << ", " << hi << "]";
    }
    std::vector<int64_t> out_keys(keys.size() + buffer.size());
    std::vector<uint64_t> out_values(out_keys.size());
    const size_t merged =
        fitree::detail::MergePageWithBuffer<int64_t, uint64_t>(
            keys.data(), values.data(), keys.size(), buffer, out_keys.data(),
            out_values.data());
    Pairs got;
    for (size_t i = 0; i < merged; ++i) {
      got.emplace_back(out_keys[i], out_values[i]);
    }
    ASSERT_EQ(got, Pairs(oracle.begin(), oracle.end())) << "round " << round;
  }
}

// ---- Segment arena (core/segment_arena.h) ---------------------------------
// Registered again under the `property` ctest label (SegmentArena*), so the
// ASan and TSan legs run them too.

// Holds the arena's bound: mapped <= 2 x live + slack.
void ExpectArenaBounded(const FitingTree<int64_t>& tree, size_t op) {
  const double mapped = ArenaStat(tree, "arena_mapped_bytes");
  const double live = ArenaStat(tree, "arena_live_bytes");
  EXPECT_LE(mapped, 2.0 * live +
                        static_cast<double>(SegmentArena::kSlackBytes))
      << "after op " << op << ": live " << live;
}

// Zipf-skewed insert/update/delete churn over a universe twice the loaded
// key set, 20x the key count in ops: merges keep rewriting the hot
// segments' pages, and the arena must stay bounded by relocating the
// blocks of sparse chunks.
TEST(SegmentArena, MemoryStaysBoundedUnderZipfChurn) {
  const auto universe = fitree::datasets::Weblogs(200000, 21);
  std::vector<int64_t> keys;
  for (size_t i = 0; i < universe.size(); i += 2) keys.push_back(universe[i]);
  FitingTreeConfig config;
  config.error = 32.0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  std::map<int64_t, uint64_t> oracle;
  for (const int64_t k : keys) oracle.emplace(k, 0);

  fitree::workloads::detail::ZipfianRanks zipf(universe.size());
  std::mt19937_64 rng(7);
  const size_t ops = 20 * keys.size();
  for (size_t op = 0; op < ops; ++op) {
    const int64_t key = universe[zipf.Next(rng)];
    const uint64_t draw = rng() % 10;
    if (draw < 4) {
      ASSERT_EQ(tree->Insert(key, op), oracle.emplace(key, op).second);
    } else if (draw < 6) {
      const auto it = oracle.find(key);
      ASSERT_EQ(tree->Update(key, op), it != oracle.end());
      if (it != oracle.end()) it->second = op;
    } else {
      ASSERT_EQ(tree->Delete(key), oracle.erase(key) > 0);
    }
    if (op % 50000 == 0) ExpectArenaBounded(*tree, op);
  }
  ExpectArenaBounded(*tree, ops);
  EXPECT_GT(ArenaStat(*tree, "arena_relocations"), 0.0);
  EXPECT_EQ(tree->size(), oracle.size());
  auto expect = oracle.begin();
  tree->ScanRange(universe.front(), universe.back(),
                  [&](int64_t k, uint64_t v) {
                    ASSERT_NE(expect, oracle.end());
                    EXPECT_EQ(k, expect->first);
                    EXPECT_EQ(v, expect->second);
                    ++expect;
                  });
  EXPECT_EQ(expect, oracle.end());
}

TEST(SegmentArena, DeletingEveryKeyLeavesAtMostOneChunk) {
  const auto keys = fitree::datasets::Weblogs(300000, 22);
  FitingTreeConfig config;
  config.error = 32.0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  ASSERT_GT(ArenaStat(*tree, "arena_chunks"), 1.0);
  std::vector<int64_t> order(keys);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(3));
  for (const int64_t k : order) ASSERT_TRUE(tree->Delete(k));
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->SegmentCount(), 0u);
  EXPECT_LE(ArenaStat(*tree, "arena_chunks"), 1.0);
  EXPECT_EQ(ArenaStat(*tree, "arena_live_bytes"), 0.0);
}

TEST(SegmentArena, RebuildTakesChunksFromFreeList) {
  const auto keys = fitree::datasets::Weblogs(1000000, 23);  // ~8 chunks
  FitingTreeConfig config;
  config.error = 64.0;
  auto first = FitingTree<int64_t>::Create(keys, config);
  const double chunks = ArenaStat(*first, "arena_chunks");
  ASSERT_GT(chunks, 4.0);
  first.reset();
  const size_t free_after_drop = SegmentArena::FreeChunks();
  EXPECT_GE(free_after_drop, static_cast<size_t>(chunks) - 2);
  auto second = FitingTree<int64_t>::Create(keys, config);
  EXPECT_EQ(ArenaStat(*second, "arena_chunks"), chunks);
  EXPECT_LE(SegmentArena::FreeChunks() + static_cast<size_t>(chunks) - 2,
            free_after_drop);
  for (size_t i = 0; i < keys.size(); i += 997) {
    ASSERT_TRUE(second->Contains(keys[i])) << keys[i];
  }
}

// A perfectly linear 1M-key set is one segment whose 16 MB page needs a
// block larger than a chunk: it gets a chunk of its own.
TEST(SegmentArena, LinearMillionKeysUseOneOversizeBlock) {
  std::vector<int64_t> keys(1000000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(3 * i);
  }
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 11;
  FitingTreeConfig config;
  config.error = 32.0;
  auto tree = FitingTree<int64_t>::Create(keys, values, config);
  ASSERT_EQ(tree->SegmentCount(), 1u);
  EXPECT_EQ(tree->PageKeys(0).size(), keys.size());
  EXPECT_EQ(ArenaStat(*tree, "arena_chunks"), 1.0);
  EXPECT_GT(ArenaStat(*tree, "arena_mapped_bytes"),
            static_cast<double>(SegmentArena::kChunkBytes));
  for (size_t i = 0; i < keys.size(); i += 101) {
    ASSERT_EQ(tree->Lookup(keys[i]), std::optional<uint64_t>(values[i]));
    ASSERT_FALSE(tree->Contains(keys[i] + 1));
  }
  // A merge rewrites the whole page into a fresh oversize block.
  for (int64_t k = 1; k < 200; k += 3) ASSERT_TRUE(tree->Insert(k, 5));
  EXPECT_GT(tree->stats().segment_merges, 0u);
  EXPECT_EQ(tree->Lookup(1), std::optional<uint64_t>(5));
  EXPECT_EQ(tree->Lookup(keys.back()), std::optional<uint64_t>(values.back()));
  EXPECT_EQ(tree->size(), keys.size() + 67);
}

// Trees on separate threads share only the process-wide chunk free list;
// each keeps building, churning and dropping its own (the shards of a
// ShardedIndex do the same).
TEST(SegmentArena, TreesOnSeparateThreadsShareFreeList) {
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      const auto keys = fitree::datasets::Weblogs(150000, 30 + t);
      FitingTreeConfig config;
      config.error = 32.0;
      for (int round = 0; round < 3; ++round) {
        auto tree = FitingTree<int64_t>::Create(keys, config);
        std::mt19937_64 rng(t * 10 + static_cast<uint64_t>(round));
        for (int i = 0; i < 20000; ++i) {
          const int64_t k = keys[rng() % keys.size()];
          if (i % 2 == 0) {
            tree->Delete(k);
          } else {
            tree->Insert(k, 1);
          }
        }
        for (size_t i = 0; i < keys.size(); i += 101) {
          tree->Insert(keys[i], 2);
          EXPECT_TRUE(tree->Contains(keys[i]));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

#if defined(FITREE_ASAN)
// The SIMD window kernels promise never to read past data + 8n
// (core/search_policy.h); the arena's poisoned gaps keep ASan able to
// catch a page over-read.
void ExpectReadPastPageDies(const FitingTree<int64_t>& tree, size_t i) {
  const std::span<const int64_t> page = tree.PageKeys(i);
  EXPECT_DEATH(
      {
        const volatile int64_t past = page.data()[page.size()];
        (void)past;
      },
      "AddressSanitizer");
}

TEST(SegmentArenaDeathTest, ReadingPastAPageReports) {
  const auto keys = fitree::datasets::Weblogs(20000, 24);
  FitingTreeConfig config;
  config.error = 32.0;
  auto tree = FitingTree<int64_t>::Create(keys, config);
  ExpectReadPastPageDies(*tree, 0);

  // A merge that keeps one model adopts the block it merged into.
  config.error = 4.0;
  config.buffer_size = 16;
  auto linear = FitingTree<int64_t>::Create(LinearKeys(4000, 100), config);
  for (int64_t k = 1; k <= 17; ++k) {
    ASSERT_TRUE(linear->Insert(k * 23000 + 1));
  }
  ASSERT_EQ(linear->stats().segment_merges, 1u);
  ASSERT_EQ(linear->SegmentCount(), 1u);
  ExpectReadPastPageDies(*linear, 0);

  // A merge that splits copies each model's range into a block of its own.
  for (int64_t k = 200001; k <= 200017; ++k) ASSERT_TRUE(linear->Insert(k));
  ASSERT_EQ(linear->stats().segment_merges, 2u);
  ASSERT_GE(linear->SegmentCount(), 2u);
  for (size_t i = 0; i < linear->SegmentCount(); ++i) {
    ExpectReadPastPageDies(*linear, i);
  }
}
#endif

}  // namespace
