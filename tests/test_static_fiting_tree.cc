#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "core/static_fiting_tree.h"
#include "datasets/datasets.h"
#include "workloads/workloads.h"

namespace {

using fitree::SearchPolicy;
using fitree::StaticFitingTree;

void CheckAgainstFlatOracle(const std::vector<int64_t>& keys, double error,
                            SearchPolicy policy) {
  auto tree = StaticFitingTree<int64_t>::Create(keys, error, policy);
  EXPECT_EQ(tree->size(), keys.size());
  EXPECT_GE(tree->SegmentCount(), 1u);
  EXPECT_GT(tree->IndexSizeBytes(), 0u);

  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      keys, 3000, fitree::workloads::Access::kUniform, 0.4, 99);
  for (const int64_t probe : probes) {
    const auto expected_lb =
        std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin();
    ASSERT_EQ(tree->LowerBound(probe), static_cast<size_t>(expected_lb))
        << "probe " << probe;
    const bool present = static_cast<size_t>(expected_lb) < keys.size() &&
                         keys[expected_lb] == probe;
    ASSERT_EQ(tree->Contains(probe), present) << "probe " << probe;
    if (present) {
      ASSERT_EQ(tree->Find(probe).value(), static_cast<size_t>(expected_lb));
    } else {
      ASSERT_FALSE(tree->Find(probe).has_value());
    }
  }
}

TEST(StaticFitingTree, LookupMatchesOracleAllPolicies) {
  const auto keys = fitree::datasets::Weblogs(30000, 1);
  for (const auto policy :
       {SearchPolicy::kBinary, SearchPolicy::kLinear,
        SearchPolicy::kExponential, SearchPolicy::kSimd}) {
    CheckAgainstFlatOracle(keys, 64.0, policy);
  }
}

TEST(StaticFitingTree, LookupAcrossDatasetsAndErrors) {
  for (const auto& keys :
       {fitree::datasets::Iot(20000, 2), fitree::datasets::Maps(20000, 3),
        fitree::datasets::Step(20000, 100)}) {
    for (const double error : {8.0, 256.0, 4096.0}) {
      CheckAgainstFlatOracle(keys, error, SearchPolicy::kBinary);
    }
  }
}

TEST(StaticFitingTree, RangeCountAndScan) {
  const auto keys = fitree::datasets::Iot(20000, 5);
  auto tree = StaticFitingTree<int64_t>::Create(keys, 128.0);
  const auto queries =
      fitree::workloads::MakeRangeQueries<int64_t>(keys, 300, 0.01, 11);
  for (const auto& q : queries) {
    const auto lo_it = std::lower_bound(keys.begin(), keys.end(), q.lo);
    const auto hi_it = std::upper_bound(keys.begin(), keys.end(), q.hi);
    const size_t expected = static_cast<size_t>(hi_it - lo_it);
    ASSERT_EQ(tree->RangeCount(q.lo, q.hi), expected);

    std::vector<int64_t> scanned;
    tree->ScanRange(q.lo, q.hi, [&](int64_t key) { scanned.push_back(key); });
    ASSERT_EQ(scanned.size(), expected);
    EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), lo_it));
  }
  EXPECT_EQ(tree->RangeCount(keys.back(), keys.front()), 0u);
}

TEST(StaticFitingTree, SmallerErrorMoreSegments) {
  const auto keys = fitree::datasets::Weblogs(30000, 7);
  auto fine = StaticFitingTree<int64_t>::Create(keys, 16.0);
  auto coarse = StaticFitingTree<int64_t>::Create(keys, 4096.0);
  EXPECT_GE(fine->SegmentCount(), coarse->SegmentCount());
  EXPECT_GE(fine->IndexSizeBytes(), coarse->IndexSizeBytes());
}

TEST(StaticFitingTree, BoundaryProbes) {
  const auto keys = fitree::datasets::Maps(10000, 9);
  auto tree = StaticFitingTree<int64_t>::Create(keys, 32.0);
  EXPECT_EQ(tree->LowerBound(keys.front() - 1), 0u);
  EXPECT_EQ(tree->LowerBound(keys.front()), 0u);
  EXPECT_EQ(tree->LowerBound(keys.back()), keys.size() - 1);
  EXPECT_EQ(tree->LowerBound(keys.back() + 1), keys.size());
  EXPECT_FALSE(tree->Contains(keys.front() - 100));
  EXPECT_FALSE(tree->Contains(keys.back() + 100));
}

TEST(StaticFitingTree, ExtremeUnsignedKeysClampPredictionBeforeCast) {
  // UINT64_MAX predicts a position past 2^64, where a bare double->size_t
  // cast is undefined.
  std::vector<uint64_t> keys(1000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  auto tree = StaticFitingTree<uint64_t>::Create(keys, 16.0);
  EXPECT_EQ(tree->LowerBound(UINT64_MAX), keys.size());
  EXPECT_FALSE(tree->Contains(UINT64_MAX));
  EXPECT_EQ(tree->Lookup(UINT64_MAX), std::nullopt);
  EXPECT_EQ(tree->LowerBound(0), 0u);
  EXPECT_TRUE(tree->Contains(0));
  EXPECT_EQ(tree->Lookup(0), 0u);
}

TEST(StaticFitingTree, PayloadsDefaultToRankAndUpdateInPlace) {
  const auto keys = fitree::datasets::Iot(3000, 7);
  auto tree = StaticFitingTree<int64_t>::Create(keys, 16.0);
  // Implicit rank payloads.
  EXPECT_TRUE(tree->values().empty());
  EXPECT_EQ(tree->Lookup(keys[57]), std::optional<uint64_t>(57));
  EXPECT_EQ(tree->Lookup(keys.front() - 1), std::nullopt);
  // Update materializes ranks, then overrides one.
  EXPECT_TRUE(tree->Update(keys[57], 9999));
  EXPECT_EQ(tree->Lookup(keys[57]), std::optional<uint64_t>(9999));
  EXPECT_EQ(tree->Lookup(keys[58]), std::optional<uint64_t>(58));
  EXPECT_FALSE(tree->Update(keys.front() - 1, 1));
  EXPECT_EQ(tree->values().size(), keys.size());
}

TEST(StaticFitingTree, ExplicitPayloadsServeLookupsAndScans) {
  const std::vector<int64_t> keys{5, 10, 15, 20};
  const std::vector<uint64_t> values{50, 100, 150, 200};
  auto tree = StaticFitingTree<int64_t>::Create(keys, values, 4.0);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tree->Lookup(keys[i]), std::optional<uint64_t>(values[i]));
  }
  std::vector<std::pair<int64_t, uint64_t>> got;
  tree->ScanRange(0, 100, [&](int64_t k, uint64_t v) {
    got.emplace_back(k, v);
  });
  const std::vector<std::pair<int64_t, uint64_t>> want{
      {5, 50}, {10, 100}, {15, 150}, {20, 200}};
  EXPECT_EQ(got, want);
}

}  // namespace
