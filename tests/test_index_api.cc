// The unified engine contract (core/index_api.h), checked two ways: the
// concepts themselves as compile-time static_asserts over every engine —
// so a signature drift (a non-const read, a void ScanRange, a renamed
// mutator) fails the build with the concept's name in the error — and a
// small differential oracle run per mutable engine through the exact
// concept-shaped surface, so the shared semantics ("Insert true iff new",
// "ScanRange returns emitted count, sorted") hold behaviorally too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrency/concurrent_fiting_tree.h"
#include "core/fiting_tree.h"
#include "core/index_api.h"
#include "core/static_fiting_tree.h"
#include "server/sharded_index.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "tests/oracle.h"

namespace {

using fitree::ConcurrentFitingTree;
using fitree::ConcurrentFitingTreeConfig;
using fitree::FitingTree;
using fitree::FitingTreeConfig;
using fitree::IndexApi;
using fitree::MutableIndexApi;
using fitree::StaticFitingTree;
using fitree::server::ShardedIndex;
using fitree::storage::DiskFitingTree;
using fitree::testing::CrudOptions;
using fitree::testing::MakeInitialLoad;
using fitree::testing::PropertyOps;
using fitree::testing::RunCrudDifferential;

// --- the contract, as compile-time facts ----------------------------------

using Buffered = FitingTree<int64_t>;
using Static = StaticFitingTree<int64_t>;
using Concurrent = ConcurrentFitingTree<int64_t>;
using Disk = DiskFitingTree<int64_t>;
using Server = ShardedIndex<Buffered>;

// Every engine (and the server front-end) models the read contract.
static_assert(IndexApi<Buffered>);
static_assert(IndexApi<Static>);
static_assert(IndexApi<Concurrent>);
static_assert(IndexApi<Disk>);
static_assert(IndexApi<Server>);

// The mutable engines (and the server) model the full CRUD contract.
static_assert(MutableIndexApi<Buffered>);
static_assert(MutableIndexApi<Concurrent>);
static_assert(MutableIndexApi<Disk>);
static_assert(MutableIndexApi<Server>);

// The static tree is read-mostly: it supports payload Update (same-key
// overwrite) but not Insert/Delete, so it must NOT model MutableIndexApi.
static_assert(!MutableIndexApi<Static>);

// Key/Payload aliases are part of the contract.
static_assert(std::is_same_v<Buffered::Key, int64_t>);
static_assert(std::is_same_v<Buffered::Payload, uint64_t>);
static_assert(std::is_same_v<Disk::Key, int64_t>);
static_assert(std::is_same_v<Disk::Payload, uint64_t>);

// --- shared CRUD semantics, one oracle run per mutable engine -------------

CrudOptions SmallOpts(uint64_t seed) {
  CrudOptions opt;
  opt.seed = seed;
  opt.ops = PropertyOps(4000);
  opt.key_space = 4000;
  return opt;
}

TEST(IndexApiContract, BufferedEngineMatchesOracle) {
  CrudOptions opt = SmallOpts(11);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::map<int64_t, uint64_t> oracle;
  MakeInitialLoad(opt, /*load_every=*/4, &keys, &values, &oracle);
  auto tree = Buffered::Create(keys, values, FitingTreeConfig{.error = 32.0});
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*tree, oracle, opt));
}

TEST(IndexApiContract, ConcurrentEngineMatchesOracle) {
  CrudOptions opt = SmallOpts(12);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::map<int64_t, uint64_t> oracle;
  MakeInitialLoad(opt, /*load_every=*/4, &keys, &values, &oracle);
  ConcurrentFitingTreeConfig config;
  config.error = 32.0;
  auto tree = Concurrent::Create(keys, values, config);
  opt.checkpoint = [&] { tree->QuiesceMerges(); };
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*tree, oracle, opt));
}

TEST(IndexApiContract, DiskEngineMatchesOracle) {
  CrudOptions opt = SmallOpts(14);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::map<int64_t, uint64_t> oracle;
  MakeInitialLoad(opt, /*load_every=*/4, &keys, &values, &oracle);
  auto mem = Static::Create(keys, values, /*error=*/32.0);
  const std::string path = testing::TempDir() + "/index_api_disk.fit";
  ASSERT_TRUE(fitree::storage::WriteIndexFile(
      path, *mem, fitree::storage::SegmentFileOptions{/*page_bytes=*/1024}));
  Disk::Options options;
  options.cache_pages = 64;
  auto disk = Disk::Open(path, options);
  ASSERT_NE(disk, nullptr);
  opt.checkpoint = [&] { ASSERT_TRUE(disk->Compact()); };
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*disk, oracle, opt));
  std::remove(path.c_str());
}

// --- ScanRange returns the emitted count, uniformly -----------------------

template <typename Index>
void ExpectScanCountsMatch(const Index& index, int64_t lo, int64_t hi) {
  size_t collected = 0;
  const size_t returned = index.ScanRange(
      lo, hi, [&](const int64_t&, const uint64_t&) { ++collected; });
  EXPECT_EQ(returned, collected);
  EXPECT_GT(returned, 0u);
  // Inverted interval: zero, not UB.
  EXPECT_EQ(index.ScanRange(hi, lo, [](const int64_t&, const uint64_t&) {}),
            0u);
}

TEST(IndexApiContract, ScanRangeReturnsEmittedCount) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 512; ++i) keys.push_back(i * 3);
  auto buffered = Buffered::Create(keys, {}, FitingTreeConfig{.error = 16.0});
  auto statict = Static::Create(keys, /*error=*/16.0);
  ConcurrentFitingTreeConfig config;
  config.error = 16.0;
  auto concurrent = Concurrent::Create(keys, {}, config);
  ExpectScanCountsMatch(*buffered, 30, 300);
  ExpectScanCountsMatch(*statict, 30, 300);
  ExpectScanCountsMatch(*concurrent, 30, 300);
}

// --- StaticFitingTree Update (payload overwrite, no insert path) ----------

TEST(IndexApiContract, StaticUpdateRenamed) {
  std::vector<int64_t> keys = {10, 20, 30, 40};
  auto tree = Static::Create(keys, /*error=*/4.0);
  EXPECT_TRUE(tree->Update(20, 999));
  EXPECT_EQ(tree->Lookup(20), std::optional<uint64_t>(999));
  EXPECT_FALSE(tree->Update(25, 1));  // absent key: no insert path

  EXPECT_TRUE(tree->Update(30, 777));
  EXPECT_EQ(tree->Lookup(30), std::optional<uint64_t>(777));
}

}  // namespace
