// Tests for the concurrency/ subsystem: epoch reclamation, the
// sequence-validated segment latch, the background merge worker, and the
// ConcurrentFitingTree itself — sequential CRUD correctness against the
// shared differential driver (tests/oracle.h), multi-threaded partitioned
// CRUD stress with exact per-thread oracles, arena relocations under
// lock-free readers, and a no-leak shutdown assertion for the epoch
// retire list.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "concurrency/concurrent_fiting_tree.h"
#include "concurrency/epoch.h"
#include "concurrency/merge_worker.h"
#include "concurrency/seg_latch.h"
#include "core/fiting_tree.h"
#include "datasets/datasets.h"
#include "tests/oracle.h"
#include "workloads/workloads.h"

namespace {

using fitree::ConcurrentFitingTree;
using fitree::ConcurrentFitingTreeConfig;
using fitree::EpochGuard;
using fitree::EpochManager;
using fitree::MergeWorker;
using fitree::SegLatch;
using fitree::testing::CrudOptions;
using fitree::testing::MakeInitialLoad;
using fitree::testing::MakePartitionedLoad;
using fitree::testing::PropertyOps;
using fitree::testing::RunCrudDifferential;
using fitree::testing::RunPartitionedCrud;
using fitree::workloads::Access;

int StressThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(2u, std::min(4u, hw == 0 ? 2u : hw)));
}

// ---- EpochManager ----

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : alive(&counter) {
    alive->fetch_add(1);
  }
  ~Tracked() { alive->fetch_sub(1); }
  std::atomic<int>* alive;
};

TEST(EpochManager, RetireFreesAfterQuiesce) {
  std::atomic<int> alive{0};
  EpochManager epoch;
  for (int i = 0; i < 100; ++i) epoch.Retire(new Tracked(alive));
  EXPECT_TRUE(epoch.DrainAll());
  EXPECT_EQ(epoch.PendingCount(), 0u);
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(epoch.retired_count(), 100u);
  EXPECT_EQ(epoch.freed_count(), 100u);
}

TEST(EpochManager, ActiveGuardBlocksReclamation) {
  std::atomic<int> alive{0};
  EpochManager epoch;
  {
    EpochGuard guard(epoch);
    epoch.Retire(new Tracked(alive));
    // The guard was active when the object was retired, so no number of
    // reclaim passes may free it.
    for (int i = 0; i < 10; ++i) epoch.TryReclaim();
    EXPECT_EQ(alive.load(), 1);
    EXPECT_EQ(epoch.PendingCount(), 1u);
  }
  EXPECT_TRUE(epoch.DrainAll());
  EXPECT_EQ(alive.load(), 0);
}

TEST(EpochManager, NoRetireListLeakAtShutdown) {
  std::atomic<int> alive{0};
  {
    EpochManager epoch;
    std::vector<std::thread> threads;
    for (int t = 0; t < StressThreads(); ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
          EpochGuard guard(epoch);
          epoch.Retire(new Tracked(alive));
        }
      });
    }
    for (auto& th : threads) th.join();
    // Destructor drains whatever reclaim passes left pending.
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(EpochManager, GuardsFromManyThreads) {
  EpochManager epoch;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        EpochGuard guard(epoch);
        sum.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sum.load(), 8000);
  EXPECT_EQ(epoch.ActiveGuards(), 0u);
}

// ---- SegLatch ----

TEST(SegLatch, MutualExclusion) {
  SegLatch latch;
  int64_t counter = 0;  // plain int: races would corrupt it (and trip TSan)
  std::vector<std::thread> threads;
  constexpr int kPerThread = 20000;
  for (int t = 0; t < StressThreads(); ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        SegLatch::Scoped lock(latch);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kPerThread) * StressThreads());
}

TEST(SegLatch, SequenceDetectsWriters) {
  SegLatch latch;
  const uint32_t before = latch.ReadSeq();
  EXPECT_TRUE(latch.Validate(before));
  latch.Lock();
  latch.Unlock();
  // A completed critical section must invalidate the earlier sequence.
  EXPECT_FALSE(latch.Validate(before));
  const uint32_t after = latch.ReadSeq();
  EXPECT_EQ(after, before + 2);
}

TEST(SegLatch, TryLock) {
  SegLatch latch;
  EXPECT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

// ---- MergeWorker ----

TEST(MergeWorker, ProcessesAllItemsBeforeStop) {
  MergeWorker worker;
  std::atomic<int> handled{0};
  worker.Start([&](void*) { handled.fetch_add(1); });
  for (int i = 0; i < 100; ++i) worker.Enqueue(nullptr);
  worker.Stop();
  EXPECT_EQ(handled.load(), 100);
  EXPECT_EQ(worker.processed(), 100u);
}

TEST(MergeWorker, WaitIdleDrains) {
  MergeWorker worker;
  std::atomic<int> handled{0};
  worker.Start([&](void*) { handled.fetch_add(1); });
  for (int i = 0; i < 50; ++i) worker.Enqueue(nullptr);
  worker.WaitIdle();
  EXPECT_EQ(handled.load(), 50);
  worker.Stop();
}

// ---- ConcurrentFitingTree: sequential correctness ----

TEST(ConcurrentFitingTree, SequentialMatchesOracle) {
  const auto keys = fitree::datasets::Iot(20000, 7);
  std::set<int64_t> oracle(keys.begin(), keys.end());
  ConcurrentFitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 8;  // tiny: force frequent merge-and-resegment
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, config);
  EXPECT_EQ(tree->size(), keys.size());

  const auto inserts =
      fitree::workloads::MakeInserts<int64_t>(keys, 5000, 21);
  const auto probes = fitree::workloads::MakeLookupProbes<int64_t>(
      keys, 5000, Access::kUniform, 0.3, 22);
  for (size_t i = 0; i < inserts.size(); ++i) {
    tree->Insert(inserts[i]);
    oracle.insert(inserts[i]);
    const int64_t probe = probes[i % probes.size()];
    ASSERT_EQ(tree->Contains(probe), oracle.count(probe) > 0)
        << "after insert " << i;
    ASSERT_TRUE(tree->Contains(inserts[i]));
  }
  EXPECT_EQ(tree->size(), oracle.size());
  EXPECT_GT(tree->stats().segment_merges, 0u);

  // Full-range scan returns exactly the oracle, in order.
  std::vector<int64_t> scanned;
  tree->ScanRange(*oracle.begin(), *oracle.rbegin(),
                  [&](int64_t k) { scanned.push_back(k); });
  EXPECT_TRUE(std::equal(scanned.begin(), scanned.end(), oracle.begin(),
                         oracle.end()));
}

TEST(ConcurrentFitingTree, ExtremeUnsignedKeysClampPredictionBeforeCast) {
  // UINT64_MAX predicts a position past 2^64, where a bare double->size_t
  // cast is undefined.
  std::vector<uint64_t> keys(1000);
  for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = i;
  ConcurrentFitingTreeConfig config;
  config.error = 16.0;
  auto tree = ConcurrentFitingTree<uint64_t>::Create(keys, keys, config);
  EXPECT_EQ(tree->Lookup(UINT64_MAX), std::nullopt);
  EXPECT_FALSE(tree->Contains(UINT64_MAX));
  EXPECT_FALSE(tree->Update(UINT64_MAX, 1));
  EXPECT_FALSE(tree->Delete(UINT64_MAX));
  EXPECT_EQ(tree->Lookup(0), 0u);
  EXPECT_TRUE(tree->Contains(0));
  EXPECT_EQ(tree->Lookup(999), 999u);
}

TEST(ConcurrentFitingTree, EmptyTreeBootstrap) {
  ConcurrentFitingTreeConfig config;
  config.error = 16.0;
  auto tree = ConcurrentFitingTree<int64_t>::Create({}, config);
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_FALSE(tree->Contains(42));
  for (int64_t k = 100; k > 0; k -= 3) tree->Insert(k);
  for (int64_t k = 100; k > 0; k -= 3) EXPECT_TRUE(tree->Contains(k));
  EXPECT_FALSE(tree->Contains(99));
  EXPECT_EQ(tree->size(), 34u);
}

// ---- ConcurrentFitingTree: multi-threaded stress ----

// Shared harness (tests/oracle.h): `threads` workers drive full CRUD over
// disjoint interleaved key partitions, so every worker checks each
// Insert/Update/Delete/Lookup return inline against its own exact
// std::map oracle while merges churn shared segments underneath. The
// quiesced end state must equal the merged oracles, and the epoch retire
// list must drain clean.
void RunStress(bool background_merge) {
  const int threads = StressThreads();
  CrudOptions opt;
  opt.seed = 0x57E55;
  opt.ops = PropertyOps(20000);
  opt.key_space = 8000;
  opt.mix = {.insert = 0.3, .update = 0.15, .del = 0.15, .lookup = 0.3,
             .scan = 0.1};

  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::vector<std::map<int64_t, uint64_t>> oracles;
  MakePartitionedLoad(opt, threads, /*load_every=*/2, &keys, &values,
                      &oracles);

  ConcurrentFitingTreeConfig config;
  config.error = 64.0;
  config.buffer_size = 8;  // merge-heavy on purpose
  config.background_merge = background_merge;
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, values, config);

  ASSERT_NO_FATAL_FAILURE(RunPartitionedCrud(
      *tree, threads, opt, std::move(oracles),
      [&] { tree->QuiesceMerges(); }));

  // Epoch hygiene: after a quiesced drain the retire list is empty and
  // everything ever retired has been freed — no leak at shutdown.
  EXPECT_TRUE(tree->epoch().DrainAll());
  EXPECT_EQ(tree->epoch().PendingCount(), 0u);
  EXPECT_EQ(tree->epoch().retired_count(), tree->epoch().freed_count());
  EXPECT_GT(tree->stats().segment_merges, 0u);
  EXPECT_GT(tree->stats().deletes, 0u);
}

TEST(ConcurrentCrudProperty, PartitionedStressInlineMerge) {
  RunStress(false);
}

TEST(ConcurrentCrudProperty, PartitionedStressBackgroundMerge) {
  RunStress(true);
}

// Four writers churn small segments until the segment arena has to move
// pages (SegmentArena::Compact) while the same threads keep looking them
// up and scanning them. A relocation must copy the page and retire the old
// block through the epoch: a reader still searching it would otherwise
// read freed (ASan) or rewritten (TSan) memory. With the background
// worker, its queue holds raw segment pointers that a relocation must not
// free either.
void RunArenaStress(bool background_merge) {
  constexpr int kThreads = 4;
  CrudOptions opt;
  opt.seed = 0xA7E4A;
  opt.ops = PropertyOps(60000);
  opt.key_space = 40000;
  opt.mix = {.insert = 0.3, .update = 0.1, .del = 0.25, .lookup = 0.15,
             .scan = 0.2};
  opt.scan_span = 256;

  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::vector<std::map<int64_t, uint64_t>> oracles;
  MakePartitionedLoad(opt, kThreads, /*load_every=*/2, &keys, &values,
                      &oracles);

  ConcurrentFitingTreeConfig config;
  config.error = 4.0;
  config.buffer_size = 4;
  config.background_merge = background_merge;
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, values, config);

  ASSERT_NO_FATAL_FAILURE(RunPartitionedCrud(
      *tree, kThreads, opt, std::move(oracles),
      [&] { tree->QuiesceMerges(); }));

  // Compaction stops at a chunk whose moved blocks still wait for
  // readers, so once those are freed the arena may hold one chunk more
  // than the single-threaded bound.
  EXPECT_TRUE(tree->epoch().DrainAll());
  EXPECT_EQ(tree->epoch().retired_count(), tree->epoch().freed_count());
  const auto stats = tree->Stats();
  EXPECT_GT(stats.Get("arena_relocations"), 0.0);
  EXPECT_LE(stats.Get("arena_mapped_bytes"),
            2.0 * stats.Get("arena_live_bytes") +
                static_cast<double>(fitree::SegmentArena::kSlackBytes +
                                    fitree::SegmentArena::kChunkBytes));
}

TEST(ConcurrentArena, RelocationUnderReadersInlineMerge) {
  RunArenaStress(false);
}

TEST(ConcurrentArena, RelocationUnderReadersBackgroundMerge) {
  RunArenaStress(true);
}

// The single-threaded differential stream, same driver as the core and
// disk suites: exact op-by-op agreement with std::map, merges included.
TEST(ConcurrentCrudProperty, DifferentialVsMapOracle) {
  CrudOptions opt;
  opt.seed = 0xD1FF;
  opt.ops = PropertyOps(40000);
  std::map<int64_t, uint64_t> oracle;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  MakeInitialLoad(opt, /*load_every=*/2, &keys, &values, &oracle);
  ConcurrentFitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 8;
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, values, config);
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*tree, oracle, opt));
  EXPECT_GT(tree->stats().segment_merges, 0u);
}

// ---- ConcurrentFitingTree: directed CRUD edges ----

TEST(ConcurrentFitingTree, DeleteThenReinsertAndBufferOnlyUpdate) {
  const std::vector<int64_t> keys{10, 20, 30, 40, 50};
  ConcurrentFitingTreeConfig config;
  config.error = 4.0;
  config.buffer_size = 16;  // keep the buffer resident, no merge
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, config);
  EXPECT_TRUE(tree->Delete(30));
  EXPECT_FALSE(tree->Delete(30));
  EXPECT_EQ(tree->Lookup(30), std::nullopt);
  EXPECT_TRUE(tree->Insert(30, 77));  // drops the tombstone, new payload
  EXPECT_EQ(tree->Lookup(30), std::optional<uint64_t>(77));
  EXPECT_EQ(tree->size(), 5u);
  // Update of a key living only in the delta buffer.
  ASSERT_TRUE(tree->Insert(25, 1));
  EXPECT_TRUE(tree->Update(25, 2));
  EXPECT_EQ(tree->Lookup(25), std::optional<uint64_t>(2));
  // Update of a paged key rewrites its payload in the page.
  EXPECT_TRUE(tree->Update(20, 9));
  EXPECT_EQ(tree->Lookup(20), std::optional<uint64_t>(9));
  EXPECT_FALSE(tree->Update(99, 1));
  std::vector<std::pair<int64_t, uint64_t>> got;
  tree->ScanRange(0, 100, [&](int64_t k, uint64_t v) {
    got.emplace_back(k, v);
  });
  const std::vector<std::pair<int64_t, uint64_t>> want{
      {10, 0}, {20, 9}, {25, 2}, {30, 77}, {40, 0}, {50, 0}};
  EXPECT_EQ(got, want);
}

TEST(ConcurrentFitingTree, TombstoneHeavyBufferMergesAndCanEmptySegments) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 2000; ++i) keys.push_back(i * 5);
  ConcurrentFitingTreeConfig config;
  config.error = 16.0;
  config.buffer_size = 4;
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, config);
  // Delete everything, first key included: merges must clear tombstones,
  // retire emptied segments, and eventually empty the whole directory.
  for (const int64_t k : keys) ASSERT_TRUE(tree->Delete(k));
  EXPECT_EQ(tree->size(), 0u);
  for (int64_t i = 0; i < 2000; i += 97) EXPECT_FALSE(tree->Contains(i * 5));
  std::vector<int64_t> scanned;
  tree->ScanRange(-10, 20000, [&](int64_t k) { scanned.push_back(k); });
  EXPECT_TRUE(scanned.empty());
  EXPECT_GT(tree->stats().segment_merges, 0u);
  // A fully deleted tree bootstraps again.
  EXPECT_TRUE(tree->Insert(42, 6));
  EXPECT_EQ(tree->Lookup(42), std::optional<uint64_t>(6));
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_TRUE(tree->epoch().DrainAll());
}

TEST(ConcurrentFitingTree, ConcurrentInsertsIntoEmptyTree) {
  ConcurrentFitingTreeConfig config;
  config.error = 32.0;
  auto tree = ConcurrentFitingTree<int64_t>::Create({}, config);
  const int threads = StressThreads();
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Disjoint per-thread key ranges: every insert is unique.
        tree->Insert(static_cast<int64_t>(t) * 1000000 + i * 3);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tree->size(),
            static_cast<size_t>(threads) * static_cast<size_t>(kPerThread));
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < kPerThread; i += 97) {
      ASSERT_TRUE(
          tree->Contains(static_cast<int64_t>(t) * 1000000 + i * 3));
    }
  }
}

TEST(ConcurrentFitingTree, ConcurrentDuplicateInsertsKeepSetSemantics) {
  const auto keys = fitree::datasets::Step(5000, 100);
  ConcurrentFitingTreeConfig config;
  config.error = 32.0;
  config.buffer_size = 4;
  auto tree = ConcurrentFitingTree<int64_t>::Create(keys, config);
  // All threads insert the *same* stream of keys: the final size must count
  // each distinct key once no matter how buffers and merges interleave.
  // (On staircase data AbsentKey can fall back to existing keys, so the
  // expectation is the union, not keys + distinct inserts.)
  const auto inserts = fitree::workloads::MakeInserts<int64_t>(keys, 3000, 5);
  std::set<int64_t> expected(keys.begin(), keys.end());
  expected.insert(inserts.begin(), inserts.end());
  std::vector<std::thread> workers;
  for (int t = 0; t < StressThreads(); ++t) {
    workers.emplace_back([&] {
      for (const int64_t k : inserts) tree->Insert(k);
    });
  }
  for (auto& w : workers) w.join();
  tree->QuiesceMerges();
  EXPECT_EQ(tree->size(), expected.size());
}

}  // namespace
