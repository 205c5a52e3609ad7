// ShardedIndex server tests: router boundary correctness, batched
// dispatch semantics, the op queue's three idle-wait endings (poll,
// notify, stop), worker pinning, the shared differential oracle (batch=1
// vs batched — same answers), multi-client stress under the partitioned
// oracle (over in-memory and disk engines), and the post-quiescence shard
// introspection surface.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "core/fiting_tree.h"
#include "core/static_fiting_tree.h"
#include "server/shard_router.h"
#include "server/sharded_index.h"
#include "storage/disk_fiting_tree.h"
#include "storage/segment_file.h"
#include "telemetry/registry.h"
#include "tests/oracle.h"

namespace {

using fitree::FitingTree;
using fitree::FitingTreeConfig;
using fitree::StaticFitingTree;
using fitree::server::OpQueue;
using fitree::server::ShardedIndex;
using fitree::server::ShardRouter;
using fitree::server::Wake;
using fitree::storage::DiskFitingTree;
using fitree::storage::LeafCapacity;
using fitree::storage::SegmentFileOptions;
using fitree::testing::CrudOptions;
using fitree::testing::MakeInitialLoad;
using fitree::testing::MakePartitionedLoad;
using fitree::testing::PropertyOps;
using fitree::testing::RunCrudDifferential;
using fitree::testing::RunPartitionedCrud;

using Engine = FitingTree<int64_t>;
using Server = ShardedIndex<Engine>;

// Minimal std::map-backed engine modeling MutableIndexApi. The regression
// tests below need an engine that tolerates duplicate keys in the initial
// load (the real engines require duplicate-free input) and a factory that
// can fail mid-load.
class MapEngine {
 public:
  using Key = int64_t;
  using Payload = uint64_t;

  static std::unique_ptr<MapEngine> Create(
      const std::vector<int64_t>& keys, const std::vector<uint64_t>& values) {
    auto engine = std::make_unique<MapEngine>();
    for (size_t i = 0; i < keys.size(); ++i) {
      engine->map_.emplace(keys[i], values.empty() ? 0 : values[i]);
    }
    return engine;
  }

  std::optional<uint64_t> Lookup(const int64_t& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool Contains(const int64_t& key) const { return map_.count(key) != 0; }
  template <typename Fn>
  size_t ScanRange(const int64_t& lo, const int64_t& hi, Fn fn) const {
    size_t n = 0;
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first <= hi;
         ++it, ++n) {
      fn(it->first, it->second);
    }
    return n;
  }
  size_t size() const { return map_.size(); }
  bool Insert(const int64_t& key, const uint64_t& value) {
    return map_.emplace(key, value).second;
  }
  bool Update(const int64_t& key, const uint64_t& value) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    it->second = value;
    return true;
  }
  bool Delete(const int64_t& key) { return map_.erase(key) != 0; }

 private:
  std::map<int64_t, uint64_t> map_;
};

Server::Factory MakeFactory(double error = 32.0) {
  return [error](const std::vector<int64_t>& keys,
                 const std::vector<uint64_t>& values) {
    return Engine::Create(keys, values, FitingTreeConfig{.error = error});
  };
}

std::unique_ptr<Server> MakeServer(const std::vector<int64_t>& keys,
                                   const std::vector<uint64_t>& values,
                                   size_t shards, size_t batch) {
  Server::Config config;
  config.shards = shards;
  config.batch = batch;
  return Server::Create(keys, values, MakeFactory(), config);
}

// --- router ---------------------------------------------------------------

TEST(ShardRouter, PartitionBoundariesAndRouting) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) keys.push_back(i * 10);
  const auto boundaries = ShardRouter<int64_t>::Partition(keys, 4);
  ASSERT_EQ(boundaries.size(), 4u);
  EXPECT_EQ(boundaries[0], 0);      // keys[0]
  EXPECT_EQ(boundaries[1], 2500);   // keys[250]
  EXPECT_EQ(boundaries[2], 5000);   // keys[500]
  EXPECT_EQ(boundaries[3], 7500);   // keys[750]

  const auto router = ShardRouter<int64_t>::Create(boundaries);
  EXPECT_EQ(router.shard_count(), 4u);
  // Below the first boundary clamps to shard 0 (the left tail).
  EXPECT_EQ(router.ShardOf(-100), 0u);
  // Boundary keys belong to the shard they open.
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(2500), 1u);
  EXPECT_EQ(router.ShardOf(5000), 2u);
  EXPECT_EQ(router.ShardOf(7500), 3u);
  // Interior keys route to the owning range.
  EXPECT_EQ(router.ShardOf(2499), 0u);
  EXPECT_EQ(router.ShardOf(4999), 1u);
  // Above every key still routes to the last shard.
  EXPECT_EQ(router.ShardOf(1 << 30), 3u);
}

TEST(ShardRouter, DegenerateInputs) {
  // Empty key set: one shard, everything routes to it.
  const auto router =
      ShardRouter<int64_t>::Create(ShardRouter<int64_t>::Partition({}, 8));
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(router.ShardOf(-5), 0u);
  EXPECT_EQ(router.ShardOf(12345), 0u);

  // Fewer distinct keys than requested shards: shard count collapses to
  // the distinct boundary count instead of minting duplicate boundaries.
  const auto tiny = ShardRouter<int64_t>::Partition({1, 2}, 8);
  EXPECT_LE(tiny.size(), 2u);
}

// --- op queue -------------------------------------------------------------

TEST(OpQueueTest, FifoBatchDrain) {
  OpQueue<int> queue(/*capacity=*/8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.Push(i), 0u);
  int out[8];
  // A batch drain returns everything available, in FIFO order.
  ASSERT_EQ(queue.PopBatch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
  EXPECT_TRUE(queue.Empty());
  // The ring recycles: a second wrap-around works.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(queue.Push(100 + i), 0u);
  ASSERT_EQ(queue.PopBatch(out, 3), 3u);
  EXPECT_EQ(out[0], 100);
  ASSERT_EQ(queue.PopBatch(out, 8), 5u);
  EXPECT_EQ(out[4], 107);
}

// The three ways an idle consumer's wait ends: a push while it polls, a
// push after it parked, and stop while it polls. A poll budget far past
// the test's run time pins the consumer in the poll phase; a zero budget
// makes it park at once.
constexpr std::chrono::seconds kForever{60};

TEST(OpQueueTest, PushWhilePollingIsDrainedWithoutPark) {
  OpQueue<int> queue(/*capacity=*/8);
  std::atomic<bool> stop{false};
  std::atomic<bool> waiting{false};
  Wake wake = Wake::kParked;
  std::thread consumer([&] {
    waiting.store(true);
    wake = queue.WaitNonEmpty(stop, kForever);
  });
  while (!waiting.load()) std::this_thread::yield();
  EXPECT_EQ(queue.Push(7), 0u);
  consumer.join();
  EXPECT_EQ(wake, Wake::kPolled);
  int out[8];
  ASSERT_EQ(queue.PopBatch(out, 8), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(OpQueueTest, PushAfterParkWakesThroughNotify) {
  OpQueue<int> queue(/*capacity=*/8);
  std::atomic<bool> stop{false};
  // Zero poll budget: the consumer parks at once. A park bound far past
  // the test's run time leaves the producer's notify as the only way out
  // of the park. A consumer the scheduler had not yet run when the push
  // came finds the item without parking; retry those trials, each giving
  // the consumer longer to park.
  bool parked = false;
  for (int trial = 0; trial < 20 && !parked; ++trial) {
    Wake wake = Wake::kPolled;
    std::thread consumer([&] {
      wake = queue.WaitNonEmpty(stop, std::chrono::nanoseconds(0), kForever);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2 << (trial / 2)));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(queue.Push(trial), 0u);
    consumer.join();
    // Returning well inside the park bound: the notify ended the park.
    ASSERT_LT(std::chrono::steady_clock::now() - t0, kForever / 2);
    int out[8];
    ASSERT_EQ(queue.PopBatch(out, 8), 1u);
    EXPECT_EQ(out[0], trial);
    parked = wake == Wake::kParked;
  }
  EXPECT_TRUE(parked);
}

TEST(OpQueueTest, StopWhilePollingEndsTheWait) {
  OpQueue<int> queue(/*capacity=*/8);
  std::atomic<bool> stop{false};
  std::atomic<bool> waiting{false};
  Wake wake = Wake::kParked;
  std::thread consumer([&] {
    waiting.store(true);
    wake = queue.WaitNonEmpty(stop, kForever);
  });
  while (!waiting.load()) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_release);  // no WakeAll: polling sees it
  consumer.join();
  EXPECT_EQ(wake, Wake::kPolled);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kForever / 2);
  EXPECT_TRUE(queue.Empty());
}

// --- server basics --------------------------------------------------------

TEST(ShardedIndexTest, PointOpsAndShardOwnership) {
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  for (int64_t i = 0; i < 4096; ++i) {
    keys.push_back(i * 2);
    values.push_back(static_cast<uint64_t>(i) * 7);
  }
  auto server = MakeServer(keys, values, /*shards=*/4, /*batch=*/32);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->shard_count(), 4u);
  EXPECT_EQ(server->size(), keys.size());

  for (int64_t i = 0; i < 4096; i += 97) {
    EXPECT_EQ(server->Lookup(i * 2), std::optional<uint64_t>(
                                         static_cast<uint64_t>(i) * 7));
    EXPECT_FALSE(server->Lookup(i * 2 + 1).has_value());
    EXPECT_TRUE(server->Contains(i * 2));
  }
  EXPECT_TRUE(server->Insert(4096 * 2, 42));
  EXPECT_FALSE(server->Insert(4096 * 2, 43));  // duplicate
  EXPECT_TRUE(server->Update(4096 * 2, 44));
  EXPECT_EQ(server->Lookup(4096 * 2), std::optional<uint64_t>(44));
  EXPECT_TRUE(server->Delete(4096 * 2));
  EXPECT_FALSE(server->Delete(4096 * 2));
  EXPECT_EQ(server->size(), keys.size());

  // Post-quiescence: every key lives in exactly the shard the router names,
  // and the per-shard engines partition the load completely.
  size_t total = 0;
  for (size_t s = 0; s < server->shard_count(); ++s) {
    total += server->shard_engine(s).size();
  }
  EXPECT_EQ(total, keys.size());
  for (int64_t i = 0; i < 4096; i += 51) {
    const size_t shard = server->ShardOf(i * 2);
    EXPECT_TRUE(server->shard_engine(shard).Contains(i * 2));
  }
}

TEST(ShardedIndexTest, CrossShardScanIsSortedAndComplete) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i);
  auto server = MakeServer(keys, {}, /*shards=*/5, /*batch=*/16);
  ASSERT_NE(server, nullptr);

  // A scan spanning every shard returns the whole sorted range once.
  std::vector<int64_t> got;
  const size_t count = server->ScanRange(
      100, 9900, [&](const int64_t& k, const uint64_t&) { got.push_back(k); });
  EXPECT_EQ(count, got.size());
  ASSERT_EQ(got.size(), 9801u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(100 + i));
  }
  // Single-shard and empty intervals.
  EXPECT_EQ(server->ScanRange(5, 10, [](const int64_t&, const uint64_t&) {}),
            6u);
  EXPECT_EQ(server->ScanRange(10, 5, [](const int64_t&, const uint64_t&) {}),
            0u);
}

// Regression: duplicate keys collapse Partition boundaries, so fewer
// shards materialize than requested. The initial-load slices must follow
// the router's kept boundaries, not i*n/actual_shards — with positional
// slicing, key 2 below lands in shard 1 but routes to shard 0, and
// Lookup(2) silently misses.
TEST(ShardedIndexTest, CollapsedBoundariesSliceByRouter) {
  const std::vector<int64_t> keys = {1, 1, 1, 2, 3, 4};
  ShardedIndex<MapEngine>::Config config;
  config.shards = 3;
  config.batch = 4;
  auto server = ShardedIndex<MapEngine>::Create(
      keys, {},
      [](const std::vector<int64_t>& k, const std::vector<uint64_t>& v) {
        return MapEngine::Create(k, v);
      },
      config);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->shard_count(), 2u);  // boundaries collapse to [1, 3]
  for (int64_t key : {1, 2, 3, 4}) {
    EXPECT_TRUE(server->Lookup(key).has_value()) << "key " << key;
    EXPECT_TRUE(server->shard_engine(server->ShardOf(key)).Contains(key))
        << "key " << key;
  }
  EXPECT_FALSE(server->Lookup(5).has_value());
}

// Regression: a factory returning nullptr mid-load must make Create
// return nullptr and tear the half-built server down without touching the
// not-yet-constructed shards' queues.
TEST(ShardedIndexTest, FactoryFailureTearsDownCleanly) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 64; ++i) keys.push_back(i);
  size_t calls = 0;
  ShardedIndex<MapEngine>::Config config;
  config.shards = 4;
  auto server = ShardedIndex<MapEngine>::Create(
      keys, {},
      [&calls](const std::vector<int64_t>& k,
               const std::vector<uint64_t>& v) -> std::unique_ptr<MapEngine> {
        if (++calls == 2) return nullptr;
        return MapEngine::Create(k, v);
      },
      config);
  EXPECT_EQ(server, nullptr);
  EXPECT_EQ(calls, 2u);
}

// Tearing the server down joins its workers at once, whether they are
// still polling after traffic or already parked after an idle stretch.
TEST(ShardedIndexTest, DestructorJoinsPollingAndParkedWorkersPromptly) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1024; ++i) keys.push_back(i);
  for (int round = 0; round < 10; ++round) {
    auto server = MakeServer(keys, {}, /*shards=*/4, /*batch=*/8);
    ASSERT_NE(server, nullptr);
    for (int64_t key = 0; key < 1024; key += 256) {
      EXPECT_TRUE(server->Contains(key));
    }
    if (round % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto t0 = std::chrono::steady_clock::now();
    server.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "round " << round;
  }
}

// An idle worker outlasts its poll budget and parks, once per idle
// stretch however long (it does not poll again on each ~500us re-check);
// Stats() and the server.parks counter both see the park.
TEST(ShardedIndexTest, IdleWorkersParkAndCountIt) {
  namespace tm = fitree::telemetry;
  const uint64_t parks_before =
      tm::Registry::Get().Snapshot().counter(tm::CounterId::kServerParks);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 256; ++i) keys.push_back(i);
  auto server = MakeServer(keys, {}, /*shards=*/1, /*batch=*/1);
  ASSERT_NE(server, nullptr);
  // A park is counted when it ends, and the request's publish edge makes
  // every park before it visible; retry in case the worker was not yet
  // parked when the request came.
  double parks = 0;
  for (int i = 0; i < 50 && parks == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(server->Contains(1));
    parks = server->Stats().Get("parks");
  }
  EXPECT_EQ(parks, 1.0);
  EXPECT_EQ(server->Stats().Get("pin_failures"), 0.0);
  EXPECT_GT(
      tm::Registry::Get().Snapshot().counter(tm::CounterId::kServerParks),
      parks_before);
}

// Its first Lookup sets `entered` and then blocks until `release` is set,
// holding the shard worker so a backlog builds behind it.
class LatchedEngine : public MapEngine {
 public:
  static std::unique_ptr<LatchedEngine> Create(
      const std::vector<int64_t>& keys, const std::vector<uint64_t>& values,
      std::atomic<bool>* entered, std::atomic<bool>* release) {
    auto engine = std::make_unique<LatchedEngine>();
    for (size_t i = 0; i < keys.size(); ++i) {
      engine->Insert(keys[i], values.empty() ? 0 : values[i]);
    }
    engine->entered_ = entered;
    engine->release_ = release;
    return engine;
  }

  std::optional<uint64_t> Lookup(const int64_t& key) const {
    if (!first_done_) {
      first_done_ = true;
      entered_->store(true);
      entered_->notify_all();
      release_->wait(false);
    }
    return MapEngine::Lookup(key);
  }

 private:
  std::atomic<bool>* entered_ = nullptr;
  std::atomic<bool>* release_ = nullptr;
  mutable bool first_done_ = false;  // touched by the worker thread only
};

// The worker never waits for a batch to fill, so batching must come from
// the backlog alone: 40 lookups queued behind a blocked request drain in
// full batches once it returns.
TEST(ShardedIndexTest, BacklogFillsBatchesWithoutLinger) {
  using Latched = ShardedIndex<LatchedEngine>;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  for (int64_t i = 0; i < 128; ++i) {
    keys.push_back(2 * i);
    values.push_back(static_cast<uint64_t>(i) + 7);
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  Latched::Config config;
  config.shards = 1;
  config.batch = 32;
  auto server = Latched::Create(
      keys, values,
      [&](const std::vector<int64_t>& k, const std::vector<uint64_t>& v) {
        return LatchedEngine::Create(k, v, &entered, &release);
      },
      config);
  ASSERT_NE(server, nullptr);

  constexpr size_t kBacklog = 40;
  std::vector<Latched::Slot> slots(kBacklog + 1);
  auto submit = [&](size_t i) {
    Latched::Req req;
    req.op = fitree::server::ReqOp::kLookup;
    req.key = static_cast<int64_t>(i);  // odd keys are absent
    req.slot = &slots[i];
    server->SubmitAsync(req);
  };
  submit(0);
  entered.wait(false);
  for (size_t i = 1; i <= kBacklog; ++i) submit(i);
  release.store(true);
  release.notify_all();
  for (size_t i = 0; i <= kBacklog; ++i) {
    slots[i].Wait();
    EXPECT_EQ(slots[i].found, i % 2 == 0) << "key " << i;
    if (i % 2 == 0) {
      EXPECT_EQ(slots[i].value, i / 2 + 7) << "key " << i;
    }
  }
  const auto stats = server->Stats();
  EXPECT_LE(stats.Get("batches"), 3.0);
  EXPECT_EQ(stats.Get("batched_ops"), static_cast<double>(kBacklog + 1));
}

#if defined(__linux__)
// Records the affinity mask of the thread that serves each lookup.
class AffinityProbeEngine : public MapEngine {
 public:
  static std::unique_ptr<AffinityProbeEngine> Create(
      const std::vector<int64_t>& keys, const std::vector<uint64_t>&) {
    auto engine = std::make_unique<AffinityProbeEngine>();
    for (const int64_t key : keys) engine->Insert(key, 0);
    return engine;
  }

  std::optional<uint64_t> Lookup(const int64_t& key) const {
    CPU_ZERO(&worker_mask);
    sched_getaffinity(0, sizeof(worker_mask), &worker_mask);
    return MapEngine::Lookup(key);
  }

  mutable cpu_set_t worker_mask;
};

// Regression: workers pinned to `index % hardware_concurrency()`, which
// under taskset or a cpuset can name a CPU outside the allowed mask. A
// server created from a thread whose mask excludes CPU 0 must pin worker i
// to the i-th CPU of that mask.
TEST(ShardedIndexTest, PinsWorkersInsideTheAllowedMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  CPU_CLR(0, &allowed);
  const int count = CPU_COUNT(&allowed);
  if (count == 0) GTEST_SKIP() << "no allowed CPU besides CPU 0";
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }

  std::thread client([&] {
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(allowed),
                                     &allowed),
              0);
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 300; ++i) keys.push_back(i);
    ShardedIndex<AffinityProbeEngine>::Config config;
    config.shards = 3;
    config.pin_threads = true;
    auto server = ShardedIndex<AffinityProbeEngine>::Create(
        keys, {},
        [](const std::vector<int64_t>& k, const std::vector<uint64_t>& v) {
          return AffinityProbeEngine::Create(k, v);
        },
        config);
    ASSERT_NE(server, nullptr);
    ASSERT_EQ(server->shard_count(), 3u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_TRUE(server->Lookup(server->router().boundary(s)).has_value());
      const cpu_set_t& mask = server->shard_engine(s).worker_mask;
      EXPECT_EQ(CPU_COUNT(&mask), 1) << "shard " << s;
      EXPECT_TRUE(CPU_ISSET(cpus[s % cpus.size()], &mask)) << "shard " << s;
      EXPECT_FALSE(CPU_ISSET(0, &mask)) << "shard " << s;
    }
    EXPECT_EQ(server->Stats().Get("pin_failures"), 0.0);
  });
  client.join();
}
#endif  // __linux__

// --- differential oracle: batched and unbatched give the same answers -----

CrudOptions ServerOpts(uint64_t seed) {
  CrudOptions opt;
  opt.seed = seed;
  opt.ops = PropertyOps(8000);
  opt.key_space = 8000;
  return opt;
}

void RunServerDifferential(size_t shards, size_t batch, uint64_t seed) {
  CrudOptions opt = ServerOpts(seed);
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::map<int64_t, uint64_t> oracle;
  MakeInitialLoad(opt, /*load_every=*/4, &keys, &values, &oracle);
  auto server = MakeServer(keys, values, shards, batch);
  ASSERT_NE(server, nullptr);
  ASSERT_NO_FATAL_FAILURE(RunCrudDifferential(*server, oracle, opt));
}

TEST(ShardedIndexTest, CrudPropertyUnbatched) {
  RunServerDifferential(/*shards=*/4, /*batch=*/1, /*seed=*/21);
}

TEST(ShardedIndexTest, CrudPropertyBatched) {
  RunServerDifferential(/*shards=*/4, /*batch=*/32, /*seed=*/21);
}

TEST(ShardedIndexTest, CrudPropertySingleShard) {
  RunServerDifferential(/*shards=*/1, /*batch=*/8, /*seed=*/22);
}

// --- multi-client stress (the TSan target) --------------------------------

TEST(ShardedIndexTest, CrudPropertyMultiClient) {
  constexpr int kClients = 4;
  CrudOptions opt;
  opt.seed = 31;
  opt.ops = PropertyOps(5000);
  opt.key_space = 4000;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::vector<std::map<int64_t, uint64_t>> oracles;
  MakePartitionedLoad(opt, kClients, /*load_every=*/4, &keys, &values,
                      &oracles);
  auto server = MakeServer(keys, values, /*shards=*/4, /*batch=*/32);
  ASSERT_NE(server, nullptr);
  ASSERT_NO_FATAL_FAILURE(
      RunPartitionedCrud(*server, kClients, opt, std::move(oracles)));

  // The workers actually batched (multi-client traffic overlaps), and the
  // stats surface reports a coherent picture.
  const auto stats = server->Stats();
  EXPECT_EQ(stats.engine, "server");
  EXPECT_GT(stats.Get("batches"), 0.0);
  EXPECT_GE(stats.Get("avg_batch"), 1.0);
  EXPECT_EQ(stats.Get("shards"), 4.0);
  EXPECT_EQ(static_cast<size_t>(stats.Get("keys")), server->size());
  // Every idle wait ended one way or the other; none pinned, none failed.
  EXPECT_GT(stats.Get("parks") + stats.Get("poll_wakeups"), 0.0);
  EXPECT_EQ(stats.Get("pin_failures"), 0.0);
}

// The same partitioned stress over disk trees: each shard serves its
// own index file through a pool smaller than its leaf pages, so pages
// fault inside drains, and the 5% compaction threshold makes
// CompactSegment run on the shard worker between requests. The 4 KiB
// pages take the O_DIRECT frames when FITREE_IO_DIRECT=1.
TEST(ShardedIndexTest, CrudPropertyDisk) {
  using Disk = DiskFitingTree<int64_t>;
  using DiskServer = ShardedIndex<Disk>;
  constexpr int kClients = 4;
  constexpr size_t kShards = 2;
  constexpr size_t kPageBytes = 4096;
  constexpr size_t kCachePages = 4;
  CrudOptions opt;
  opt.seed = 41;
  opt.ops = PropertyOps(5000);
  opt.key_space = 4000;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;
  std::vector<std::map<int64_t, uint64_t>> oracles;
  MakePartitionedLoad(opt, kClients, /*load_every=*/4, &keys, &values,
                      &oracles);

  // Per-pid paths: ctest runs this binary's full and property entries in
  // parallel.
  std::vector<std::string> paths;
  const std::string prefix = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) + "_server_disk_";
  DiskServer::Factory factory = [&](const std::vector<int64_t>& k,
                                    const std::vector<uint64_t>& v)
      -> std::unique_ptr<Disk> {
    const std::string path = prefix + std::to_string(paths.size()) + ".fit";
    paths.push_back(path);
    const auto base = StaticFitingTree<int64_t>::Create(k, v, 16.0);
    if (!fitree::storage::WriteIndexFile(path, *base,
                                         SegmentFileOptions{kPageBytes})) {
      return nullptr;
    }
    Disk::Options options;
    options.cache_pages = kCachePages;
    options.compact_threshold_pct = 5;
    return Disk::Open(path, options);
  };
  DiskServer::Config config;
  config.shards = kShards;
  config.batch = 32;
  auto server = DiskServer::Create(keys, values, factory, config);
  ASSERT_NE(server, nullptr);
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_GT(server->shard_engine(s).base_size(),
              kCachePages * LeafCapacity<int64_t>(kPageBytes))
        << "shard " << s << " fits its pool";
  }
  ASSERT_NO_FATAL_FAILURE(
      RunPartitionedCrud(*server, kClients, opt, std::move(oracles)));

  // Post-quiescence: every shard compacted on its worker and never
  // failed a page read.
  for (size_t s = 0; s < kShards; ++s) {
    const Disk& engine = server->shard_engine(s);
    EXPECT_GT(engine.IncrementalCompactions(), 0u) << "shard " << s;
    EXPECT_FALSE(engine.io_error()) << "shard " << s;
  }
  server.reset();
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
