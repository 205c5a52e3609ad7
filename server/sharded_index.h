// ShardedIndex<Engine>: a batched, range-partitioned index server over any
// engine modeling MutableIndexApi (core/index_api.h).
//
// Architecture:
//
//   client threads                 shard workers (one thread per shard)
//   --------------                 -----------------------------------
//   route key -> shard             loop:
//     (ShardRouter floor over        PopBatch(up to `batch` requests)
//      the boundary array)           for each request, in order:
//   enqueue Request on the             execute it on the shard's engine,
//     shard's MPSC OpQueue             Publish() its slot
//   wait on ResponseSlot
//
// Each shard owns a contiguous key range and a private engine instance —
// shards never share index state, so the engines need no cross-shard
// synchronization and even the single-threaded FitingTree becomes safely
// multi-client behind its worker. An idle worker polls its queue for a
// bounded time before it parks (server/op_queue.h), so a request that
// arrives while traffic flows finds it awake and pays no futex wake-up;
// Stats() reports how the idle waits ended (`poll_wakeups` vs `parks`).
// A drain takes every ready request, up to `batch`, and runs them at once;
// it never waits for more to arrive. So a request that arrives alone runs
// alone, and batches fill only from a backlog, where one pass through the
// wait, one batch of queue loads and one telemetry update then cover up
// to `batch` requests. Each request then runs as one ordinary
// engine call; the predicted-leaf prefetch lives inside each engine's own
// lookup, not in a pass across the batch.
//
// Memory model notes:
//   - ResponseSlot's release-Publish/acquire-Wait edge is the only
//     client<->worker synchronization; everything the worker wrote before
//     publishing (including its relaxed size_ bookkeeping) is visible to
//     the client after Wait().
//   - shard_engine() exposes the underlying engines for validation, legal
//     only once the caller's own requests have completed and no other
//     client is submitting (post-quiescence): the slot edges above make
//     the worker's writes visible, and quiescence removes the races.
//
// Telemetry: requests count exactly (server rows in the [engine][op]
// grid measure the request path — submit to publish — on top of whatever
// engine the shards run); latencies are sampled via the same
// 1-in-SamplePeriod() countdown the engines use, and sampled
// requests decompose into the kShardRoute / kShardQueueWait / kShardExec
// phases. Those spans cross threads (route on the client, wait/exec on
// the worker), so they are recorded straight into the phase grid rather
// than through the thread-local ScopedPhase machinery.

#ifndef FITREE_SERVER_SHARDED_INDEX_H_
#define FITREE_SERVER_SHARDED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/index_api.h"
#include "server/op_queue.h"
#include "server/request.h"
#include "server/shard_router.h"
#include "telemetry/metrics.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fitree::server {

namespace detail {

inline telemetry::Op OpFor(ReqOp op) {
  switch (op) {
    case ReqOp::kLookup: return telemetry::Op::kLookup;
    case ReqOp::kInsert: return telemetry::Op::kInsert;
    case ReqOp::kUpdate: return telemetry::Op::kUpdate;
    case ReqOp::kDelete: return telemetry::Op::kDelete;
    case ReqOp::kScan: return telemetry::Op::kScan;
  }
  return telemetry::Op::kLookup;
}

// Cross-thread phase record for sampled requests: one count + one latency
// sample in the server's phase grid. Bypasses ScopedPhase (whose nesting
// state is thread-local) because route/wait/exec spans live on different
// threads. Compiles away with the rest of the instrumentation.
inline void RecordServerPhase(telemetry::Phase phase, uint64_t ns) {
  if (!telemetry::kEnabled) return;
  auto& reg = telemetry::Registry::Get();
  reg.phase_count(telemetry::Engine::kServer, phase).Add();
  reg.phase_latency(telemetry::Engine::kServer, phase).Record(ns);
}

// Pins the calling thread to the index-th CPU (mod the count) of its own
// affinity mask, so a server started under taskset or inside a cpuset
// keeps its workers within the CPUs it was given. On an unrestricted host
// that is CPU index % cores. False when the pin did not take.
inline bool PinToAllowedCpu(size_t index) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return false;
  int nth = static_cast<int>(index % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || nth-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  return false;
#else
  (void)index;
  return false;
#endif
}

}  // namespace detail

template <typename Engine>
class ShardedIndex {
  static_assert(MutableIndexApi<Engine>,
                "ShardedIndex requires an engine modeling MutableIndexApi "
                "(core/index_api.h)");

 public:
  using Key = typename Engine::Key;
  using Payload = typename Engine::Payload;
  using Req = Request<Key, Payload>;
  using Slot = ResponseSlot<Key, Payload>;

  // Builds one engine instance from its shard's slice of the initial load.
  using Factory = std::function<std::unique_ptr<Engine>(
      const std::vector<Key>&, const std::vector<Payload>&)>;

  struct Config {
    size_t shards = 4;             // shard / worker-thread count
    size_t batch = 32;             // max ops drained per batch (>= 1)
    size_t queue_capacity = 4096;  // per-shard ring, rounded to 2^k
    bool pin_threads = false;  // worker i -> i-th allowed CPU, Linux only
  };

  // `keys` sorted ascending; `values` parallel to `keys` or empty (engines
  // default-fill). The initial load is sliced by the router's *kept*
  // boundaries: shard 0 starts at keys.begin(), shard i>0 at the first key
  // >= boundary(i) — the same floor rule ShardOf applies at runtime. Slicing
  // by position (i*n/shards) would disagree with routing whenever duplicate
  // keys collapse boundaries and fewer shards materialize than requested.
  static std::unique_ptr<ShardedIndex> Create(const std::vector<Key>& keys,
                                              const std::vector<Payload>& values,
                                              Factory factory,
                                              Config config = {}) {
    if (config.shards == 0) config.shards = 1;
    if (config.batch == 0) config.batch = 1;
    auto server = std::unique_ptr<ShardedIndex>(new ShardedIndex());
    server->config_ = config;
    server->router_ =
        ShardRouter<Key>::Create(ShardRouter<Key>::Partition(keys, config.shards));
    const size_t shards = server->router_.shard_count();

    server->shards_ = std::make_unique<Shard[]>(shards);
    server->shard_count_ = shards;
    const size_t n = keys.size();
    std::vector<size_t> cuts(shards + 1);
    cuts[0] = 0;
    cuts[shards] = n;
    for (size_t i = 1; i < shards; ++i) {
      cuts[i] = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(),
                           server->router_.boundary(i)) -
          keys.begin());
    }
    for (size_t i = 0; i < shards; ++i) {
      const size_t lo = cuts[i];
      const size_t hi = cuts[i + 1];
      std::vector<Key> shard_keys(keys.begin() + lo, keys.begin() + hi);
      std::vector<Payload> shard_values;
      if (!values.empty()) {
        shard_values.assign(values.begin() + lo, values.begin() + hi);
      }
      Shard& shard = server->shards_[i];
      shard.queue = std::make_unique<OpQueue<Req>>(config.queue_capacity);
      shard.engine = factory(shard_keys, shard_values);
      if (shard.engine == nullptr) return nullptr;
    }
    server->size_.store(n, std::memory_order_relaxed);

    for (size_t i = 0; i < shards; ++i) {
      Shard& shard = server->shards_[i];
      shard.worker = std::thread([srv = server.get(), &shard, i] {
        srv->WorkerLoop(shard, i);
      });
    }
    return server;
  }

  // Must tolerate the Create error path: if a factory returned nullptr,
  // later shards' queues were never constructed and no workers started.
  ~ShardedIndex() {
    stop_.store(true, std::memory_order_release);
    for (size_t i = 0; i < shard_count_; ++i) {
      if (shards_[i].queue) shards_[i].queue->WakeAll();
    }
    for (size_t i = 0; i < shard_count_; ++i) {
      if (shards_[i].worker.joinable()) shards_[i].worker.join();
    }
  }

  // --- synchronous client API (IndexApi-shaped, thread-safe) ------------

  std::optional<Payload> Lookup(const Key& key) const {
    Slot slot;
    Req req;
    req.op = ReqOp::kLookup;
    req.key = key;
    req.slot = &slot;
    Submit(req);
    slot.Wait();
    if (!slot.found) return std::nullopt;
    return slot.value;
  }

  bool Contains(const Key& key) const {
    Slot slot;
    Req req;
    req.op = ReqOp::kLookup;
    req.key = key;
    req.slot = &slot;
    Submit(req);
    slot.Wait();
    return slot.found;
  }

  bool Insert(const Key& key, const Payload& value) {
    return RunMutation(ReqOp::kInsert, key, value);
  }

  bool Update(const Key& key, const Payload& value) {
    return RunMutation(ReqOp::kUpdate, key, value);
  }

  bool Delete(const Key& key) { return RunMutation(ReqOp::kDelete, key, {}); }

  // Ordered range scan across shards. The interval [lo, hi] is split into
  // one sub-scan per touched shard; shards own disjoint, ordered ranges,
  // so emitting shard results in shard order yields globally sorted
  // output. Returns the total entries emitted. (The server.scan op row
  // counts per-shard sub-scans, not client calls — documented in
  // EXPERIMENTS.md.)
  template <typename Fn>
  size_t ScanRange(const Key& lo, const Key& hi, Fn fn) const {
    if (hi < lo) return 0;
    const size_t first = router_.ShardOf(lo);
    const size_t last = router_.ShardOf(hi);
    const size_t count = last - first + 1;
    std::vector<Slot> slots(count);
    std::vector<std::vector<std::pair<Key, Payload>>> outs(count);
    for (size_t i = 0; i < count; ++i) {
      Req req;
      req.op = ReqOp::kScan;
      req.key = lo;
      req.hi = hi;
      req.slot = &slots[i];
      slots[i].scan_out = &outs[i];
      SubmitTo(first + i, req);
    }
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      slots[i].Wait();
      for (const auto& [k, v] : outs[i]) fn(k, v);
      total += slots[i].count;
    }
    return total;
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  // --- asynchronous client API (pipelined load generators) --------------

  // Fire-and-collect: route + enqueue without waiting. The caller owns the
  // slot (and any scan_out vector) and must keep both alive until Ready().
  void SubmitAsync(Req req) const { Submit(req); }

  // --- introspection -----------------------------------------------------

  size_t shard_count() const { return shard_count_; }
  size_t batch_limit() const { return config_.batch; }
  size_t ShardOf(const Key& key) const { return router_.ShardOf(key); }
  const ShardRouter<Key>& router() const { return router_; }

  // The engine behind one shard. Post-quiescence use only (validation /
  // stats): see the memory-model note in the file comment.
  const Engine& shard_engine(size_t shard) const {
    return *shards_[shard].engine;
  }

  // Post-quiescence use only, like shard_engine(): the per-shard
  // engine->size() reads are plain loads that race with in-flight
  // mutations, so call this only after the caller's own requests have
  // completed and no other client is submitting.
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats stats;
    stats.engine = "server";
    uint64_t batches = 0;
    uint64_t batched_ops = 0;
    uint64_t parks = 0;
    uint64_t poll_wakeups = 0;
    size_t min_keys = static_cast<size_t>(-1);
    size_t max_keys = 0;
    for (size_t i = 0; i < shard_count_; ++i) {
      batches += shards_[i].batches.load(std::memory_order_relaxed);
      batched_ops += shards_[i].batched_ops.load(std::memory_order_relaxed);
      parks += shards_[i].parks.load(std::memory_order_relaxed);
      poll_wakeups += shards_[i].poll_wakeups.load(std::memory_order_relaxed);
      const size_t keys = shards_[i].engine->size();
      if (keys < min_keys) min_keys = keys;
      if (keys > max_keys) max_keys = keys;
    }
    stats.Add("shards", static_cast<double>(shard_count_));
    stats.Add("batch_limit", static_cast<double>(config_.batch));
    stats.Add("queue_capacity",
              static_cast<double>(shards_[0].queue->capacity()));
    stats.Add("batches", static_cast<double>(batches));
    stats.Add("batched_ops", static_cast<double>(batched_ops));
    stats.Add("avg_batch", batches == 0
                               ? 0.0
                               : static_cast<double>(batched_ops) /
                                     static_cast<double>(batches));
    stats.Add("parks", static_cast<double>(parks));
    stats.Add("poll_wakeups", static_cast<double>(poll_wakeups));
    const uint64_t pin_failures =
        pin_failures_.load(std::memory_order_relaxed);
    stats.Add("pin_failures", static_cast<double>(pin_failures));
    stats.Add("keys", static_cast<double>(size()));
    stats.Add("min_shard_keys",
              static_cast<double>(min_keys == static_cast<size_t>(-1)
                                      ? 0
                                      : min_keys));
    stats.Add("max_shard_keys", static_cast<double>(max_keys));
    return stats;
  }

 private:
  struct Shard {
    std::unique_ptr<Engine> engine;
    std::unique_ptr<OpQueue<Req>> queue;
    std::thread worker;
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> batched_ops{0};
    std::atomic<uint64_t> parks{0};         // idle waits that blocked
    std::atomic<uint64_t> poll_wakeups{0};  // idle waits ended by polling
  };

  ShardedIndex() = default;

  bool RunMutation(ReqOp op, const Key& key, const Payload& value) {
    Slot slot;
    Req req;
    req.op = op;
    req.key = key;
    req.value = value;
    req.slot = &slot;
    Submit(req);
    slot.Wait();
    return slot.ok;
  }

  // Route + enqueue. Counts the op exactly; requests that win the sampling
  // draw get an explicit route timing and an enqueue timestamp the worker
  // turns into queue-wait / whole-request latencies.
  void Submit(Req& req) const {
    telemetry::CountOp(telemetry::Engine::kServer, detail::OpFor(req.op));
    if (telemetry::kEnabled && telemetry::detail::ShouldSample()) {
      const uint64_t t0 = telemetry::NowNs();
      const size_t shard = router_.ShardOf(req.key);
      const uint64_t t1 = telemetry::NowNs();
      detail::RecordServerPhase(telemetry::Phase::kShardRoute, t1 - t0);
      req.enqueue_ns = t1;
      Enqueue(shard, req);
    } else {
      Enqueue(router_.ShardOf(req.key), req);
    }
  }

  // Route-bypassing submit for per-shard sub-scans (the caller already
  // knows the target). Still counts the op — and samples like Submit.
  void SubmitTo(size_t shard, Req& req) const {
    telemetry::CountOp(telemetry::Engine::kServer, detail::OpFor(req.op));
    if (telemetry::kEnabled && telemetry::detail::ShouldSample()) {
      req.enqueue_ns = telemetry::NowNs();
    }
    Enqueue(shard, req);
  }

  void Enqueue(size_t shard, const Req& req) const {
    const size_t stalls = shards_[shard].queue->Push(req);
    if (stalls != 0) {
      telemetry::CounterAdd(telemetry::CounterId::kServerEnqueueStalls,
                            stalls);
    }
  }

  void WorkerLoop(Shard& shard, size_t index) {
    if (config_.pin_threads && !detail::PinToAllowedCpu(index)) {
      pin_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    Engine& engine = *shard.engine;
    std::vector<Req> batch(config_.batch);
    for (;;) {
      size_t n = shard.queue->PopBatch(batch.data(), config_.batch);
      if (n == 0) {
        if (stop_.load(std::memory_order_acquire) && shard.queue->Empty()) {
          return;
        }
        if (shard.queue->WaitNonEmpty(stop_) == Wake::kPolled) {
          shard.poll_wakeups.fetch_add(1, std::memory_order_relaxed);
        } else {
          shard.parks.fetch_add(1, std::memory_order_relaxed);
          telemetry::CounterAdd(telemetry::CounterId::kServerParks);
        }
        continue;
      }
      // The drain runs what PopBatch found, at once: a lone request never
      // waits for company, and a backlog still fills the batch.
      shard.batches.fetch_add(1, std::memory_order_relaxed);
      shard.batched_ops.fetch_add(n, std::memory_order_relaxed);
      telemetry::CounterAdd(telemetry::CounterId::kServerBatches);
      telemetry::CounterAdd(telemetry::CounterId::kServerBatchOps, n);

      for (size_t i = 0; i < n; ++i) ExecuteOne(engine, batch[i]);
    }
  }

  void ExecuteOne(Engine& engine, Req& req) {
    const bool sampled = req.enqueue_ns != 0;
    uint64_t exec_start = 0;
    if (sampled) {
      exec_start = telemetry::NowNs();
      detail::RecordServerPhase(telemetry::Phase::kShardQueueWait,
                                exec_start - req.enqueue_ns);
    }
    Slot* slot = req.slot;
    switch (req.op) {
      case ReqOp::kLookup: {
        auto result = engine.Lookup(req.key);
        slot->found = result.has_value();
        if (result) slot->value = *result;
        slot->ok = slot->found;
        break;
      }
      case ReqOp::kInsert:
        slot->ok = engine.Insert(req.key, req.value);
        if (slot->ok) size_.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReqOp::kUpdate:
        slot->ok = engine.Update(req.key, req.value);
        break;
      case ReqOp::kDelete:
        slot->ok = engine.Delete(req.key);
        if (slot->ok) size_.fetch_sub(1, std::memory_order_relaxed);
        break;
      case ReqOp::kScan: {
        if (slot->scan_out != nullptr) {
          auto* out = slot->scan_out;
          slot->count = engine.ScanRange(
              req.key, req.hi,
              [out](const Key& k, const Payload& v) { out->emplace_back(k, v); });
        } else {
          slot->count = engine.ScanRange(req.key, req.hi,
                                         [](const Key&, const Payload&) {});
        }
        slot->ok = true;
        break;
      }
    }
    if (sampled) {
      const uint64_t now = telemetry::NowNs();
      detail::RecordServerPhase(telemetry::Phase::kShardExec,
                                now - exec_start);
      telemetry::RecordDuration(telemetry::Engine::kServer,
                                detail::OpFor(req.op), now - req.enqueue_ns);
    }
    slot->Publish();
  }

  Config config_;
  ShardRouter<Key> router_;
  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_ = 0;
  std::atomic<size_t> size_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> pin_failures_{0};
};

}  // namespace fitree::server

#endif  // FITREE_SERVER_SHARDED_INDEX_H_
