// Lock-free metric primitives for the process-wide telemetry registry.
//
// Counter and Gauge spread their state over cache-line-padded per-thread
// slots (the same Fibonacci-scattered thread assignment epoch.h uses for
// its guard slots): a hot-path Add() is one relaxed fetch_add on a line no
// other thread is writing, and Load() folds the slots on the cold read
// path. Relaxed atomics keep both TSan-clean; the fold is a monotonic sum
// of per-thread monotonic values, so a concurrent Load() sees some valid
// point-in-time total (exact once writers quiesce — what the bench
// validation relies on).

#ifndef FITREE_TELEMETRY_METRICS_H_
#define FITREE_TELEMETRY_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fitree::telemetry {

// The four engines the instrumentation distinguishes, plus the sharded
// server front-end (server/sharded_index.h), whose rows measure the
// request path — enqueue to response-publish — on top of whatever engine
// the shards run.
enum class Engine : uint8_t { kStatic, kBuffered, kConcurrent, kDisk,
                              kServer };
inline constexpr size_t kNumEngines = 5;

inline constexpr const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kStatic: return "static";
    case Engine::kBuffered: return "buffered";
    case Engine::kConcurrent: return "concurrent";
    case Engine::kDisk: return "disk";
    case Engine::kServer: return "server";
  }
  return "?";
}

// Per-op-type accounting: the five CRUD ops plus the two structural
// maintenance events (merge-and-resegment, disk compaction). Op counters
// count *calls* — a rejected duplicate insert still counts — which is what
// lets the bench driver check its issued-op totals exactly.
enum class Op : uint8_t {
  kLookup,
  kInsert,
  kUpdate,
  kDelete,
  kScan,
  kMerge,
  kCompact,
};
inline constexpr size_t kNumOps = 7;

inline constexpr const char* OpName(Op o) {
  switch (o) {
    case Op::kLookup: return "lookup";
    case Op::kInsert: return "insert";
    case Op::kUpdate: return "update";
    case Op::kDelete: return "delete";
    case Op::kScan: return "scan";
    case Op::kMerge: return "merge";
    case Op::kCompact: return "compact";
  }
  return "?";
}

// Named process-wide counters outside the per-(engine, op) grid. The io.*
// group is the telemetry home of the common/io_stats.h fields: every
// BufferPool mirrors its per-instance IoStats into these, so one registry
// snapshot carries the aggregate I/O picture.
enum class CounterId : uint8_t {
  kIoCacheHits,
  kIoCacheMisses,
  kIoPagesRead,
  kEpochRetired,
  kEpochFreed,
  kMergesEnqueued,
  kMergesProcessed,
  kCompactPagesRewritten,
  kServerBatches,        // batches drained by shard workers
  kServerBatchOps,       // ops inside those batches (avg fill = ops/batches)
  kServerEnqueueStalls,  // failed enqueue attempts (queue-full backpressure)
  kServerParks,          // idle shard waits that outlasted the poll and parked
  kArenaRelocations,     // sparse segment-arena chunks emptied by moving blocks
};
inline constexpr size_t kNumCounters = 13;

inline constexpr const char* CounterName(CounterId id) {
  switch (id) {
    case CounterId::kIoCacheHits: return "io.cache_hits";
    case CounterId::kIoCacheMisses: return "io.cache_misses";
    case CounterId::kIoPagesRead: return "io.pages_read";
    case CounterId::kEpochRetired: return "epoch.retired";
    case CounterId::kEpochFreed: return "epoch.freed";
    case CounterId::kMergesEnqueued: return "merge_worker.enqueued";
    case CounterId::kMergesProcessed: return "merge_worker.processed";
    case CounterId::kCompactPagesRewritten: return "disk.compact_pages_rewritten";
    case CounterId::kServerBatches: return "server.batches";
    case CounterId::kServerBatchOps: return "server.batch_ops";
    case CounterId::kServerEnqueueStalls: return "server.enqueue_stalls";
    case CounterId::kServerParks: return "server.parks";
    case CounterId::kArenaRelocations: return "arena.relocations";
  }
  return "?";
}

// Gauges are signed level meters driven by +/- deltas (never Set), so
// several instances — every EpochManager, every MergeWorker — fold into
// one aggregate level without stomping each other.
enum class GaugeId : uint8_t {
  kEpochPending,      // retired-but-unfreed objects across all managers
  kMergeQueueDepth,   // enqueued-but-unprocessed background merges
};
inline constexpr size_t kNumGauges = 2;

inline constexpr const char* GaugeName(GaugeId id) {
  switch (id) {
    case GaugeId::kEpochPending: return "epoch.pending";
    case GaugeId::kMergeQueueDepth: return "merge_worker.queue_depth";
  }
  return "?";
}

namespace detail {

// Threads claim slots in registration order (the Fibonacci constant is 1
// mod 16, so the scatter degenerates to round-robin — deliberate: the
// first kSlots threads land on distinct cache lines).
inline constexpr size_t kCounterSlots = 16;

// Process-wide thread registration counter. constinit + inline: no static
// initialization guard on the hot path below.
inline constinit std::atomic<uint32_t> g_thread_counter{0};

inline constexpr uint32_t kSlotUnassigned = ~uint32_t{0};

// The calling thread's counter slot. The sentinel + branch (instead of a
// dynamically-initialized thread_local) keeps the TLS access direct:
// a dynamic initializer would route every read through the __tls_init
// wrapper call, which costs more than the fetch_add it guards and — worse
// — acts as an inlining barrier inside instrumented hot loops.
inline size_t ThreadSlot() {
  thread_local uint32_t slot = kSlotUnassigned;
  if (slot == kSlotUnassigned) [[unlikely]] {
    slot = (g_thread_counter.fetch_add(1, std::memory_order_relaxed) *
            2654435761u) %
           kCounterSlots;
  }
  return slot;
}

}  // namespace detail

// Monotonic nanosecond clock shared by the sampled op timers and the trace
// ring (one definition of "now" so trace timestamps and latencies agree).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Monotonic counter: cache-line-sharded relaxed adds, folded on read.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    slots_[detail::ThreadSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Load() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  Slot slots_[detail::kCounterSlots];
};

// Level meter: same sharding, signed deltas. The folded sum is the live
// level because every +d is eventually matched by a -d (possibly from a
// different thread — per-slot values may go negative, the sum never lies).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Add(int64_t delta) {
    slots_[detail::ThreadSlot()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  int64_t Load() const {
    int64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> value{0};
  };
  Slot slots_[detail::kCounterSlots];
};

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_METRICS_H_
