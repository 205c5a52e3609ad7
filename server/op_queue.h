// Bounded multi-producer single-consumer op queue for shard workers.
//
// The ring is Vyukov's bounded MPMC queue used in MPSC mode: each cell
// carries a sequence atomic that encodes, relative to the head/tail
// counters, whether the cell is free, full, or in flight. Producers claim
// cells with one CAS on enqueue_pos_ and never touch each other's cells;
// the single consumer drains *batches* — PopBatch copies out every ready
// cell up to a cap with one acquire load per cell and no CAS at all, which
// is the structural basis of the server's batched dispatch (the worker
// amortizes wakeup and telemetry work over the whole batch).
//
// Blocking is layered on top, not inside: the ring itself is lock-free.
// A consumer that finds the queue empty first *polls* (WaitNonEmpty): for
// up to kPollBudget it re-checks Empty() and the stop flag, yielding the
// CPU between checks. Only then does it park on a condvar. Polling keeps
// the futex wake-up off the latency of a request that arrives soon after
// the last one, and because sleeping_ stays false while the consumer
// polls, producers skip the mutex and the notify too. Yielding rather
// than spinning on `pause` lets a producer that shares the consumer's CPU
// run, so polling does not starve an oversubscribed host.
//
// Producers take the mutex only when the consumer has declared itself
// sleeping. The handshake is the classic Dekker store/load pattern, which
// requires seq_cst *fences* between each side's store and subsequent load
// (a release store followed by a seq_cst load does not forbid StoreLoad
// reordering): the producer fences between publishing its cell and
// reading sleeping_, the consumer fences between setting sleeping_ and
// re-checking Empty(). Either the producer observes sleeping_==true and
// notifies under the mutex, or the consumer's Empty() check observes the
// published cell and skips the park. The consumer additionally bounds
// every park (~500us), so even a defect in the handshake could only cost
// a bounded stall, never liveness.
//
// Capacity is rounded up to a power of two; Push spins on a full ring
// (backpressure) and reports the number of full-ring stalls so the server
// can surface queue saturation as a counter.

#ifndef FITREE_SERVER_OP_QUEUE_H_
#define FITREE_SERVER_OP_QUEUE_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__SANITIZE_THREAD__)
#define FITREE_OPQUEUE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FITREE_OPQUEUE_TSAN 1
#endif
#endif

namespace fitree::server {

// How a WaitNonEmpty call ended.
enum class Wake : uint8_t {
  kPolled,  // an item or stop turned up without blocking on the condvar
  kParked,  // the consumer blocked on the condvar first
};

template <typename T>
class OpQueue {
 public:
  // How long an idle consumer polls before it parks. On serve_disk_mixed
  // (2 shards, 100 kops/s open loop) 50us kept most of the p50 gain but
  // not the p90 gain, and 200us was no better than 100us (EXPERIMENTS.md).
  static constexpr std::chrono::microseconds kPollBudget{100};
  // Bound on each condvar wait of a parked consumer: the most a missed
  // notify can cost.
  static constexpr std::chrono::microseconds kParkBound{500};

  explicit OpQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  OpQueue(const OpQueue&) = delete;
  OpQueue& operator=(const OpQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Producer: one attempt. False means the ring is currently full.
  bool TryPush(const T& item) {
    Cell* cell;
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the consumer hasn't recycled this cell yet
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = item;
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Producer: blocking push. Spins TryPush (yielding periodically while the
  // ring stays full) and wakes the consumer if it is parked. Returns the
  // number of full-ring stalls endured — the server feeds that into the
  // enqueue-stall counter as a backpressure signal.
  size_t Push(const T& item) {
    size_t stalls = 0;
    while (!TryPush(item)) {
      ++stalls;
      if ((stalls & 0x3F) == 0) {
        std::this_thread::yield();
      }
    }
    WakeConsumer();
    return stalls;
  }

  // Consumer only: drain up to `max` ready items into `out`. Returns the
  // number drained (0 == queue empty at the time of the call). One acquire
  // load + one release store per item; no CAS — there is only one consumer.
  size_t PopBatch(T* out, size_t max) {
    size_t n = 0;
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    while (n < max) {
      Cell* cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif < 0) break;  // cell not yet published
      assert(dif == 0 && "single consumer invariant violated");
      out[n++] = cell->value;
      cell->seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
    }
    dequeue_pos_.store(pos, std::memory_order_relaxed);
    return n;
  }

  // Consumer-side emptiness check (exact for the single consumer; a
  // producer may publish immediately after, which WaitNonEmpty handles).
  bool Empty() const {
    const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0;
  }

  // Consumer: wait until an item is available or `stop` turns true. First
  // poll for `poll_budget`, yielding between checks; then park until a
  // producer notifies. The seq_cst fence pairs with WakeConsumer's: it
  // keeps the Empty() loads from moving before the sleeping_ store, the
  // consumer half of the Dekker handshake (see file comment). Each wait
  // on the condvar lasts at most `park_bound`, so a missed notify costs
  // latency, never liveness. The park re-checks on every bound without
  // polling again, so an idle consumer spends one poll per idle stretch.
  // Only tests pass budgets other than the defaults.
  Wake WaitNonEmpty(const std::atomic<bool>& stop,
                    std::chrono::nanoseconds poll_budget = kPollBudget,
                    std::chrono::nanoseconds park_bound = kParkBound) {
    const auto deadline = std::chrono::steady_clock::now() + poll_budget;
    do {
      if (!Empty() || stop.load(std::memory_order_acquire)) {
        return Wake::kPolled;
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);

    Wake wake = Wake::kPolled;
    std::unique_lock<std::mutex> lock(mu_);
    sleeping_.store(true, std::memory_order_relaxed);
    SeqCstBarrier();
    while (Empty() && !stop.load(std::memory_order_acquire)) {
      wake = Wake::kParked;
      cv_.wait_for(lock, park_bound);
    }
    sleeping_.store(false, std::memory_order_relaxed);
    return wake;
  }

  // Producer: wake the consumer iff it declared itself parked. The seq_cst
  // fence keeps the sleeping_ load from moving before the enqueue's
  // release store to cell->seq — the producer half of the Dekker
  // handshake (see file comment).
  void WakeConsumer() {
    SeqCstBarrier();
    if (sleeping_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_one();
    }
  }

  // Shutdown path: unconditional wake (the consumer may be parked with the
  // queue empty and only the stop flag changed).
  void WakeAll() {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

 private:
  // StoreLoad barrier for the Dekker handshake. TSan does not model
  // std::atomic_thread_fence (-Wtsan, and the race detector would not see
  // the ordering it provides); under TSan a seq_cst RMW on a per-queue
  // dummy gives equivalent ordering that the detector does track.
  void SeqCstBarrier() {
#if defined(FITREE_OPQUEUE_TSAN)
    fence_dummy_.fetch_add(1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  struct Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};

  alignas(64) std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> sleeping_{false};
#if defined(FITREE_OPQUEUE_TSAN)
  std::atomic<size_t> fence_dummy_{0};
#endif
};

}  // namespace fitree::server

#endif  // FITREE_SERVER_OP_QUEUE_H_
