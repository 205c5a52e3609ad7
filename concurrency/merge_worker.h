// Optional background merge thread for ConcurrentFitingTree.
//
// With the worker enabled, an inserting thread that fills a segment's delta
// buffer does not pay for the merge-and-resegment itself: it enqueues the
// segment and keeps going, and the worker performs the merge asynchronously
// (buffers may transiently overshoot their budget — a soft limit, which is
// exactly the paper's tolerance for delayed merges). The queue is
// deliberately generic (void* items + a handler installed at Start) so this
// header has no dependency on the tree type; the segment's own pending
// and retired flags deduplicate (the Concurrent policy in
// concurrency/concurrent_fiting_tree.h).

#ifndef FITREE_CONCURRENCY_MERGE_WORKER_H_
#define FITREE_CONCURRENCY_MERGE_WORKER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "telemetry/registry.h"

namespace fitree {

class MergeWorker {
 public:
  MergeWorker() = default;
  MergeWorker(const MergeWorker&) = delete;
  MergeWorker& operator=(const MergeWorker&) = delete;

  ~MergeWorker() { Stop(); }

  // Launches the worker thread. `handler` is invoked once per enqueued item,
  // on the worker thread, in FIFO order.
  void Start(std::function<void(void*)> handler) {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    handler_ = std::move(handler);
    stop_ = false;
    running_ = true;
    thread_ = std::thread([this] { Run(); });
  }

  bool running() const {
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
  }

  void Enqueue(void* item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(item);
    }
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    // Queue depth is a process-wide gauge: +1 here, -1 when handled, so
    // several workers fold into one backlog level.
    telemetry::CounterAdd(telemetry::CounterId::kMergesEnqueued);
    telemetry::GaugeAdd(telemetry::GaugeId::kMergeQueueDepth, 1);
    cv_.notify_one();
  }

  // Drains every queued item, then joins the worker. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) return;
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }

  // Blocks until every item enqueued so far has been handled (queue empty
  // and no item in flight). Useful for tests and quiesce points.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] {
      return (queue_.empty() && !in_flight_) || !running_;
    });
  }

  uint64_t enqueued() const {
    return enqueued_.load(std::memory_order_relaxed);
  }
  uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    for (;;) {
      void* item = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) break;  // stop requested and fully drained
        item = queue_.front();
        queue_.pop_front();
        in_flight_ = true;
      }
      handler_(item);
      processed_.fetch_add(1, std::memory_order_relaxed);
      telemetry::CounterAdd(telemetry::CounterId::kMergesProcessed);
      telemetry::GaugeAdd(telemetry::GaugeId::kMergeQueueDepth, -1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        in_flight_ = false;
      }
      idle_cv_.notify_all();
    }
    idle_cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<void*> queue_;
  std::function<void(void*)> handler_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
  bool in_flight_ = false;
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> processed_{0};
};

}  // namespace fitree

#endif  // FITREE_CONCURRENCY_MERGE_WORKER_H_
