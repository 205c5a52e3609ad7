// Request/response plumbing for the sharded index server.
//
// A client thread builds a Request naming the operation and a ResponseSlot
// it owns (usually on its stack), enqueues it on the target shard's op
// queue, and blocks on ResponseSlot::Wait(). The shard worker executes the
// op against its engine, fills the slot, and Publish()es it. The slot's
// single atomic flag is the only synchronization between the two threads:
// the release store in Publish() pairs with the acquire load in
// Ready()/Wait(), so every plain field the worker wrote before publishing
// — value, count, found, ok, *scan_out — is visible to the client after
// Wait() returns. The same edge is what makes the worker's relaxed
// bookkeeping (shard size counters, batch counters) safely readable from
// a client thread once its request has completed.
//
// Requests are tiny PODs copied by value through the queue; only the slot
// pointer crosses back. `enqueue_ns` doubles as the sampling flag: the
// client stamps it only for requests that won the telemetry sampling draw
// (one in SamplePeriod()), and the worker derives queue-wait and
// whole-request latencies from it. Zero means "not sampled, don't time".

#ifndef FITREE_SERVER_REQUEST_H_
#define FITREE_SERVER_REQUEST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace fitree::server {

// The operations a shard worker understands: the point CRUD ops plus a
// per-shard sub-scan (the router splits one client ScanRange across every
// shard the [lo, hi] interval touches).
enum class ReqOp : uint8_t { kLookup, kInsert, kUpdate, kDelete, kScan };

// One-shot response mailbox, owned by the requesting client. Not movable
// (the worker holds a raw pointer to it) — construct in place, wait, read.
template <typename K, typename V>
struct ResponseSlot {
  // Result fields: written by the worker before Publish(), read by the
  // client after Wait(). Which fields are meaningful depends on the op:
  //   kLookup          -> found (+ value when found)
  //   kInsert/kUpdate/
  //   kDelete          -> ok
  //   kScan            -> count (+ *scan_out appended in key order)
  bool ok = false;
  bool found = false;
  V value{};
  size_t count = 0;
  std::vector<std::pair<K, V>>* scan_out = nullptr;

  ResponseSlot() = default;
  ResponseSlot(const ResponseSlot&) = delete;
  ResponseSlot& operator=(const ResponseSlot&) = delete;

  // Worker side: make the result fields visible and wake the client.
  void Publish() { done_.store(true, std::memory_order_release); }

  // Client side: non-blocking completion check.
  bool Ready() const { return done_.load(std::memory_order_acquire); }

  // Client side: spin briefly (a shard worker answers a drained batch in
  // well under a microsecond), then yield to the scheduler — on an
  // oversubscribed box the worker likely needs this core to make progress.
  void Wait() const {
    for (int spin = 0; spin < 1024; ++spin) {
      if (Ready()) return;
    }
    while (!Ready()) std::this_thread::yield();
  }

  // Re-arm for reuse (pipelined clients recycle a slot array). Only legal
  // once the previous request has published and been read.
  void Reset() {
    ok = false;
    found = false;
    count = 0;
    done_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> done_{false};
};

// One queued operation. `hi` is only meaningful for kScan; `value` only
// for kInsert/kUpdate. 0 in `enqueue_ns` means the request was not
// selected for latency sampling.
template <typename K, typename V>
struct Request {
  ReqOp op = ReqOp::kLookup;
  K key{};
  K hi{};
  V value{};
  uint64_t enqueue_ns = 0;
  ResponseSlot<K, V>* slot = nullptr;
};

}  // namespace fitree::server

#endif  // FITREE_SERVER_REQUEST_H_
