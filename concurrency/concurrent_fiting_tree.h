// ConcurrentFitingTree: FitingTree (core/fiting_tree.h) under the
// Concurrent sync policy defined here, which makes the shared body
// thread-safe:
//
//  - Reader guard: every operation holds an EpochGuard, so the directory
//    snapshot, segments and pages it reached stay allocated until it ends.
//  - Segment latch: writers take the segment's SegLatch to change its
//    buffer or write a payload in place (through std::atomic_ref). Readers
//    skip it when the buffer is empty, proven by validating the latch
//    sequence around a load of `buffer_count` (FB+-tree style), so a
//    read-only workload executes no atomic RMW on shared data.
//  - Directory publish: a merge edits a copy of the directory under
//    dir_mu_ and swaps it in; a reader's snapshot stays self-consistent
//    for as long as it holds its guard, so readers never retry.
//  - Reclamation: a merge freezes its segment (`retired`; a writer that
//    finds it set retries from a fresh directory), then retires the
//    segment, its page and the old directory through the epoch. An arena
//    compaction copies a live page under the latch, publishes the copy and
//    retires the old block the same way.
//  - Arena lock: one mutex serializes arena calls. Retirements made under
//    it reach the epoch after the unlock, because reclamation runs other
//    retirees' frees, which lock it again.
//  - Merge scheduling: inline on the overflowing writer, or, with
//    `background_merge`, on a MergeWorker. Its queue holds raw segment
//    pointers, which stay valid because only a merge retires a segment
//    (compaction retires page blocks) and with the worker on only the
//    worker merges.
//
// Lock order: dir_mu_, the arena mutex, a segment latch.

#ifndef FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_
#define FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "concurrency/epoch.h"
#include "concurrency/merge_worker.h"
#include "concurrency/seg_latch.h"
#include "core/fiting_tree.h"
#include "telemetry/metrics.h"
#include "telemetry/structural.h"

namespace fitree {

struct ConcurrentFitingTreeConfig : FitingTreeConfig {
  // Off: the writing thread merges inline. On: overflows are queued to a
  // MergeWorker thread and writes return at once; the buffer budget is
  // then soft, as buffers keep absorbing writes while their merge waits.
  bool background_merge = false;
};

struct Concurrent {
  using Config = ConcurrentFitingTreeConfig;
  static constexpr telemetry::Engine kEngine =
      telemetry::Engine::kConcurrent;
  template <typename T>
  using Cell = std::atomic<T>;

  template <typename V>
  static V LoadPayload(const V& v) {
    static_assert(alignof(V) >= std::atomic_ref<V>::required_alignment);
    return std::atomic_ref<V>(const_cast<V&>(v))
        .load(std::memory_order_relaxed);
  }
  template <typename V>
  static void StorePayload(V& slot, const V& v) {
    std::atomic_ref<V>(slot).store(v, std::memory_order_relaxed);
  }

  // The latch guards the buffer, payload writes and `retired`.
  struct SegmentSync : SegLatch {
    using Hold = SegLatch::Scoped;

    // True when the buffer is empty, proven without the latch: no writer
    // ran between the sequence read and its validation.
    bool BufferSurelyEmpty() const {
      const uint32_t seq = ReadSeq();
      return buffer_count.load(std::memory_order_acquire) == 0 &&
             Validate(seq);
    }

    // Latches for a write; false, unlatched, when a merge froze the
    // segment (the writer retries from a fresh directory).
    bool LockLive() {
      Lock();
      if (!retired.load(std::memory_order_relaxed)) return true;
      SegLatch::Unlock();
      std::this_thread::yield();
      return false;
    }

    // Ends a write, republishing the buffer size for the elision.
    void Unlock(size_t buffered) {
      buffer_count.store(static_cast<uint32_t>(buffered),
                         std::memory_order_release);
      SegLatch::Unlock();
    }

    // The buffer as of one latch hold, copied into `scratch`.
    template <typename E>
    std::span<const E> Snapshot(const std::vector<E>& buffer,
                                std::vector<E>* scratch) {
      scratch->clear();
      if (BufferSurelyEmpty()) return {};
      Hold hold(*this);
      *scratch = buffer;
      return *scratch;
    }

    // Freezes the segment for its merge; false when a merge already did,
    // or when a queued merge finds the buffer empty.
    template <typename E>
    bool BeginMerge(const std::vector<E>& buffer) {
      Hold hold(*this);
      if (retired.load(std::memory_order_relaxed)) return false;
      if (buffer.empty()) {
        merge_pending.store(false, std::memory_order_release);
        return false;
      }
      retired.store(true, std::memory_order_release);
      return true;
    }

    std::atomic<uint32_t> buffer_count{0};
    std::atomic<bool> retired{false};
    std::atomic<bool> merge_pending{false};  // queued to the worker
  };

  template <typename Dir>
  class Shared {
   public:
    Shared() : dir_(new Dir) {}
    // Finishes queued merges and frees everything retired, then the live
    // segments: their pages go with the arena.
    ~Shared() {
      worker_.Stop();
      epoch_.DrainAll();
      const Dir* dir = dir_.load();
      for (size_t i = 0; i < dir->size(); ++i) delete dir->value_at(i);
      delete dir;
    }

    class ReadGuard {
     public:
      explicit ReadGuard(const Shared& s) : guard_(s.epoch_) {}

     private:
      EpochGuard guard_;
    };

    class ArenaLock {
     public:
      explicit ArenaLock(const Shared& s) : s_(s) { s_.arena_mu_.lock(); }
      ArenaLock(const ArenaLock&) = delete;
      ~ArenaLock() {
        std::vector<std::function<void()>> retired = std::move(retired_);
        s_.arena_mu_.unlock();
        for (auto& fn : retired) s_.Retire(std::move(fn));
      }
      template <typename Fn>
      void Retire(Fn fn) { retired_.emplace_back(std::move(fn)); }

     private:
      const Shared& s_;
      std::vector<std::function<void()>> retired_;
    };

    const Dir& directory() const { return *dir_.load(); }

    // `edit` changes a copy of the live directory; when it returns true,
    // the copy replaces it and the old one is retired.
    template <typename Fn>
    bool Publish(Fn edit) {
      std::lock_guard<std::mutex> lock(dir_mu_);
      const Dir* live = dir_.load(std::memory_order_relaxed);
      auto next = std::make_unique<Dir>(*live);
      if (!edit(*next)) return false;
      dir_.store(next.release());
      epoch_.Retire(const_cast<Dir*>(live));
      return true;
    }

    // Runs `fn` once every guard active now has ended. The box is the
    // retired object: it carries the tree context its free needs.
    template <typename Fn>
    void Retire(Fn fn) const {
      epoch_.RetireRaw(new Fn(std::move(fn)), [](void* p) {
        auto* box = static_cast<Fn*>(p);
        (*box)();
        delete box;
      });
    }

    template <typename Handler>
    void StartMerges(const Config& config, Handler handler) {
      background_ = config.background_merge;
      if (background_) worker_.Start(std::move(handler));
    }

    template <typename Seg, typename Fn>
    void ScheduleMerge(Seg* seg, Fn merge_now) {
      if (!background_) {
        merge_now();
      } else if (!seg->sync.merge_pending.exchange(
                     true, std::memory_order_acq_rel)) {
        worker_.Enqueue(seg);
      }
    }

    void QuiesceMerges() {
      if (background_) worker_.WaitIdle();
    }

    EpochManager& epoch() { return epoch_; }

    void AddStats(telemetry::StructuralStats* st) const {
      st->Add("epoch_pending", static_cast<double>(epoch_.PendingCount()));
      st->Add("epoch_retired", static_cast<double>(epoch_.retired_count()));
      st->Add("epoch_freed", static_cast<double>(epoch_.freed_count()));
      st->Add("merge_queue",
              static_cast<double>(worker_.enqueued() - worker_.processed()));
      st->Add("background_merge", background_ ? 1.0 : 0.0);
    }

   private:
    std::atomic<const Dir*> dir_;
    std::mutex dir_mu_;  // serializes directory publishes
    mutable std::mutex arena_mu_;  // guards the tree's SegmentArena
    mutable EpochManager epoch_;
    MergeWorker worker_;
    bool background_ = false;
  };
};

template <typename K, typename V = uint64_t>
using ConcurrentFitingTree = FitingTree<K, V, Concurrent>;

}  // namespace fitree

#endif  // FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_
