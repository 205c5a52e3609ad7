// Thread-safe FITing-Tree (paper Sec 4.2 index, made concurrent), with the
// full CRUD surface:
//
//  - Lookups and scans are lock-free: they run against an immutable
//    snapshot of the segment directory (a sorted first-key array published
//    through one atomic pointer) under epoch protection, and against each
//    segment's immutable key/payload page. The only mutable per-segment
//    state is the small delta buffer; readers elide its latch with a
//    sequence-validated "buffer empty" check, so a 100%-read workload
//    never executes an atomic RMW on shared data and scales linearly.
//  - Writers (insert/update/delete) take the target segment's SegLatch and
//    mutate its sorted delta buffer of {key, payload, tombstone} entries —
//    contention is spread over thousands of segments, which is the
//    concurrency payoff of the paper's design: clamped writes keep every
//    mutation local to one segment. Because pages are immutable, an update
//    of a paged key becomes a live buffer *override* and a delete becomes a
//    tombstone; both are resolved (applied / dropped) by the next merge.
//  - When a buffer overflows, the mutating thread (or the optional
//    background MergeWorker) marks the segment retired under its latch,
//    re-runs shrinking-cone segmentation over the merged page+buffer
//    off-latch, and publishes the replacement segment(s) with a
//    copy-on-write directory swap. A merge whose every key was tombstoned
//    publishes a directory *without* the segment. The old directory
//    snapshot and the old segment are handed to the EpochManager and freed
//    once all in-flight readers quiesce.
//
// Writers waiting on a retired segment retry from the freshly published
// directory; readers never retry — a snapshot stays self-consistent for as
// long as they hold their epoch guard, which is what makes scans safe
// against concurrent merges (bundledrefs' versioned-range-scan discipline,
// specialized to whole-directory snapshots since merges are rare).
//
// Buffer invariants (per segment, under its latch):
//   - at most one buffer entry per key;
//   - a live entry is either a pending insert (key absent from the page)
//     or a payload override (key present in the page);
//   - a tombstone's key is always present in the page.

#ifndef FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_
#define FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/prefetch.h"
#include "concurrency/epoch.h"
#include "concurrency/merge_worker.h"
#include "concurrency/seg_latch.h"
#include "core/delta_buffer.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

namespace fitree {

struct ConcurrentFitingTreeConfig {
  // Sentinel: size the buffer as max(1, error/2), the paper's default ratio.
  static constexpr size_t kAutoBufferSize = static_cast<size_t>(-1);

  double error = 64.0;
  // Per-segment delta-buffer budget (pending inserts + overrides +
  // tombstones). With a background worker the budget is soft: buffers keep
  // absorbing writes while their merge is queued.
  size_t buffer_size = kAutoBufferSize;
  // The in-window search is always SIMD, and the directory is the flat COW
  // snapshot every engine uses; republishing it whole is what makes
  // readers lock-free.
  Feasibility feasibility = Feasibility::kEndpointLine;
  // Off: the mutating thread merges inline. On: overflows are queued to a
  // MergeWorker thread and writes return immediately.
  bool background_merge = false;
};

struct ConcurrentFitingTreeStats {
  uint64_t inserts = 0;  // Insert calls, including rejected duplicates
  uint64_t updates = 0;  // successful Update calls
  uint64_t deletes = 0;  // successful Delete calls
  uint64_t segment_merges = 0;
  uint64_t segments_created = 0;
  uint64_t segments_retired = 0;  // merges that deleted every key
  uint64_t insert_retries = 0;  // landed on a retired segment, rerouted
};

template <typename K, typename V = uint64_t>
class ConcurrentFitingTree {
 public:
  using Key = K;
  using Payload = V;

  static std::unique_ptr<ConcurrentFitingTree> Create(
      const std::vector<K>& keys, const ConcurrentFitingTreeConfig& config) {
    return Create(keys, {}, config);
  }

  // Bulk-loads `keys` with parallel `values` (empty = value-initialized).
  static std::unique_ptr<ConcurrentFitingTree> Create(
      const std::vector<K>& keys, const std::vector<V>& values,
      const ConcurrentFitingTreeConfig& config) {
    assert(values.empty() || values.size() == keys.size());
    auto tree = std::make_unique<ConcurrentFitingTree>();
    tree->config_ = config;
    tree->effective_buffer_ =
        config.buffer_size == ConcurrentFitingTreeConfig::kAutoBufferSize
            ? std::max<size_t>(1, static_cast<size_t>(config.error / 2.0))
            : config.buffer_size;
    tree->BulkLoad(std::span<const K>(keys), std::span<const V>(values));
    if (config.background_merge) {
      tree->worker_.Start([t = tree.get()](void* seg) {
        EpochGuard guard(t->epoch_);
        t->MergeSegment(static_cast<Segment*>(seg));
      });
    }
    return tree;
  }

  ConcurrentFitingTree() = default;
  ConcurrentFitingTree(const ConcurrentFitingTree&) = delete;
  ConcurrentFitingTree& operator=(const ConcurrentFitingTree&) = delete;

  ~ConcurrentFitingTree() {
    worker_.Stop();
    // Single-threaded from here on: free the live snapshot, then drain the
    // epoch retire list (old snapshots/segments replaced during the run).
    const Directory* dir = dir_.load(std::memory_order_acquire);
    if (dir != nullptr) {
      for (Segment* seg : dir->segments) delete seg;
      delete dir;
    }
    epoch_.DrainAll();
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  bool Contains(const K& key) const { return Lookup(key).has_value(); }

  // Payload stored for `key`, or nullopt when absent. The delta buffer
  // overrides the page: a tombstone hides the paged key, a live override
  // supersedes the paged payload.
  std::optional<V> Lookup(const K& key) const {
    telemetry::ScopedOp telem(telemetry::Engine::kConcurrent,
                              telemetry::Op::kLookup);
    EpochGuard guard(epoch_);
    const Directory* dir = dir_.load(std::memory_order_seq_cst);
    const Segment* seg = dir->Floor(key);
    if (seg == nullptr) return std::nullopt;
    // Start the predicted page lines travelling while the buffer probe
    // (sequence check or short critical section) runs.
    PrefetchPredicted(*seg, key);
    BufferEntry entry;
    if (SearchBuffer(*seg, key, &entry)) {
      if (entry.tombstone) return std::nullopt;
      return entry.value;
    }
    const size_t i = SearchPage(*seg, key);
    if (i == kNotFound) return std::nullopt;
    return seg->values[i];
  }

  // Inserts `key` -> `value`. Returns true iff the key was new (set
  // semantics). Lands in the floor segment's delta buffer under that
  // segment's latch; overflow triggers merge-and-resegment, inline or via
  // the background worker.
  bool Insert(const K& key, const V& value = V{}) {
    // Counts the call (like stats_inserts_), not the success — what lets a
    // driver check its issued-op totals against the registry exactly.
    telemetry::ScopedOp telem(telemetry::Engine::kConcurrent,
                              telemetry::Op::kInsert);
    stats_inserts_.fetch_add(1, std::memory_order_relaxed);
    EpochGuard guard(epoch_);
    for (;;) {
      const Directory* dir = dir_.load(std::memory_order_seq_cst);
      Segment* seg = dir->Floor(key);
      if (seg == nullptr) {
        if (InsertIntoEmpty(key, value)) return true;
        continue;  // lost the bootstrap race; the directory now has a root
      }
      // The page is immutable while the segment is live, so the bounded
      // search can run before taking the latch; a retirement between the
      // search and the lock is caught by the retired check and retried.
      const size_t page_idx = SearchPage(*seg, key);
      seg->latch.Lock();
      if (seg->retired.load(std::memory_order_relaxed)) {
        // A merge replaced this segment after we located it; retry against
        // the new directory (published before or shortly after retirement).
        seg->latch.Unlock();
        stats_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        continue;
      }
      bool inserted = false;
      auto pos = BufferPos(seg, key);
      if (pos != seg->buffer.end() && pos->key == key) {
        if (pos->tombstone) {
          // Delete-then-reinsert of a paged key: flip the tombstone into a
          // live override carrying the fresh payload.
          pos->tombstone = false;
          pos->value = value;
          inserted = true;
        }
      } else if (page_idx == kNotFound) {
        seg->buffer.insert(pos, BufferEntry{key, value, false});
        BumpBufferCount(seg);
        inserted = true;
      }
      const bool overflow = seg->buffer.size() > effective_buffer_;
      seg->latch.Unlock();
      if (inserted) size_.fetch_add(1, std::memory_order_release);
      if (overflow) ScheduleMerge(seg);
      return inserted;
    }
  }

  // Replaces the payload of a present key. Returns false when absent.
  // Updating a paged key writes a live override entry into the buffer (the
  // page is immutable); the next merge folds it into the new page.
  bool Update(const K& key, const V& value) {
    telemetry::ScopedOp telem(telemetry::Engine::kConcurrent,
                              telemetry::Op::kUpdate);
    EpochGuard guard(epoch_);
    for (;;) {
      const Directory* dir = dir_.load(std::memory_order_seq_cst);
      Segment* seg = dir->Floor(key);
      if (seg == nullptr) return false;
      const size_t page_idx = SearchPage(*seg, key);  // pre-latch: page immutable
      seg->latch.Lock();
      if (seg->retired.load(std::memory_order_relaxed)) {
        seg->latch.Unlock();
        stats_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        continue;
      }
      bool updated = false;
      bool overflow = false;
      auto pos = BufferPos(seg, key);
      if (pos != seg->buffer.end() && pos->key == key) {
        if (!pos->tombstone) {
          pos->value = value;
          updated = true;
        }
      } else if (page_idx != kNotFound) {
        seg->buffer.insert(pos, BufferEntry{key, value, false});
        BumpBufferCount(seg);
        updated = true;
        overflow = seg->buffer.size() > effective_buffer_;
      }
      seg->latch.Unlock();
      if (updated) stats_updates_.fetch_add(1, std::memory_order_relaxed);
      if (overflow) ScheduleMerge(seg);
      return updated;
    }
  }

  // Removes `key`. Returns false when absent. A paged key gets a tombstone
  // (cleared by the next merge); a buffered pending insert is dropped
  // outright. Tombstones count against the buffer budget, so delete-heavy
  // traffic merges just like insert-heavy traffic.
  bool Delete(const K& key) {
    telemetry::ScopedOp telem(telemetry::Engine::kConcurrent,
                              telemetry::Op::kDelete);
    EpochGuard guard(epoch_);
    for (;;) {
      const Directory* dir = dir_.load(std::memory_order_seq_cst);
      Segment* seg = dir->Floor(key);
      if (seg == nullptr) return false;
      const size_t page_idx = SearchPage(*seg, key);  // pre-latch: page immutable
      seg->latch.Lock();
      if (seg->retired.load(std::memory_order_relaxed)) {
        seg->latch.Unlock();
        stats_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        continue;
      }
      bool deleted = false;
      bool overflow = false;
      auto pos = BufferPos(seg, key);
      if (pos != seg->buffer.end() && pos->key == key) {
        if (!pos->tombstone) {
          if (page_idx != kNotFound) {
            // Live override of a paged key: demote to tombstone.
            pos->tombstone = true;
            pos->value = V{};
          } else {
            // Pending insert that never reached a page: drop it.
            seg->buffer.erase(pos);
            BumpBufferCount(seg);
          }
          deleted = true;
        }
      } else if (page_idx != kNotFound) {
        seg->buffer.insert(pos, BufferEntry{key, V{}, true});
        BumpBufferCount(seg);
        deleted = true;
        overflow = seg->buffer.size() > effective_buffer_;
      }
      seg->latch.Unlock();
      if (deleted) {
        size_.fetch_sub(1, std::memory_order_release);
        stats_deletes_.fetch_add(1, std::memory_order_relaxed);
      }
      if (overflow) ScheduleMerge(seg);
      return deleted;
    }
  }

  // Calls fn(key) or fn(key, value) for every live entry in [lo, hi] in
  // ascending order over one directory snapshot: segment pages are read in
  // place, delta buffers are copied out under their latch (they hold at
  // most ~error/2 entries).
  // Returns the number of entries emitted (IndexApi contract).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    telemetry::ScopedOp telem(telemetry::Engine::kConcurrent,
                              telemetry::Op::kScan);
    if (hi < lo) return 0;
    EpochGuard guard(epoch_);
    const Directory* dir = dir_.load(std::memory_order_seq_cst);
    if (dir->segments.empty()) return 0;
    size_t emitted = 0;
    std::vector<BufferEntry> buffer_copy;
    for (size_t i = dir->FloorIndex(lo); i < dir->segments.size(); ++i) {
      const Segment* seg = dir->segments[i];
      if (seg->first_key > hi) break;
      CopyBuffer(*seg, &buffer_copy);
      emitted += detail::EmitMergedRange<K, V>(
          seg->keys.data(), seg->values.data(), seg->keys.size(), buffer_copy,
          lo, hi, fn);
    }
    return emitted;
  }

  size_t SegmentCount() const {
    EpochGuard guard(epoch_);
    return dir_.load(std::memory_order_seq_cst)->segments.size();
  }

  // Directory arrays plus per-segment model metadata (pages and buffers are
  // data, not index).
  size_t IndexSizeBytes() const {
    EpochGuard guard(epoch_);
    const Directory* dir = dir_.load(std::memory_order_seq_cst);
    return dir->segments.size() * (sizeof(K) + sizeof(Segment*)) +
           dir->segments.size() * kSegmentMetaBytes;
  }

  ConcurrentFitingTreeStats stats() const {
    ConcurrentFitingTreeStats s;
    s.inserts = stats_inserts_.load(std::memory_order_relaxed);
    s.updates = stats_updates_.load(std::memory_order_relaxed);
    s.deletes = stats_deletes_.load(std::memory_order_relaxed);
    s.segment_merges = stats_merges_.load(std::memory_order_relaxed);
    s.segments_created = stats_created_.load(std::memory_order_relaxed);
    s.segments_retired = stats_retired_.load(std::memory_order_relaxed);
    s.insert_retries = stats_retries_.load(std::memory_order_relaxed);
    return s;
  }

  // Structural snapshot (telemetry tentpole): reads one directory snapshot
  // under an epoch guard, so the segment walk is safe against concurrent
  // merges; buffer occupancy uses the latch-elision counters (relaxed — a
  // racing write may be off by one, the level is advisory).
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(telemetry::Engine::kConcurrent);
    EpochGuard guard(epoch_);
    const Directory* dir = dir_.load(std::memory_order_seq_cst);
    size_t buffered = 0, max_buffer = 0;
    for (const Segment* seg : dir->segments) {
      const size_t n = seg->buffer_count.load(std::memory_order_relaxed);
      buffered += n;
      max_buffer = std::max(max_buffer, n);
    }
    st.Add("keys", static_cast<double>(size()));
    st.Add("segments", static_cast<double>(dir->segments.size()));
    st.Add("error", config_.error);
    st.Add("buffer_capacity", static_cast<double>(effective_buffer_));
    st.Add("buffered_entries", static_cast<double>(buffered));
    st.Add("buffer_max", static_cast<double>(max_buffer));
    st.Add("buffer_occupancy",
           dir->segments.empty() || effective_buffer_ == 0
               ? 0.0
               : static_cast<double>(buffered) /
                     (static_cast<double>(dir->segments.size()) *
                      static_cast<double>(effective_buffer_)));
    st.Add("merges",
           static_cast<double>(stats_merges_.load(std::memory_order_relaxed)));
    st.Add("segments_created", static_cast<double>(stats_created_.load(
                                   std::memory_order_relaxed)));
    st.Add("segments_retired", static_cast<double>(stats_retired_.load(
                                   std::memory_order_relaxed)));
    st.Add("insert_retries", static_cast<double>(stats_retries_.load(
                                 std::memory_order_relaxed)));
    st.Add("epoch_pending", static_cast<double>(epoch_.PendingCount()));
    st.Add("epoch_retired", static_cast<double>(epoch_.retired_count()));
    st.Add("epoch_freed", static_cast<double>(epoch_.freed_count()));
    st.Add("merge_queue",
           static_cast<double>(worker_.enqueued() - worker_.processed()));
    st.Add("background_merge", config_.background_merge ? 1.0 : 0.0);
    return st;
  }

  const ConcurrentFitingTreeConfig& config() const { return config_; }
  EpochManager& epoch() { return epoch_; }
  MergeWorker& merge_worker() { return worker_; }

  // Blocks until queued background merges finish (no-op inline). Tests and
  // benches call this before validating final contents.
  void QuiesceMerges() {
    if (worker_.running()) worker_.WaitIdle();
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  using BufferEntry = detail::BufferEntry<K, V>;

  struct Segment {
    K first_key{};
    double slope = 0.0;
    double intercept = 0.0;      // predicted in-page rank at first_key
    std::vector<K> keys;         // immutable once published
    std::vector<V> values;       // payloads, parallel to `keys`, immutable
    mutable SegLatch latch;      // guards buffer + retired transition
    std::atomic<bool> retired{false};
    std::atomic<bool> merge_pending{false};
    std::atomic<uint32_t> buffer_count{0};
    std::vector<BufferEntry> buffer;  // sorted delta buffer, latch-protected

    double Predict(const K& key) const {
      return intercept + slope * (static_cast<double>(key) -
                                  static_cast<double>(first_key));
    }
  };

  static constexpr size_t kSegmentMetaBytes =
      sizeof(K) + 2 * sizeof(double) + sizeof(void*);

  // Immutable snapshot of the segment directory. Merges publish a fresh
  // copy; the arrays (and the flat index over the first keys) are never
  // mutated after publication, which is why the interpolation + SIMD
  // descent is safe for lock-free readers: each COW republish builds a new
  // calibrated index and swaps it in atomically with the snapshot.
  struct Directory {
    FlatKeyIndex<K> first_keys;      // sorted, interpolation + SIMD floor
    std::vector<Segment*> segments;  // parallel to first_keys

    // Index of the floor segment for `key` (clamped to 0 below the first
    // key, matching the single-threaded tree's floor-else-first rule).
    size_t FloorIndex(const K& key) const {
      const size_t i = first_keys.FloorIndex(key);
      return i == FlatKeyIndex<K>::kNone ? 0 : i;
    }

    Segment* Floor(const K& key) const {
      telemetry::ScopedPhase phase(telemetry::Engine::kConcurrent,
                                   telemetry::Phase::kDirectoryDescent);
      return segments.empty() ? nullptr : segments[FloorIndex(key)];
    }
  };

  void BulkLoad(std::span<const K> keys, std::span<const V> values) {
    auto dir = std::make_unique<Directory>();
    if (!keys.empty()) {
      const auto models =
          SegmentShrinkingCone<K>(keys, config_.error, config_.feasibility);
      std::vector<K> first_keys;
      first_keys.reserve(models.size());
      dir->segments.reserve(models.size());
      for (const fitree::Segment<K>& m : models) {
        auto* seg = new Segment();
        seg->first_key = m.first_key;
        seg->slope = m.slope;
        seg->intercept = m.intercept - static_cast<double>(m.start);
        seg->keys.assign(keys.begin() + m.start,
                         keys.begin() + m.start + m.length);
        if (values.empty()) {
          seg->values.assign(m.length, V{});
        } else {
          seg->values.assign(values.begin() + m.start,
                             values.begin() + m.start + m.length);
        }
        first_keys.push_back(m.first_key);
        dir->segments.push_back(seg);
      }
      dir->first_keys.Reset(std::move(first_keys));
    }
    size_.store(keys.size(), std::memory_order_release);
    dir_.store(dir.release(), std::memory_order_seq_cst);
  }

  // Error-bounded search of the immutable page, sharing ErrorWindow with
  // the single-threaded and disk-resident lookup paths. Returns the
  // in-page index of `key`, or kNotFound.
  size_t SearchPage(const Segment& seg, const K& key) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kConcurrent,
                                 telemetry::Phase::kWindowSearch);
    const size_t n = seg.keys.size();
    if (n == 0) return kNotFound;
    const double pred = seg.Predict(key);
    // Keys below the leftmost segment (floor fallback) predict far
    // negative; bail before ErrorWindow's size_t casts.
    if (pred + config_.error + 2.0 < 0.0) return kNotFound;
    const auto [begin, end] = ErrorWindow(pred, config_.error, 0, n);
    const size_t hint = static_cast<size_t>(std::max(0.0, pred));
    const size_t i = detail::BoundedLowerBound(
        seg.keys.data(), begin, end, hint, key, SearchPolicy::kSimd);
    return i < n && seg.keys[i] == key ? i : kNotFound;
  }

  // Prefetch the predicted in-page position so the lines arrive while the
  // buffer probe between descent and page search executes. Pages are
  // immutable while a segment is live, so this reads nothing racy.
  void PrefetchPredicted(const Segment& seg, const K& key) const {
    const size_t n = seg.keys.size();
    if (n == 0) return;
    const double pred = seg.Predict(key);
    const size_t hint =
        pred <= 0.0 ? 0 : std::min(n - 1, static_cast<size_t>(pred));
    PrefetchRead(seg.keys.data() + hint);
    PrefetchRead(seg.values.data() + hint);
  }

  // Latch-eliding buffer probe: a sequence-validated empty check answers
  // the common case without an atomic RMW; otherwise fall back to a short
  // critical section (the buffer holds at most ~error/2 entries). Returns
  // true and copies the entry out when `key` has one.
  bool SearchBuffer(const Segment& seg, const K& key,
                    BufferEntry* out) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kConcurrent,
                                 telemetry::Phase::kBufferProbe);
    const uint32_t seq = seg.latch.ReadSeq();
    if (seg.buffer_count.load(std::memory_order_acquire) == 0 &&
        seg.latch.Validate(seq)) {
      return false;
    }
    SegLatch::Scoped lock(seg.latch);
    auto pos = std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                                detail::BufferKeyLess{});
    if (pos == seg.buffer.end() || pos->key != key) return false;
    *out = *pos;
    return true;
  }

  void CopyBuffer(const Segment& seg, std::vector<BufferEntry>* out) const {
    out->clear();
    const uint32_t seq = seg.latch.ReadSeq();
    if (seg.buffer_count.load(std::memory_order_acquire) == 0 &&
        seg.latch.Validate(seq)) {
      return;
    }
    SegLatch::Scoped lock(seg.latch);
    *out = seg.buffer;
  }

  // Precondition: latch held. Sorted insertion point for `key`.
  typename std::vector<BufferEntry>::iterator BufferPos(Segment* seg,
                                                        const K& key) {
    return std::lower_bound(seg->buffer.begin(), seg->buffer.end(), key,
                            detail::BufferKeyLess{});
  }

  // Precondition: latch held. Republishes the elision counter after a
  // buffer size change.
  void BumpBufferCount(Segment* seg) {
    seg->buffer_count.store(static_cast<uint32_t>(seg->buffer.size()),
                            std::memory_order_release);
  }

  void ScheduleMerge(Segment* seg) {
    if (worker_.running()) {
      if (!seg->merge_pending.exchange(true, std::memory_order_acq_rel)) {
        worker_.Enqueue(seg);
      }
    } else {
      MergeSegment(seg);
    }
  }

  // First key of an empty tree: build a one-segment directory under the
  // swap mutex. Returns false when another thread won the race.
  bool InsertIntoEmpty(const K& key, const V& value) {
    std::lock_guard<std::mutex> lock(dir_mu_);
    const Directory* dir = dir_.load(std::memory_order_seq_cst);
    if (!dir->segments.empty()) return false;
    auto* seg = new Segment();
    seg->first_key = key;
    seg->keys.push_back(key);
    seg->values.push_back(value);
    auto next = std::make_unique<Directory>();
    next->first_keys.Reset({key});
    next->segments.push_back(seg);
    dir_.store(next.release(), std::memory_order_seq_cst);
    epoch_.Retire(const_cast<Directory*>(dir));
    size_.fetch_add(1, std::memory_order_release);
    return true;
  }

  // Merge-and-resegment (paper Sec 4.2.2), concurrent edition. The caller
  // holds an epoch guard and no latch. Steps:
  //   1. Under the segment latch: bail if already retired (another thread
  //      merged it) or the buffer drained below budget; otherwise mark the
  //      segment retired and snapshot the page+buffer merge — pending
  //      inserts applied, overrides folded in, tombstoned keys dropped.
  //   2. Off-latch: shrinking-cone resegmentation of the merged keys (the
  //      expensive part; the retired segment is frozen so no write can
  //      slip in, and readers continue against the old snapshot).
  //   3. Under the directory mutex: publish a copy-on-write directory with
  //      the retired segment's entry replaced by the new segment(s) — or
  //      removed entirely when the merge deleted every key — then retire
  //      the old directory and old segment through the epoch manager.
  void MergeSegment(Segment* seg) {
    // Always-timed (merges are rare, long, and the histogram should see
    // every one); cancelled on the early-outs below, which are not merges.
    telemetry::ScopedDuration telem(telemetry::Engine::kConcurrent,
                                    telemetry::Op::kMerge);
    telemetry::ScopedPhase phase(telemetry::Engine::kConcurrent,
                                 telemetry::Phase::kMergeResegment);
    std::vector<K> merged;
    std::vector<V> merged_values;
    {
      SegLatch::Scoped lock(seg->latch);
      if (seg->retired.load(std::memory_order_relaxed)) {
        telem.Cancel();
        return;
      }
      if (seg->buffer.empty()) {
        seg->merge_pending.store(false, std::memory_order_release);
        telem.Cancel();
        return;
      }
      seg->retired.store(true, std::memory_order_release);
      // Room for every page key and live entry less the tombstoned keys;
      // each override then leaves one slot unused.
      const size_t tombstones = static_cast<size_t>(
          std::count_if(seg->buffer.begin(), seg->buffer.end(),
                        [](const BufferEntry& e) { return e.tombstone; }));
      const size_t bound =
          seg->keys.size() + seg->buffer.size() - 2 * tombstones;
      merged.resize(bound);
      merged_values.resize(bound);
      const size_t n = detail::MergePageWithBuffer<K, V>(
          seg->keys.data(), seg->values.data(), seg->keys.size(), seg->buffer,
          merged.data(), merged_values.data());
      merged.resize(n);
      merged_values.resize(n);
    }
    stats_merges_.fetch_add(1, std::memory_order_relaxed);

    std::vector<Segment*> replacements;
    if (!merged.empty()) {
      const auto models = SegmentShrinkingCone<K>(
          std::span<const K>(merged), config_.error, config_.feasibility);
      stats_created_.fetch_add(models.size(), std::memory_order_relaxed);
      replacements.reserve(models.size());
      for (const fitree::Segment<K>& m : models) {
        auto* out = new Segment();
        out->first_key = m.first_key;
        out->slope = m.slope;
        out->intercept = m.intercept - static_cast<double>(m.start);
        out->keys.assign(merged.begin() + m.start,
                         merged.begin() + m.start + m.length);
        out->values.assign(merged_values.begin() + m.start,
                           merged_values.begin() + m.start + m.length);
        replacements.push_back(out);
      }
    } else {
      stats_retired_.fetch_add(1, std::memory_order_relaxed);
    }

    {
      std::lock_guard<std::mutex> lock(dir_mu_);
      const Directory* dir = dir_.load(std::memory_order_seq_cst);
      // The retired segment is still in the live directory: only this
      // thread retired it, and entries leave the directory only here.
      size_t idx = dir->FloorIndex(seg->first_key);
      assert(idx < dir->segments.size() && dir->segments[idx] == seg);
      auto next = std::make_unique<Directory>();
      std::vector<K> first_keys;
      first_keys.reserve(dir->segments.size() + replacements.size());
      next->segments.reserve(first_keys.capacity());
      for (size_t i = 0; i < idx; ++i) {
        first_keys.push_back(dir->first_keys.key_at(i));
        next->segments.push_back(dir->segments[i]);
      }
      for (Segment* r : replacements) {
        first_keys.push_back(r->first_key);
        next->segments.push_back(r);
      }
      for (size_t i = idx + 1; i < dir->segments.size(); ++i) {
        first_keys.push_back(dir->first_keys.key_at(i));
        next->segments.push_back(dir->segments[i]);
      }
      // Building the flat index (and its interpolation model) here, at
      // publish time, is what keeps the descent itself read-only.
      next->first_keys.Reset(std::move(first_keys));
      dir_.store(next.release(), std::memory_order_seq_cst);
      epoch_.Retire(const_cast<Directory*>(dir));
    }
    epoch_.Retire(seg);
  }

  ConcurrentFitingTreeConfig config_;
  size_t effective_buffer_ = 0;
  std::atomic<const Directory*> dir_{nullptr};
  std::mutex dir_mu_;  // serializes directory publishes (merges are rare)
  mutable EpochManager epoch_;
  MergeWorker worker_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> stats_inserts_{0};
  std::atomic<uint64_t> stats_updates_{0};
  std::atomic<uint64_t> stats_deletes_{0};
  std::atomic<uint64_t> stats_merges_{0};
  std::atomic<uint64_t> stats_created_{0};
  std::atomic<uint64_t> stats_retired_{0};
  std::atomic<uint64_t> stats_retries_{0};
};

}  // namespace fitree

#endif  // FITREE_CONCURRENCY_CONCURRENT_FITING_TREE_H_
