// FITing-Tree with per-segment insert buffers (paper Sec 4.2), grown into a
// full key-value store: each linear segment owns its sorted key page with a
// parallel payload array — one block of the tree's huge-page segment arena
// (core/segment_arena.h), n keys then n payloads — plus a small sorted
// delta buffer of {key, payload, tombstone} entries for incoming
// mutations. Inserts of new keys land in the buffer; deletes of paged keys
// leave a tombstone there; updates of paged keys rewrite the payload in
// place (the page's keys are what the models predict, payloads are free to
// change). When a buffer exceeds its budget the segment merges buffer and
// page — dropping tombstoned keys — and re-runs the shrinking cone over the
// surviving keys, replacing itself with however many new segments the data
// now needs. This is the data-aware split that distinguishes FITing-Tree
// from fixed paging; a merge that deletes every key retires the segment
// outright.
//
// The segment directory is a flat sorted array of each segment's first key
// with a parallel array of segment pointers (core/flat_directory.h).
//
// The Sync policy carries everything thread safety changes: the reader
// guard, the segment latch and its empty-buffer elision, the directory
// publish, reclamation, the arena lock and merge scheduling. Under
// SingleThread (below) reads are const and safe for concurrent readers,
// writers need exclusive access, and every hook is empty or immediate, so
// it compiles to plain loads and stores. Concurrent
// (concurrency/concurrent_fiting_tree.h) makes ConcurrentFitingTree.
//
// Buffer invariants (checked by tests/oracle.h's differential driver):
//   - at most one buffer entry per key;
//   - a live entry's key is absent from the page (pure pending insert);
//   - a tombstone's key is present in the page (pending delete).

#ifndef FITREE_CORE_FITING_TREE_H_
#define FITREE_CORE_FITING_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/prefetch.h"
#include "common/timer.h"
#include "core/delta_buffer.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/segment_arena.h"
#include "core/shrinking_cone.h"
#include "telemetry/phase.h"
#include "telemetry/registry.h"
#include "telemetry/structural.h"

namespace fitree {

struct FitingTreeConfig {
  // Sentinel: size the buffer as max(1, error/2), the paper's default ratio
  // (Sec 7.1.3).
  static constexpr size_t kAutoBufferSize = static_cast<size_t>(-1);

  double error = 64.0;
  // Per-segment delta-buffer capacity (pending inserts + tombstones). 0
  // means merge on every mutation (write-pessimal, read-optimal);
  // kAutoBufferSize means error/2.
  size_t buffer_size = kAutoBufferSize;
  // In-window search of the read path; only the search-policy ablation and
  // the oracle tests pick anything but SIMD.
  SearchPolicy search_policy = SearchPolicy::kSimd;
  Feasibility feasibility = Feasibility::kEndpointLine;
};

struct FitingTreeStats {
  uint64_t inserts = 0;          // Insert calls, including rejected dups
  uint64_t updates = 0;          // successful Update calls
  uint64_t deletes = 0;          // successful Delete calls
  uint64_t segment_merges = 0;   // buffer merge-and-resegment events
  uint64_t segments_created = 0; // segments produced by those merges
  uint64_t segments_retired = 0; // segments whose merge left zero keys
  uint64_t tombstones_cleared = 0;  // deleted keys resolved by merges
};

// The single-writer policy: no guard, no latch, in-place directory splices,
// immediate frees and inline merges.
struct SingleThread {
  using Config = FitingTreeConfig;
  static constexpr telemetry::Engine kEngine = telemetry::Engine::kBuffered;
  // A value one thread may change while others read it: the counters and
  // a segment's page pointer.
  template <typename T>
  using Cell = T;

  template <typename V>
  static V LoadPayload(const V& v) { return v; }
  template <typename V>
  static void StorePayload(V& slot, const V& v) { slot = v; }

  // Per-segment synchronization state: none.
  struct SegmentSync {
    struct Hold {  // the latch, over a read of the buffer or payloads
      explicit Hold(SegmentSync&) {}
    };
    bool BufferSurelyEmpty() const { return false; }
    bool LockLive() { return true; }
    void Unlock(size_t /*buffered*/) {}
    template <typename E>
    std::span<const E> Snapshot(const std::vector<E>& buffer,
                                std::vector<E>* /*scratch*/) {
      return buffer;
    }
    template <typename E>
    bool BeginMerge(const std::vector<E>& /*buffer*/) { return true; }
  };

  // Tree-wide state: the directory itself, which owns the segments.
  template <typename Dir>
  class Shared {
   public:
    Shared() = default;
    Shared(const Shared&) = delete;
    Shared& operator=(const Shared&) = delete;
    ~Shared() {
      for (size_t i = 0; i < dir_.size(); ++i) delete dir_.value_at(i);
    }

    struct ReadGuard {
      explicit ReadGuard(const Shared&) {}
    };
    struct ArenaLock {
      explicit ArenaLock(const Shared&) {}
      template <typename Fn>
      void Retire(Fn fn) { fn(); }
    };

    const Dir& directory() const { return dir_; }
    template <typename Fn>
    bool Publish(Fn edit) { return edit(dir_); }
    template <typename Fn>
    void Retire(Fn fn) const { fn(); }
    template <typename Handler>
    void StartMerges(const Config&, Handler&&) {}
    template <typename Seg, typename Fn>
    void ScheduleMerge(Seg*, Fn merge_now) { merge_now(); }
    void AddStats(telemetry::StructuralStats*) const {}

   private:
    Dir dir_;
  };
};

template <typename K, typename V = uint64_t, typename Sync = SingleThread>
class FitingTree {
  // Pages live as raw arena bytes: copied with memcpy, never destroyed.
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  using Key = K;
  using Payload = V;
  using Config = typename Sync::Config;

  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const Config& config) {
    return Create(keys, {}, config);
  }

  // Bulk-loads `keys` with parallel `values` (empty = value-initialized
  // payloads). Keys must be sorted and duplicate-free.
  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const std::vector<V>& values,
                                            const Config& config) {
    assert(values.empty() || values.size() == keys.size());
    auto tree = std::make_unique<FitingTree>();
    tree->config_ = config;
    tree->effective_buffer_ =
        config.buffer_size == FitingTreeConfig::kAutoBufferSize
            ? std::max<size_t>(1, static_cast<size_t>(config.error / 2.0))
            : config.buffer_size;
    tree->BulkLoad(std::span<const K>(keys), std::span<const V>(values));
    tree->sync_.StartMerges(config, [t = tree.get()](void* seg) {
      ReadGuard guard(t->sync_);
      t->MergeSegment(static_cast<SegmentData*>(seg));
    });
    return tree;
  }

  size_t size() const { return counts_.size; }

  bool Contains(const K& key) const { return Lookup(key).has_value(); }

  // Payload stored for `key`, or nullopt when absent. Buffer entries
  // override the page: a tombstone hides the paged key until the next merge
  // physically drops it.
  std::optional<V> Lookup(const K& key) const {
    telemetry::ScopedOp telem(Sync::kEngine, telemetry::Op::kLookup);
    ReadGuard guard(sync_);
    const SegmentData* seg = LocateSegment(key);
    if (seg == nullptr) return std::nullopt;
    // Start the page lines travelling while the buffer probe runs.
    PrefetchPredicted(*seg, key);
    return Find(*seg, key);
  }

  // Contains() that also accrues the time spent descending the directory
  // vs. searching the segment page/buffer (Figure 13's breakdown).
  bool ContainsWithBreakdown(const K& key, int64_t* tree_ns,
                             int64_t* page_ns) const {
    // Count-only: this path already times itself at finer grain, and a
    // sampled ScopedOp timer would perturb the breakdown it measures.
    telemetry::CountOp(Sync::kEngine, telemetry::Op::kLookup);
    ReadGuard guard(sync_);
    Timer timer;
    const SegmentData* seg = LocateSegment(key);
    *tree_ns += timer.ElapsedNs();
    timer.Reset();
    // The prefetch is page work. Timed with the descent, the latency of
    // the lines it requests showed up as tree time.
    if (seg != nullptr) PrefetchPredicted(*seg, key);
    const bool found = seg != nullptr && Find(*seg, key).has_value();
    *page_ns += timer.ElapsedNs();
    return found;
  }

  // Inserts `key` -> `value`. Returns true iff the key was new (set
  // semantics: inserting a present key is a no-op returning false). The key
  // lands in its floor segment's buffer; a full buffer triggers
  // merge-and-resegment.
  bool Insert(const K& key, const V& value = V{}) {
    telemetry::ScopedOp telem(Sync::kEngine, telemetry::Op::kInsert);
    ++counts_.inserts;
    return Write(key, &value, [&](SegmentData& seg, size_t i, auto pos) {
      if (pos != seg.buffer.end() && pos->key == key) {
        if (!pos->tombstone) return WriteResult{};  // live duplicate
        // Delete-then-reinsert: the key still sits in the page; drop the
        // tombstone and refresh the paged payload in place.
        Sync::StorePayload(PageValues(seg)[i], value);
        seg.buffer.erase(pos);
      } else if (i != kNotFound) {
        return WriteResult{};
      } else {
        seg.buffer.insert(pos, BufferEntry{key, value, false});
      }
      ++counts_.size;
      return WriteResult{true, seg.buffer.size() > effective_buffer_};
    });
  }

  // Replaces the payload of a present key. Returns false when absent.
  bool Update(const K& key, const V& value) {
    telemetry::ScopedOp telem(Sync::kEngine, telemetry::Op::kUpdate);
    return Write(
        key, nullptr,
        [&](SegmentData& seg, size_t i, auto pos) {
          if (pos != seg.buffer.end() && pos->key == key) {
            if (pos->tombstone) return WriteResult{};
            pos->value = value;
          } else if (i != kNotFound) {
            Sync::StorePayload(PageValues(seg)[i], value);
          } else {
            return WriteResult{};
          }
          ++counts_.updates;
          return WriteResult{true, false};
        },
        /*prefetch_payloads=*/true);
  }

  // Removes `key`. Returns false when absent. A paged key gets a tombstone
  // in the buffer (resolved by the next merge); a buffered key is dropped
  // outright. Tombstones count against the buffer budget, so delete-heavy
  // traffic triggers merges just like insert-heavy traffic; a segment
  // whose every key is tombstoned merges (and retires) at once, so its
  // page goes back to the arena.
  bool Delete(const K& key) {
    telemetry::ScopedOp telem(Sync::kEngine, telemetry::Op::kDelete);
    return Write(key, nullptr, [&](SegmentData& seg, size_t i, auto pos) {
      bool merge = false;
      if (pos != seg.buffer.end() && pos->key == key) {
        if (pos->tombstone) return WriteResult{};
        seg.buffer.erase(pos);
      } else if (i != kNotFound) {
        seg.buffer.insert(pos, BufferEntry{key, V{}, true});
        merge = seg.buffer.size() > effective_buffer_ || AllTombstones(seg);
      } else {
        return WriteResult{};
      }
      --counts_.size;
      ++counts_.deletes;
      return WriteResult{true, merge};
    });
  }

  // Calls fn(key) or fn(key, value) for every live entry in [lo, hi] in
  // ascending order, merging each segment's page with its buffer on the fly
  // (tombstoned keys are skipped). Returns the number of entries emitted
  // (IndexApi contract, core/index_api.h).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    telemetry::ScopedOp telem(Sync::kEngine, telemetry::Op::kScan);
    if (hi < lo) return 0;
    ReadGuard guard(sync_);
    const Directory& dir = sync_.directory();
    if (dir.empty()) return 0;
    const size_t floor = dir.FloorIndex(lo);
    size_t emitted = 0;
    std::vector<BufferEntry> scratch;
    for (size_t i = floor == Directory::kNone ? 0 : floor;
         i < dir.size() && !(hi < dir.key_at(i)); ++i) {
      const SegmentData& seg = *dir.value_at(i);
      const std::span<const BufferEntry> buffer =
          seg.sync.Snapshot(seg.buffer, &scratch);
      // The page is loaded after the buffer (see PageValues).
      K* keys = seg.keys;
      assert(LiveEntriesUnpaged(keys, seg.n, buffer));
      emitted += detail::EmitMergedRange<K, V>(
          keys, BlockValues(keys, seg.n), seg.n, buffer, lo, hi, fn,
          [](const V& v) { return Sync::LoadPayload(v); });
    }
    return emitted;
  }

  // Directory arrays plus per-segment model metadata (the key pages and
  // buffers are the data, not the index).
  size_t IndexSizeBytes() const {
    ReadGuard guard(sync_);
    const Directory& dir = sync_.directory();
    return dir.MemoryBytes() + dir.size() * kSegmentMetaBytes;
  }

  size_t SegmentCount() const {
    ReadGuard guard(sync_);
    return sync_.directory().size();
  }

  // The sorted page of the segment at directory position `i` (< the
  // segment count); its buffered mutations are not included. Only for a
  // tree no other thread is writing.
  std::span<const K> PageKeys(size_t i) const {
    const SegmentData& seg = *sync_.directory().value_at(i);
    K* keys = seg.keys;
    return {keys, seg.n};
  }

  FitingTreeStats stats() const {
    return {counts_.inserts, counts_.updates, counts_.deletes,
            counts_.merges,  counts_.created, counts_.retired,
            counts_.tombstones};
  }
  const Config& config() const { return config_; }

  // Concurrent policy only: its epoch manager, and a wait for queued
  // background merges (tests and benches call it before validating).
  auto& epoch() { return sync_.epoch(); }
  void QuiesceMerges() { sync_.QuiesceMerges(); }

  // Structural snapshot (telemetry tentpole): segment shape plus pending
  // delta-buffer occupancy against the per-segment budget, the lifetime
  // merge counters this instance has accrued, its segment arena, and what
  // the sync policy adds.
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(Sync::kEngine);
    ReadGuard guard(sync_);
    const Directory& dir = sync_.directory();
    size_t buffered = 0, max_buffer = 0;
    std::vector<BufferEntry> scratch;
    for (size_t i = 0; i < dir.size(); ++i) {
      const SegmentData& seg = *dir.value_at(i);
      const size_t n = seg.sync.Snapshot(seg.buffer, &scratch).size();
      buffered += n;
      max_buffer = std::max(max_buffer, n);
    }
    st.Add("keys", static_cast<double>(size()));
    st.Add("segments", static_cast<double>(dir.size()));
    st.Add("error", config_.error);
    st.Add("buffer_capacity", static_cast<double>(effective_buffer_));
    st.Add("buffered_entries", static_cast<double>(buffered));
    st.Add("buffer_max", static_cast<double>(max_buffer));
    st.Add("buffer_occupancy",
           dir.empty() || effective_buffer_ == 0
               ? 0.0
               : static_cast<double>(buffered) /
                     (static_cast<double>(dir.size()) *
                      static_cast<double>(effective_buffer_)));
    st.Add("merges", static_cast<double>(counts_.merges));
    st.Add("segments_created", static_cast<double>(counts_.created));
    st.Add("segments_retired", static_cast<double>(counts_.retired));
    st.Add("index_bytes", static_cast<double>(IndexSizeBytes()));
    {
      ArenaLock lock(sync_);
      st.Add("arena_chunks", static_cast<double>(arena_.chunks()));
      st.Add("arena_mapped_bytes",
             static_cast<double>(arena_.mapped_bytes()));
      st.Add("arena_live_bytes", static_cast<double>(arena_.live_bytes()));
      st.Add("arena_relocations", static_cast<double>(arena_.relocations()));
    }
    st.Add("arena_free_chunks",
           static_cast<double>(SegmentArena::FreeChunks()));  // process-wide
    sync_.AddStats(&st);
    return st;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  using BufferEntry = detail::BufferEntry<K, V>;
  using SegmentSync = typename Sync::SegmentSync;
  template <typename T>
  using Cell = typename Sync::template Cell<T>;

  struct WriteResult {
    bool done = false;   // the key was inserted, updated or deleted
    bool merge = false;  // the segment's buffer wants a merge
  };

  // Where a page's payloads start in its block: after its n keys and, in
  // ASan builds, a poisoned gap, so reading keys[n] reports.
  static size_t ValuesOffset(size_t n) {
    return arena_detail::RoundUp(n * sizeof(K), alignof(V)) +
           SegmentArena::kRedzoneBytes;
  }
  static size_t BlockBytes(size_t n) { return ValuesOffset(n) + n * sizeof(V); }
  // The payloads of the n-key page starting at `block`.
  static V* BlockValues(K* block, size_t n) {
    return reinterpret_cast<V*>(reinterpret_cast<char*>(block) +
                                ValuesOffset(n));
  }

  // One cache line for 8-byte keys under SingleThread: the model, the page
  // block and the delta buffer. Only the last three change once published.
  struct alignas(64) SegmentData {
    K first_key{};
    double slope = 0.0;
    double intercept = 0.0;  // predicted index into the page at first_key
    // Arena block: n sorted keys, then n payloads. An arena compaction
    // may move it; the keys never change.
    typename Sync::template Cell<K*> keys{};
    uint32_t n = 0;
    [[no_unique_address]] mutable SegmentSync sync;
    std::vector<BufferEntry> buffer;  // sorted delta buffer

    double Predict(const K& key) const {
      return intercept + slope * (static_cast<double>(key) -
                                  static_cast<double>(first_key));
    }
  };
  static_assert(sizeof(K) > 8 || !std::is_empty_v<SegmentSync> ||
                sizeof(SegmentData) == 64);

  static constexpr size_t kSegmentMetaBytes =
      sizeof(K) + 2 * sizeof(double) + sizeof(void*);

  using Directory = FlatDirectory<K, SegmentData*>;
  using Shared = typename Sync::template Shared<Directory>;
  using ReadGuard = typename Shared::ReadGuard;
  using ArenaLock = typename Shared::ArenaLock;

  struct Counters {
    Cell<size_t> size{};
    Cell<uint64_t> inserts{}, updates{}, deletes{};
    Cell<uint64_t> merges{}, created{}, retired{}, tombstones{};
  };

  void BulkLoad(std::span<const K> keys, std::span<const V> values) {
    counts_.size += keys.size();
    if (keys.empty()) return;
    const auto models =
        SegmentShrinkingCone<K>(keys, config_.error, config_.feasibility);
    size_t total = 0;
    for (const Segment<K>& m : models) {
      total += SegmentArena::SpanOf(BlockBytes(m.length));
    }
    arena_.ExpectBytes(total);  // unlocked: no other thread has the tree yet
    std::vector<K> first_keys;
    std::vector<SegmentData*> ptrs;
    NewSegments(models, keys, values, &first_keys, &ptrs);
    sync_.Publish([&](Directory& dir) {
      dir.BulkLoad(std::move(first_keys), std::move(ptrs));
      return true;
    });
  }

  // Points `seg` at model `m`, with its intercept rebased to the page.
  static void SetModel(SegmentData& seg, const Segment<K>& m) {
    seg.first_key = m.first_key;
    seg.slope = m.slope;
    seg.intercept = m.intercept - static_cast<double>(m.start);
  }

  // One new segment per model over the sorted `keys` and their `values`
  // (empty = value-initialized), each with a page of its own; appends their
  // first keys and pointers.
  void NewSegments(const std::vector<Segment<K>>& models,
                   std::span<const K> keys, std::span<const V> values,
                   std::vector<K>* first_keys,
                   std::vector<SegmentData*>* ptrs) {
    first_keys->reserve(models.size());
    ptrs->reserve(models.size());
    for (const Segment<K>& m : models) {
      auto* seg = new SegmentData;
      SetModel(*seg, m);
      K* block = NewBlock(m.length);
      std::memcpy(block, keys.data() + m.start, m.length * sizeof(K));
      V* dst = BlockValues(block, m.length);
      if (values.empty()) {
        std::fill_n(dst, m.length, V{});
      } else {
        std::memcpy(dst, values.data() + m.start, m.length * sizeof(V));
      }
      Adopt(*seg, block, m.length);
      first_keys->push_back(m.first_key);
      ptrs->push_back(seg);
    }
  }

  // An uninitialized block for an n-key page, which no compaction moves
  // until Adopt gives it an owner. The caller holds the arena lock.
  K* AllocateBlock(size_t n) {
    assert(n > 0 && n <= UINT32_MAX);
    auto* block = static_cast<char*>(arena_.Allocate(BlockBytes(n)));
    SegmentArena::PoisonGap(block + n * sizeof(K),
                            ValuesOffset(n) - n * sizeof(K));
    return reinterpret_cast<K*>(block);
  }

  K* NewBlock(size_t n) {
    ArenaLock lock(sync_);
    return AllocateBlock(n);
  }

  // Makes the filled n-key `block` the page of `seg`, which has none yet.
  void Adopt(SegmentData& seg, K* block, size_t n) {
    ArenaLock lock(sync_);
    SegmentArena::SetOwner(block, &seg);
    seg.keys = block;
    seg.n = static_cast<uint32_t>(n);
  }

  void FreeBlock(K* block) {
    ArenaLock lock(sync_);
    arena_.Free(block);
  }

  void FreeSegment(SegmentData* seg) {
    {
      ArenaLock lock(sync_);  // a compaction may be moving the page
      arena_.Free(seg->keys);
    }
    delete seg;
  }

  // Keeps merge churn from growing the arena without bound (see
  // SegmentArena::Compact): a moved page is copied to a fresh block, and
  // the old block is pinned and retired (freed at once under
  // SingleThread, once no reader can hold it under Concurrent).
  void CompactArena() {
    ArenaLock lock(sync_);
    const size_t moved = arena_.Compact([&](void* owner) {
      SegmentData& seg = *static_cast<SegmentData*>(owner);
      // The latch keeps in-place payload writes out of the copy.
      typename SegmentSync::Hold hold(seg.sync);
      K* old = seg.keys;
      K* block = AllocateBlock(seg.n);
      std::memcpy(block, old, seg.n * sizeof(K));
      std::memcpy(BlockValues(block, seg.n), BlockValues(old, seg.n),
                  seg.n * sizeof(V));
      SegmentArena::SetOwner(block, &seg);
      seg.keys = block;
      SegmentArena::SetOwner(old, nullptr);
      lock.Retire([this, old] { FreeBlock(old); });
    });
    telemetry::CounterAdd(telemetry::CounterId::kArenaRelocations, moved);
  }

  SegmentData* LocateSegment(const K& key) const {
    telemetry::ScopedPhase phase(Sync::kEngine,
                                 telemetry::Phase::kDirectoryDescent);
    const Directory& dir = sync_.directory();
    if (dir.empty()) return nullptr;
    const size_t i = dir.FloorIndex(key);
    // Below-leftmost keys fall to the first segment.
    return dir.value_at(i == Directory::kNone ? 0 : i);
  }

  // Key lines on each side of the predicted one that a lookup prefetches.
  // On 16M Weblogs keys at error 64, 69% of keys sit within 2 lines (16
  // 8-byte keys) of the prediction and 89% within 4, against 20% on the
  // predicted line itself (EXPERIMENTS.md, "Lookup prefetch").
  static constexpr size_t kNeighbourhoodLines = 2;
  static constexpr size_t kNeighbourhoodKeys =
      std::max<size_t>(1, kNeighbourhoodLines * kCacheLineBytes / sizeof(K));

  // Prefetch the key lines within kNeighbourhoodLines of the predicted
  // in-page position, and the predicted payload line, so the lines the
  // search most likely touches arrive together while the buffer probe
  // between descent and page search is still executing. Payloads further
  // out wait for the gallop bracket (SearchSegment): requesting their
  // neighbourhood too won ~5% more on lookups timed one at a time, but
  // made lookups run back to back 15-40% slower (EXPERIMENTS.md, "Lookup
  // prefetch").
  void PrefetchPredicted(const SegmentData& seg, const K& key) const {
    K* keys = seg.keys;
    const size_t n = seg.n;
    const size_t hint = ClampRank(seg.Predict(key), 0, n - 1);
    const size_t lo = hint - std::min(hint, kNeighbourhoodKeys);
    const size_t len = std::min(n, hint + kNeighbourhoodKeys + 1) - lo;
    PrefetchReadRange(keys + lo, len * sizeof(K));
    PrefetchRead(BlockValues(keys, n) + hint);
  }

  // The payloads of `seg`'s page. A reader loads them after its buffer
  // probe: a compaction may have moved the page since the probe began, and
  // an in-place write the probe saw lands only in the moved copy.
  static V* PageValues(const SegmentData& seg) {
    return BlockValues(seg.keys, seg.n);
  }

  // The widest gallop bracket, in payload lines, whose payloads a lookup
  // prefetches. A bracket w keys wide holds an answer w to 2w keys from the
  // prediction, so with 8-byte payloads the 4-line cap (w <= 32) covers
  // answers within 64 keys: all of an error-64 window. A wider bracket
  // means a model miss whose requests cost more than the one miss they
  // hide (at error 16384, prefetching every bracket made `ablation_search`
  // 5x slower; EXPERIMENTS.md, "Lookup prefetch").
  static constexpr size_t kBracketPrefetchLines = 4;

  // Error-bounded search of the segment page for an exact match, through
  // the same ErrorWindow as the disk-resident lookup path. The keys never
  // change while a segment is live, so writers search before latching.
  // Returns the in-page index of `key`, or kNotFound. A caller that loads
  // the found index's payload passes `prefetch_payloads`: the payload
  // lines of the gallop bracket then start travelling before the final
  // count. That is a hint only, so a compaction moving the page before
  // the load is harmless.
  size_t SearchSegment(const SegmentData& seg, const K& key,
                       bool prefetch_payloads) const {
    telemetry::ScopedPhase phase(Sync::kEngine,
                                 telemetry::Phase::kWindowSearch);
    const K* keys = seg.keys;
    const size_t n = seg.n;
    const double pred = seg.Predict(key);
    // A key below the leftmost segment (floor fallback) predicts far
    // negative; a present key always predicts a window overlapping [0, n).
    if (pred + config_.error + 2.0 < 0.0) return kNotFound;
    const auto [begin, end] = ErrorWindow(pred, config_.error, 0, n);
    const size_t i = detail::BoundedLowerBound(
        keys, begin, end, ClampRank(pred, 0, n), key, config_.search_policy,
        [&](size_t lo, size_t hi) {
          const size_t width = hi - lo;
          if (prefetch_payloads &&
              width * sizeof(V) <= kBracketPrefetchLines * kCacheLineBytes) {
            // The answer lies in [lo, hi], and hi may be n.
            PrefetchReadRange(PageValues(seg) + lo,
                              (std::min(hi + 1, n) - lo) * sizeof(V));
          }
        });
    return i < n && keys[i] == key ? i : kNotFound;
  }

  // Sorted position of `key` in `seg`'s buffer; the caller holds the latch.
  template <typename Seg>
  static auto BufferPos(Seg& seg, const K& key) {
    return std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                            detail::BufferKeyLess{});
  }

  // `key`'s payload in `seg`: its buffer entry, else its page slot.
  std::optional<V> Find(const SegmentData& seg, const K& key) const {
    {
      telemetry::ScopedPhase phase(Sync::kEngine,
                                   telemetry::Phase::kBufferProbe);
      if (!seg.sync.BufferSurelyEmpty()) {
        typename SegmentSync::Hold hold(seg.sync);
        const auto pos = BufferPos(seg, key);
        if (pos != seg.buffer.end() && pos->key == key) {
          if (pos->tombstone) return std::nullopt;
          return pos->value;
        }
      }
    }
    const size_t i = SearchSegment(seg, key, /*prefetch_payloads=*/true);
    if (i == kNotFound) return std::nullopt;
    return Sync::LoadPayload(PageValues(seg)[i]);
  }

  // The write skeleton: `edit(seg, i, pos)` applies the write under the
  // latch, given `key`'s page index `i` (or kNotFound) and buffer position
  // `pos`. A segment frozen by a merge sends the write back to a fresh
  // directory; an empty tree takes `*first`, if given, as its first key.
  // `prefetch_payloads` goes to the search (SearchSegment).
  template <typename Edit>
  bool Write(const K& key, const V* first, Edit edit,
             bool prefetch_payloads = false) {
    ReadGuard guard(sync_);
    for (;;) {
      SegmentData* seg = LocateSegment(key);
      if (seg == nullptr) {
        if (first == nullptr) return false;
        if (InsertIntoEmpty(key, *first)) return true;
        continue;  // another writer published the first segment
      }
      const size_t i = SearchSegment(*seg, key, prefetch_payloads);
      if (!seg->sync.LockLive()) continue;
      const WriteResult result = edit(*seg, i, BufferPos(*seg, key));
      seg->sync.Unlock(seg->buffer.size());
      if (result.merge) sync_.ScheduleMerge(seg, [&] { MergeSegment(seg); });
      return result.done;
    }
  }

  // Each tombstone hides a distinct paged key, so n all-tombstone entries
  // mean the segment is empty.
  static bool AllTombstones(const SegmentData& seg) {
    return seg.buffer.size() == seg.n &&
           std::all_of(seg.buffer.begin(), seg.buffer.end(),
                       [](const BufferEntry& e) { return e.tombstone; });
  }

  // The buffer invariant the merge sizing relies on: a live entry is a
  // pending insert, never a key its page already holds.
  static bool LiveEntriesUnpaged(const K* keys, size_t n,
                                 std::span<const BufferEntry> buffer) {
    return std::none_of(buffer.begin(), buffer.end(),
                        [&](const BufferEntry& e) {
                          return !e.tombstone &&
                                 std::binary_search(keys, keys + n, e.key);
                        });
  }

  // First key of an empty tree. False when another writer published a
  // segment first.
  bool InsertIntoEmpty(const K& key, const V& value) {
    const bool published = sync_.Publish([&](Directory& dir) {
      if (!dir.empty()) return false;
      std::vector<K> first_keys;
      std::vector<SegmentData*> ptrs;
      NewSegments({Segment<K>{key, 0.0, 0.0, 0, 1}}, {&key, 1}, {&value, 1},
                  &first_keys, &ptrs);
      dir.Splice(0, 0, first_keys, ptrs);
      return true;
    });
    if (published) ++counts_.size;
    return published;
  }

  // Publishes `ptrs`, whose first keys are `keys`, in place of `seg`'s
  // directory entry. The replacements span the same key range in order,
  // so the splice is positional.
  void Replace(const SegmentData* seg, std::span<const K> keys,
               std::span<SegmentData* const> ptrs) {
    sync_.Publish([&](Directory& dir) {
      // Exact-match floor: a merged segment stays in the directory until
      // its own merge replaces it.
      const size_t pos = dir.FloorIndex(seg->first_key);
      assert(pos != Directory::kNone && dir.value_at(pos) == seg);
      dir.Splice(pos, 1, keys, ptrs);
      return true;
    });
  }

  // Merges `seg`'s buffer into its page — applying pending inserts and
  // dropping tombstoned keys — and re-segments the surviving keys with the
  // shrinking cone, replacing one directory entry with possibly several new
  // segments (paper Sec 4.2.2), then retires `seg` and its page. A merge
  // that leaves no keys only removes the entry: its key range falls to the
  // left neighbor by the floor rule.
  void MergeSegment(SegmentData* seg) {
    // Merges are rare and long: always timed (no sampling), so the merge
    // histogram sees every event; cancelled when no merge happens.
    telemetry::ScopedDuration telem(Sync::kEngine, telemetry::Op::kMerge);
    telemetry::ScopedPhase phase(Sync::kEngine,
                                 telemetry::Phase::kMergeResegment);
    // From here on the buffer and the payloads stay as they are.
    if (!seg->sync.BeginMerge(seg->buffer)) {
      telem.Cancel();
      return;
    }
    ++counts_.merges;
    // Each tombstone drops its paged key and each live entry adds a key
    // (live entries are never paged), which sizes the merged page exactly.
    const size_t tombstones = static_cast<size_t>(
        std::count_if(seg->buffer.begin(), seg->buffer.end(),
                      [](const BufferEntry& e) { return e.tombstone; }));
    const size_t n = seg->n + seg->buffer.size() - 2 * tombstones;
    counts_.tombstones += tombstones;
    if (n == 0) {
      ++counts_.retired;
      Replace(seg, {}, {});
    } else {
      // Merge straight into a block a new segment can own: when the cone
      // keeps the merged keys in one model, that block becomes its page.
      K* const old = seg->keys;
      K* block = NewBlock(n);
      V* values = BlockValues(block, n);
      [[maybe_unused]] const size_t merged = detail::MergePageWithBuffer<K, V>(
          old, BlockValues(old, seg->n), seg->n, seg->buffer, block, values);
      assert(merged == n);
      const auto models = SegmentShrinkingCone<K>(
          std::span<const K>(block, n), config_.error, config_.feasibility);
      counts_.created += models.size();
      if (models.size() == 1) {
        auto* head = new SegmentData;
        SetModel(*head, models[0]);
        Adopt(*head, block, n);
        Replace(seg, std::span<const K>(&head->first_key, 1),
                std::span<SegmentData* const>(&head, 1));
      } else {
        // A split: each model copies its range into a block of its own,
        // and the merge block goes.
        std::vector<K> first_keys;
        std::vector<SegmentData*> ptrs;
        NewSegments(models, std::span<const K>(block, n),
                    std::span<const V>(values, n), &first_keys, &ptrs);
        FreeBlock(block);
        Replace(seg, first_keys, ptrs);
      }
    }
    sync_.Retire([this, seg] { FreeSegment(seg); });
    CompactArena();
  }

  Config config_;
  size_t effective_buffer_ = 0;
  SegmentArena arena_;  // every segment's page block
  Counters counts_;
  // The directory plus the policy's tree-wide state. Last, so its teardown
  // (finishing queued merges, deleting the live segments) sees the rest.
  Shared sync_;
};

}  // namespace fitree

#endif  // FITREE_CORE_FITING_TREE_H_
