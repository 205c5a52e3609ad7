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
// surviving keys, replacing itself with however many segments the data now
// needs. This is the data-aware split that distinguishes FITing-Tree from
// fixed paging; a merge that deletes every key retires the segment
// outright.
//
// The segment directory is a flat sorted array of each segment's first key
// with a parallel array of segment pointers (core/flat_directory.h), spliced
// in place when a merge replaces or retires a segment. Read operations are
// const and safe for concurrent readers; writers need exclusive access (the
// arena's chunk free list is the only state shared between trees).
//
// Buffer invariants (checked by tests/oracle.h's differential driver):
//   - at most one buffer entry per key;
//   - a live entry's key is absent from the page (pure pending insert);
//   - a tombstone's key is present in the page (pending delete).

#ifndef FITREE_CORE_FITING_TREE_H_
#define FITREE_CORE_FITING_TREE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
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

template <typename K, typename V = uint64_t>
class FitingTree {
  // Pages live as raw arena bytes: copied with memcpy, never destroyed.
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

 public:
  using Key = K;
  using Payload = V;

  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const FitingTreeConfig& config) {
    return Create(keys, {}, config);
  }

  // Bulk-loads `keys` with parallel `values` (empty = value-initialized
  // payloads). Keys must be sorted and duplicate-free.
  static std::unique_ptr<FitingTree> Create(const std::vector<K>& keys,
                                            const std::vector<V>& values,
                                            const FitingTreeConfig& config) {
    assert(values.empty() || values.size() == keys.size());
    auto tree = std::make_unique<FitingTree>();
    tree->config_ = config;
    tree->effective_buffer_ =
        config.buffer_size == FitingTreeConfig::kAutoBufferSize
            ? std::max<size_t>(1, static_cast<size_t>(config.error / 2.0))
            : config.buffer_size;
    tree->BulkLoad(std::span<const K>(keys), std::span<const V>(values));
    return tree;
  }

  size_t size() const { return size_; }

  bool Contains(const K& key) const { return Lookup(key).has_value(); }

  // Payload stored for `key`, or nullopt when absent. Buffer entries
  // override the page: a tombstone hides the paged key until the next merge
  // physically drops it.
  std::optional<V> Lookup(const K& key) const {
    telemetry::ScopedOp telem(telemetry::Engine::kBuffered,
                              telemetry::Op::kLookup);
    const SegmentData* seg = LocateSegment(key);
    if (seg == nullptr) return std::nullopt;
    // Start the page lines travelling while the buffer probe runs.
    PrefetchPredicted(*seg, key);
    if (const BufferEntry* entry = FindBuffer(*seg, key)) {
      if (entry->tombstone) return std::nullopt;
      return entry->value;
    }
    const size_t i = SearchSegment(*seg, key);
    if (i == kNotFound) return std::nullopt;
    return seg->values()[i];
  }

  // Contains() that also accrues the time spent descending the directory
  // vs. searching the segment page/buffer (Figure 13's breakdown).
  bool ContainsWithBreakdown(const K& key, int64_t* tree_ns,
                             int64_t* page_ns) const {
    // Count-only: this path already times itself at finer grain, and a
    // sampled ScopedOp timer would perturb the breakdown it measures.
    telemetry::CountOp(telemetry::Engine::kBuffered, telemetry::Op::kLookup);
    Timer timer;
    const SegmentData* seg = LocateSegment(key);
    if (seg != nullptr) PrefetchPredicted(*seg, key);
    *tree_ns += timer.ElapsedNs();
    timer.Reset();
    bool found = false;
    if (seg != nullptr) {
      if (const BufferEntry* entry = FindBuffer(*seg, key)) {
        found = !entry->tombstone;
      } else {
        found = SearchSegment(*seg, key) != kNotFound;
      }
    }
    *page_ns += timer.ElapsedNs();
    return found;
  }

  // Inserts `key` -> `value`. Returns true iff the key was new (set
  // semantics: inserting a present key is a no-op returning false). The key
  // lands in its floor segment's buffer; a full buffer triggers
  // merge-and-resegment.
  bool Insert(const K& key, const V& value = V{}) {
    telemetry::ScopedOp telem(telemetry::Engine::kBuffered,
                              telemetry::Op::kInsert);
    ++stats_.inserts;
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) {
      // First key of an empty tree.
      SegmentData* ptr = NewSegment();
      ptr->first_key = key;
      StoreBlock(*ptr, std::span<const K>(&key, 1),
                 std::span<const V>(&value, 1));
      directory_.Splice(0, 0, std::span<const K>(&key, 1),
                        std::span<SegmentData* const>(&ptr, 1));
      ++size_;
      return true;
    }
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (!pos->tombstone) return false;  // live duplicate
      // Delete-then-reinsert: the key still sits in the page; drop the
      // tombstone and refresh the paged payload in place.
      const size_t i = SearchSegment(*seg, key);
      assert(i != kNotFound);
      seg->values()[i] = value;
      seg->buffer.erase(pos);
      ++size_;
      return true;
    }
    if (SearchSegment(*seg, key) != kNotFound) return false;
    seg->buffer.insert(pos, BufferEntry{key, value, false});
    ++size_;
    if (seg->buffer.size() > effective_buffer_) MergeSegment(seg);
    return true;
  }

  // Replaces the payload of a present key. Returns false when absent.
  bool Update(const K& key, const V& value) {
    telemetry::ScopedOp telem(telemetry::Engine::kBuffered,
                              telemetry::Op::kUpdate);
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) return false;
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (pos->tombstone) return false;
      pos->value = value;
      ++stats_.updates;
      return true;
    }
    const size_t i = SearchSegment(*seg, key);
    if (i == kNotFound) return false;
    seg->values()[i] = value;
    ++stats_.updates;
    return true;
  }

  // Removes `key`. Returns false when absent. A paged key gets a tombstone
  // in the buffer (resolved by the next merge); a buffered key is dropped
  // outright. Tombstones count against the buffer budget, so delete-heavy
  // traffic triggers merges just like insert-heavy traffic; a segment
  // whose every key is tombstoned merges (and retires) at once, so its
  // page goes back to the arena.
  bool Delete(const K& key) {
    telemetry::ScopedOp telem(telemetry::Engine::kBuffered,
                              telemetry::Op::kDelete);
    SegmentData* seg = LocateSegmentMutable(key);
    if (seg == nullptr) return false;
    auto pos = BufferPos(*seg, key);
    if (pos != seg->buffer.end() && pos->key == key) {
      if (pos->tombstone) return false;
      seg->buffer.erase(pos);
      --size_;
      ++stats_.deletes;
      return true;
    }
    if (SearchSegment(*seg, key) == kNotFound) return false;
    seg->buffer.insert(pos, BufferEntry{key, V{}, true});
    --size_;
    ++stats_.deletes;
    // Each tombstone hides a distinct paged key, so n all-tombstone
    // entries mean the segment is empty.
    const bool emptied =
        seg->buffer.size() == seg->n &&
        std::all_of(seg->buffer.begin(), seg->buffer.end(),
                    [](const BufferEntry& e) { return e.tombstone; });
    if (seg->buffer.size() > effective_buffer_ || emptied) MergeSegment(seg);
    return true;
  }

  // Calls fn(key) or fn(key, value) for every live entry in [lo, hi] in
  // ascending order, merging each segment's page with its buffer on the fly
  // (tombstoned keys are skipped). Returns the number of entries emitted
  // (IndexApi contract, core/index_api.h).
  template <typename Fn>
  size_t ScanRange(const K& lo, const K& hi, Fn fn) const {
    telemetry::ScopedOp telem(telemetry::Engine::kBuffered,
                              telemetry::Op::kScan);
    if (directory_.empty() || hi < lo) return 0;
    const size_t floor = directory_.FloorIndex(lo);
    size_t emitted = 0;
    for (size_t i = floor == Directory::kNone ? 0 : floor;
         i < directory_.size() && !(hi < directory_.key_at(i)); ++i) {
      const SegmentData& seg = *directory_.value_at(i);
      assert(LiveEntriesUnpaged(seg));
      emitted += detail::EmitMergedRange<K, V>(seg.keys, seg.values(), seg.n,
                                               seg.buffer, lo, hi, fn);
    }
    return emitted;
  }

  // Directory arrays plus per-segment model metadata (the key pages and
  // buffers are the data, not the index).
  size_t IndexSizeBytes() const {
    return directory_.MemoryBytes() + directory_.size() * kSegmentMetaBytes;
  }

  size_t SegmentCount() const { return directory_.size(); }

  // The sorted page of the segment at directory position `i` (< the
  // segment count); its buffered mutations are not included.
  std::span<const K> PageKeys(size_t i) const {
    const SegmentData& seg = *directory_.value_at(i);
    return {seg.keys, seg.n};
  }
  const FitingTreeStats& stats() const { return stats_; }
  const FitingTreeConfig& config() const { return config_; }

  // Structural snapshot (telemetry tentpole): segment shape plus pending
  // delta-buffer occupancy against the per-segment budget, the lifetime
  // merge counters this instance has accrued, and its segment arena.
  telemetry::StructuralStats Stats() const {
    telemetry::StructuralStats st;
    st.engine = telemetry::EngineName(telemetry::Engine::kBuffered);
    st.Add("keys", static_cast<double>(size_));
    st.Add("segments", static_cast<double>(directory_.size()));
    st.Add("error", config_.error);
    st.Add("buffer_capacity", static_cast<double>(effective_buffer_));
    size_t buffered = 0, max_buffer = 0;
    for (const auto& seg : segments_) {
      buffered += seg->buffer.size();
      max_buffer = std::max(max_buffer, seg->buffer.size());
    }
    st.Add("buffered_entries", static_cast<double>(buffered));
    st.Add("buffer_max", static_cast<double>(max_buffer));
    st.Add("buffer_occupancy",
           directory_.empty() || effective_buffer_ == 0
               ? 0.0
               : static_cast<double>(buffered) /
                     (static_cast<double>(directory_.size()) *
                      static_cast<double>(effective_buffer_)));
    st.Add("merges", static_cast<double>(stats_.segment_merges));
    st.Add("segments_created", static_cast<double>(stats_.segments_created));
    st.Add("segments_retired", static_cast<double>(stats_.segments_retired));
    st.Add("index_bytes", static_cast<double>(IndexSizeBytes()));
    st.Add("arena_chunks", static_cast<double>(arena_.chunks()));
    st.Add("arena_mapped_bytes", static_cast<double>(arena_.mapped_bytes()));
    st.Add("arena_live_bytes", static_cast<double>(arena_.live_bytes()));
    st.Add("arena_relocations", static_cast<double>(arena_.relocations()));
    st.Add("arena_free_chunks",
           static_cast<double>(SegmentArena::FreeChunks()));  // process-wide
    return st;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  using BufferEntry = detail::BufferEntry<K, V>;

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

  // One cache line for 8-byte keys: the model, the page block and the
  // delta buffer.
  struct alignas(64) SegmentData {
    K first_key{};
    double slope = 0.0;
    double intercept = 0.0;  // predicted index into `keys` at first_key
    K* keys = nullptr;       // arena block: n sorted keys, then n payloads
    uint32_t n = 0;
    uint32_t slot = 0;       // index in segments_
    std::vector<BufferEntry> buffer;  // sorted delta buffer

    V* values() const { return BlockValues(keys, n); }
    double Predict(const K& key) const {
      return intercept + slope * (static_cast<double>(key) -
                                  static_cast<double>(first_key));
    }
  };
  static_assert(sizeof(K) > 8 || sizeof(SegmentData) == 64);

  static constexpr size_t kSegmentMetaBytes =
      sizeof(K) + 2 * sizeof(double) + sizeof(void*);

  using Directory = FlatDirectory<K, SegmentData*>;

  void BulkLoad(std::span<const K> keys, std::span<const V> values) {
    size_ = keys.size();
    if (keys.empty()) return;
    const auto models =
        SegmentShrinkingCone<K>(keys, config_.error, config_.feasibility);
    std::vector<K> first_keys;
    std::vector<SegmentData*> ptrs;
    first_keys.reserve(models.size());
    ptrs.reserve(models.size());
    segments_.reserve(models.size());
    size_t total = 0;
    for (const Segment<K>& m : models) {
      total += SegmentArena::SpanOf(BlockBytes(m.length));
    }
    arena_.ExpectBytes(total);
    for (const Segment<K>& m : models) {
      SegmentData* data = NewSegment();
      SetModel(*data, m);
      StoreBlock(*data, keys.subspan(m.start, m.length),
                 values.empty() ? values : values.subspan(m.start, m.length));
      first_keys.push_back(m.first_key);
      ptrs.push_back(data);
    }
    directory_.BulkLoad(std::move(first_keys), std::move(ptrs));
  }

  SegmentData* NewSegment() {
    segments_.push_back(std::make_unique<SegmentData>());
    segments_.back()->slot = static_cast<uint32_t>(segments_.size() - 1);
    return segments_.back().get();
  }

  // Points `seg` at model `m`, with its intercept rebased to the page.
  static void SetModel(SegmentData& seg, const Segment<K>& m) {
    seg.first_key = m.first_key;
    seg.slope = m.slope;
    seg.intercept = m.intercept - static_cast<double>(m.start);
  }

  // An uninitialized arena block for an n-key page owned by `owner`: its
  // keys start the block, its payloads start at ValuesOffset(n).
  K* NewBlock(size_t n, SegmentData* owner) {
    assert(n > 0 && n <= UINT32_MAX);
    auto* block = static_cast<char*>(arena_.Allocate(BlockBytes(n), owner));
    SegmentArena::PoisonGap(block + n * sizeof(K),
                            ValuesOffset(n) - n * sizeof(K));
    return reinterpret_cast<K*>(block);
  }

  // Makes the filled n-key `block` (from NewBlock(n, &seg)) `seg`'s page
  // and frees the block it had.
  void AdoptBlock(SegmentData& seg, K* block, size_t n) {
    if (seg.keys != nullptr) arena_.Free(seg.keys);
    seg.keys = block;
    seg.n = static_cast<uint32_t>(n);
  }

  // Gives `seg` a fresh arena block holding `keys` and their payloads
  // (`values` empty = value-initialized), then frees the block it had. The
  // sources may be that old block: it is freed only after the copy.
  void StoreBlock(SegmentData& seg, std::span<const K> keys,
                  std::span<const V> values) {
    const size_t n = keys.size();
    K* block = NewBlock(n, &seg);
    std::memcpy(block, keys.data(), n * sizeof(K));
    V* dst = BlockValues(block, n);
    if (values.empty()) {
      std::fill_n(dst, n, V{});
    } else {
      std::memcpy(dst, values.data(), n * sizeof(V));
    }
    AdoptBlock(seg, block, n);
  }

  // Keeps merge churn from growing the arena without bound (see
  // SegmentArena::Compact): moved pages are copied to fresh blocks.
  void CompactArena() {
    const size_t moved = arena_.Compact([this](void* owner) {
      SegmentData& seg = *static_cast<SegmentData*>(owner);
      StoreBlock(seg, std::span<const K>(seg.keys, seg.n),
                 std::span<const V>(seg.values(), seg.n));
    });
    telemetry::CounterAdd(telemetry::CounterId::kArenaRelocations, moved);
  }

  const SegmentData* LocateSegment(const K& key) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kBuffered,
                                 telemetry::Phase::kDirectoryDescent);
    if (directory_.empty()) return nullptr;
    const size_t i = directory_.FloorIndex(key);
    // Below-leftmost keys fall to the first segment.
    return directory_.value_at(i == Directory::kNone ? 0 : i);
  }

  // Prefetch the predicted in-page position (keys and payloads) so the
  // lines arrive while the buffer probe between descent and page search is
  // still executing.
  void PrefetchPredicted(const SegmentData& seg, const K& key) const {
    const size_t n = seg.n;
    const double pred = seg.Predict(key);
    const size_t hint =
        pred <= 0.0 ? 0 : std::min(n - 1, static_cast<size_t>(pred));
    PrefetchRead(seg.keys + hint);
    PrefetchRead(seg.values() + hint);
  }

  SegmentData* LocateSegmentMutable(const K& key) {
    return const_cast<SegmentData*>(LocateSegment(key));
  }

  // Error-bounded search of the segment page for an exact match, through
  // the same ErrorWindow as the disk-resident and concurrent lookup paths.
  // Returns the in-page index of `key`, or kNotFound.
  size_t SearchSegment(const SegmentData& seg, const K& key) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kBuffered,
                                 telemetry::Phase::kWindowSearch);
    const size_t n = seg.n;
    const double pred = seg.Predict(key);
    // A key below the leftmost segment (floor fallback) predicts far
    // negative; a present key always predicts a window overlapping [0, n).
    if (pred + config_.error + 2.0 < 0.0) return kNotFound;
    const auto [begin, end] = ErrorWindow(pred, config_.error, 0, n);
    const size_t hint = static_cast<size_t>(std::max(0.0, pred));
    const size_t i = detail::BoundedLowerBound(
        seg.keys, begin, end, hint, key, config_.search_policy);
    return i < n && seg.keys[i] == key ? i : kNotFound;
  }

  typename std::vector<BufferEntry>::iterator BufferPos(SegmentData& seg,
                                                        const K& key) const {
    return std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                            detail::BufferKeyLess{});
  }

  const BufferEntry* FindBuffer(const SegmentData& seg, const K& key) const {
    telemetry::ScopedPhase phase(telemetry::Engine::kBuffered,
                                 telemetry::Phase::kBufferProbe);
    auto pos = std::lower_bound(seg.buffer.begin(), seg.buffer.end(), key,
                                detail::BufferKeyLess{});
    if (pos == seg.buffer.end() || pos->key != key) return nullptr;
    return &*pos;
  }

  // The buffer invariant the merge sizing relies on: a live entry is a
  // pending insert, never a key its page already holds.
  static bool LiveEntriesUnpaged(const SegmentData& seg) {
    return std::none_of(seg.buffer.begin(), seg.buffer.end(),
                        [&](const BufferEntry& e) {
                          return !e.tombstone &&
                                 std::binary_search(seg.keys,
                                                    seg.keys + seg.n, e.key);
                        });
  }

  // Merges `seg`'s buffer into its page — applying pending inserts and
  // dropping tombstoned keys — and re-segments the surviving keys with the
  // shrinking cone, replacing one directory entry with possibly several
  // (paper Sec 4.2.2). A merge that leaves no keys retires the segment.
  void MergeSegment(SegmentData* seg) {
    // Merges are rare and long: always timed (no sampling), so the merge
    // histogram sees every event.
    telemetry::ScopedDuration telem(telemetry::Engine::kBuffered,
                                    telemetry::Op::kMerge);
    telemetry::ScopedPhase phase(telemetry::Engine::kBuffered,
                                 telemetry::Phase::kMergeResegment);
    ++stats_.segment_merges;
    // Each tombstone drops its paged key and each live entry adds a key
    // (live entries are never paged), which sizes the merged page exactly.
    const size_t tombstones = static_cast<size_t>(
        std::count_if(seg->buffer.begin(), seg->buffer.end(),
                      [](const BufferEntry& e) { return e.tombstone; }));
    const size_t n = seg->n + seg->buffer.size() - 2 * tombstones;
    stats_.tombstones_cleared += tombstones;

    // Exact-match floor: the merged segment's directory slot, spliced below
    // once the replacement set is known.
    const size_t fpos = directory_.FloorIndex(seg->first_key);
    assert(fpos != Directory::kNone &&
           directory_.key_at(fpos) == seg->first_key);
    if (n == 0) {
      // Every key of this segment was deleted: retire and free it. Its key
      // range is absorbed by the floor rule (lookups fall to the left
      // neighbor). Swap-and-pop keeps sustained delete/reinsert churn from
      // growing segments_ without bound.
      arena_.Free(seg->keys);
      const size_t slot = seg->slot;
      std::swap(segments_[slot], segments_.back());
      segments_[slot]->slot = static_cast<uint32_t>(slot);
      segments_.pop_back();
      directory_.Splice(fpos, 1, {}, {});
      ++stats_.segments_retired;
      CompactArena();
      return;
    }

    // Merge straight into a block the segment can own: when the cone keeps
    // the merged keys in one model, that block becomes the new page.
    K* block = NewBlock(n, seg);
    V* values = BlockValues(block, n);
    [[maybe_unused]] const size_t merged = detail::MergePageWithBuffer<K, V>(
        seg->keys, seg->values(), seg->n, seg->buffer, block, values);
    assert(merged == n);
    seg->buffer.clear();
    seg->buffer.shrink_to_fit();
    const auto models = SegmentShrinkingCone<K>(
        std::span<const K>(block, n), config_.error, config_.feasibility);
    stats_.segments_created += models.size();
    if (models.size() == 1) {
      SetModel(*seg, models[0]);
      AdoptBlock(*seg, block, n);
      directory_.Splice(fpos, 1, std::span<const K>(&seg->first_key, 1),
                        std::span<SegmentData* const>(&seg, 1));
      CompactArena();
      return;
    }

    // A split: each model copies its range into a block of its own, the
    // first reusing the merged segment's slot, and the merge block goes.
    std::vector<K> new_keys;
    std::vector<SegmentData*> new_ptrs;
    new_keys.reserve(models.size());
    new_ptrs.reserve(models.size());
    for (size_t m = 0; m < models.size(); ++m) {
      SegmentData* target = m == 0 ? seg : NewSegment();
      const Segment<K>& model = models[m];
      SetModel(*target, model);
      StoreBlock(*target, std::span<const K>(block + model.start, model.length),
                 std::span<const V>(values + model.start, model.length));
      new_keys.push_back(model.first_key);
      new_ptrs.push_back(target);
    }
    arena_.Free(block);
    // The replacement models span the same key range in order, so the
    // splice is positional.
    directory_.Splice(fpos, 1, new_keys, new_ptrs);
    CompactArena();
  }

  FitingTreeConfig config_;
  size_t effective_buffer_ = 0;
  SegmentArena arena_;  // every segment's page block
  std::vector<std::unique_ptr<SegmentData>> segments_;
  Directory directory_;
  size_t size_ = 0;
  FitingTreeStats stats_;
};

}  // namespace fitree

#endif  // FITREE_CORE_FITING_TREE_H_
